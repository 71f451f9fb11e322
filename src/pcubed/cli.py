"""Command-line front end: orbit tables, Morita tables, quadratic forms, verification.

classify, morita and verify build their orbit indices in ``_orbit_indices``
(under --max-states, with verify's --corrupt applied), and every pass or fail
is a ``CheckResult``.  ``_count_checks`` judges each family's orbit count
against the published one in ``published``: verify prints those checks, and
classify marks a failed one MISMATCH and, under --check, exits 1 on it.
``_congruence_counts`` reads verify's congruence class counts off the same
indices: the orbits on which a twist coordinate of the G_p, Heisenberg or
(Z/p)^3 model is 0 are the classes of quadratic forms of rank <= 1, 2 or 3.

Exit codes: 0 on success, 1 when a --check assertion or verification fails,
2 on every usage error, argparse's included, and on an -o path or stdout that
cannot be opened, written or closed; each is one ``pcubed: <message>`` line on
stderr.
"""

import argparse
import contextlib
import csv
import io
import json
import os
import sys
from collections import Counter

from . import published
from .graded_ring import verify_identity_suite
from .groups import FAMILIES, Family, build_group, center, enumerate_automorphisms, normal_abelian_subgroup_classes
from .h4_models import action_generators, cross_check_actions, h4_model
from .lhs_morita import consistency_checks, emit_table, morita_components, morita_count_checks, verify_pages
from .modular import is_prime
from .orbits import DEFAULT_MAX_STATES, OrbitIndex, enumerate_orbits, orbit_rows, require_state_space
from .quadforms import congruence_invariant, representatives, select_h
from .report import CheckResult, render


class _NotDecimal(ValueError, argparse.ArgumentTypeError):
    """A ValueError that argparse reports by its message, not by the type function's name."""


def _decimal(text: str) -> int:
    """A command-line integer: ASCII digits only, so no sign, space, underscore or empty string."""
    if not (text.isascii() and text.isdigit()):
        raise _NotDecimal(f"not a decimal integer: {text!r}")
    return int(text)


def _parse_primes(text: str) -> list[int]:
    """The -p list of every subcommand: comma-separated odd primes."""
    if not text:
        raise ValueError("empty prime list")
    try:
        primes = [_decimal(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"bad prime list {text!r}") from None
    bad = [p for p in primes if p == 2 or not is_prime(p)]
    if bad:
        raise ValueError(f"-p takes odd primes only, got {', '.join(map(str, bad))}")
    repeated = sorted(p for p, count in Counter(primes).items() if count > 1)
    if repeated:
        raise ValueError(f"-p takes each prime once, got {', '.join(map(str, repeated))} more than once")
    return primes


def _parse_corrupt(spec: str, p: int) -> tuple[Family, int, int]:
    """The --corrupt 'family:row:col' spec, with row and col inside the model."""
    try:
        name, row, col = spec.split(":")
        fam, row, col = Family.parse(name), _decimal(row), _decimal(col)
    except ValueError:
        raise ValueError(f"--corrupt takes family:row:col, got {spec!r}") from None
    k = len(h4_model(fam, p).basis)
    if not (0 <= row < k and 0 <= col < k):
        raise ValueError(f"--corrupt row and col for {fam.value} must be in 0..{k - 1}, got {row}:{col}")
    return fam, row, col


def _open_output(path: str | None):
    """The -o file, opened (and emptied) after every usage check and before any
    computation, so a usage error leaves no new file and an existing one as it
    was, a bad path fails at once, and a run that fails later leaves it empty."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w")


def _write(args, text: str) -> None:
    """Write the text, newline-terminated, and flush it; each command writes once."""
    args.out.write(text if text.endswith("\n") else text + "\n")
    args.out.flush()


def cmd_classify(args) -> int:
    checks = []
    out = []
    payload = []
    for p in args.primes:
        indices = _orbit_indices(args, p)
        counts = _count_checks(p, indices)
        checks += counts
        payload += [{"p": p, "family": fam.value, "orbits": orbit_rows(index)} for fam, index in indices.items()]
        for (fam, index), check in zip(indices.items(), counts):
            mark = "" if check.ok else f"  MISMATCH (expected {published.orbit_count(fam, p)})"
            out.append(f"p={p}  {fam.value:<13} {len(index.orbits):>4} orbits{mark}")
        if len(indices) == len(FAMILIES):
            # the total is wrong only when a family's count is, so it adds no check of its own
            total = sum(len(index.orbits) for index in indices.values())
            mark = "" if total == sum(published.orbit_count(fam, p) for fam in FAMILIES) else "  MISMATCH"
            out.append(f"p={p}  total         {total:>4} = 6*{p}+43{mark}")
        del indices, index  # this prime's orbit indices, before the next prime's BFS
    if args.format == "json":
        _write(args, json.dumps(payload, indent=2))
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["family", "p", "orbit", "rep_coeffs", "rep_label", "size"])
        for r in (row for entry in payload for row in entry["orbits"]):
            writer.writerow(
                [r["family"], r["p"], r["orbit"], " ".join(map(str, r["rep_coeffs"])), r["rep_label"], r["size"]]
            )
        _write(args, buf.getvalue())
    else:
        _write(args, "\n".join(out))
    return int(args.check and not all(c.ok for c in checks))


def cmd_morita(args) -> int:
    checks = []
    chunks = []
    for p in args.primes:
        graph = morita_components(p, indices=_orbit_indices(args, p))
        table = emit_table(graph, fmt=args.format)
        expected = sum(published.morita_histogram(p).values())
        summary = (
            f"p={p}: {len(graph.components)} Morita classes (expected {expected}), "
            f"size histogram {dict(sorted(graph.size_histogram().items()))}"
        )
        if args.format == "md":
            chunks.append(f"## p = {p}\n\n{table}\n{summary}\n")
        else:
            chunks.append(table)
        checks += morita_count_checks(graph)
        del graph  # this prime's orbit indices, before the next prime's BFS
    _write(args, "\n".join(chunks))
    return int(args.check and not all(c.ok for c in checks))


def cmd_quadforms(args) -> int:
    n = args.n or 3  # -n has no argparse default: the exclusive group lets `-n 3 --which-h` pass if 3 is it
    blocks = []
    for p in args.primes:
        if args.which_h:
            prefix = f"p={p}: " if len(args.primes) > 1 else ""
            blocks.append(f"{prefix}h = {select_h(p)}")
            continue
        reps = representatives(n, p)
        lines = [f"{len(reps)} congruence classes of rank <= {n} over F_{p}:"]
        for q in reps:
            inv = congruence_invariant(q)
            diag = [q.matrix[i][i] for i in range(q.n)]
            lines.append(f"  diag{tuple(diag)}  rank={inv.rank}  disc={inv.disc_class}")
        blocks.append("\n".join(lines))
    _write(args, ("\n" if args.which_h else "\n\n").join(blocks))
    return 0


def _corrupt_generators(fam: Family, p: int, row: int, col: int):
    """The action generators with entry (row, col) of the first one raised by 1."""
    gens = action_generators(fam, p)
    mat = [list(r) for r in gens[0]]
    mat[row][col] = (mat[row][col] + 1) % h4_model(fam, p).moduli[row]
    return (tuple(map(tuple, mat)),) + gens[1:]


def _orbit_indices(args, p: int) -> dict[Family, OrbitIndex]:
    """The orbit index at p of each selected family, under --max-states; verify's
    --corrupt family is built from its perturbed action generators."""
    corrupt = getattr(args, "corrupt", None)  # (family, row, col), parsed in main, or None
    indices = {}
    for fam in args.families:
        gens = _corrupt_generators(fam, p, *corrupt[1:]) if corrupt and fam is corrupt[0] else None
        indices[fam] = enumerate_orbits(h4_model(fam, p), gens, max_states=args.max_states)
    return indices


def _count_checks(p: int, indices) -> list[CheckResult]:
    """Each family's orbit count against the published one."""
    return [
        CheckResult(f"counts.{fam.value}.p{p}", len(index.orbits) == published.orbit_count(fam, p),
                    f"{len(index.orbits)} orbits")
        for fam, index in indices.items()
    ]


# per form dimension n, the model and the basis class of its twist coordinate:
# the action fixes the coordinate, and on the states where it is 0 it is the
# congruence action of GL(n, p) on the quadratic coordinates (with the scalars
# for (Z/p)^3), so the orbits there are the congruence classes of rank <= n
_TWISTS = {1: (Family.GP, "gamma^2"), 2: (Family.HEISENBERG, "chi"), 3: (Family.ELEM_ABELIAN, "b(x1x2x3)")}


def _congruence_counts(indices) -> dict[int, int]:
    """The number of congruence classes of rank <= n forms, per n, read off the
    orbit indices: the orbits whose representative has its twist coordinate 0,
    which then holds on the whole orbit."""
    counts = {}
    for n, (fam, label) in _TWISTS.items():
        col = indices[fam].model.basis.index(label)
        counts[n] = sum(orbit.rep.coeffs[col] == 0 for orbit in indices[fam].orbits)
    return counts


def _orbit_checks(p: int, indices) -> list[CheckResult]:
    """What verify checks on the orbit indices: the per-family orbit counts, then
    the Morita class counts and the consistency checks of their graph."""
    graph = morita_components(p, indices=indices)
    return _count_checks(p, indices) + morita_count_checks(graph) + consistency_checks(graph)


def cmd_verify(args) -> int:
    blocks, ok = [], True
    for p in args.primes:
        checks = list(verify_identity_suite(p))
        for fam in FAMILIES:
            checks += cross_check_actions(fam, p)
        checks += verify_pages(p)
        indices = _orbit_indices(args, p)
        checks += _orbit_checks(p, indices)
        classes = _congruence_counts(indices)
        del indices  # this prime's orbit indices, before the group oracles and the next prime's BFS
        for n in (1, 2, 3):
            reps_n = representatives(n, p)
            invs = {congruence_invariant(q) for q in reps_n}
            # the representatives number 2n + 1 by construction; the class count read off the orbits need not
            agree = len(reps_n) == len(invs) == classes[n] == published.congruence_class_count(n)
            checks.append(CheckResult(f"quadforms.classes.n{n}.p{p}", agree, f"{len(reps_n)} representatives"))
        if p == 3:
            checks += _group_oracles(p)
        blocks.append(render(f"verification at p = {p}", checks))
        ok &= all(c.ok for c in checks)
    _write(args, "\n\n".join(blocks))
    return 0 if ok else 1


def _group_oracles(p: int) -> list[CheckResult]:
    """Brute-force group checks at p = 3, where Aut(G) is enumerated in full."""
    auts = {fam: enumerate_automorphisms(build_group(fam, p)) for fam in FAMILIES}
    checks = [
        CheckResult(f"groups.aut_order.{fam.value}.p{p}", len(aut) == published.aut_order(fam, p),
                    f"|Aut| = {len(aut)}")
        for fam, aut in auts.items()
    ]
    H = build_group(Family.HEISENBERG, p)
    zc = center(H)
    checks.append(CheckResult("groups.center.heisenberg.p3", zc == H.closure([H.gen_names["C"]]), f"|Z| = {len(zc)}"))
    for fam in FAMILIES:
        classes = normal_abelian_subgroup_classes(build_group(fam, p), automorphisms=auts[fam])
        words = "; ".join(",".join(c.generator_words) for c in classes)
        ok = len(classes) == published.subgroup_class_count(fam)
        checks.append(CheckResult(f"groups.subgroup_classes.{fam.value}.p{p}", ok, f"{len(classes)} classes: {words}"))
    return checks


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors leave through main's one-line path, not a usage banner."""

    def error(self, message):
        raise ValueError(message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="pcubed",
        description="Classify pointed fusion categories of global dimension p^3.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, *fmt_choices):
        """-p and -o everywhere; --format, defaulting to its first choice, where there is a choice."""
        sp.add_argument("-p", "--primes", default="3", help="comma list of odd primes")
        if fmt_choices:
            sp.add_argument("--format", choices=fmt_choices, default=fmt_choices[0])
        sp.add_argument("-o", "--output", help="write output to a file instead of stdout")

    sp = sub.add_parser("classify", help="per-family orbit counts and totals (md), or one row per orbit (json, csv)")
    common(sp, "md", "json", "csv")
    sp.add_argument("--family", help="restrict to one family")
    sp.add_argument("--check", action="store_true", help="exit nonzero on count mismatches")
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("morita", help="merged weak-Morita tables")
    common(sp, "md", "csv", "json")
    sp.add_argument("--check", action="store_true")
    sp.set_defaults(fn=cmd_morita)

    sp = sub.add_parser("verify", help="run the full verification report")
    common(sp)
    sp.add_argument(
        "--corrupt",
        help="negative control: 'family:row:col' perturbs one action-matrix entry",
    )
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("quadforms", help="congruence classes of quadratic forms")
    common(sp)
    which = sp.add_mutually_exclusive_group()
    which.add_argument("-n", type=_decimal, choices=(1, 2, 3), help="form dimension, default 3")
    which.add_argument("--which-h", action="store_true", help="print the h selection")
    sp.set_defaults(fn=cmd_quadforms)

    for name in ("classify", "morita", "verify"):  # the subcommands that enumerate orbits
        sub.choices[name].add_argument(
            "--max-states", type=_decimal, default=DEFAULT_MAX_STATES, help="orbit state-space bound"
        )

    try:
        args = parser.parse_args(argv)
        # every usage check, then the -o file, then the work; an empty option value is a value
        args.primes = _parse_primes(args.primes)
        family = getattr(args, "family", None)
        args.families = FAMILIES if family is None else (Family.parse(family),)
        if getattr(args, "corrupt", None) is not None:
            args.corrupt = _parse_corrupt(args.corrupt, args.primes[0])
        if "max_states" in args:  # refuse a model that cannot fit
            for p in args.primes:
                for fam in args.families:
                    require_state_space(h4_model(fam, p).moduli, args.max_states)
        try:
            with _open_output(args.output) as args.out:
                return args.fn(args)
        except OSError as exc:  # opening, writing or closing the output
            if args.output is None:  # stdout's buffer keeps the text, and its flush at exit would fail again
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            where = "stdout" if args.output is None else args.output
            raise ValueError(f"cannot write {where}: {exc.strerror}") from None
    except ValueError as exc:
        # argparse echoes unknown arguments, and the -o message its path, as given: escape their newlines
        print("pcubed: " + str(exc).replace("\n", "\\n"), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
