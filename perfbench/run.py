"""pcubed benchmark: time to a checked answer, and a traced per-layer run.

    python3 perfbench/run.py --workload morita-p11 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  ``--trace 0`` runs the workload as fresh subprocesses, untraced,
until ``--seconds`` have passed (at least once) and reports the end-to-end
metrics.  ``--trace 1`` does the same untraced runs, then one traced run of
the same entry point in process (``traced.py``), and reports the per-layer
metrics.  ``--smoke`` runs the p = 3 size of the workload instead.

Every child's stdout is checked: exit code, the published counts of the
workload, and its sha256 against the digest pinned in ``digests.json``.
``--seed`` draws the children's PYTHONHASHSEED values; the program's inputs
do not depend on it, so every seed must give the pinned digest.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record, with every child run and the
environment, goes to ``perfbench/results/``.
"""

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
DIGESTS = BENCH / "digests.json"

SETUP_PROBES = 15
RUN_BUDGET_S = 170.0  # every run must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
FAMILIES = ("cyclic", "p2xp", "elem_abelian", "heisenberg", "gp")
PER_LAYER_UNITS = {
    "groups.build_s": "s",
    "groups.aut_search_s": "s",
    "groups.automorphisms": "count",
    "groups.subgroup_classes_s": "s",
    **{f"graded_ring.identity_suite_s.p{p}": "s" for p in (3, 5, 7)},
    "graded_ring.checks": "count",
    "h4_models.action_generators_s": "s",
    "h4_models.cross_check_s": "s",
    "orbits.bfs_s": "s",
    **{f"orbits.bfs_s.{fam}": "s" for fam in FAMILIES},
    "orbits.index_s": "s",
    "orbits.states": "count",
    "orbits.states_per_s": "1/s",
    "orbits.peak_alloc_mb": "MB",
    "quadforms.count_classes_s": "s",
    "quadforms.count_classes_s.n3.p13": "s",
    "quadforms.representatives_s": "s",
    "lhs_morita.pages_s": "s",
    "lhs_morita.consistency_s": "s",
    "lhs_morita.edges_s": "s",
    "lhs_morita.union_find_s": "s",
    "lhs_morita.emit_s": "s",
    "lhs_morita.edges": "count",
    "lhs_morita.components": "count",
    "cli.cpu_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


@dataclass
class Child:
    """One finished child process and the checks made on its output."""

    kind: str
    hash_seed: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    sha256: str
    checks: list = field(default_factory=list)


def run_child(kind: str, cmd: list[str], hash_seed: int, timeout: float, stem: Path) -> tuple[Child, str]:
    """Run cmd from the root with the given hash seed; measure it with wait4."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(hash_seed), PYTHONIOENCODING="utf-8")
    out_path, err_path = stem.with_suffix(".stdout"), stem.with_suffix(".stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_bytes()
    child = Child(
        kind=kind,
        hash_seed=hash_seed,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
        returncode=proc.returncode,
        sha256=hashlib.sha256(stdout).hexdigest(),
    )
    if proc.returncode != 0:
        tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
        child.checks.append(("exit_code", False, f"exit {proc.returncode}: {' '.join(tail)}"))
    else:
        child.checks.append(("exit_code", True, "exit 0"))
    return child, stdout.decode("utf-8", errors="replace")


def entry_cmd(workload: Workload, argv: list[str], spans: Path | None = None) -> list[str]:
    if spans is not None:
        return [sys.executable, str(BENCH / "traced.py"), str(spans), workload.entry, *argv]
    if workload.entry == "cli":
        return [sys.executable, "-m", "pcubed.cli", *argv]
    return [sys.executable, str(BENCH / "quadforms_sweep.py"), *argv]


def measure(workload: Workload, size: str, hash_seed: int, digest: str, timeout: float,
            stem: Path, spans: Path | None = None) -> Child:
    """One run of the workload's entry point with every output check applied."""
    kind = "untraced" if spans is None else "traced"
    child, stdout = run_child(kind, entry_cmd(workload, workload.argv(size), spans), hash_seed, timeout, stem)
    child.checks += workload.check(stdout, workload.primes[size])
    child.checks.append(("stdout_sha256", child.sha256 == digest, f"{child.sha256} vs pinned {digest}"))
    return child


def setup_probe(hash_seed: int, timeout: float, stem: Path) -> Child:
    """A fresh interpreter that only imports the CLI: the set-up every run pays."""
    return run_child("setup", [sys.executable, "-c", "import pcubed.cli"], hash_seed, timeout, stem)[0]


def layer_metrics(spans: list[dict], traced_wall: float, untraced_wall: float, cpu_s: float) -> dict:
    """Per-layer metrics from the traced run's spans.

    ``X_s`` is the time inside calls to function X, nested calls of X
    counted once; ``orbits.index_s`` and ``lhs_morita.union_find_s`` are
    self times (span minus its child spans).
    """
    by_id = {s["id"]: s for s in spans}
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]

    def ancestors(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            yield s

    def outermost(name, keep=lambda s: True):
        return [s for s in spans if s["name"] == name and keep(s)
                and all(a["name"] != name for a in ancestors(s))]

    def total(name, keep=lambda s: True):
        return sum(s["end"] - s["start"] for s in outermost(name, keep))

    def self_time(name):
        return sum(s["end"] - s["start"] - covered[s["id"]] for s in spans if s["name"] == name)

    def counter(name, key):
        return sum(s["counters"][key] for s in outermost(name))

    def bfs_family(s):
        parent = by_id.get(s["parent"])
        return parent["counters"].get("family") if parent and parent["name"] == "orbits.enumerate_orbits" else None

    bfs = outermost("orbits.enumerate_orbit_ids")
    bfs_s = total("orbits.enumerate_orbit_ids")
    states = counter("orbits.enumerate_orbit_ids", "states")
    return {
        "groups.build_s": total("groups.build_group"),
        "groups.aut_search_s": total("groups.enumerate_automorphisms"),
        "groups.automorphisms": counter("groups.enumerate_automorphisms", "automorphisms"),
        "groups.subgroup_classes_s": total("groups.normal_abelian_subgroup_classes"),
        **{f"graded_ring.identity_suite_s.p{p}":
           total("graded_ring.verify_identity_suite", lambda s, p=p: s["counters"]["p"] == p)
           for p in (3, 5, 7)},
        "graded_ring.checks": counter("graded_ring.verify_identity_suite", "checks"),
        "h4_models.action_generators_s": total("h4_models.action_generators"),
        "h4_models.cross_check_s": total("h4_models.cross_check_actions"),
        "orbits.bfs_s": bfs_s,
        **{f"orbits.bfs_s.{fam}": sum(s["end"] - s["start"] for s in bfs if bfs_family(s) == fam)
           for fam in FAMILIES},
        "orbits.index_s": self_time("orbits.enumerate_orbits"),
        "orbits.states": states,
        "orbits.states_per_s": states / bfs_s if bfs_s else 0.0,
        "orbits.peak_alloc_mb": max((s["counters"]["peak_alloc_mb"] for s in bfs), default=0.0),
        "quadforms.count_classes_s": total("quadforms.count_congruence_classes"),
        "quadforms.count_classes_s.n3.p13": total(
            "quadforms.count_congruence_classes", lambda s: (s["counters"]["n"], s["counters"]["p"]) == (3, 13)),
        "quadforms.representatives_s": total("quadforms.representatives"),
        "lhs_morita.pages_s": total("lhs_morita.verify_pages"),
        "lhs_morita.consistency_s": total("lhs_morita.consistency_checks"),
        "lhs_morita.edges_s": total("lhs_morita.all_edges"),
        "lhs_morita.union_find_s": self_time("lhs_morita.morita_components"),
        "lhs_morita.emit_s": total("lhs_morita.emit_table"),
        "lhs_morita.edges": counter("lhs_morita.all_edges", "edges"),
        "lhs_morita.components": counter("lhs_morita.morita_components", "components"),
        "cli.cpu_s": cpu_s,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.unattributed_s": traced_wall - sum(s["end"] - s["start"] for s in spans if s["parent"] is None),
    }


def environment(hash_seeds: list[int]) -> dict:
    cpu_model = l3 = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "l3_cache": l3,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "hash_seeds": hash_seeds,
        "git_commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pcubed benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="run the p = 3 size of the workload")
    args = parser.parse_args(argv)

    if not (SRC / "pcubed" / "cli.py").is_file():
        print(f"perfbench: no pcubed source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    started = time.perf_counter()
    deadline = lambda: started + RUN_BUDGET_S - time.perf_counter()  # noqa: E731
    workload = WORKLOADS[args.workload]
    size = "smoke" if args.smoke else "full"
    digest = json.loads(DIGESTS.read_text())[workload.name][size]
    tag = f"{workload.name}{'-smoke' if args.smoke else ''}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / tag
    compileall.compile_dir(str(SRC), quiet=2)

    rng = random.Random(args.seed)
    draw = lambda: rng.randrange(2**32)  # noqa: E731
    children: list[Child] = []
    if not args.trace:
        children += [setup_probe(draw(), deadline(), stem) for _ in range(SETUP_PROBES)]
    untraced: list[Child] = []
    loop_start = time.perf_counter()
    while not untraced or time.perf_counter() - loop_start < args.seconds:
        if untraced and deadline() < 2 * untraced[-1].wall_s:
            break
        untraced.append(measure(workload, size, draw(), digest, deadline(), stem))
        print(f"{workload.name}: run {len(untraced)} wall {untraced[-1].wall_s:.3f} s", flush=True)
    children += untraced

    wall_s = statistics.median(c.wall_s for c in untraced)
    cpu_s = statistics.median(c.cpu_s for c in untraced)
    if args.trace:
        spans_path = stem.with_suffix(".spans.jsonl")
        spans_path.unlink(missing_ok=True)
        traced = measure(workload, size, draw(), digest, deadline(), stem, spans=spans_path)
        traced.checks.append(("trace.same_output", traced.sha256 == untraced[0].sha256, "traced vs untraced digest"))
        children.append(traced)
        spans = [json.loads(line) for line in spans_path.read_text().splitlines()] if spans_path.exists() else []
        values = layer_metrics(spans, traced.wall_s, wall_s, cpu_s)
        units = PER_LAYER_UNITS
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": statistics.median(c.wall_s for c in children if c.kind == "setup"),
            "peak_rss_mb": statistics.median(c.peak_rss_mb for c in untraced),
        }
        units = END_TO_END_UNITS
    digests = {c.sha256 for c in children if c.kind != "setup"}
    seed_check = ("seed_independence", len(digests) == 1, f"{len(digests)} distinct stdout digests")
    checks = [chk for c in children for chk in c.checks] + [seed_check]
    failed = [chk for chk in checks if not chk[1]]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    for name, ok, detail in failed:
        print(f"FAIL {name}: {detail}")
    print(f"{workload.name}: {len(untraced)} untraced runs, failed_frac {len(failed) / len(checks):.4f} "
          f"({len(failed)} of {len(checks)} checks)")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    record = {
        "workload": workload.name,
        "size": size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment([c.hash_seed for c in children]),
        "children": [vars(c) for c in children],
        "metrics": metrics,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"correct": not failed, "attempted": len(checks), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
