"""The benchmark's workloads: what each one runs and how its output is checked.

Each workload has a full size, the one the benchmark measures, and a smoke
size at p = 3 that the benchmark's own tests use.  A check is a
``(name, ok, detail)`` triple; the exit code and the stdout digest are checked
by the caller, so the functions here only read the published counts.
"""

import json
import re
from dataclasses import dataclass
from typing import Callable

Check = tuple[str, bool, str]


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # "cli" runs pcubed.cli.main, "sweep" runs quadforms_sweep.main
    args: dict[str, tuple[str, ...]]  # size -> argv of the entry point
    primes: dict[str, tuple[int, ...]]  # size -> primes the output must cover
    check: Callable[[str, tuple[int, ...]], list[Check]]

    def argv(self, size: str) -> list[str]:
        return list(self.args[size])


def _plist(primes) -> str:
    return ",".join(map(str, primes))


def check_morita(stdout: str, primes) -> list[Check]:
    """5p+32 components, 6p+43 members and p+9 components of size 2, per p.

    ``morita --format json`` prints one JSON document per prime, one after
    the other, so the stream is split with ``raw_decode``.
    """
    decoder = json.JSONDecoder()
    docs = {}
    pos = 0
    try:
        while True:
            while pos < len(stdout) and stdout[pos].isspace():
                pos += 1
            if pos == len(stdout):
                break
            doc, pos = decoder.raw_decode(stdout, pos)
            docs[doc["p"]] = doc
    except (ValueError, KeyError, TypeError) as exc:
        return [("morita.parse", False, f"stdout is not a stream of JSON tables: {exc}")]
    checks = []
    for p in primes:
        doc = docs.get(p)
        sizes = [len(c["members"]) for c in doc["components"]] if doc else []
        checks += [
            (f"morita.components.p{p}", len(sizes) == 5 * p + 32, f"{len(sizes)} components, expected {5 * p + 32}"),
            (f"morita.members.p{p}", sum(sizes) == 6 * p + 43, f"{sum(sizes)} members, expected {6 * p + 43}"),
            (f"morita.pairs.p{p}", sizes.count(2) == p + 9, f"{sizes.count(2)} of size 2, expected {p + 9}"),
        ]
    return checks


_REPORT = re.compile(r"^== verification at p = (\d+) ==$(.*?)^-- (\d+) checks, (\d+) failed$", re.M | re.S)


def check_verify(stdout: str, primes) -> list[Check]:
    """A ``-- N checks, 0 failed`` footer for every prime, with N check lines above it."""
    reports = {int(m[1]): m for m in _REPORT.finditer(stdout)}
    checks = []
    for p in primes:
        m = reports.get(p)
        if m is None:
            checks.append((f"verify.report.p{p}", False, "no report"))
            continue
        n, failed = int(m[3]), int(m[4])
        listed = sum(1 for line in m[2].splitlines() if line.startswith(("PASS  ", "FAIL  ")))
        checks.append((f"verify.report.p{p}", failed == 0 and n == listed and n > 0, f"{n} checks, {failed} failed"))
    return checks


_CLASSES = re.compile(r"^n=(\d+) p=(\d+) classes=(\d+)$", re.M)


def check_quadforms(stdout: str, primes) -> list[Check]:
    """2n+1 congruence classes for every (n, p) of the sweep."""
    found = {(int(n), int(p)): int(c) for n, p, c in _CLASSES.findall(stdout)}
    checks = []
    for p in primes:
        for n in SWEEP_DIMS:
            got = found.get((n, p))
            checks.append((f"quadforms.classes.n{n}.p{p}", got == 2 * n + 1, f"{got} classes, expected {2 * n + 1}"))
    return checks


SWEEP_DIMS = (1, 2, 3)
FULL_PRIMES = (3, 5, 7, 11)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "morita-p11",
            "cli",
            {size: ("morita", "-p", _plist(ps), "--format", "json", "--check")
             for size, ps in (("full", FULL_PRIMES), ("smoke", (3,)))},
            {"full": FULL_PRIMES, "smoke": (3,)},
            check_morita,
        ),
        Workload(
            "verify-p7",
            "cli",
            {"full": ("verify", "-p", "3,5,7"), "smoke": ("verify", "-p", "3")},
            {"full": (3, 5, 7), "smoke": (3,)},
            check_verify,
        ),
        Workload(
            "quadforms-p13",
            "sweep",
            {"full": ("--primes", "3,5,7,11,13"), "smoke": ("--primes", "3")},
            {"full": (3, 5, 7, 11, 13), "smoke": (3,)},
            check_quadforms,
        ),
    )
}
