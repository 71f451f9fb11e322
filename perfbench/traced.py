"""Traced run: one workload's entry point, in process, with spans around each layer.

    PYTHONPATH=src python3 perfbench/traced.py SPANS_FILE cli morita -p 3 --format json
    PYTHONPATH=src python3 perfbench/traced.py SPANS_FILE sweep --primes 3

The layers' public functions are wrapped where their callers look them up: at
every attribute of a ``pcubed`` module (and of the entry module) that holds
the original function, so ``from .orbits import enumerate_orbits`` in the CLI
and plain calls inside ``orbits`` both reach the wrapper.  The entry point then
runs exactly as the untraced child runs it, and writes the same stdout.

Spans are kept in memory and written as JSON lines to SPANS_FILE at the end:
``{id, name, parent, start, end, counters}``.  The orbit BFS also records
``peak_alloc_mb``, the resident-set growth over the call sampled every 5 ms.
tracemalloc is not used for it: it slows the BFS seed scan about fivefold
(0.97 s to 4.95 s for the elementary-abelian model at p = 7).
"""

import contextlib
import functools
import importlib
import inspect
import json
import math
import os
import sys
import threading
import time

LAYERS = {
    "groups": ("build_group", "enumerate_automorphisms", "normal_abelian_subgroup_classes"),
    "graded_ring": ("verify_identity_suite",),
    "h4_models": ("action_generators", "cross_check_actions"),
    "orbits": ("enumerate_orbit_ids", "enumerate_orbits"),
    "quadforms": ("count_congruence_classes", "representatives"),
    "lhs_morita": ("verify_pages", "consistency_checks", "all_edges", "morita_components", "emit_table"),
}

# span name -> counters taken from the bound arguments and the result
COUNTERS = {
    "groups.enumerate_automorphisms": lambda a, r: {"automorphisms": len(r)},
    "graded_ring.verify_identity_suite": lambda a, r: {"p": a["p"], "checks": len(r)},
    "orbits.enumerate_orbits": lambda a, r: {"family": a["model"].family.value},
    "orbits.enumerate_orbit_ids": lambda a, r: {"states": math.prod(int(m) for m in a["moduli"])},
    "quadforms.count_congruence_classes": lambda a, r: {"n": a["n"], "p": a["p"]},
    "lhs_morita.all_edges": lambda a, r: {"edges": len(r)},
    "lhs_morita.morita_components": lambda a, r: {"components": len(r.components)},
}

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


class RssPeak:
    """Highest resident-set growth of this process while the block runs."""

    def __enter__(self):
        self.base = self.peak = _rss_bytes()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def _sample(self):
        while not self._stop.wait(0.005):
            self.peak = max(self.peak, _rss_bytes())

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, _rss_bytes())
        return False

    def counters(self) -> dict:
        return {"peak_alloc_mb": (self.peak - self.base) / 2**20}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        counters = COUNTERS.get(name)
        sample_rss = name == "orbits.enumerate_orbit_ids"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "parent": self._open[-1] if self._open else None,
                    "start": 0.0, "end": 0.0, "counters": {}}
            self.spans.append(span)
            self._open.append(span["id"])
            try:
                with RssPeak() if sample_rss else contextlib.nullcontext() as probe:
                    span["start"] = time.perf_counter()
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        span["end"] = time.perf_counter()
            finally:
                self._open.pop()
            if counters:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counters"] = counters(bound.arguments, result)
            if probe:
                span["counters"].update(probe.counters())
            return result

        return traced

    def install(self, entry_module) -> None:
        wrappers = {}
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"pcubed.{layer}")
            for fname in names:
                fn = getattr(module, fname)
                wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{fname}", fn))
        modules = [m for n, m in sys.modules.items() if n == "pcubed" or n.startswith("pcubed.")]
        for module in modules + [entry_module]:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit and hit[0] is value:
                    setattr(module, attr, hit[1])

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def main() -> int:
    spans_path, entry, *argv = sys.argv[1:]
    module = importlib.import_module("pcubed.cli" if entry == "cli" else "quadforms_sweep")
    tracer = Tracer()
    tracer.install(module)
    try:
        return module.main(argv)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
