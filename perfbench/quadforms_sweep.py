"""Library sweep of the quadforms-p13 workload.

Counts the congruence classes of quadratic forms of rank <= n over F_p with
``pcubed.quadforms.count_congruence_classes`` for n in 1, 2, 3 and every
prime given, one ``n=.. p=.. classes=..`` line each.  The ``pcubed quadforms``
subcommand only prints fixed representatives, so this sweep is the way to
exercise the class count on the shared orbit engine.

    PYTHONPATH=src python3 perfbench/quadforms_sweep.py --primes 3,5,7,11,13
"""

import argparse
import sys

from pcubed import quadforms
from workloads import SWEEP_DIMS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--primes", required=True, help="comma list of odd primes")
    args = parser.parse_args(argv)
    for p in (int(tok) for tok in args.primes.split(",")):
        for n in SWEEP_DIMS:
            sys.stdout.write(f"n={n} p={p} classes={quadforms.count_congruence_classes(n, p)}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
