#!/usr/bin/env python3
"""Seed-balance self-test of the perfbench workloads.

Run from the repository root:

    python3 perfbench/selftest.py [--seconds 20] [WORKLOAD ...]

For each workload (default: all) the traced worker runs twice with one seed
and once with another.  The deterministic work counters it reports
(scf.iterations, rgf.spectra_energies, mna.transient_steps,
mna.newton_iterations, per-kind request counts, ...) must be identical for
the same seed and within 1% across seeds, so the seed never changes how much
work a run does.  Every pass must also pass its own output checks.  Exits 1
on any violation.
"""

import argparse
import sys

import run as bench

SEED_A, SEED_B = 101, 202
TOLERANCE = 0.01


def close(x, y):
    return abs(x - y) <= TOLERANCE * max(abs(x), abs(y))


def check(workload, seconds):
    passes = [bench.worker(workload, seed, seconds, True) for seed in (SEED_A, SEED_A, SEED_B)]
    problems = []
    for p in passes:
        correct, _, failed, errors = bench.checked(workload, p)
        if not correct:
            problems.append(f"seed {p.result['seed']}: {failed} failed, {errors}")
    a1, a2, b = (p.result["work"] for p in passes)
    if a1 != a2:
        problems.append(f"same seed, different work: {a1} vs {a2}")
    for name in sorted(a1):
        if not close(a1[name], b.get(name, 0)):
            problems.append(f"{name}: seed {SEED_A} {a1[name]} vs seed {SEED_B} {b.get(name, 0)}")
    print(f"{workload}: {'ok' if not problems else 'FAIL'} {a1}")
    for msg in problems:
        print(f"  {msg}")
    return not problems


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("workloads", nargs="*", default=list(bench.WORKLOADS))
    args = ap.parse_args(argv)
    try:
        bench.build()
        ok = all([check(w, args.seconds) for w in args.workloads])
    except bench.BenchError as e:
        print(f"selftest: {e}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
