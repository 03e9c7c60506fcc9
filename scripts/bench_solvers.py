#!/usr/bin/env python3
"""Benchmark SVD solvers on a synthetic directed-graph kernel.

Writes bench.csv (one row per solver and epsilon) plus a manifest, then
prints the wall-time table. The accuracy reference is the full LAPACK SVD
up to 600 nodes and a top-r truncated SVD above that.
"""
import argparse
import csv

from aksvd.config import build_config
from aksvd.pipeline import run_bench


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1000, help="graph size")
    ap.add_argument("--kind", default="two_block",
                    choices=("cycle", "two_block", "random_dag"))
    ap.add_argument("--rank", type=int, default=8)
    ap.add_argument("--gamma", type=float, default=None)
    ap.add_argument("--epsilons", default="0.1,0.01")
    ap.add_argument("--solvers", default="tsvd,rsvd,asym_nystrom")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="results/bench")
    args = ap.parse_args()

    overrides = {
        "dataset.format": "synth",
        "dataset.synth_kind": args.kind,
        "dataset.synth_n": str(args.n),
        "rank": str(args.rank),
        "bench.epsilons": args.epsilons,
        "bench.solvers": args.solvers,
        "bench.repeats": str(args.repeats),
        "seed": str(args.seed),
        "out": args.out,
    }
    if args.gamma is not None:
        overrides["kernel.gamma"] = str(args.gamma)
    out = run_bench(build_config(overrides=overrides))

    with open(out / "bench.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    header = f"{'solver':>14} {'eps':>8} {'m_used':>7} {'eta':>10} " \
             f"{'wall_s':>10} {'speedup':>8} status"
    print(header)
    for row in rows:
        print(f"{row['solver']:>14} {float(row['epsilon']):>8.2g} "
              f"{row['m_used']:>7} {float(row['eta']):>10.2e} "
              f"{float(row['wall_time_s']):>10.4g} "
              f"{row['speedup'] or '-':>8} {row['status']}")
    print(f"\nwrote {out / 'bench.csv'}")


if __name__ == "__main__":
    main()
