#!/usr/bin/env python3
"""Estimator recovery study across sample sizes.

Draws covariates uniform on (-2, 2), simulates dependent-trials counts at
the true coefficients, refits every replication, and reports bias and
standard error per coefficient. Defaults mirror the shipped acceptance
study: Theta = (-1, 1, 2, 1, 0, -1), N = 10, 20 replications.

Usage:
    python3 scripts/run_simulation_study.py --n 100 400
    python3 scripts/run_simulation_study.py --n 400 --replications 50 --out study.json
"""
import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fbreg.simulate import SimSpec, run_study


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--theta",
        default="-1,1,2,1,0,-1",
        help="true coefficients, comma-separated, length 3k",
    )
    parser.add_argument(
        "--n", type=int, nargs="+", default=[100, 400], help="sample sizes to sweep"
    )
    parser.add_argument("--N", type=int, default=10, help="trials per observation")
    parser.add_argument("--replications", type=int, default=20)
    parser.add_argument("--k", type=int, default=2, help="number of covariates")
    parser.add_argument("--box", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=None, help="write all reports as JSON")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    theta = tuple(float(v) for v in args.theta.split(","))
    reports = []
    for n in args.n:
        spec = SimSpec(
            theta_true=theta,
            n=n,
            N=args.N,
            replications=args.replications,
            k=args.k,
            box=args.box,
            seed=args.seed,
        )
        report = run_study(spec)
        reports.append(report)
        print(report.text_table())
        print()
    if len(reports) == 2 and all(r.se for r in reports):
        first, second = sorted(reports, key=lambda r: r.spec.n)
        shrunk = sum(b < a for a, b in zip(first.se, second.se))
        print(
            f"s.e. shrank from n={first.spec.n} to n={second.spec.n} "
            f"for {shrunk} of {len(first.se)} coefficients"
        )
    if args.out is not None:
        doc = {"reports": [r.to_json_dict() for r in reports]}
        args.out.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
