"""Command-line front end.

Subcommands: pmf, fit, compare, vuong, simulate, profile.  Every artifact
embeds the tool version and enough resolved configuration (dataset digest,
seed, optimizer settings) to re-run bit-identically.  Exit codes: 0 success,
2 usage or validation problem, 3 fit did not converge (artifact still
written), 4 I/O failure.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .compare import comparison_report, comparison_table, profile_distribution, vuong_test
from .data import ColumnSpec, DataError, Dataset, load_csv
from .fitting import FitConfig, FitError, FitResult, fit
from .frbinom import (
    FbParamsNatural,
    FeasibilityError,
    pmf,
    to_constrained,
    variance_asymptotic,
    variance_exact,
)
from .likelihood import MODELS
from .simulate import SimSpec, run_study

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_CONVERGED = 3
EXIT_IO = 4


def _json_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _emit(args, renderings: dict[str, str]) -> None:
    """Write the --format rendering to --out (or stdout); with --out the
    human rendering still goes to stdout."""
    chosen = renderings[args.format]
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(chosen)
        human = renderings.get("table") or renderings.get("csv")
        if human:
            sys.stdout.write(human if human.endswith("\n") else human + "\n")
    else:
        sys.stdout.write(chosen if chosen.endswith("\n") else chosen + "\n")


def _parse_covariate(text: str) -> ColumnSpec:
    parts = text.split(":")
    if len(parts) not in (2, 3) or not parts[0]:
        raise DataError(
            f"covariate spec {text!r} is not of the form name:kind[:reference]"
        )
    name, kind = parts[0], parts[1]
    if kind not in ("numeric", "categorical"):
        raise DataError(f"covariate kind must be numeric or categorical, got {kind!r}")
    ref = parts[2] if len(parts) == 3 else None
    if ref is not None and kind != "categorical":
        raise DataError(f"reference level given for numeric covariate {name!r}")
    return ColumnSpec(name, kind, reference_level=ref)


def _dataset_from_args(args) -> Dataset:
    specs = [_parse_covariate(c) for c in (args.covariate or [])]
    return load_csv(
        args.input,
        response_column=args.response,
        column_specs=specs,
        N=getattr(args, "N", None),
    )


def _load_fit_artifact(path: str) -> FitResult:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("artifact") != "fit_result":
        raise DataError(f"{path} is not a fit artifact")
    return FitResult.from_json_dict(doc)


def cmd_pmf(args) -> int:
    natural = FbParamsNatural(p=args.p, H=args.H, c_circ=args.c0)
    params = to_constrained(natural)
    table = pmf(args.N, params)
    var = variance_exact(args.N, params)
    var_asym = variance_asymptotic(args.N, params)
    doc = {
        "artifact": "pmf",
        "tool_version": __version__,
        "N": args.N,
        "params": {"p": args.p, "H": args.H, "c_circ": args.c0, "c": params.c},
        "probabilities": [float(v) for v in table.probs],
        "mean": args.N * args.p,
        "variance": var,
        "variance_asymptotic": var_asym,
        "raw_min": table.raw_min,
    }
    lines = [
        f"pmf of B_N  N={args.N}  p={args.p}  H={args.H}  c0={args.c0}  (c={params.c:.6g})",
        f"{'k':>4s}  probability",
    ]
    for k, v in enumerate(table.probs):
        lines.append(f"{k:4d}  {v:.10f}")
    lines += [
        "",
        f"mean                 {args.N * args.p:.6f}",
        f"variance             {var:.6f}",
        f"variance (growth law) {var_asym:.6f}",
    ]
    csv_lines = ["k,probability"] + [
        f"{k},{v:.17g}" for k, v in enumerate(table.probs)
    ]
    _emit(
        args,
        {
            "json": _json_text(doc),
            "table": "\n".join(lines) + "\n",
            "csv": "\n".join(csv_lines) + "\n",
        },
    )
    return EXIT_OK


def cmd_fit(args) -> int:
    dataset = _dataset_from_args(args)
    config = FitConfig(n_starts=args.starts, box=args.box, seed=args.seed)
    result = fit(args.model, dataset, config, N=args.N)
    doc = result.to_json_dict()
    _emit(
        args,
        {
            "json": _json_text(doc),
            "table": result.coefficient_table() + "\n",
        },
    )
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def cmd_compare(args) -> int:
    dataset = _dataset_from_args(args)
    results = [_load_fit_artifact(p) for p in args.fit]
    report = comparison_report(results, dataset)
    report["invocation"] = {"input": args.input, "fits": list(args.fit)}
    _emit(
        args,
        {
            "json": _json_text(report),
            "table": comparison_table(report) + "\n",
        },
    )
    return EXIT_OK


def cmd_vuong(args) -> int:
    dataset = _dataset_from_args(args)
    a, b = (_load_fit_artifact(p) for p in args.fit)
    res = vuong_test(a, b, dataset)
    doc = res.to_json_dict()
    doc.update(
        {
            "artifact": "vuong",
            "tool_version": __version__,
            "dataset_digest": dataset.digest(),
        }
    )
    if res.identical_models:
        text = f"{res.model_a} vs {res.model_b}: models are observationally identical\n"
    else:
        text = (
            f"{res.model_a} vs {res.model_b}: statistic {res.statistic:.4f}, "
            f"one-sided p {res.p_value:.4f} (n={res.n})\n"
        )
    _emit(args, {"json": _json_text(doc), "table": text})
    return EXIT_OK


def cmd_simulate(args) -> int:
    theta = tuple(float(t) for t in args.theta.split(",") if t.strip())
    spec = SimSpec(
        theta_true=theta,
        n=args.n,
        N=args.N,
        replications=args.replications,
        k=args.k,
        box=args.box if args.box is not None else 5.0,
        seed=args.seed,
        n_starts=args.starts,
    )
    report = run_study(spec)
    _emit(
        args,
        {
            "json": _json_text(report.to_json_dict()),
            "table": report.text_table() + "\n",
        },
    )
    return EXIT_OK


def cmd_profile(args) -> int:
    dataset = _dataset_from_args(args)
    digest = dataset.digest()
    results = [_load_fit_artifact(p) for p in args.fit]
    for r in results:
        if r.dataset_digest != digest:
            raise DataError(
                f"fit for model {r.model!r} was made on a different dataset "
                f"(digest {r.dataset_digest[:12]}... vs {digest[:12]}...)"
            )
    if len({r.model for r in results}) != len(results):
        raise DataError("one fit per model; duplicate model names given")
    K = args.max_count if args.max_count is not None else int(dataset.y.max())
    profiles = [profile_distribution(r, dataset, max_count=K) for r in results]
    K_eff = min(len(p["counts"]) for p in profiles) - 1
    header = ["k"] + [f"fitted_{p['model']}" for p in profiles] + ["empirical"]
    counts = np.bincount(dataset.y.astype(int), minlength=K_eff + 1)
    rows = []
    for k in range(K_eff + 1):
        row = [str(k)]
        row += [f"{p['fitted'][k]:.17g}" for p in profiles]
        row += [f"{counts[k] / dataset.n:.17g}"]
        rows.append(",".join(row))
    csv_text = "\n".join([",".join(header)] + rows) + "\n"
    doc = {
        "artifact": "profile",
        "tool_version": __version__,
        "dataset_digest": digest,
        "max_count": K_eff,
        "tail_mass": {p["model"]: p["tail_mass"] for p in profiles},
        "columns": header,
        "rows": [
            [k] + [p["fitted"][k] for p in profiles] + [float(counts[k]) / dataset.n]
            for k in range(K_eff + 1)
        ],
    }
    _emit(args, {"json": _json_text(doc), "csv": csv_text})
    return EXIT_OK


def _add_dataset_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="CSV file with header row")
    p.add_argument("--response", required=True, help="count response column")
    p.add_argument(
        "--covariate",
        action="append",
        metavar="NAME:KIND[:REF]",
        help="design column as name:numeric or name:categorical[:reference]; repeatable",
    )


def _add_output_flags(p: argparse.ArgumentParser, formats, default) -> None:
    p.add_argument("--out", help="write the --format rendering to this file")
    p.add_argument("--format", choices=formats, default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbreg",
        description="Count regression with a long-range dependent bounded count "
        "distribution, plus zero-inflated Poisson/negative-binomial baselines.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("pmf", help="print the distribution table at fixed parameters")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--c0", type=float, required=True, help="dependence on the unit scale")
    p.add_argument("--N", type=int, required=True)
    _add_output_flags(p, ("table", "json", "csv"), "table")
    p.set_defaults(func=cmd_pmf)

    p = sub.add_parser("fit", help="maximum-likelihood fit on a CSV dataset")
    _add_dataset_flags(p)
    p.add_argument("--model", choices=MODELS, required=True)
    p.add_argument("--N", type=int, default=None, help="upper bound override (>= max y)")
    p.add_argument("--box", type=float, default=None, help="coefficient box half-width")
    p.add_argument("--starts", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    _add_output_flags(p, ("table", "json"), "table")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("compare", help="AIC leaderboard and pairwise closeness tests")
    _add_dataset_flags(p)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--fit", action="append", required=True, help="fit artifact; repeatable")
    _add_output_flags(p, ("table", "json"), "table")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("vuong", help="closeness test between two fit artifacts")
    _add_dataset_flags(p)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--fit", action="append", required=True, help="exactly two artifacts")
    _add_output_flags(p, ("table", "json"), "table")
    p.set_defaults(func=cmd_vuong)

    p = sub.add_parser("simulate", help="Monte-Carlo bias/spread study")
    p.add_argument("--theta", required=True, help="true coefficients, comma-separated")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--replications", type=int, default=20)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--box", type=float, default=None)
    p.add_argument("--starts", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    _add_output_flags(p, ("table", "json"), "table")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("profile", help="fitted vs empirical count distribution")
    _add_dataset_flags(p)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--fit", action="append", required=True, help="fit artifact; repeatable")
    p.add_argument("--max-count", type=int, default=None)
    _add_output_flags(p, ("csv", "json"), "csv")
    p.set_defaults(func=cmd_profile)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "vuong" and len(args.fit) != 2:
        parser.error("vuong needs exactly two --fit artifacts")
    try:
        return args.func(args)
    except FitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except json.JSONDecodeError as exc:
        print(f"error: malformed artifact: {exc}", file=sys.stderr)
        return EXIT_IO
    except (DataError, FeasibilityError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
