"""Traced runs: spans recorded from the benchmark's own code around calls into
the public functions of each fbreg module, and the per-layer metrics taken
from them.  No span goes inside fbreg.

A span records its name, start, end, parent and run id, plus attributes such
as the model, N, or how many calls or rows it covers.  Spans stay in memory
and go into the child's record when it exits.  A span's duration leaves out
the calibration slices that ran inside it (see ``child.py``); its self time
is its duration minus the time its child spans cover.  Children never
overlap, because everything runs on one thread.

Spans marked ``probe`` time work that the untraced task does not do (calls at
the fitted point, library-level twins of CLI calls, calls into layers the
workload does not reach).  The traced task time is the workload span minus
its outermost probe spans; traced minus untraced task time is the tracing
overhead.

Per-layer metrics are computed for every layer on every workload: where the
workload itself does not call a layer, a small probe on the workload's seed
does, so that each workload reports the same metric names.
"""
from __future__ import annotations

import contextlib
import inspect
import os
import statistics
import time

import numpy as np

import fbreg
from fbreg import fitting

import workloads as W

# evaluations per likelihood timing, at fresh coefficients near the estimate
LIKELIHOOD_CALLS = 20
# repeats of the cheap data-layer calls
DATA_CALLS = 5
# pmf mix for workloads that do not run pmf_wide's own
FRBINOM_PROBE_BATCH = ((10, 400), (20, 100), (50, 8), (100, 2))
FRBINOM_PROBE_TABLES = ((10, 20), (50, 4), (100, 1))
# pmf_batch rows at the 80-bit lane's upper limit, N=24: timed, and their
# largest distance from the exact route reported rather than checked, since
# the lane misses its 1e-10 target there on about a fifth of random rows
LANE_LIMIT_N = 24
LANE_LIMIT_ROWS = 64

# total_loglik loses use_cache when the row cache goes; every call is then
# uncached, which is what the no-cache timing measures
NO_CACHE = (
    {"use_cache": False}
    if "use_cache" in inspect.signature(fbreg.total_loglik).parameters
    else {}
)


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []
        # calibration slices that ran during the task itself, not in a probe
        self.task_slices: list[float] = []

    @contextlib.contextmanager
    def span(self, name: str, probe: bool = False, **attrs):
        rec = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "run_id": self.run_id,
            "name": name,
            "probe": probe,
            **attrs,
            "start": time.perf_counter(),
            "end": None,
            "excluded": 0.0,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def exclude(self, seconds: float) -> None:
        """Leave a calibration slice out of the open spans."""
        for i in self._open:
            self.spans[i]["excluded"] += seconds
        if not any(self.spans[i]["probe"] for i in self._open):
            self.task_slices.append(seconds)

    def finish(self) -> list[dict]:
        """Fill each span's duration and self time."""
        for s in self.spans:
            s["dur"] = s["end"] - s["start"] - s["excluded"]
            s["self"] = s["dur"]
        for s in self.spans:
            if s["parent"] is not None:
                self.spans[s["parent"]]["self"] -= s["dur"]
        return self.spans

    def task_seconds(self) -> float:
        """Root span minus its outermost probe spans."""
        probe_ids = {s["id"] for s in self.spans if s["probe"]}
        outer = [
            s for s in self.spans if s["probe"] and s["parent"] not in probe_ids
        ]
        return self.spans[0]["dur"] - sum(s["dur"] for s in outer)


def clear_pmf_caches() -> None:
    # the library-level twin of a CLI fit retraces the CLI fit's path exactly,
    # so without this every one of its rows would be a cache hit
    clear = getattr(fbreg.frbinom, "clear_row_cache", None)
    if clear is not None:
        clear()


def at_estimate(tr: Tracer, model: str, ds, theta_hat, N, rng, box=None) -> None:
    """Likelihood, gradient and Hessian timings near a fitted point."""
    d = theta_hat.shape[0]
    thetas = theta_hat + rng.normal(0.0, 1e-4, (LIKELIHOOD_CALLS, d))
    if box is not None:
        thetas = np.clip(thetas, -box, box)
    with tr.span(
        "likelihood.total_loglik", probe=True, model=model, cache=True, calls=len(thetas)
    ) as s:
        for th in thetas:
            fbreg.total_loglik(model, th, ds, N=N)
    if model != "fb":
        return
    s["unique_rows"] = int(
        np.unique(np.column_stack(fbreg.link_fb(ds.X, theta_hat)), axis=0).shape[0]
    )
    with tr.span(
        "likelihood.total_loglik", probe=True, model=model, cache=False, calls=len(thetas)
    ):
        for th in thetas:
            fbreg.total_loglik(model, th, ds, N=N, **NO_CACHE)

    def objective(th):
        return -fbreg.total_loglik(model, th, ds, N=N)

    # a hair off the estimate: the fit already cached the stencil around it
    at = theta_hat + rng.normal(0.0, 1e-7, d)
    with tr.span("fitting.numerical_gradient", probe=True, model=model):
        fitting.numerical_gradient(objective, at)
    with tr.span("fitting.numerical_hessian", probe=True, model=model):
        fitting.numerical_hessian(objective, at)


def traced_fit(tr: Tracer, model, ds, config, rng, N=None, probe=False):
    """fit() in a span, with its evaluations counted through eval_callback and
    the at-estimate timings as child spans."""
    evals = [0]

    def count(theta, value):
        evals[0] += 1

    with tr.span("fitting.fit", probe=probe, model=model) as s:
        res = fbreg.fit(model, ds, config, N=N, eval_callback=count)
        s["evals"] = evals[0]
        s["polish_steps"] = int(res.diagnostics.get("newton_polish_steps", 0))
        at_estimate(tr, model, ds, res.coefficients.values, N, rng, box=config.box)
    return res


def frbinom_probe(tr: Tracer, seed: int) -> None:
    triples = W.pmf_triples(seed, FRBINOM_PROBE_BATCH, FRBINOM_PROBE_TABLES, stream=1)
    traced_pmf(tr, triples, probe=True)
    lane_limit_probe(tr, seed)


def lane_limit_probe(tr: Tracer, seed: int) -> None:
    N = LANE_LIMIT_N
    t = W.pmf_triples(seed, ((N, LANE_LIMIT_ROWS),), (), stream=2)[("batch", N)]
    with tr.span("frbinom.accuracy", probe=True, N=N):
        with tr.span("frbinom.pmf_batch", probe=True, N=N, rows=len(t)) as s:
            rows = W.pmf_rows("batch", N, t)
        s["max_abs_err"] = max(
            float(np.max(np.abs(row - fbreg.pmf(N, W.natural(x)).probs)))
            for row, x in zip(rows, t)
        )


def traced_pmf(tr: Tracer, triples: dict, probe=False) -> dict:
    rows = {}
    for (kind, N), t in triples.items():
        name = "frbinom.pmf_batch" if kind == "batch" else "frbinom.pmf"
        with tr.span(name, probe=probe, N=N, rows=len(t)):
            rows[(kind, N)] = W.pmf_rows(kind, N, t)
    return rows


def generate_probe(tr: Tracer, spec, replications=range(3)):
    for r in replications:
        with tr.span("simulate.generate", probe=True, calls=1):
            ds = fbreg.generate(spec, r)
    return ds


def data_probe(tr: Tracer, csv_path: str, load) -> None:
    with tr.span("data.load_csv", probe=True, calls=DATA_CALLS):
        for _ in range(DATA_CALLS):
            ds = load(csv_path)
    with tr.span("data.digest", probe=True, calls=DATA_CALLS):
        for _ in range(DATA_CALLS):
            ds.digest()


def continuous_probes(tr: Tracer, ds, rng, workdir: str) -> None:
    """Baseline likelihoods and the data layer on a study dataset, which has
    neither baseline fits nor a CSV of its own."""
    for model in ("zip", "zinb", "zinb2"):
        theta = rng.normal(0.0, 0.1, fbreg.coef_dim(model, ds.X.shape[1]))
        at_estimate(tr, model, ds, theta, None, rng)
    path = os.path.join(workdir, "study.csv")
    ds.to_csv(path)
    specs = [fbreg.ColumnSpec(name) for name in ds.column_names]
    data_probe(
        tr, path, lambda p: fbreg.load_csv(p, "y", specs, N=ds.N, include_intercept=False)
    )


def study_fit_config(spec) -> "fbreg.FitConfig":
    # what run_study uses for each replication
    return fbreg.FitConfig(
        n_starts=spec.n_starts, box=spec.box, seed=spec.seed, compute_hessian=False
    )


def traced_categorical(tr: Tracer, seed: int, rng, workdir: str) -> dict:
    """The CLI sequence with one span per call.  Under each call, the library
    calls it stands for are repeated as probe spans: load_csv and fit for a
    fit (cold caches again), the compare function for the others."""
    csv_path = os.path.join(workdir, "data.csv")
    specs = W.categorical_column_specs()
    codes, fits, ds = {}, {}, None
    with tr.span("workload", workload="categorical_analysis"):
        for label, argv in W.categorical_calls(workdir):
            sub, _, model = label.partition(".")
            with tr.span(f"cli.{sub}", model=model or None):
                codes[label] = W.run_cli(argv)
                if sub == "fit":
                    with tr.span("data.load_csv", probe=True, calls=1):
                        ds = fbreg.load_csv(csv_path, "roots", specs, N=W.CAT_N)
                    clear_pmf_caches()
                    fits[model] = traced_fit(
                        tr, model, ds, fbreg.FitConfig(), rng, N=W.CAT_N, probe=True
                    )
                elif sub == "compare":
                    with tr.span("compare.comparison_report", probe=True):
                        fbreg.comparison_report(list(fits.values()), ds)
                elif sub == "vuong":
                    with tr.span("compare.vuong_test", probe=True):
                        fbreg.vuong_test(fits["fb"], fits["zinb"], ds)
                elif sub == "profile":
                    for m, res in fits.items():
                        with tr.span("compare.profile_distribution", probe=True, model=m):
                            fbreg.profile_distribution(res, ds, max_count=int(ds.y.max()))
        frbinom_probe(tr, seed)
        generate_probe(tr, W.study_spec(seed))
        data_probe(tr, csv_path, lambda p: fbreg.load_csv(p, "roots", specs, N=W.CAT_N))
    return codes


def traced_pmf_wide(tr: Tracer, triples: dict, seed: int, rng, workdir: str) -> dict:
    """The pmf mix with one span per (function, N); then, since pmf_wide fits
    nothing, one study replication stands in for the fit-side layers."""
    with tr.span("workload", workload="pmf_wide"):
        rows = traced_pmf(tr, triples)
        lane_limit_probe(tr, seed)
        spec = W.study_spec(seed)
        ds = generate_probe(tr, spec, replications=[0])
        traced_fit(tr, "fb", ds, study_fit_config(spec), rng, probe=True)
        continuous_probes(tr, ds, rng, workdir)
    return rows


# --------------------------------------------------------------------------
# per-layer metrics


def _median(values):
    return float(statistics.median(values))


def layer_metrics(spans: list[dict]) -> dict:
    """Every per-layer figure the spans support, by metric name."""

    def find(name, **attrs):
        return [
            s for s in spans
            if s["name"] == name and all(s.get(k) == v for k, v in attrs.items())
        ]

    m = {}
    for N in sorted({s["N"] for s in find("frbinom.pmf_batch")}):
        ss = find("frbinom.pmf_batch", N=N)
        m[f"frbinom.pmf_batch.rows_per_s.N{N}"] = (
            sum(s["rows"] for s in ss) / sum(s["self"] for s in ss)
        )
    for s in find("frbinom.pmf_batch"):
        if "max_abs_err" in s:
            m[f"frbinom.pmf_batch.max_abs_err.N{s['N']}"] = s["max_abs_err"]
    for N in sorted({s["N"] for s in find("frbinom.pmf")}):
        ss = find("frbinom.pmf", N=N)
        m[f"frbinom.pmf.table_ms.N{N}"] = (
            1e3 * sum(s["self"] for s in ss) / sum(s["rows"] for s in ss)
        )

    def per_call_ms(ss):
        return _median([1e3 * s["self"] / s["calls"] for s in ss])

    for model in sorted({s["model"] for s in find("likelihood.total_loglik")}):
        m[f"likelihood.{model}.eval_ms"] = per_call_ms(
            find("likelihood.total_loglik", model=model, cache=True)
        )
    nocache = find("likelihood.total_loglik", model="fb", cache=False)
    if nocache:
        m["likelihood.fb.eval_ms_nocache"] = per_call_ms(nocache)
        m["likelihood.fb.unique_rows_per_eval"] = _median(
            [s["unique_rows"] for s in find("likelihood.total_loglik", model="fb", cache=True)]
        )
    for model in sorted({s["model"] for s in find("fitting.fit")}):
        ss = find("fitting.fit", model=model)
        fit_s = _median([s["self"] for s in ss])
        evals = _median([s["evals"] for s in ss])
        m[f"fitting.fit.s.{model}"] = fit_s
        m[f"fitting.fit.evals.{model}"] = evals
        eval_ms = m.get(f"likelihood.{model}.eval_ms")
        if eval_ms is not None:
            m[f"fitting.fit.loglik_share.{model}"] = evals * eval_ms / 1e3 / fit_s
        if model == "fb":
            m["fitting.newton_polish_steps"] = _median([s["polish_steps"] for s in ss])
    for name, key, scale in (
        ("fitting.numerical_gradient", "fitting.numerical_gradient.ms", 1e3),
        ("fitting.numerical_hessian", "fitting.numerical_hessian.s", 1.0),
    ):
        ss = find(name, model="fb")
        if ss:
            m[key] = scale * _median([s["self"] for s in ss])
    for name in ("simulate.generate", "data.load_csv", "data.digest"):
        ss = find(name)
        if ss:
            m[f"{name}.ms"] = per_call_ms(ss)
    for name in ("compare.comparison_report", "compare.vuong_test"):
        ss = find(name)
        if ss:
            m[f"{name}.ms"] = 1e3 * _median([s["self"] for s in ss])
    for s in find("compare.profile_distribution"):
        m[f"compare.profile_distribution.ms.{s['model']}"] = 1e3 * s["self"]
    for s in spans:
        if s["name"].startswith("cli."):
            suffix = f".{s['model']}" if s["model"] else ""
            m[f"{s['name']}.s{suffix}"] = s["self"]
            if s["name"] == "cli.fit" and f"fitting.fit.s.{s['model']}" in m:
                m[f"cli.overhead_s.{s['model']}"] = (
                    s["self"] - m[f"fitting.fit.s.{s['model']}"]
                )
    return m


def self_time_by_layer(spans: list[dict]) -> dict:
    """Seconds of self time per fbreg module, over all spans."""
    out: dict[str, float] = {}
    for s in spans:
        layer = s["name"].split(".")[0]
        if layer in ("workload", "replication"):
            continue
        out[layer] = out.get(layer, 0.0) + s["self"]
    return out
