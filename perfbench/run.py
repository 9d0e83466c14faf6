"""fbreg benchmark: seeded workloads through the public API, timed end to end
or traced layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; fbreg is imported from its ``src``.  The
workloads, metrics, units and bounds are listed in ``BENCHMARK.json``.

Every repetition runs in a fresh interpreter (``child.py``), one at a time,
so that caches start cold as they do for a CLI user.  The benchmark itself
starts no threads or worker pools; BLAS is held to one thread.

``--trace 0`` repeats the workload's task until ``--seconds`` is used up and
reports medians over the repetitions: task time at a fixed reference machine
speed (``task_ref_s``, see ``child.py``), set-up time over at least
SETUP_SAMPLES interpreter starts, put at that speed by the run's median task
slowdown (``setup_s``), and peak resident memory.  It also prints the plain
wall time under the workload's own name: ``analysis_s``, or
``pmf_rows_per_s`` (rows produced per wall second).
``--trace 1`` runs the task once untraced and once traced, and reports every
per-layer metric plus the tracing overhead (traced minus untraced task time).

Outputs are checked after each timed region; each failed check is one failed
operation.  Human-readable lines go to stdout, the full record (machine
facts, output values, spans) to ``perfbench/out/``, and the last line of
stdout is the JSON result.  A missing ``src/fbreg`` is an error: the run
exits with status 2 and prints no result.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 7
# a run must end within 180 s; children are cut off at this point
RUN_DEADLINE_S = 170.0
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
# the workload's own name for its wall time
TASK_ALIAS = {
    "categorical_analysis": "analysis_s",
    "pmf_wide": "pmf_rows_per_s",
}

# units of printed figures that are not in BENCHMARK.json, by name prefix
EXTRA_UNITS = (
    ("task_s", "s"),
    ("setup_wall_s", "s"),
    ("slowdown", "x"),
    ("trace.slowdown", "x"),
    ("trace.", "s"),
    ("fitting.fit.s.", "s"),
    ("fitting.fit.evals.", "count"),
    ("fitting.fit.loglik_share.", "ratio"),
    ("compare.", "ms"),
    ("cli.", "s"),
)


class ChildFailed(RuntimeError):
    pass


def machine_facts() -> dict:
    """The facts that change the numbers."""
    from importlib import metadata
    import platform

    import mpmath
    import numpy as np

    ld = np.finfo(np.longdouble)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "longdouble": {"bits": int(ld.bits), "mantissa_bits": int(ld.nmant), "eps": float(ld.eps)},
    }


class Runner:
    def __init__(self, root: str, workload: str, seed: int, deadline: float) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.out_dir = os.path.join(HERE, "out")
        os.makedirs(self.out_dir, exist_ok=True)
        src = os.path.join(root, "src")
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(
            os.environ,
            **SINGLE_THREAD_ENV,
            PYTHONPATH=src + (os.pathsep + pythonpath if pythonpath else ""),
        )

    def launch(self, mode: str) -> dict:
        fd, record_path = tempfile.mkstemp(dir=self.out_dir, suffix=".json")
        os.close(fd)
        try:
            t_launch = time.monotonic()
            cmd = [
                sys.executable, os.path.join(HERE, "child.py"), mode, self.workload,
                str(self.seed), repr(t_launch), record_path,
            ]
            try:
                proc = subprocess.run(
                    cmd, cwd=self.root, env=self.env, capture_output=True, text=True,
                    timeout=max(1.0, self.deadline - t_launch),
                )
            except subprocess.TimeoutExpired as exc:
                raise ChildFailed(f"{mode} repetition passed the run deadline") from exc
            wall = time.monotonic() - t_launch
            if proc.returncode != 0:
                raise ChildFailed(
                    f"{mode} repetition exited {proc.returncode}:\n{proc.stderr[-4000:]}"
                )
            with open(record_path) as fh:
                record = json.load(fh)
        finally:
            os.remove(record_path)
        record["wall_s"] = wall
        return record


def untraced(runner: Runner, seconds: float) -> tuple[dict, list]:
    units = []
    t0 = time.monotonic()
    while True:
        units.append(runner.launch("task"))
        typical = statistics.median(u["wall_s"] for u in units)
        if time.monotonic() - t0 + typical > seconds:
            break
    setups = [u["setup_s"] for u in units]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.launch("setup")["setup_s"])
    # set-up runs seconds before or after the tasks, on the same machine state
    slowdown = statistics.median(u["slowdown"] for u in units)
    metrics = {
        "setup_s": statistics.median(setups) / slowdown,
        "setup_wall_s": statistics.median(setups),
        "task_ref_s": statistics.median(u["task_ref_s"] for u in units),
        "task_s": statistics.median(u["task_s"] for u in units),
        "slowdown": slowdown,
        "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in units),
    }
    return metrics, units


def traced(runner: Runner) -> tuple[dict, list, dict]:
    base = runner.launch("task")
    trace = runner.launch("traced")
    metrics = dict(trace["metrics"])
    # both at reference speed: the two children ran at different moments
    extra = {
        "trace.untraced_task_ref_s": base["task_ref_s"],
        "trace.traced_task_ref_s": trace["traced_task_ref_s"],
        "trace.overhead_ref_s": trace["traced_task_ref_s"] - base["task_ref_s"],
        "trace.slowdown": trace["slowdown"],
    }
    units = [base, trace]
    metrics.update(extra)
    return metrics, units, {k: trace[k] for k in ("spans", "self_time_by_layer")}


def print_report(args, spec, facts, metrics, units, extra_record, record_path) -> tuple[int, int]:
    attempted = sum(u["attempted"] for u in units if "attempted" in u)
    failed = sum(u["failed"] for u in units if "failed" in u)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} repetitions={len(units)}")
    print("machine: " + json.dumps(facts, sort_keys=True))
    known = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    def unit_of(name):
        return known.get(name) or next(u for p, u in EXTRA_UNITS if name.startswith(p))

    rows = [(k, v, unit_of(k)) for k, v in sorted(metrics.items())]
    if args.trace == 0:
        alias = TASK_ALIAS[args.workload]
        if alias == "pmf_rows_per_s":
            # every row produced is one checked operation
            rows.append((alias, units[0]["attempted"] / metrics["task_s"], "rows/s"))
        else:
            rows.append((alias, metrics["task_s"], "s"))
    fraction = failed / attempted if attempted else float("nan")
    rows.append(("failed_fraction", fraction, f"ratio ({failed} of {attempted} failed)"))
    for name, value, unit in rows:
        print(f"  {name:44s} {value:>14.6g} {unit}")
    if "self_time_by_layer" in extra_record:
        layers = extra_record["self_time_by_layer"]
        print("  self time by layer: " + ", ".join(
            f"{k} {v:.3f} s" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])))
    failures = [f for u in units for f in u.get("failures", [])]
    for f in failures[:10]:
        print(f"  FAILED {f}")
    if len(failures) > 10:
        print(f"  ... {len(failures) - 10} more failures in {record_path}")
    print(f"record: {record_path}")
    return attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fbreg", "__init__.py")):
        print("perfbench: no src/fbreg here; run from the root of an fbreg checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    os.environ.update(SINGLE_THREAD_ENV)
    deadline = time.monotonic() + RUN_DEADLINE_S
    runner = Runner(root, args.workload, args.seed, deadline)
    try:
        if args.trace == 0:
            metrics, units = untraced(runner, args.seconds)
            extra_record = {}
            wanted = spec["end_to_end"]
        else:
            metrics, units, extra_record = traced(runner)
            wanted = spec["per_layer"]
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 1

    facts = machine_facts()
    record_path = os.path.join(
        runner.out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(record_path, "w") as fh:
        json.dump(
            {"args": vars(args), "machine": facts, "metrics": metrics,
             "units": units, **extra_record},
            fh, indent=1,
        )
    attempted, failed = print_report(
        args, spec, facts, metrics, units, extra_record, os.path.relpath(record_path, root)
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
