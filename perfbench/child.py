"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/child.py MODE WORKLOAD SEED T_LAUNCH RECORD

MODE is ``setup`` (build the inputs and stop), ``task`` (build the inputs,
time the task, check its outputs) or ``traced`` (the task with spans, plus
the per-layer probes).  T_LAUNCH is the parent's ``time.monotonic()`` just
before it started this process; set-up time runs from there to inputs ready,
so it covers interpreter start, importing fbreg and building the inputs.
The outcome goes to the JSON file RECORD.

A fresh interpreter per repetition keeps every measurement cold: the pmf row
cache and the exact-route lru cache live for the life of the process, as they
do for a CLI user.

The speed of the machine this runs on swings by up to a half within a minute
(other tenants share its cores), more than any bound a regression check could
use.  So while the task runs, a timer signal interrupts it every
CAL_INTERVAL_S for one calibration slice: a fixed mix of interpreter,
big-integer and small numpy work, the kinds of work fbreg spends its time on,
sharing no code with fbreg.  ``task_s`` is the task's wall time minus the
slices; ``task_ref_s`` scales it by how much slower than CAL_REF_S the median
slice ran, i.e. it is the task time at a fixed reference speed.  A change to
fbreg moves both alike; a change in machine speed moves only ``task_s``.  The
median, not the mean: a slice that happens to fall in a pause of the whole
machine runs many times slower, and one slice in a hundred that ran twenty
times slower would move the mean by a fifth.
"""
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time

import numpy as np

import fbreg
import workloads as W


CAL_INTERVAL_S = 0.25
# about the median slice time on a quiet 2-vCPU x86_64 VM (Python 3.11, numpy 2.4)
CAL_REF_S = 0.004
_CAL_RNG = np.random.default_rng(0)
_CAL_A = _CAL_RNG.random((64, 12, 12))
_CAL_X = _CAL_RNG.integers(0, 8, (270, 3)).astype(float)


def calibration_slice() -> None:
    acc = 0
    for i in range(6000):
        acc += i * i % 7
    big = (1 << 256) + 12345
    for _ in range(3000):
        big = (big * 0x9E3779B97F4A7C15) >> 64
    f = _CAL_A[:, 0, :]
    for _ in range(60):
        f = np.einsum("gij,gj->gi", _CAL_A, f)
        f = f / f.sum(axis=1)[:, None]
    # many small array calls and dictionary churn, as in a likelihood call
    # on a design with few distinct rows
    table = {}
    for i in range(4):
        uniq = np.unique(_CAL_X + i, axis=0)
        weights = np.exp(np.clip(_CAL_X[:, 0] * 0.01 * i, -5.0, 5.0))
        for j, row in enumerate(uniq):
            table[(i, j)] = (tuple(row), float(weights[j]))


@contextlib.contextmanager
def calibrated(on_slice=None):
    """Yield the list that collects calibration slice times while the body
    runs; on_slice, if given, also receives each slice's time."""
    slices: list[float] = []

    def on_timer(signum, frame):
        t0 = time.perf_counter()
        calibration_slice()
        slices.append(time.perf_counter() - t0)
        if on_slice is not None:
            on_slice(slices[-1])

    previous = signal.signal(signal.SIGALRM, on_timer)
    signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
    try:
        yield slices
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv) -> int:
    mode, workload, seed, t_launch, record_path = argv[1:6]
    seed, t_launch = int(seed), float(t_launch)
    root = os.getcwd()
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(fbreg.__file__).startswith(src + os.sep):
        print(f"fbreg imported from {fbreg.__file__}, not from {src}", file=sys.stderr)
        return 3

    here = os.path.dirname(os.path.abspath(__file__))
    workdir = os.path.join(here, "out", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if workload == "categorical_analysis":
            W.write_categorical_csv(seed, os.path.join(workdir, "data.csv"))
            inputs = None
        elif workload == "pmf_wide":
            inputs = W.pmf_triples(seed)
        else:
            print(f"unknown workload {workload!r}", file=sys.stderr)
            return 2
        record = {"mode": mode, "workload": workload, "seed": seed,
                  "setup_s": time.monotonic() - t_launch}
        if mode == "task":
            record.update(run_task(workload, inputs, workdir, root))
        elif mode == "traced":
            record.update(run_traced(workload, inputs, seed, workdir, root))
        elif mode != "setup":
            print(f"unknown mode {mode!r}", file=sys.stderr)
            return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return 0


def run_task(workload, inputs, workdir, root) -> dict:
    out = W.Outcome()
    with calibrated() as slices:
        t0 = time.perf_counter()
        if workload == "categorical_analysis":
            result = W.categorical_task(workdir)
        else:
            result = W.pmf_task(inputs)
        wall = time.perf_counter() - t0
    rss = peak_rss_mb()
    task_s = wall - sum(slices)
    check(workload, inputs, result, workdir, root, out)
    slowdown = statistics.median(slices) / CAL_REF_S
    return {
        "task_s": task_s,
        "task_ref_s": task_s / slowdown,
        "slowdown": slowdown,
        "peak_rss_mb": rss,
        **outcome_fields(out),
    }


def run_traced(workload, inputs, seed, workdir, root) -> dict:
    import traced as T

    tr = T.Tracer(run_id=f"{workload}-{seed}-{os.getpid()}")
    rng = np.random.default_rng([seed, 77])
    with calibrated(on_slice=tr.exclude) as slices:
        if workload == "categorical_analysis":
            result = T.traced_categorical(tr, seed, rng, workdir)
        else:
            result = T.traced_pmf_wide(tr, inputs, seed, rng, workdir)
    spans = tr.finish()
    slowdown = statistics.median(tr.task_slices or slices) / CAL_REF_S
    out = W.Outcome()
    check(workload, inputs, result, workdir, root, out)
    return {
        "traced_task_s": tr.task_seconds(),
        "traced_task_ref_s": tr.task_seconds() / slowdown,
        "slowdown": slowdown,
        "metrics": T.layer_metrics(spans),
        "self_time_by_layer": T.self_time_by_layer(spans),
        "spans": spans,
        **outcome_fields(out),
    }


def check(workload, inputs, result, workdir, root, out) -> None:
    if workload == "categorical_analysis":
        W.categorical_check(workdir, result, os.path.join(root, "schemas"), out)
    else:
        W.pmf_check(inputs, result, out)


def outcome_fields(out) -> dict:
    return {
        "attempted": out.attempted,
        "failed": len(out.failures),
        "failures": out.failures,
        "outputs": out.outputs,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv))
