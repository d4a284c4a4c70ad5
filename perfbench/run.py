"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload turn-batch --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from src/ next to this
directory.  Workloads: turn-batch, ray-decisions, scan-report, cli (see
README.md).  Every workload is a closed loop: one client sends its next
op only after the previous one has completed and been checked.  The
loop runs whole cycles of ops and stops at the cycle boundary nearest to
the point where the timed ops add up to --seconds.

Metric names and units come from BENCHMARK.json.  Gated times are
scaled to a reference machine speed (see REFERENCE_S below).

--trace 0 sets the workload up three times (setup_s is the median),
runs the loop untraced and reports the end-to-end metrics.  --trace 1
sets up once with the layer tracer installed, runs half of --seconds
untraced and then the same op sequence traced, and reports the
per-layer metrics together with the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}.  A result file
with provenance goes to perfbench/out/, and the traced run's spans next
to it.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracer as tr

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 3
IMPORT_REPEATS = 3

# Host speed.  The shared machine the baseline was measured on drifts in
# speed by 20% and more within seconds, more than the changes the gate
# must catch, so every gated time is scaled to a reference speed: a
# fixed calibration (interpreter and small-array numpy work, like
# revplane's inner loops) is timed between ops, and each op's latency is
# multiplied by REFERENCE_S over the mean of the calibrations either side
# of it.  The raw wall-clock values are printed and kept in the result
# file too.
REFERENCE_S = 0.010       # the calibration's time at reference speed
PROBE_EVERY_S = 0.5       # calibrate before an op when the last is older

# end-to-end metrics printed beside the ones BENCHMARK.json gates: p90
# needs ten ops beyond it, which the slower workloads never reach, and the
# failure share is in the JSON line as "attempted" and "failed"
UNGATED_UNITS = {"op_p90_ms": "ms", "fail_frac": "ratio", "ops_per_s_raw": "ops/s",
                 "op_p50_ms_raw": "ms", "setup_s_raw": "s", "machine_speed": "ratio"}


def calibrate():
    """Seconds the fixed calibration work takes right now."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 64)
    t0 = perf_counter()
    for i in range(2000):
        np.sum(np.sqrt(x + i))
    return perf_counter() - t0


class SpeedProbe:
    """Calibrations taken between ops, at most every PROBE_EVERY_S."""

    def __init__(self):
        self.times = []
        self._last = -PROBE_EVERY_S

    def before_op(self):
        """Calibrate if the last calibration is stale; return its index."""
        if perf_counter() - self._last >= PROBE_EVERY_S:
            self.times.append(calibrate())
            self._last = perf_counter()
        return len(self.times) - 1

    def scale(self, k):
        """REFERENCE_S over the mean of calibrations k and k + 1."""
        return REFERENCE_S / statistics.fmean(self.times[k:k + 2])


def timed_loop(cycles, seconds, tracer=None):
    """Run whole cycles of ops until the timed ops add up to about
    `seconds`: the loop stops at the cycle boundary nearest to it.

    Only op.run() is timed; its check runs after, outside the timing (and
    under a "check" root span, which the per-layer summary leaves out).
    Returns one record per op: (label, latency_s at reference speed,
    failure, known_bug, raw latency_s), known_bug naming the tracked
    defect a failure matches, if any.
    """
    probe = SpeedProbe()
    raw = []
    busy = 0.0
    for ops in cycles:
        cycle_start = busy
        for op in ops:
            k = probe.before_op()
            with _root(tracer, tr.OP):
                t0 = perf_counter()
                try:
                    answer, failure = op.run(), None
                except Exception as exc:  # the loop must go on: count it
                    answer, failure = None, f"{type(exc).__name__}: {exc}"
                latency = perf_counter() - t0
            if failure is None:
                with _root(tracer, tr.CHECK):
                    try:
                        failure = op.check(answer)
                    except Exception as exc:  # a malformed answer fails its op
                        failure = f"check raised {type(exc).__name__}: {exc}"
            bug = op.known_bug
            known = bug[1] if failure and bug and bug[0] in failure else None
            raw.append((op.label, latency, failure, known, k))
            busy += latency
        # another cycle like the last would overshoot more than stopping
        # now falls short
        if busy + (busy - cycle_start) / 2 >= seconds:
            break
    probe.times.append(calibrate())
    return [(label, latency * probe.scale(k), failure, known, latency)
            for label, latency, failure, known, k in raw]


def _root(tracer, name):
    return contextlib.nullcontext() if tracer is None else tracer.root(name)


def summarize_ops(records):
    lat = [r[1] for r in records]
    n = len(lat)
    out = {
        "ops_per_s": n / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "fail_frac": sum(r[2] is not None for r in records) / n,
    }
    if n * 0.1 >= 10:  # at least ten ops beyond the 90th percentile
        out["op_p90_ms"] = 1e3 * statistics.quantiles(lat, n=10)[8]
    raw = [r[4] for r in records]
    out["ops_per_s_raw"] = n / sum(raw)
    out["op_p50_ms_raw"] = 1e3 * statistics.median(raw)
    out["machine_speed"] = sum(lat) / sum(raw)
    return out


def outcome(records):
    failed = [r for r in records if r[2] is not None]
    # correct unless something failed that is not a tracked known bug
    correct = all(r[3] is not None for r in failed)
    failures = {}
    for label, _, failure, bug, _ in failed:
        key = f"{label}: {failure}" + (f" [known bug: {bug}]" if bug else "")
        failures[key] = failures.get(key, 0) + 1
    return correct, len(records), len(failed), failures


def peak_rss_mb(children):
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def import_seconds():
    """Median wall time of a fresh interpreter running `import revplane`."""
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import revplane"], cwd=ROOT,
                       check=True, timeout=120)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def provenance(seed, cpus):
    """Where the numbers came from; recorded, never gated."""
    import numpy
    import scipy

    sources = sorted((SRC / "revplane").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in sources:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except OSError:  # no git on this machine: the source digest stands in
            pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_revplane_lines": lines,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(cpus),
        "pinned_cpu": min(cpus),
        "machine": platform.machine(),
    }


def run_untraced(wl, seconds):
    setup, setup_raw = [], []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        t0 = perf_counter()
        wl.setup()
        elapsed = perf_counter() - t0
        setup_raw.append(elapsed)
        setup.append(elapsed * REFERENCE_S / statistics.fmean((before, calibrate())))
    records = timed_loop(wl.cycles(), seconds)
    metrics = summarize_ops(records)
    metrics["setup_s"] = statistics.median(setup)
    metrics["setup_s_raw"] = statistics.median(setup_raw)
    metrics["peak_rss_mb"] = peak_rss_mb(children=wl.spawns_processes)
    return records, metrics, {"setup_runs_s": setup, "setup_runs_raw_s": setup_raw}


def run_traced(wl, seconds, spans_path):
    tracer = tr.Tracer()
    tracer.install()
    with tracer.root(tr.SETUP):
        wl.setup()
    tracer.uninstall()
    plain = timed_loop(wl.cycles(), seconds / 2)
    tracer.install()
    wl.tracer = tracer
    try:
        traced = timed_loop(wl.cycles(), seconds / 2, tracer)
    finally:
        wl.tracer = None
        tracer.uninstall()
    metrics = tr.summarize(tracer.spans)
    metrics["cli.import_s"] = import_seconds()
    metrics["cli.nonzero_exits"] = getattr(wl, "nonzero_exits", 0)
    untraced_rate = summarize_ops(plain)["ops_per_s"]
    traced_rate = summarize_ops(traced)["ops_per_s"]
    metrics["trace.untraced_ops_per_s"] = untraced_rate
    metrics["trace.traced_ops_per_s"] = traced_rate
    metrics["trace.overhead_frac"] = untraced_rate / traced_rate - 1.0
    tracer.write(spans_path)
    return plain + traced, metrics, {"spans": len(tracer.spans),
                                     "spans_file": str(spans_path.relative_to(ROOT))}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "revplane" / "__init__.py").is_file():
        print(f"perfbench: no revplane package under {SRC}", file=sys.stderr)
        return 2
    # one BLAS thread, here and in every child process; set before numpy loads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # one CPU for this process and its children (which run while it waits),
    # so the speed calibration measures the CPU the ops run on
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    units.update(UNGATED_UNITS)
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    wl = workloads.WORKLOADS[args.workload](args.seed)
    try:
        if args.trace:
            records, metrics, extra = run_traced(wl, args.seconds,
                                                 OUT / f"{stem}-spans.json.gz")
        else:
            records, metrics, extra = run_untraced(wl, args.seconds)
    finally:
        wl.close()
    reported = {m["name"]: metrics[m["name"]] for m in declared[kind]}
    correct, attempted, failed, failures = outcome(records)
    by_label = {}
    for label, latency, *_ in records:
        by_label.setdefault(label, []).append(latency)

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": attempted,
        "failed": failed, "failures": failures, "metrics": metrics,
        "setup_failures": wl.setup_failures,
        "provenance": provenance(args.seed, cpus), **extra,
        "op_mean_ms": {k: 1e3 * statistics.fmean(v) for k, v in sorted(by_label.items())},
    }
    result_path = OUT / f"{stem}.json"
    result_path.write_text(json.dumps(result, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {attempted}  failed {failed}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    for failure, count in failures.items():
        print(f"  FAILED x{count}: {failure}")
    for failure in wl.setup_failures:
        print(f"  SETUP FAILED (seeded slope redrawn): {failure}")
    print(f"  result file: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
