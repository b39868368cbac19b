"""losscost benchmark: seeded workloads driven through the public entry points.

Usage (from the repository root)::

    python3 bench/run.py --workload pricing --seed 1 --seconds 50 --trace 0

Workloads: pricing (the pricing and statespace op families) and risk (the
risk and montecarlo families); see ``workloads.py`` and ``BENCHMARK.json``
for what each stresses.  The program is imported from
``src/`` of the checkout the script sits in; nothing installed is used.

Load model: closed loop, one client, one process, one op at a time.  Each
run repeats the workload's fixed cycle of ops until ``--seconds`` have
passed, always finishing the cycle, so every run holds whole cycles and the
op mix is the same in every run.  BLAS runs one thread, pinned before numpy
loads: a second BLAS thread competes with the interpreter for the few CPUs
of a shared host, and made op times slower and far more variable.

Set-up is the imports, writing the seeded model files and one untimed
warm-up op per op family.  It is done once in this process and four more
times in fresh child processes, two before the timed run and two after it,
so that the samples span the run; ``setup_s`` is the median of the five.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced cycles, prints per-layer metrics from the traced ones
(self time and work per op) and the tracing overhead (each traced cycle
against the untraced cycle after it), and writes the spans to
``bench/_out/``.  The last line of stdout is the result object; the lines
before it are a report with machine facts and per-op detail.  An op fails
when it exits 1 or 2, raises, or its output misses the check; a missed
check or an exit 1 on a valid generated model also makes ``correct`` false.
Exit 3 (success with warnings) is not a failure.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr  # noqa: E402
from io import StringIO  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pricing", "risk")
BLAS_THREADS = 1
SETUP_PROBES = 4           # half before the timed run, half after it
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "op_s.p50": "s", "op_s.tail": "s", "ops_per_s": "1/s",
                    "peak_rss_mb": "MB", "ok_frac": "share"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def pin_blas_threads():
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def import_program():
    """Import losscost from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "losscost" / "__init__.py").is_file():
        sys.exit(f"error: no program to benchmark at {src / 'losscost'}")
    sys.path[:0] = [str(src), str(HERE)]
    import losscost

    if Path(losscost.__file__).resolve().parent != (src / "losscost").resolve():
        sys.exit(f"error: imported losscost from {losscost.__file__}, not {src}")
    return losscost


def set_up(workload, seed, workdir):
    """Imports, seeded model files and the untimed warm-up ops."""
    threads = pin_blas_threads()
    import_program()
    import workloads

    wl = workloads.build(workload, seed, workdir)
    with redirect_stderr(StringIO()):
        for op in wl.warmups:
            op.run()
    return wl, threads


def probe_setup(workload, seed, workdir):
    """Set-up time of a fresh process, measured by that process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup", "--workload", workload,
         "--seed", str(seed), "--workdir", str(workdir)],
        cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


class Runner:
    """Executes ops, times them and keeps the tallies."""

    def __init__(self):
        self.records = []       # (op name, seconds, outcome)
        self.messages = {}
        self.correct = True

    def execute(self, op):
        sink = StringIO()
        start = time.perf_counter()
        try:
            with redirect_stderr(sink):
                code, payload = op.run()
        except Exception as exc:  # a crash is a failed, incorrect op; keep measuring
            code, payload = -1, None
            sink.write(repr(exc))
        elapsed = time.perf_counter() - start
        message = None
        if code in (0, 3):
            message = op.check(payload)
            outcome = "ok" if message is None else "wrong"
        else:
            outcome = f"exit{code}"
            message = sink.getvalue().strip()[-300:]
        if outcome == "wrong" or code not in (0, 2, 3):
            self.correct = False
        if message:
            self.messages[op.name] = message
        self.records.append((op.name, elapsed, outcome))
        return elapsed


def tail(times):
    """Highest percentile with at least ten samples beyond it, with its rank."""
    xs = sorted(times)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def machine_facts(threads):
    import numpy
    import scipy

    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    with open("/proc/meminfo") as fh:
        mem_kb = int(fh.readline().split()[1])
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "ram_gb": round(mem_kb / 2**20, 2),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name", "unknown"),
            "blas_threads": threads}


def per_layer(tracer, traced_ops, overhead_s, overhead_frac):
    """Per-layer metrics per traced op: calls, self seconds and work counts."""
    import spans

    calls, self_s = tracer.layer_totals()
    c = tracer.counts
    n = max(traced_ops, 1)
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for span in spans.SPANS:
        put(f"{span}.calls", calls.get(span, 0) / n, "calls/op")
        put(f"{span}.self_s", self_s.get(span, 0.0) / n, "s/op")
    for name, unit in (("model.enumerate_states.states", "states/op"),
                       ("model.build_generator.bytes", "B/op"),
                       ("costdist.total_cost_distribution.lattice", "cells/op"),
                       ("costdist.evolve.cell_steps", "cells/op"),
                       ("simulate.sim_time", "time/op"),
                       ("simulate.occupancy_bytes", "B/op"),
                       ("cli.main.exit3", "count/op")):
        put(name, c.get(name, 0.0) / n, unit)
    sim_s = self_s.get("simulate.simulate", 0.0)
    put("simulate.events_per_s_est", c.get("simulate.expected_events", 0.0) / sim_s if sim_s else 0.0,
        "1/s")
    put("trace.overhead_s", overhead_s, "s/op")
    put("trace.overhead_frac", overhead_frac, "share")
    return out


def main(argv=None):
    args = parse_args(argv)
    if args.probe_setup:
        set_up(args.workload, args.seed, Path(args.workdir))
        print(time.perf_counter() - _T0)
        return 0

    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        wl, threads = set_up(args.workload, args.seed, work / "main")
        setups = [time.perf_counter() - _T0]
        probes = [work / f"probe{k}" for k in range(SETUP_PROBES)]
        for probe in probes[:SETUP_PROBES // 2]:
            setups.append(probe_setup(args.workload, args.seed, probe))
        wl.prepare_checks()
        result, report = measure(wl, args)
        for probe in probes[SETUP_PROBES // 2:]:
            setups.append(probe_setup(args.workload, args.seed, probe))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    report["setup_samples_s"] = setups
    report["machine"] = machine_facts(threads)
    report.update(workload=args.workload, seed=args.seed, trace=args.trace)
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        result["metrics"] = {k: result["metrics"][k] for k in END_TO_END_UNITS}
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


def measure(wl, args):
    runner = Runner()
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    cycle_s = {False: [], True: []}
    pairs = []              # (traced, next untraced) cycle seconds
    traced_ops = 0
    deadline = time.perf_counter() + args.seconds
    cycle = 0
    while True:
        traced = bool(args.trace) and cycle % 2 == 1
        if traced:
            tracer.install()
        spent = 0.0
        for op in wl.ops:
            if traced:
                tracer.op = len(runner.records)
            spent += runner.execute(op)
        if traced:
            tracer.uninstall()
            traced_ops += len(wl.ops)
        cycle_s[traced].append(spent)
        if args.trace and not traced and cycle > 0:
            pairs.append((cycle_s[True][-1], spent))
        cycle += 1
        if time.perf_counter() >= deadline and (not args.trace or pairs):
            break

    for i, final in enumerate(wl.final_checks):
        message = final()
        if message:
            runner.correct = False
            runner.messages[f"final check {i}"] = message
    times = [r[1] for r in runner.records]
    attempted = len(runner.records)
    completed = sum(1 for r in runner.records if r[2] == "ok")
    tail_s, tail_pct, n = tail(times)
    report = {
        "cycles": cycle, "ops_per_cycle": len(wl.ops),
        "op_s.tail_percentile": tail_pct, "op_s.samples": n,
        "outcomes": {}, "op_median_s": {}, "messages": runner.messages,
    }
    for name in dict.fromkeys(r[0] for r in runner.records):
        mine = [r for r in runner.records if r[0] == name]
        report["op_median_s"][name] = statistics.median(r[1] for r in mine)
        for r in mine:
            report["outcomes"].setdefault(name, {}).setdefault(r[2], 0)
            report["outcomes"][name][r[2]] += 1
    if args.trace:
        # each traced cycle against the untraced one right after it, so that
        # the machine's drift and the cold first cycle stay out of the difference
        overhead_s = statistics.median((t - u) / len(wl.ops) for t, u in pairs)
        overhead_frac = statistics.median(t / u - 1.0 for t, u in pairs)
        metrics = per_layer(tracer, traced_ops, overhead_s, overhead_frac)
        out_dir = HERE / "_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.csv.gz")
    else:
        metrics = {
            "op_s.p50": statistics.median(times),
            "op_s.tail": tail_s,
            # over all op time of the run, checks excluded: a host's fast and
            # slow phases make cycle times bimodal, and a median of them
            # jumps between the modes where this total moves smoothly
            "ops_per_s": completed / math.fsum(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": completed / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    result = {"correct": runner.correct, "attempted": attempted,
              "failed": attempted - completed, "metrics": metrics}
    return result, report


if __name__ == "__main__":
    sys.exit(main())
