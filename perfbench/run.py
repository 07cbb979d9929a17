"""hwnas benchmark harness.

    python3 perfbench/run.py --workload cls-oracle --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout: the program is imported from
`src/`, never from an installed copy. One run is one fresh process that sets
up once, then repeats the workload's pipeline pass (one client, closed loop)
until --seconds are used, and reports medians over passes. The last line of
stdout is a JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1. Lines before it print every metric with its unit,
and a result file under .perfbench_work/results/ keeps the environment, the
artifact hashes and the per-pass figures.

--trace 1 alternates untraced and traced passes on the same inputs, so the
tracing overhead is measured within the run and the end-to-end numbers of a
--trace 0 run never include tracing. See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# BLAS/OpenMP threads. 1 rather than nproc: see NOTES.md, "Why 1 thread".
THREADS = 1
SETUP_CHILDREN = 6      # extra fresh-process set-ups; setup_s is the median of 1 + 6
CHILD_TIMEOUT_S = 60
# Arguments are parsed before numpy loads (see pin_environment), so the
# workload names are listed here rather than read from workloads.py.
WORKLOAD_NAMES = ("cls-oracle", "sr-search", "profile-costmodel")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--golden", help="earlier result file whose artifact hashes "
                                     "this run must reproduce")
    ap.add_argument("--inject", choices=("stub-exit",),
                    help="make the device stub fail, to test failure counting")
    ap.add_argument("--setup-only", action="store_true",
                    help="only time the set-up and print it (used for setup_s)")
    args = ap.parse_args(argv)
    if args.inject and args.workload != "profile-costmodel":
        ap.error("--inject stub-exit needs --workload profile-costmodel")
    return args


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_environment(tmp: Path):
    """Fix thread counts before numpy loads; keep temp files in the checkout."""
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    os.environ["TMPDIR"] = str(tmp)
    os.environ.pop("HWNAS_DEVICE_CONFIG", None)


def import_program():
    """Import hwnas from this checkout's src/ and the workloads built on it."""
    src = ROOT / "src"
    if not (src / "hwnas" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hwnas sources at {src}; run from a checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import hwnas
    if Path(hwnas.__file__).resolve().parent != (src / "hwnas").resolve():
        raise SystemExit(f"perfbench: imported hwnas from {hwnas.__file__}, not {src}")
    import workloads
    return workloads


def environment() -> dict:
    import numpy
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"threads": THREADS, "thread_vars": list(THREAD_VARS), "nproc": nproc(),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def child_setups(args) -> list:
    """Set-up time of SETUP_CHILDREN fresh processes, one at a time."""
    times = []
    for _ in range(SETUP_CHILDREN):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child exited {proc.returncode}: {proc.stderr[-300:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def units(trace: bool):
    """Groups of (input index, traced) passes. The first group runs one input
    twice, so every run checks that equal inputs give equal artifacts."""
    if trace:
        k = 0
        while True:
            yield [(k, False), (k, True)]
            k += 1
    yield [(0, False), (0, False)]
    k = 1
    while True:
        yield [(k, False)]
        k += 1


def measure(wl, workload, run, run_dir: Path, seconds: float, trace: bool) -> list:
    """Passes until `seconds` of wall time are used; command times are taken
    on `run.clock`, the reference-speed clock."""
    passes, durations = [], []
    start = time.perf_counter()
    for unit in units(trace):
        if passes and (time.perf_counter() - start
                       + len(unit) * wl.median(durations)) > seconds:
            break
        for sub, traced in unit:
            p = wl.Pass(sub, traced, run_dir / f"pass{len(passes)}")
            p.dir.mkdir(parents=True)
            t0, first_tick = time.perf_counter(), len(run.clock.ticks)
            if traced:
                run.tracer.install()
            try:
                workload.run_pass(run, p)
            except wl.PassAborted:
                pass
            except Exception:  # keep measuring; the failure is counted
                run.record(False, traceback.format_exc(limit=4))
            finally:
                if traced:
                    run.tracer.uninstall()
                    p.spans, p.counts = run.tracer.take()
            durations.append(time.perf_counter() - t0)
            p.tick_s = wl.median(run.clock.ticks[first_tick:])
            passes.append(p)
    return passes


def check_hashes(run, passes, golden_path, workload_name, seed) -> dict:
    """Equal inputs must give equal artifacts, in this run and against --golden."""
    by_sub = {}
    for p in passes:
        if not p.hashes:
            continue
        first = by_sub.setdefault(str(p.sub), p.hashes)
        if first is not p.hashes:
            run.check(first == p.hashes, f"input {p.sub}: artifacts differ between passes")
    if golden_path:
        golden = json.loads(Path(golden_path).read_text(encoding="utf-8"))
        run.check(golden.get("workload") == workload_name and golden.get("seed") == seed,
                  "golden result is for another workload or seed")
        common = set(by_sub) & set(golden.get("hashes", {}))
        run.check(common, "golden result shares no input with this run")
        for sub in sorted(common):
            run.check(golden["hashes"][sub] == by_sub[sub],
                      f"input {sub}: artifacts differ from {golden_path}")
    return by_sub


# Per-layer metrics that are not "<span>.<s|self_s|calls>".
SPECIAL = {
    "search.weight_steps": ("search.train_search>nncore.sgd_step", "calls"),
    "search.arch_steps": ("search.train_search>search.total_loss", "calls"),
    "search.train_compact.steps": ("search.train_compact>nncore.sgd_step", "calls"),
    "latency.calls": ("latency", "calls"),
    "profiler.device_calls": ("profiler.device_run", "calls"),
    "profiler.device_failures": ("profiler.device_run", "failed"),
    "costmodel.records": ("costmodel.records", "calls"),
}


def layer_metrics(wl, tracing, names, passes) -> dict:
    """Medians over traced passes of each span metric; command times (`cmd.*`)
    from the untraced passes of the same run."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    per_pass = []
    for p in traced:
        agg = tracing.summarize(p.spans, p.counts)
        values = {"unattributed_s": p.wall_s - agg[""]["s"]}
        for name in names:
            span, field = SPECIAL.get(name) or name.rpartition(".")[::2]
            if span in agg and field in agg[span]:
                values[name] = agg[span][field]
        per_pass.append(values)
    out = {}
    for name in names:
        if name.startswith("cmd."):
            stage = name[len("cmd."):-len(".s")]
            out[name] = wl.med(plain, stage) if any(stage in p.times for p in plain) else 0.0
        elif name == "trace_overhead_pct":
            out[name] = 100.0 * (wl.typical_wall(traced) / wl.typical_wall(plain) - 1.0)
        else:
            out[name] = wl.median([v.get(name, 0) for v in per_pass])
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    tag = f"{args.workload}-seed{args.seed}-" + (
        "setup" if args.setup_only else f"trace{args.trace}")
    run_dir = WORK / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "tmp").mkdir(parents=True)
    pin_environment(run_dir / "tmp")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    t0 = time.perf_counter()
    wl = import_program()
    cls = wl.WORKLOADS[args.workload]
    workload = cls(args.inject == "stub-exit") if cls is wl.ProfileCostmodel else cls()
    workload.setup(args.seed, run_dir)
    setup_raw_s = time.perf_counter() - t0
    import refclock
    setup_s = refclock.rescale(setup_raw_s, refclock.calibrate())
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import tracing
    clock = refclock.RefClock()
    run = wl.Run(clock, tracing.Tracer(clock) if args.trace else None)
    setups = [setup_s]
    try:
        setups += child_setups(args)
        run.record(True, "")
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        run.record(False, f"set-up child: {e}")
    clock.start()
    try:
        passes = measure(wl, workload, run, run_dir, args.seconds, bool(args.trace))
    finally:
        clock.stop()
    hashes = check_hashes(run, passes, args.golden, args.workload, args.seed)

    plain = [p for p in passes if not p.traced]
    e2e = {"setup_s": ("s", wl.median(setups)),
           "wall_s": ("s", wl.typical_wall(plain)),
           "raw_wall_s": ("s", wl.typical_wall(plain, "raw_times")),
           "peak_rss_mb": ("MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)}
    e2e.update(workload.metrics(plain))
    e2e["error_rate"] = ("ratio", run.failed / run.attempted)
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units_of = {m["name"]: m["unit"] for m in spec["per_layer"]}
        layer = layer_metrics(wl, tracing, names, passes)
        reported = {n: (units_of[n], layer[n]) for n in names}
        traced = [p for p in passes if p.traced]
        if traced:
            tracing.dump(traced[-1].spans, run_dir / "spans.jsonl")
    else:
        reported = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(),
              "passes": len(passes), "attempted": run.attempted, "failed": run.failed,
              "failures": run.failures[:20],
              "setup_runs_s": setups,
              "setup_raw_s": setup_raw_s,
              "tick_s": wl.median(clock.ticks),
              "end_to_end": {k: {"value": v, "unit": u} for k, (u, v) in e2e.items()},
              "metrics": {k: {"value": v, "unit": u} for k, (u, v) in reported.items()},
              "hashes": hashes,
              "per_pass": [{"input": p.sub, "traced": p.traced, "times_s": p.times,
                            "raw_times_s": p.raw_times, "tick_s": p.tick_s,
                            "values": p.values}
                           for p in passes]}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    result_path = results / f"{tag}.json"
    result_path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} threads={THREADS} nproc={nproc()} "
          f"tick_s={result['tick_s']:.6f}")
    shown = e2e if not args.trace else {**e2e, **reported}
    for name, (unit, value) in shown.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    for failure in run.failures[:5]:
        print(f"  FAILED: {failure.splitlines()[-1] if failure else failure}")
    print(f"  result file: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": run.failed == 0 and bool(passes),
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (u, v) in reported.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
