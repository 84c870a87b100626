#!/usr/bin/env python3
"""tenqec benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload threshold-sweep --seed 1 --seconds 20 --trace 0

``--workload all`` runs the three workloads one after another, each in its
own process, and prints every metric.  With ``--trace 0`` the last stdout
line is a JSON object with the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it holds the per-layer metrics of a separate traced run.
Run from the repository root: the package is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
NAMES = ("threshold-sweep", "decode-deep", "code-build")
CHILD_TIMEOUT_S = 900
SETUP_SHARE = 0.2
MIN_SETUPS = 3


def cap_blas_threads() -> int:
    """Cap BLAS threads at the usable core count; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return nproc


def blas_threads(numpy) -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, if it is one."""
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(numpy, tenqec, args, nproc: int) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(numpy),
        "blas_thread_cap": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "machine": platform.machine(),
        "tenqec": tenqec.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def set_up(workload, rec, seconds: float):
    """Set up once, and again until ``seconds`` are spent, between two probes.

    Set-ups are timed in a batch because the shortest take about a
    millisecond, less than a probe.
    """
    from workloads import probe_s, scale, timed

    before, batch = probe_s(), []
    while not batch or sum(batch) < seconds:
        state, dt = timed(workload.setup)
        batch.append(dt)
    after = probe_s()
    rec.times.setdefault("setup", []).extend(batch)
    rec.scaled.setdefault("setup", []).extend(scale(dt, before, after) for dt in batch)
    return state


def end_to_end(workload, args, rec) -> tuple[dict, dict]:
    from workloads import PROBE_REF_S, scaled_pass_s, timed

    # Set-up is repeated through the run, taking about SETUP_SHARE of its
    # time and at least MIN_SETUPS set-ups, so that it is sampled like the
    # passes; setup_s is the median of the scaled set-up times.
    passes = []
    start = time.perf_counter()
    while (not passes or time.perf_counter() - start < args.seconds
           or not workload.enough(rec)):
        due = SETUP_SHARE * sum(passes) - sum(rec.times.get("setup", ()))
        if not passes or due >= 0:
            state = set_up(workload, rec, due)
        passes.append(timed(workload.run_pass, state, len(passes), rec)[1])
    while len(rec.times["setup"]) < MIN_SETUPS:
        set_up(workload, rec, 0)
    rec.times["pass"] = passes
    # Peak RSS of the timed workload alone: the checks below build more.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    workload.check(state, rec)
    metrics = {
        "setup_s": statistics.median(rec.scaled["setup"]),
        "wall_s": scaled_pass_s(workload.steps, rec),
        "peak_rss_mb": peak_mb,
    }
    report = dict(workload.report(rec))
    report["passes"] = (len(passes), "count")
    report["pass_s.measured"] = (statistics.median(passes), "s")
    report["speed_vs_reference"] = (PROBE_REF_S / statistics.median(rec.times["probe"]),
                                    "ratio")
    report["error_rate"] = (rec.failed / rec.attempted, "ratio")
    return metrics, report


def traced(name, args, rec) -> tuple[dict, dict]:
    """Per-layer metrics from a traced pass of every workload.

    The selected workload first runs untraced for half of ``--seconds``,
    then traced for as many passes; the difference of the median pass
    times is the tracing overhead.  The other two workloads run one traced
    pass each, so every per-layer metric is present in every traced run.
    """
    import layers
    import spans
    from tenqec import holographic
    from workloads import WORKLOADS, timed

    selected = WORKLOADS[name](OUT)
    state = selected.setup()
    plain = []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < args.seconds / 2:
        plain.append(timed(selected.run_pass, state, len(plain), rec)[1])
    tracer = spans.Tracer()
    done = []
    with spans.installed(tracer):
        for wname, cls in WORKLOADS.items():
            tracer.section = wname
            workload = selected if wname == name else cls(OUT)
            state = workload.setup()
            if wname == "code-build":
                for r in (3, 4):
                    holographic.build_layout(r, with_code=False)
            if wname == name:
                passes = range(len(plain), 2 * len(plain))
                with_trace = [timed(workload.run_pass, state, j, rec)[1] for j in passes]
            else:
                workload.run_pass(state, 0, rec)
            done.append((workload, state))
    tracer.write(OUT / f"spans-{name}-seed{args.seed}.jsonl")
    for workload, state in done:
        workload.check(state, rec)
    for r, seen in sorted(layers.mac_totals(tracer).items()):
        if r >= 2:
            bound = holographic.predicted_op_count(tracer.last_decode[r][0])
            rec.check(f"r{r} MAC total repeats exactly", len(seen) == 1, str(sorted(seen)))
            rec.check(f"r{r} MAC total within predicted_op_count",
                      max(seen) <= bound, f"({max(seen)} > {bound})")
    overhead = statistics.median(with_trace) - statistics.median(plain)
    metrics = layers.per_layer(tracer, overhead)
    report = {
        "untraced_wall_s": (statistics.median(plain), "s"),
        "traced_wall_s": (statistics.median(with_trace), "s"),
        "error_rate": (rec.failed / rec.attempted, "ratio"),
    }
    return metrics, report


def metric_specs(trace: int) -> list[dict]:
    """BENCHMARK.json's metrics for this mode: names, units and report order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def print_table(title: str, rows: dict) -> None:
    print(title)
    for name, (value, unit) in rows.items():
        text = f"{int(value):,}" if float(value).is_integer() else f"{value:.6g}"
        print(f"  {name:44s} {text:>16s} {unit}")


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
        sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for key, value in result["metrics"].items():
            metrics[f"{name}/{key}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "tenqec" / "__init__.py").is_file():
        print(f"error: tenqec sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    nproc = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import numpy
    import tenqec

    if Path(tenqec.__file__).resolve().parent != SRC / "tenqec":
        print(f"error: imported tenqec from {tenqec.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Record

    OUT.mkdir(exist_ok=True)
    env = environment(numpy, tenqec, args, nproc)
    print("env " + json.dumps(env))
    rec = Record(seed=args.seed)
    if args.trace:
        values, report = traced(args.workload, args, rec)
    else:
        values, report = end_to_end(WORKLOADS[args.workload](OUT), args, rec)
    specs = metric_specs(args.trace)
    if sorted(values) != sorted(m["name"] for m in specs):
        print("error: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 2
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in specs}

    print_table(f"{args.workload} ({'per-layer' if args.trace else 'end-to-end'})",
                metrics)
    print_table("workload figures (not gated)", report)
    for key, value in rec.notes.items():
        print(f"  {key}: {value}")
    for problem in rec.problems:
        print(f"FAILED {problem}")
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "result": result, "notes": rec.notes,
                    "problems": rec.problems, "times": rec.times,
                    "scaled": rec.scaled,
                    "figures": {k: v for k, (v, _) in report.items()}}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
