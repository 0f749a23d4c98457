#!/usr/bin/env python3
"""SDE benchmark: builds the perfbench program from source and runs it.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --smoke   # every workload path and check, 5x5
  python3 perfbench/run.py --check   # untimed equivalence checks, once

A timed run repeats whole rounds of the workload, each in a fresh
process, until --seconds have passed (at least one round), and reports
the median of every metric over its rounds. With --trace 0 it prints the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.
A traced round runs the untraced exploration first, in its own process,
so that obs.trace_overhead_s compares two cold explorations. The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.

The program is built with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) under the checkout root. See README.md.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
ROUND_TIMEOUT_S = 170  # a run must end within 180 s
BUILD_JOBS = max(1, min(4, os.cpu_count() or 1))


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds perfbench; returns its path."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(out / "CMakeFiles", ignore_errors=True)
                (out / "CMakeCache.txt").unlink(missing_ok=True)
                sys.exit("perfbench: configure failed")
        compile_cmd = ["cmake", "--build", str(out), "--target", "perfbench",
                       "-j", str(BUILD_JOBS)]
        if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed")
    return out / "perfbench"


def run_perfbench(args, timeout=ROUND_TIMEOUT_S):
    """Runs perfbench in its own process group; returns its last line
    of output as JSON (None if it produced none) and its exit code."""
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"perfbench: {' '.join(args[1:])} timed out")
        return None, -1
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    for problem in (result or {}).get("problems", []):
        log(f"perfbench: {problem}")
    return result, proc.returncode


def round_args(binary, workload, seed, traced, workdir, smoke):
    args = [str(binary), "round", "--workload", workload, "--seed", str(seed),
            "--trace", "1" if traced else "0", "--workdir", str(workdir)]
    return args + (["--smoke"] if smoke else [])


def traced_round(binary, workload, seed, workdir, smoke):
    """One traced round, after an untraced exploration in its own
    process for obs.trace_overhead_s."""
    smoke_flag = ["--smoke"] if smoke else []
    plain, plain_code = run_perfbench(
        [str(binary), "explore", "--workload", workload] + smoke_flag)
    traced, traced_code = run_perfbench(
        round_args(binary, workload, seed, True, workdir, smoke))
    if plain is None or traced is None or plain_code or traced_code:
        return None
    metrics = dict(traced["metrics"])
    metrics["obs.trace_overhead_s"] = (
        metrics["sde.explore_s"] - plain["metrics"]["sde.explore_s"])
    return {
        "correct": plain["correct"] and traced["correct"],
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "metrics": metrics,
    }


def one_round(binary, workload, seed, traced, workdir, smoke=False):
    if traced:
        return traced_round(binary, workload, seed, workdir, smoke)
    result, code = run_perfbench(
        round_args(binary, workload, seed, False, workdir, smoke))
    return result if code == 0 else None


def aggregate(rounds, specs):
    """Medians over rounds of the metrics named in specs; None if any
    round lacks one."""
    metrics = {}
    for spec in specs:
        values = [r["metrics"].get(spec["name"]) for r in rounds]
        if any(v is None for v in values):
            log(f"perfbench: metric {spec['name']} missing")
            return None
        metrics[spec["name"]] = {"value": statistics.median(values),
                                 "unit": spec["unit"]}
    return {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }


def workdir_for_run():
    workdir = build_dir().parent / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    return workdir


def timed_run(config, options):
    names = [w["name"] for w in config["workloads"]]
    if options.workload not in names:
        sys.exit(f"perfbench: unknown workload {options.workload}; "
                 f"one of {', '.join(names)}")
    binary = build()
    specs = config["per_layer" if options.trace else "end_to_end"]
    workdir = workdir_for_run()
    rounds = []
    start = time.monotonic()
    while True:
        seed = options.seed * 1000 + len(rounds)
        round_start = time.monotonic()
        result = one_round(binary, options.workload, seed, options.trace,
                           workdir)
        if result is None:
            sys.exit("perfbench: a round produced no result")
        rounds.append(result)
        elapsed = time.monotonic() - start
        last = time.monotonic() - round_start
        # Whole rounds only; stop in time to end well within 180 s.
        if elapsed >= options.seconds or elapsed + last > 150:
            break
    summary = aggregate(rounds, specs)
    if summary is None:
        sys.exit(1)
    for name, metric in summary["metrics"].items():
        print(f"{name:40s} {metric['value']:>22} {metric['unit']}")
    print(f"rounds {len(rounds)}, attempted {summary['attempted']}, "
          f"failed {summary['failed']}, correct {summary['correct']}")
    print(json.dumps(summary))


def smoke_run(config):
    """Every workload path, traced and untraced, every check and the
    tampered inputs, on 5x5 grids."""
    binary = build()
    workdir = workdir_for_run()
    ok = True
    for workload in config["workloads"]:
        for traced in (False, True):
            specs = config["per_layer" if traced else "end_to_end"]
            result = one_round(binary, workload["name"], 1, traced, workdir,
                               smoke=True)
            summary = aggregate([result], specs) if result else None
            passed = (summary is not None and summary["correct"]
                      and summary["failed"] == 0)
            ok = ok and passed
            print(f"smoke {workload['name']} trace={int(traced)}: "
                  f"{'ok' if passed else 'FAILED'}")
    for mode in (["check", "--smoke", "--workdir", str(workdir)], ["tamper"]):
        result, code = run_perfbench([str(binary)] + mode)
        passed = code == 0 and result is not None and result["correct"]
        ok = ok and passed
        print(f"smoke {mode[0]}: {'ok' if passed else 'FAILED'} "
              f"{json.dumps(result['metrics']) if result else ''}")
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def check_run():
    binary = build()
    result, code = run_perfbench(
        [str(binary), "check", "--workdir", str(workdir_for_run())],
        timeout=900)
    print(json.dumps(result))
    return 0 if code == 0 and result is not None else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--check", action="store_true")
    options = parser.parse_args()

    with open(ROOT / "BENCHMARK.json") as f:
        config = json.load(f)
    if options.smoke:
        return smoke_run(config)
    if options.check:
        return check_run()
    if options.workload is None:
        parser.error("--workload is required")
    timed_run(config, options)
    return 0


if __name__ == "__main__":
    sys.exit(main())
