#!/usr/bin/env python3
"""The repository benchmark (see BENCHMARK.json at the repository root).

    python3 cbsbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 cbsbench/run.py --smoke

Run from the repository root. The first run configures and builds
cbsbench/ (the repository's libraries plus the cbsbench measurement binary)
under .bench_build/; later runs only re-check the build.

One run:

1. sets up three times, each in a fresh process: generate the seeded
   trace from the synth span models, write it, and compute the
   reference output (setup_s is the median);
2. runs one cold repetition, which is checked but not timed;
3. repeats the workload closed-loop, one repetition per fresh process,
   until --seconds have passed. With --trace 1, untraced and traced
   repetitions alternate.

Every repetition's output is compared with the reference; a mismatch
or a crash counts as failed, and the run goes on. The last line of
stdout is one JSON object: correct, attempted, failed, and the
end-to-end metrics (--trace 0) or per-layer metrics (--trace 1) named
in BENCHMARK.json.

--smoke runs every workload at a small size with two seeds and checks
the benchmark itself: every metric is emitted with its unit, the two
seeds give different inputs that both pass the output check, traced and
untraced runs give the same output, the layer spans plus residual_s add
up to the traced wall time, and trace.passes reads exactly 3, 1 and 1.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cbsbench")
BINARY = os.path.join(BUILD_DIR, "cbsbench")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

SETUPS = 3
MIN_REPS = 3
EXPECTED_PASSES = {
    "analyze-mrc-alicloud-csv": 3,
    "analyze-msrc-cbt2-x3": 1,
    "serve-alicloud-csv-6h": 1,
}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def log(message):
    print(f"cbsbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build the measurement binary; exit 1 on
    failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "cbsbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "cbsbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode:
            log("build failed")
            sys.exit(1)


def spawn(args):
    """Run one child process to completion. Returns its stdout, exit
    code and peak RSS in MB (from wait4's ru_maxrss, so it covers this
    child alone)."""
    child = subprocess.Popen(args, stdout=subprocess.PIPE, cwd=ROOT)
    try:
        out = child.stdout.read()
    except BaseException:
        child.kill()
        child.wait()
        raise
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    return out.decode(), child.returncode, usage.ru_maxrss / 1024.0


def last_json(text):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def set_up(workload, seed, work, smoke):
    args = [BINARY, "setup", workload, str(seed), work]
    if smoke:
        args.append("--smoke")
    out, code, _ = spawn(args)
    result = last_json(out) if code == 0 else None
    if result is None:
        log(f"set-up of {workload} failed (exit {code})")
        sys.exit(1)
    return result


def repeat(workload, work, traced):
    """One repetition in a fresh process; a crash is a completed=false
    result."""
    args = [BINARY, "rep", workload, work]
    if traced:
        args.append("--traced")
    out, code, rss_mb = spawn(args)
    result = None
    if code == 0:
        try:
            result = last_json(out)
        except ValueError:
            result = None
    if result is None:
        result = {"completed": False, "ok": False,
                  "error": f"exit {code}", "layers": {}}
    result["peak_rss_mb"] = rss_mb
    if not result["ok"]:
        log(f"{workload}: repetition failed: {result['error']}")
    return result


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(workload, seed, seconds, trace, smoke=False):
    """One benchmark run; returns the result object."""
    spec = load_spec()
    work = os.path.join(WORK_ROOT, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        setups = [set_up(workload, seed, work, smoke)
                  for _ in range(SETUPS)]
        records = setups[-1]["records"]
        reps = [repeat(workload, work, False)]  # cold: checked, untimed
        untraced, traced = [], []
        start = time.monotonic()
        while (time.monotonic() - start < seconds or
               len(untraced) < MIN_REPS or
               (trace and len(traced) < MIN_REPS)):
            untraced.append(repeat(workload, work, False))
            if trace:
                traced.append(repeat(workload, work, True))
        reps += untraced + traced
        digest = trace_digest(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)  # only when no other run is using it
        except OSError:
            pass

    failed = sum(1 for r in reps if not r["ok"])
    timed = [r for r in untraced if r["completed"]]
    walls = [r["wall_s"] for r in timed]
    metrics = {}
    if not trace and timed:
        wall = statistics.median(walls)
        closes = [c for r in timed for c in r["closes_ms"]]
        if not closes:
            # Batch analyze has one window, the whole trace; it closes
            # when the entry call returns.
            closes = [w * 1e3 for w in walls]
        values = {
            "wall_s": wall,
            "records_per_s": records / wall,
            "peak_rss_mb": statistics.median(
                r["peak_rss_mb"] for r in timed),
            "window_close_p50_ms": statistics.median(closes),
            "window_close_p90_ms": percentile(closes, 0.9),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
        }
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]],
                                  "unit": m["unit"]}
        log(f"{workload}: {len(timed)} timed repetitions, "
            f"{len(closes)} close samples")
    traced_ok = [r for r in traced if r["completed"]]
    if trace and traced_ok and timed:
        values = {}
        for name in traced_ok[0]["layers"]:
            values[name] = statistics.median(
                r["layers"][name] for r in traced_ok)
        values["trace_overhead"] = (values["traced_wall_s"] /
                                    statistics.median(walls))
        for m in spec["per_layer"]:
            if m["name"] not in values:
                log(f"{workload}: layer metric {m['name']} missing")
                sys.exit(1)
            metrics[m["name"]] = {"value": values[m["name"]],
                                  "unit": m["unit"]}
    result = {"correct": failed == 0, "attempted": len(reps),
              "failed": failed, "metrics": metrics}
    if smoke:
        result["_reps"] = reps
        result["_digest"] = digest
    return result


def trace_digest(work):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(work)):
        if name.startswith("trace."):
            with open(os.path.join(work, name), "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def smoke():
    """Self-test of the benchmark at a small size; exit 1 on a finding."""
    spec = load_spec()
    findings = []

    def check(condition, message):
        if not condition:
            findings.append(message)
            log(f"smoke: FAIL {message}")

    for workload in (w["name"] for w in spec["workloads"]):
        digests = []
        for seed in (1, 2):
            for trace, wanted in ((0, spec["end_to_end"]),
                                  (1, spec["per_layer"])):
                result = measure(workload, seed, 0, trace, smoke=True)
                tag = f"{workload} seed {seed} trace {trace}"
                check(result["correct"] and result["failed"] == 0,
                      f"{tag}: output check failed")
                for m in wanted:
                    got = result["metrics"].get(m["name"])
                    check(got is not None and got["unit"] == m["unit"] and
                          isinstance(got["value"], (int, float)),
                          f"{tag}: metric {m['name']} missing or unitless")
                check(set(result["metrics"]) ==
                      {m["name"] for m in wanted},
                      f"{tag}: unexpected metrics")
                if trace:
                    for rep in result["_reps"]:
                        layers = rep["layers"]
                        if not layers:
                            continue
                        wall = layers["traced_wall_s"]
                        check(layers["trace.passes"] ==
                              EXPECTED_PASSES[workload],
                              f"{tag}: trace.passes "
                              f"{layers['trace.passes']}")
                        check(0 <= layers["residual_s"] <= 0.05 * wall,
                              f"{tag}: residual {layers['residual_s']} "
                              f"of {wall} s")
                digests.append(result["_digest"])
        check(digests[0] == digests[1],
              f"{workload}: seed 1 gave two different inputs")
        check(digests[0] != digests[2],
              f"{workload}: seeds 1 and 2 gave the same input")
    log(f"smoke: {len(findings)} findings")
    sys.exit(1 if findings else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    build()
    if args.smoke:
        smoke()
    names = [w["name"] for w in load_spec()["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
