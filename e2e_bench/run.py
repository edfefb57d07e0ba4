#!/usr/bin/env python3
"""The regcube end-to-end benchmark: build, run, check, report.

Run from the repository root:

    python3 e2e_bench/run.py --workload analyst_loop --seed 1 --seconds 10 --trace 0
    python3 e2e_bench/run.py --workload all            # every workload, seed 1
    python3 e2e_bench/run.py --workload ingest_churn,budget_restart --trace 1

Each workload runs in its own process (e2e_bench/src, built into
.bench_build/ from the library's own sources; after every build
`regcube_e2e --selftest` must pass before anything runs). BENCHMARK.json is
the only list of metrics: the program reports what it measured, and this
script picks, orders and checks the listed ones. The script prints every
end-to-end metric by name with its unit and better-direction, writes the
machine-readable results (with provenance) to .bench_out/, and with
--trace 1 also writes the traced pass's per-layer table and its spans.
Spill and checkpoint directories live in a fresh scratch directory that is
removed when the run ends.

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}: for one workload its end-to-end metrics (or, traced, its
per-layer metrics); for several, the same keyed "<workload>.<metric>".
The exit code is 0 only if every workload ran, passed its answer check and
had no failed op.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "regcube_e2e")
WORKLOADS = ["ingest_churn", "analyst_loop", "budget_restart"]
# Claims are made on DEFAULT_SEED and re-checked on HELD_OUT_SEED, which no
# change should be tuned on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def checkout_env():
    """The environment for child processes: temporary files (the
    compiler's included) stay inside the checkout."""
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp
    return env


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds regcube_e2e; returns True on success."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src", "regcube")
    ):
        log("error: the regcube sources (CMakeLists.txt, src/regcube) are not "
            "next to e2e_bench/; run from a full checkout")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "regcube_e2e",
                  "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  env=checkout_env(),
                                  timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"error: build step failed: {err}")
            return False
        if done.returncode != 0:
            log(f"error: build step exited {done.returncode}: {' '.join(step)}")
            return False
    return os.path.isfile(BINARY)


def git_sha():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if top.returncode == 0 and os.path.realpath(top.stdout.strip()) == \
                os.path.realpath(ROOT):
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            if done.returncode == 0:
                return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown (not a git checkout)"


def filesystem_of(path):
    """fstype and mount point holding `path`, from /proc/self/mounts."""
    path = os.path.realpath(path)
    best = ("unknown", "")
    try:
        with open("/proc/self/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount, fstype = fields[1], fields[2]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best[1]):
                    best = (fstype, mount)
    except OSError:
        pass
    return {"fstype": best[0], "mount": best[1]}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def self_test():
    """Runs the binary's check of its statistics helpers."""
    try:
        done = subprocess.run([BINARY, "--selftest"], stdout=sys.stderr,
                              stderr=sys.stderr, env=checkout_env(), timeout=60)
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"error: regcube_e2e --selftest: {err}")
        return False
    return done.returncode == 0


def select_metrics(measured, spec, trace):
    """BENCHMARK.json is the only list of metrics. Picks this mode's list
    (end_to_end untraced, per_layer traced) out of what the binary
    measured, in the file's order; a per-layer metric of a layer the
    workload bypasses reads 0. Returns (metrics, problems)."""
    known = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    problems = []
    for name, entry in measured.items():
        if name not in known:
            problems.append(f"{name} is not listed in BENCHMARK.json")
        elif entry["unit"] != known[name]["unit"]:
            problems.append(f"{name} is measured in {entry['unit']} but "
                            f"listed in {known[name]['unit']}")
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        entry = measured.get(m["name"])
        if trace:
            entry = entry or {"value": 0.0, "unit": m["unit"]}
        elif entry is None or entry["value"] <= 0:
            problems.append(f"end-to-end metric {m['name']} is "
                            f"{'missing' if entry is None else 'not positive'}")
            continue
        metrics[m["name"]] = entry
    return metrics, problems


def run_workload(workload, args, scratch):
    """Runs one workload process; returns (result dict or None, lines)."""
    command = [BINARY, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch]
    if args.trace:
        command += ["--spans",
                    os.path.join(OUT_DIR, f"spans-{workload}-{args.seed}.jsonl")]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              env=checkout_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        log(f"error: {workload} did not finish in {RUN_TIMEOUT_S} s")
        sys.stderr.write(err.stderr.decode() if isinstance(err.stderr, bytes)
                         else (err.stderr or ""))
        return None, []
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except json.JSONDecodeError:
            result = None
    if result is None:
        log(f"error: {workload} exited {done.returncode} without a result")
        sys.stdout.write(done.stdout)
        return None, []
    if done.returncode != 0:
        result["correct"] = False
    return result, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="a workload, a comma list, or 'all'")
    parser.add_argument("--seed", type=int, default=None,
                        help=f"input seed (default {DEFAULT_SEED}; held-out "
                        f"seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured loop length (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    spec = load_spec()
    names = WORKLOADS if args.workload == "all" else args.workload.split(",")
    for name in names:
        if name not in WORKLOADS:
            log(f"error: unknown workload {name!r}; choose from {WORKLOADS}")
            return 2
    if args.seed is None:
        args.seed = DEFAULT_SEED
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}

    if not build() or not self_test():
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = os.path.join(OUT_DIR, f"scratch-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)

    provenance = {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": names,
        "argv": sys.argv[1:],
        "scratch_filesystem": filesystem_of(scratch),
    }
    results = {}
    ok = True
    try:
        for name in names:
            result, lines = run_workload(name, args, os.path.join(scratch, name))
            if result is None:
                ok = False
                continue
            for line in lines:
                if line.startswith("provenance "):
                    provenance.setdefault("binary", json.loads(line[len("provenance "):]))
                else:
                    print(line)
            measured = result["metrics"]
            result["metrics"], problems = select_metrics(measured, spec,
                                                         args.trace)
            for problem in problems:
                log(f"error: {name}: {problem}")
                ok = False
            if not args.trace:
                result["unbounded"] = {m: e for m, e in measured.items()
                                       if m not in result["metrics"]}
            results[name] = result
            ok = ok and result["correct"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print("\n== summary (seed %d, %g s per run, %s) ==" %
          (args.seed, args.seconds, "traced" if args.trace else "untraced"))
    for name, result in results.items():
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:48s} {entry['value']:>18.6f} {entry['unit']:9s} "
                  f"{better[metric]}")
        for metric, entry in result.get("unbounded", {}).items():
            print(f"  {metric:48s} {entry['value']:>18.6f} {entry['unit']:9s} "
                  f"{better.get(metric, '')} (no bound)")
    stamp = time.strftime("%Y%m%dT%H%M%S")
    tag = "layers" if args.trace else "results"
    path = os.path.join(OUT_DIR, f"{tag}-{stamp}-seed{args.seed}.json")
    with open(path, "w") as f:
        json.dump({"provenance": provenance, "results": results}, f, indent=1)
    if args.trace:
        table = os.path.join(OUT_DIR, f"layers-{stamp}-seed{args.seed}.md")
        with open(table, "w") as f:
            f.write("| workload | metric | value | unit |\n|---|---|---|---|\n")
            for name, result in results.items():
                for metric, entry in result["metrics"].items():
                    f.write(f"| {name} | {metric} | {entry['value']:.6g} | "
                            f"{entry['unit']} |\n")
        log(f"wrote {table}")
    log(f"wrote {path}")

    if len(results) < len(names):
        return 1  # a workload produced no result: print none either
    for result in results.values():
        result.pop("unbounded", None)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": ok,
            "attempted": max(1, sum(r["attempted"] for r in results.values())),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": e for n, r in results.items()
                        for m, e in r["metrics"].items()},
        }
    final["correct"] = bool(final["correct"]) and ok
    print(json.dumps(final))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
