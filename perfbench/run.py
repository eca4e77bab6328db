#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <plan-sweep|train-online|service-mix> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package in release mode (into `$CARGO_TARGET_DIR`,
default `.bench_build`), runs it, and passes its output through. The last
line of standard output is the JSON result. A traced run also builds the
repository's `trace_lint` binary and lints the trace it wrote (and the
Recorder's metrics snapshot, when there is one); a lint failure marks the
result incorrect. Exits non-zero when the build fails, the run fails or a
correctness check fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def cargo_build(args, env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    # Build output goes to stderr so standard output stays the result.
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0


def flag(args, name, default=None):
    if name in args and args.index(name) + 1 < len(args):
        return args[args.index(name) + 1]
    return default


def main():
    args = sys.argv[1:]
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    traced = flag(args, "--trace", "0") == "1"

    if not cargo_build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], env):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if traced and not cargo_build(["-p", "angel-bench", "--bin", "trace_lint"], env):
        print("perfbench: trace_lint build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(target, "release", "angel-perfbench")] + args
    trace_path = None
    if traced:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        name = "%s-%s.trace.json" % (flag(args, "--workload", "x"), flag(args, "--seed", "0"))
        trace_path = os.path.join(out_dir, name)
        cmd += ["--trace-out", trace_path]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout)
        print("perfbench: run failed (exit %d)" % run.returncode, file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    if traced:
        lint = os.path.join(target, "release", "trace_lint")
        checks = [[lint, trace_path]]
        snapshot = trace_path + ".metrics.json"
        if os.path.exists(snapshot):
            checks.append([lint, "--metrics", snapshot])
        for check in checks:
            if subprocess.run(check, cwd=ROOT, stdout=sys.stderr).returncode != 0:
                result["correct"] = False
                result["failed"] += 1

    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
