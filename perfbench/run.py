#!/usr/bin/env python3
"""Build the benchmark binary from source, then run one workload, or all.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. The binary is built with cargo,
offline, into $CARGO_TARGET_DIR (default `.bench_build`). Each workload
runs in a process of its own, so its peak RSS is its own. With a single
workload the binary's output passes through unchanged: tables, a JSON
detail line and, last, the JSON result. With `--workload all` every
workload named in BENCHMARK.json runs in turn, followed by one table
with a row per workload and, last, a JSON object keyed by workload. The
exit code is non-zero when the build fails or any check fails.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml")]
    # Cargo's progress goes to stderr so stdout ends with the result.
    subprocess.run(cmd, env=env, stdout=sys.stderr, check=True)
    return target / "release" / "skipper-perfbench"


def option(args, flag):
    if flag in args:
        i = args.index(flag)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def run_all(binary, args):
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    rest = [a for i, a in enumerate(args)
            if a != "--workload" and (i == 0 or args[i - 1] != "--workload")]
    results, code = {}, 0
    for name in names:
        proc = subprocess.run([str(binary), "--workload", name, *rest],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        try:
            results[name] = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"{name}: no result", file=sys.stderr)
            code = code or 1
    # Every workload reports the same metrics in one mode.
    units = {m: v["unit"] for r in results.values() for m, v in r["metrics"].items()}
    header = ["workload", "correct", "attempted", "failed"] + [f"{m} ({u})" for m, u in units.items()]
    rows = [[name, str(r["correct"]).lower(), str(r["attempted"]), str(r["failed"])]
            + [f"{r['metrics'][m]['value']:.6g}" if m in r["metrics"] else "-" for m in units]
            for name, r in results.items()]
    widths = [max(len(c) for c in col) for col in zip(header, *rows)]
    rule = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
    fmt = lambda cells: "|" + "|".join(f" {c:<{w}} " for c, w in zip(cells, widths)) + "|"
    print("\n".join([rule, fmt(header), rule, *map(fmt, rows), rule]))
    print(json.dumps(results))
    return code


def main():
    args = sys.argv[1:]
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1
    if option(args, "--workload") == "all":
        return run_all(binary, args)
    return subprocess.run([str(binary), *args], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
