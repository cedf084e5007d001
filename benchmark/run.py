#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Usage (from the repository root):

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark package (an optimized build of benchmark/Cargo.toml
into $CARGO_TARGET_DIR, or benchmark/target), runs it, and checks that the
summary on the last line of its output reports exactly the metrics that
BENCHMARK.json lists for the run's mode. Traced runs (--trace 1) also
write their spans to <target dir>/trace/. See benchmark/NOTES.md.
"""

import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"


def main() -> int:
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or HERE / "target")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print(f"error: benchmark build failed ({build.returncode})", file=sys.stderr)
        return 1
    exe = target / "release" / "waltz-e2e-bench"
    args = sys.argv[1:] + ["--trace-out", str(target / "trace")]
    run = subprocess.run([str(exe)] + args, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        return run.returncode
    lines = run.stdout.strip().splitlines()
    summary = json.loads(lines[-1]) if lines else {}
    spec = json.loads(SPEC.read_text())
    traced = "--trace" in args and args[args.index("--trace") + 1] == "1"
    listed = spec["per_layer" if traced else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {k: v["unit"] for k, v in summary.get("metrics", {}).items()}
    if want != got:
        print(f"error: summary metrics differ from BENCHMARK.json: "
              f"missing {sorted(set(want) - set(got))}, "
              f"extra {sorted(set(got) - set(want))}, "
              f"unit mismatches {sorted(k for k in want if k in got and want[k] != got[k])}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
