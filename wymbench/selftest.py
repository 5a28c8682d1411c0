#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size.

    python3 wymbench/selftest.py

For every workload in BENCHMARK.json it checks that
  * a plain run (--trace 0) and a traced run (--trace 1) exit 0, end in one
    JSON line with exactly the keys correct/attempted/failed/metrics, and
    report exactly the end-to-end (resp. per-layer) metrics BENCHMARK.json
    declares, each with its unit, also as a printed "metric"/"layer" line;
  * a run with one corrupted output (--corrupt) exits non-zero and reports
    failed > 0, i.e. an error rate above 0.
Exits 1 if any check fails.
"""

import json
import math
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, *extra):
    cmd = list(SPEC["command"]) + [
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--size", "tiny", *extra,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, lines, result


def check_result(workload, trace, code, lines, result):
    errors = []
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    if code != 0:
        errors.append(f"exit code {code}")
    if result is None:
        return errors + ["no JSON result on the last line"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in declared}:
        errors.append(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    prefix = "layer" if trace else "metric"
    for m in declared:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"]:
            errors.append(f"{m['name']}: unit {got.get('unit')!r}, declared {m['unit']!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{m['name']}: value {value!r}")
        shown = [l for l in lines if l.startswith(f"{prefix} {m['name']} = ")]
        if not shown or not shown[0].endswith(f" {m['unit']}"):
            errors.append(f"{m['name']}: not printed with its unit")
    return errors


def main():
    failures = 0
    for w in SPEC["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            code, lines, result = run(name, trace)
            errors = check_result(name, trace, code, lines, result)
            failures += bool(errors)
            print(f"{'FAIL' if errors else 'ok  '} {name} --trace {trace}", *errors, sep="\n     ")
        code, _, result = run(name, 0, "--corrupt")
        caught = code != 0 and result is not None and result["failed"] > 0
        failures += not caught
        detail = f"exit {code}, failed={result and result['failed']}, attempted={result and result['attempted']}"
        print(f"{'ok  ' if caught else 'FAIL'} {name} --corrupt raises the error rate ({detail})")
    print("self-test", "passed" if failures == 0 else f"failed ({failures})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
