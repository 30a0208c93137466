#!/usr/bin/env python3
"""Self-check of the benchmark: a tiny pass over every workload.

    python3 perfbench/tests/selfcheck.py [--seconds S] [--workload NAME ...]

For every workload BENCHMARK.json names it runs `perfbench/run.py` once
untraced and once traced and asserts that
  - the last stdout line has exactly the keys correct/attempted/failed/metrics,
    with correct = true and failed = 0 (error_rate 0);
  - every metric BENCHMARK.json names is emitted with its unit, as a finite
    number: the end-to-end ones untraced, the per-layer ones traced;
  - every span of the traced run's JSONL lies inside its parent span and no
    span's self time is negative.
Finally it checks that the benchmark exits non-zero without printing a
result when the monsem sources are absent. Exit code 0 means all passed.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, seconds, trace):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "1",
                             "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    if p.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {p.returncode}\n"
                             + p.stderr[-3000:])
    return json.loads(p.stdout.strip().splitlines()[-1]), p.stderr


def check_result(r, workload, trace):
    where = f"{workload} trace={trace}"
    assert set(r) == {"correct", "attempted", "failed", "metrics"}, where
    assert r["correct"] is True and r["failed"] == 0, f"{where}: {r}"
    assert isinstance(r["attempted"], int) and r["attempted"] >= 1, where
    want = SPEC["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in want}
    assert set(r["metrics"]) == names, \
        f"{where}: metrics differ: {set(r['metrics']) ^ names}"
    for m in want:
        got = r["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{where}: {m['name']} unit {got}"
        v = got["value"]
        assert isinstance(v, (int, float)) and math.isfinite(v), \
            f"{where}: {m['name']} = {v!r}"
        if not trace:
            assert v > 0, f"{where}: end-to-end {m['name']} is {v}"


def check_spans(path):
    spans = [json.loads(line) for line in open(path)]
    assert spans, f"no spans in {path}"
    for s in spans:
        assert s["end_ns"] >= s["start_ns"], f"span ends before it starts: {s}"
        assert s["self_ns"] >= 0, f"negative self time: {s}"
        if s["parent"] >= 0:
            p = spans[s["parent"]]
            assert p["start_ns"] <= s["start_ns"] and s["end_ns"] <= p["end_ns"], \
                f"span {s} outside its parent {p}"
    return len(spans)


def check_bare_directory():
    """Only BENCHMARK.json and the benchmark's own files: no result."""
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_build")) as d:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
        for rel in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, rel), os.path.join(d, rel),
                            ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
        args = ["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0"]
        p = subprocess.run(SPEC["command"] + args,
                           cwd=d, capture_output=True, text=True, timeout=180,
                           env=env)
        assert p.returncode != 0, "benchmark succeeded without the sources"
        assert '"metrics"' not in p.stdout, "printed a result without sources"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=1)
    ap.add_argument("--workload", nargs="*",
                    default=[w["name"] for w in SPEC["workloads"]])
    a = ap.parse_args()
    for w in a.workload:
        r, _ = run(w, a.seconds, 0)
        check_result(r, w, 0)
        r, err = run(w, a.seconds, 1)
        check_result(r, w, 1)
        spans = [line.split("spans: ", 1)[1] for line in err.splitlines()
                 if line.startswith("spans: ")]
        assert spans, f"{w}: traced run named no span file"
        n = check_spans(spans[-1])
        print(f"ok {w}: {r['attempted']} traced checks, {n} spans", flush=True)
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    check_bare_directory()
    print("ok bare directory: no result without the sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
