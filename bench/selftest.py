"""Fast self-test of the benchmark harness.

    python3 bench/selftest.py

Checks ``BENCHMARK.json`` against the benchmark's own limits, runs every
workload briefly on two seeds (plus one traced run each), and checks that
each run exits 0, passes every correctness check and prints every named
metric with its unit. Finally it checks that the benchmark refuses to run,
without printing a result, in a directory holding only the benchmark.
Takes about two minutes on two cores.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SECONDS = "2"


def check_manifest(doc: dict) -> list[str]:
    problems = []
    if set(doc) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        problems.append(f"BENCHMARK.json keys: {sorted(doc)}")
    names = [w["name"] for w in doc["workloads"]]
    if names != list(run.workloads.WORKLOADS):
        problems.append(f"workloads {names} != {run.workloads.WORKLOADS}")
    for w in doc["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload entry {w['name']}")
    metrics = doc["end_to_end"] + doc["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    if len(set(all_names)) != len(all_names):
        problems.append("a name is used twice")
    for m in metrics:
        if not NAME.match(m["name"]) or not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            problems.append(f"metric entry {m}")
    for m in doc["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            problems.append(f"end-to-end entry {m}")
    setup = next((m for m in doc["end_to_end"] if m["name"] == "setup_s"), None)
    if not setup or setup["bound"] != max(m["bound"] for m in doc["end_to_end"]):
        problems.append("setup_s must carry the largest bound")
    layers = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))
    for workload in run.workloads.WORKLOADS:
        entry = layers["tails"][workload]
        counts = run.sample_counts(workload, doc["run_seconds"])
        if [entry["cli_runs"], entry["pipeline_reps"]] != list(counts[1:]):
            problems.append(f"layers.json tail sample counts for {workload} are stale")
    known = {m["name"] for m in metrics}
    for layer in layers["layers"].values():
        for name in layer["metrics"]:
            if name not in known:
                problems.append(f"layers.json names unknown metric {name}")
    return problems


def check_run(argv: list[str], expected: dict, nonzero: bool) -> list[str]:
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    label = " ".join(argv[2:])
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']}: "
                        f"{proc.stderr[-500:]}")
    if set(result["metrics"]) != set(expected):
        problems.append(f"{label}: metrics differ: {sorted(set(expected) ^ set(result['metrics']))}")
    for name, entry in result["metrics"].items():
        value = entry.get("value")
        if entry.get("unit") != expected.get(name) or not isinstance(value, (int, float)):
            problems.append(f"{label}: bad entry for {name}: {entry}")
        elif nonzero and value <= 0:
            problems.append(f"{label}: end-to-end metric {name} is {value}")
    return problems


def check_refuses_bare() -> list[str]:
    """The benchmark must fail, printing no result, without the program's sources."""
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "golden", "--seed", "1",
             "--seconds", SECONDS, "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["benchmark ran without the program's sources"]
    return []


def main() -> int:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_manifest(doc)
    end_to_end = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    base = [sys.executable, str(HERE / "run.py"), "--seconds", SECONDS]
    for workload in run.workloads.WORKLOADS:
        for seed, trace in (("1", "0"), ("2", "0"), ("2", "1")):
            argv = base + ["--workload", workload, "--seed", seed, "--trace", trace]
            found = check_run(argv, per_layer if trace == "1" else end_to_end, trace == "0")
            print(f"{'ok  ' if not found else 'FAIL'} {workload} seed {seed} trace {trace}", flush=True)
            problems.extend(found)
    problems.extend(check_refuses_bare())
    for problem in problems:
        print(f"problem: {problem}")
    print("self-test passed" if not problems else f"self-test failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
