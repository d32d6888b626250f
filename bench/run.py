"""penheal benchmark: one command per workload, seeded, checked, with metrics.

    python3 bench/run.py --workload golden --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The program under test is the
``penheal`` package in ``src/``; the benchmark generates the workload's
inputs from the seed (untimed), then measures for about ``--seconds``
seconds in fresh child processes, one at a time (closed loop, one client):

* set-up: fresh processes that import ``penheal.cli`` and assemble the
  inputs (``setup_s``);
* the workload's CLI command as a fresh process (``run_wall_s``,
  ``peak_rss_mb``);
* one process running the pipeline stages repeatedly after set-up
  (``pipeline_s`` and the model-call counts).

Every timing is reported in reference seconds: the measured seconds scaled
by a fixed piece of interpreter work timed on the same core next to the
sample (``hostspeed.py``), so that the host's own changes of speed cancel.
The whole benchmark runs on one core of those it may use.

Every output is checked. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Sample counts are fixed per workload for a given ``--seconds`` (see
``ROUNDS``), so tail percentiles stay comparable between commits. Raw
samples, their reference times and the traced run's spans are kept under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import workloads  # noqa: E402

CHILD_TIMEOUT = 120.0
RUN_DEADLINE = 150.0  # stop sampling early rather than overrun the 180 s limit

# The run is split into rounds so that every metric samples the whole run:
# the machine's speed drifts over seconds, and a phase measured in one block
# would see only part of that drift. Per workload: (rounds, CLI runs per
# round, pipeline reps per round, extra set-up processes per round). Each
# round's pipeline process also yields one set-up sample. Rounds scale with
# --seconds but never with the program's speed, so a tail is the same
# percentile on every commit.
REFERENCE_SECONDS = 30
ROUNDS = {
    "golden": (5, 5, 10, 1),
    "wide_remediate": (5, 5, 6, 1),
    "deep_pentest": (2, 11, 11, 2),
}


def plan_rounds(workload: str, seconds: float) -> tuple[int, int, int, int]:
    rounds, *per_round = ROUNDS[workload]
    return (max(1, round(rounds * seconds / REFERENCE_SECONDS)), *per_round)


def sample_counts(workload: str, seconds: float) -> tuple[int, int, int]:
    """(set-up samples, CLI runs, pipeline reps) in one run."""
    rounds, cli, reps, setups = plan_rounds(workload, seconds)
    return rounds * (1 + setups), rounds * cli, rounds * reps


def tail(values: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(values)
    return ordered[max(len(ordered) - 11, 0)]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"  # same string hashing in every child process
    return env


def spawn(argv: list[str], cwd: Path, log: Path):
    """Run one child to completion; returns (exit code, wall seconds, peak RSS KiB).

    stderr goes to ``log``, stdout next to it with suffix ``.out``. A child
    that outlives CHILD_TIMEOUT is killed and reaped.
    """
    with open(log, "wb") as err, open(log.with_suffix(".out"), "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def probe(mode: str, spec: dict, reps: int = 0):
    """Run probe.py in a fresh process; returns its JSON result or None."""
    work = Path(spec["work"])
    log = work / f"probe-{mode}.err"
    argv = [sys.executable, str(HERE / "probe.py"), mode, str(work / "spec.json")]
    if reps:
        argv.append(str(reps))
    code, _, _ = spawn(argv, work, log)
    lines = log.with_suffix(".out").read_text(encoding="utf-8").strip().splitlines()
    if code != 0 or not lines:
        sys.stderr.write(f"probe {mode} failed ({code}):\n{log.read_text(encoding='utf-8')[-2000:]}\n")
        return None
    return json.loads(lines[-1])


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])
        return not problems


def check_rep(spec: dict, facts: dict, first_sha: list) -> list[str]:
    """Checks on one in-process pipeline run."""
    expect = spec["expect"]
    if "error" in facts:
        return [facts["error"]]
    problems = []
    if facts["calls"] != expect["model_calls"]:
        problems.append(f"{facts['calls']} model calls, expected {expect['model_calls']}")
    if facts["roles"] != expect["role_calls"]:
        problems.append(f"per-role calls {facts['roles']} != {expect['role_calls']}")
    if facts["termination"] != expect["termination"]:
        problems.append(f"termination {facts['termination']} != {expect['termination']}")
    if not first_sha:
        first_sha.append(facts["artifact_sha"])
    elif facts["artifact_sha"] != first_sha[0]:
        problems.append("in-process artifact differs between runs")
    return problems


def check_pipeline(spec: dict, result, tally: Tally, first_sha: list,
                   reps_key: str = "reps") -> list[dict]:
    """Check one pipeline process's runs against the spec and ``first_sha``."""
    if result is None:
        tally.record(["pipeline process failed"])
        return []
    reps = result[reps_key]
    for facts in reps:
        tally.record(check_rep(spec, facts, first_sha))
    inproc = Path(spec["work"]) / "inproc-artifact.json"
    if inproc.exists():
        tally.record(workloads.check_artifact(spec, json.loads(inproc.read_bytes())))
        inproc.unlink()
    return reps


def cli_runs(spec: dict, count: int, tally: Tally, started: float, first: list):
    """Time the workload's CLI command as fresh processes; check every output.

    ``first`` holds the first normalized artifact of the benchmark run; every
    later artifact must equal it. Failed runs are timed too; they are counted
    as failures, so the result reads ``correct: false``. Returns the raw
    wall times, the reference times around them (mean of the blocks just
    before and after) and the peak RSS of each run.
    """
    work = Path(spec["work"])
    argv = [sys.executable, "-m", "penheal.cli", *spec["cli"]]
    artifact = Path(spec["out_dir"]) / "run-artifact.json"
    walls, refs, rss = [], [], []
    for _ in range(count):
        if time.perf_counter() - started > RUN_DEADLINE:
            break
        artifact.unlink(missing_ok=True)
        before = hostspeed.reference()
        code, wall, maxrss = spawn(argv, work, work / "cli.err")
        refs.append((before + hostspeed.reference()) / 2)
        problems = []
        if code != spec["expect"]["exit"]:
            err = (work / "cli.err").read_text(encoding="utf-8", errors="replace")
            problems.append(f"exit {code}: {err.strip()[-300:]}")
        elif not artifact.exists():
            problems.append("no run artifact written")
        else:
            normalized = workloads.normalized_artifact(artifact.read_bytes())
            if not first:
                first.append(normalized)
                problems.extend(workloads.check_artifact(spec, json.loads(normalized)))
            elif normalized != first[0]:
                problems.append("artifact differs between runs apart from created_at")
            expected = spec["expect"]["termination"]
            if expected:
                stdout = (work / "cli.out").read_text(encoding="utf-8", errors="replace")
                found = re.search(r"^termination: (\S+)", stdout, re.MULTILINE)
                if not found or found.group(1) != expected:
                    problems.append(f"termination {found and found.group(1)} != {expected}")
        tally.record(problems)
        walls.append(wall)
        rss.append(maxrss / 1024.0)
    return walls, refs, rss


def measure(spec: dict, seconds: float, tally: Tally) -> dict:
    started = time.perf_counter()
    rounds, n_cli, n_reps, n_setup = plan_rounds(spec["workload"], seconds)
    probe("setup", spec)  # warm-up: byte-code and file caches, as after an install
    setups, walls, wall_refs, rss, reps = [], [], [], [], []
    first_sha: list = []
    first_artifact: list = []
    for _ in range(rounds):
        result = probe("pipeline", spec, n_reps)
        if result is not None:
            setups.append((result["setup_s"], result["ref"]))
        reps.extend(check_pipeline(spec, result, tally, first_sha))
        round_walls, round_refs, round_rss = cli_runs(spec, n_cli, tally, started, first_artifact)
        walls.extend(round_walls)
        wall_refs.extend(round_refs)
        rss.extend(round_rss)
        for _ in range(n_setup):
            result = probe("setup", spec)
            if tally.record([] if result else ["set-up process failed"]):
                setups.append((result["setup_s"], result["ref"]))
    raw = {
        "setup_s": setups,
        "run_wall_s": list(zip(walls, wall_refs)),
        "pipeline_s": [(f["t"], f["ref"]) for f in reps],
    }
    out_path(spec, "samples", ".json").write_text(json.dumps(
        {**raw, "nominal_s": hostspeed.NOMINAL_S}) + "\n", encoding="utf-8")
    # A phase whose processes all failed reports 0; the result then reads correct: false.
    setups, walls, times = (
        [hostspeed.scaled(t, ref) for t, ref in raw[name]] or [0.0]
        for name in ("setup_s", "run_wall_s", "pipeline_s"))
    rss, reps = rss or [0.0], reps or [{}]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "run_wall_s": (statistics.median(walls), "s"),
        "run_wall_s.tail": (tail(walls), "s"),
        "pipeline_s": (statistics.median(times), "s"),
        "pipeline_s.tail": (tail(times), "s"),
        "model_calls": (statistics.median(f.get("calls", 0) for f in reps), "count"),
        "critical_path_calls": (statistics.median(f.get("crit", 0) for f in reps), "count"),
        "prompt_kchars": (statistics.median(f.get("chars", 0) for f in reps) / 1000.0, "kchar"),
        "peak_rss_mb": (statistics.median(rss), "MiB"),
    }


def out_path(spec: dict, kind: str, suffix: str) -> Path:
    """Where a run's raw samples or spans stay after the work directory is removed."""
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    return out / f"{kind}-{spec['workload']}-seed{spec['seed']}{suffix}"


def import_times(spec: dict, tally: Tally, runs: int = 5) -> dict:
    """``-X importtime`` of ``penheal.cli``: cumulative seconds of it and of ``requests``."""
    work = Path(spec["work"])
    argv = [sys.executable, "-X", "importtime", "-c", "import penheal.cli"]
    samples = {"penheal.cli": [], "requests": []}
    for i in range(runs + 1):
        before = hostspeed.reference()
        code, _, _ = spawn(argv, work, work / "importtime.err")
        ref = (before + hostspeed.reference()) / 2
        text = (work / "importtime.err").read_text(encoding="utf-8")
        cumulative = {}
        for line in text.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        if i == 0:
            continue  # warm-up
        ok = code == 0 and "penheal.cli" in cumulative
        if tally.record([] if ok else ["import of penheal.cli failed"]):
            for name in samples:
                samples[name].append(hostspeed.scaled(cumulative.get(name, 0.0), ref))
    return {
        "cli.import_s": (statistics.median(samples["penheal.cli"] or [0.0]), "s"),
        "cli.import_requests_s": (statistics.median(samples["requests"] or [0.0]), "s"),
    }


def measure_traced(spec: dict, seconds: float, tally: Tally) -> dict:
    import tracing

    metrics = import_times(spec, tally)
    n_pipe = max(2, sample_counts(spec["workload"], seconds)[2] // 2)
    result = probe("trace", spec, n_pipe)
    first_sha: list = []
    plain = check_pipeline(spec, result, tally, first_sha, "plain")
    traced = check_pipeline(spec, result, tally, first_sha, "traced") if result else []
    if not traced:
        raise SystemExit("the traced process failed; see the messages above")
    spans = [json.loads(line) for line in Path(result["spans"]).read_text().splitlines()]
    counts = {(r, n): c for r, n, c in result["counts"]}
    rep_seconds = {f["run"]: f["t"] for f in traced}
    scales = {f["run"]: hostspeed.scaled(1.0, f["ref"]) for f in traced}
    scales["setup"] = hostspeed.scaled(1.0, result["setup_ref"])
    layer = tracing.per_layer(spans, counts, list(rep_seconds), rep_seconds, scales)
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    plain_s = statistics.median(hostspeed.scaled(f["t"], f["ref"]) for f in plain)
    traced_s = statistics.median(hostspeed.scaled(f["t"], f["ref"]) for f in traced)
    layer["trace.overhead_s"] = traced_s - plain_s
    layer["host.reference_ms"] = statistics.median(f["ref"] for f in plain + traced) * 1000
    for name, value in layer.items():
        metrics[name] = (value, units.get(name, "count"))
    shutil.copyfile(result["spans"], out_path(spec, "spans", ".jsonl"))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "penheal" / "__init__.py").is_file():
        sys.stderr.write(f"penheal sources not found under {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    # One core for the benchmark and its children, so that each sample and the
    # reference times next to it run on the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        spec = workloads.generate(args.workload, args.seed, work)
        tally = Tally()
        if args.trace:
            metrics = measure_traced(spec, args.seconds, tally)
        else:
            metrics = measure(spec, args.seconds, tally)
            metrics["success_ratio"] = (
                (tally.attempted - tally.failed) / max(tally.attempted, 1), "ratio")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in tally.problems:
        sys.stderr.write(f"check failed: {problem}\n")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
