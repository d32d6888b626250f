"""The benchmark still runs against the program: every name it imports or patches exists.

``bench/`` builds each workload's inputs through the program's public calls
and wraps its seams from outside (``bench/tracing.py``), so a renamed
function or a removed argument breaks the benchmark, not the program's own
tests. This runs each workload once in process, as ``bench/probe.py`` does,
with every seam wrapped, and asks the benchmark's own checks for problems.
Nothing under ``bench/`` is written.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

from penheal.knowledge import EMBED_DIM

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("workload", ["golden", "wide_remediate", "deep_pentest"])
def test_one_rep_passes_the_benchmark_checks(tmp_path, monkeypatch, workload):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # bench/ is only read
    monkeypatch.syspath_prepend(str(BENCH))
    probe, run, tracing, workloads = (importlib.import_module(name)
                                      for name in ("probe", "run", "tracing", "workloads"))
    spec = workloads.generate(workload, 1, tmp_path / workload)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        inputs = probe.assemble(spec, tmp_path / "kb-scratch")
        facts = probe.timed_rep(spec, inputs)
    finally:
        restore()
    artifact = facts.get("artifact", b"{}")
    [facts] = probe.summarize(spec, [facts], keep=False)
    assert run.check_rep(spec, facts, []) == []
    assert workloads.check_artifact(spec, json.loads(artifact)) == []
    if workload == "deep_pentest":  # the plan layers are still measured on the loop
        spans = [(name, attrs or {}) for name, _, _, _, _, attrs in tracer.spans]

        def count(layer):
            return sum(1 for name, _ in spans if name == layer)

        parses = count("engine.plan_parse")
        planner = sum(1 for name, a in spans
                      if name == "gateway.complete" and a.get("role") == "Planner")
        iterations = sum(a["iterations"] for name, a in spans if name == "engine.run_pentest")
        assert iterations and parses == planner - iterations  # select replies parse no plan
        assert count("engine.plan_render") == planner - 1  # the init prompt renders no plan
        assert count("engine.plan_merge") >= parses
        # setup_s times the index build and the transcript read: each seam runs on that path
        ingests = [a["chunks"] for name, a in spans if name == "knowledge.ingest"]
        assert len(ingests) == len(list(Path(spec["corpus_dir"]).iterdir()))
        assert sum(ingests) == 800
        seams = ("knowledge.save", "knowledge.load", "gateway.load")
        assert [count(seam) for seam in seams] == [1, 1, 1]
        # pipeline_s times retrieval, once per iteration, from the index in the documented layout,
        # and the simulator once per command, whatever either keeps between calls
        assert count("knowledge.retrieve") == iterations == 31
        commands = sum(a["commands"] for name, a in spans if name == "engine.run_pentest")
        assert commands and count("simulator.run") == commands
        kb, saved = inputs["kb"], tmp_path / "kb-scratch"
        postings = 4 * EMBED_DIM + 8 * sum(map(len, kb._rows))
        assert (saved / "postings.bin").stat().st_size == postings
        layout = postings + sum((saved / name).stat().st_size for name in ("texts.bin",
                                                                            "meta.json"))
        assert [a["bytes"] for name, a in spans
                if name in ("knowledge.save", "knowledge.load")] == [layout, layout]
