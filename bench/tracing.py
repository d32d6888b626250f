"""Span recording around penheal's seams, from outside the program.

``install`` replaces the injected seams (chat backend, ``Gateway.complete``,
executor backend, knowledge base, NVD client) and the public functions one
module calls in another (``solve_group_knapsack``, ``render_plan``,
``parse_plan_text``, ``merge_revision``, ``cvss.parse_vector`` and so on)
with wrappers that record a span per call. Spans live in memory as
``[name, start, end, parent, run, attrs]`` and are written out once, when
the traced process ends. ``per_layer`` turns them into the per-layer
metrics; a layer's self time is its span duration minus the time its
direct child spans cover. Times are converted to reference seconds with
the scale of the run they belong to (see ``hostspeed.py``).

Only the traced benchmark process calls ``install``; nothing under ``src/``
is changed.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

ROLES = ("Planner", "Executor", "Summarizer", "Extractor", "Estimator", "Advisor", "Evaluator")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], int] = {}
        self.run = "setup"
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` wrapped so each call records a span; ``attrs(args, result)`` adds fields."""
        clock = time.perf_counter
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else None, self.run, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = {"error": type(exc).__name__}
                raise
            else:
                if attrs is not None:
                    span[5] = attrs(args, result)
                return result
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def counted(self, name: str, fn):
        def counting(*args, **kwargs):
            key = (self.run, name)
            self.counts[key] = self.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counting

    def dump(self, path: Path) -> None:
        import json

        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run, "attrs": attrs}) + "\n")


def _chars(turns) -> int:
    return sum(len(t.content) for t in turns)


def _dir_bytes(directory) -> int:
    return sum(p.stat().st_size for p in Path(directory).iterdir() if p.is_file())


def install(tracer: Tracer):
    """Wrap every seam; returns a function that puts the originals back."""
    from penheal import cvss, engine, gateway, knowledge, model, nvd, remediation, scoring, simulator

    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def span(owner, attr, name, attrs=None):
        patch(owner, attr, tracer.wrap(name, getattr(owner, attr), attrs))

    span(gateway.Gateway, "complete", "gateway.complete",
         lambda a, r: {"role": a[1].value, "in_chars": _chars(a[2])})
    span(gateway.ReplayBackend, "complete", "gateway.backend",
         lambda a, r: {"role": a[1].value, "chars": _chars(a[3]), "resp_chars": len(r)})
    span(gateway, "replay_mode", "gateway.load")
    span(simulator, "load_host_model", "simulator.load")
    span(simulator.SimulatorBackend, "run", "simulator.run",
         lambda a, r: {"out_bytes": len(r[0].encode("utf-8"))})
    span(knowledge.KnowledgeBase, "ingest", "knowledge.ingest", lambda a, r: {"chunks": r})
    span(knowledge.KnowledgeBase, "save", "knowledge.save",
         lambda a, r: {"bytes": _dir_bytes(a[1])})
    span(knowledge.KnowledgeBase, "retrieve", "knowledge.retrieve")
    load = knowledge.KnowledgeBase.__dict__["load"]
    patch(knowledge.KnowledgeBase, "load",
          classmethod(tracer.wrap("knowledge.load", load.__func__,
                                  lambda a, r: {"bytes": _dir_bytes(a[1])})))
    span(nvd.FixtureNvdClient, "lookup", "nvd.lookup", lambda a, r: {"hit": 1})
    span(cvss, "parse_vector", "cvss.parse")
    scale = getattr(__import__("penheal.knapsack", fromlist=["x"]), "COST_SCALE", 10)
    span(remediation, "solve_group_knapsack", "knapsack.solve",
         lambda a, r: {"groups": len(a[0]), "items": sum(len(g) for g in a[0]),
                       "capacity": int(round(a[1] * scale))})
    patch(remediation, "estimate_vector",
          tracer.counted("remediation.estimator_fallbacks", remediation.estimate_vector))
    span(remediation, "remediate", "remediation.remediate",
         lambda a, r: {"candidates": sum(len(g.candidates) for g in r.groups),
                       "warnings": len(r.warnings)})
    span(engine, "render_plan", "engine.plan_render")
    span(engine, "parse_plan_text", "engine.plan_parse")
    span(engine, "merge_revision", "engine.plan_merge")
    span(engine, "parse_commands", "engine.text_parse")
    span(engine, "parse_extractor_blocks", "engine.text_parse")
    span(engine, "run_pentest", "engine.run_pentest",
         lambda a, r: {"iterations": len(r.iterations),
                       "useful": sum(1 for it in r.iterations if it.new_finding_keys),
                       "commands": sum(it.command_count for it in r.iterations),
                       "warnings": len(r.warnings)})
    span(scoring, "score_run", "scoring.score")
    span(model, "serialize_run", "model.serialize", lambda a, r: {"bytes": len(r)})
    span(model, "deserialize_run", "model.deserialize")

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        saved.clear()

    return restore


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _self_times(spans: list[dict]) -> list[float]:
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - child_time[i] for i, s in enumerate(spans)]


def _one_run(spans, selves, idxs, counts, run, rep_seconds) -> dict:
    by_name: dict[str, list[int]] = {}
    for i in idxs:
        by_name.setdefault(spans[i]["name"], []).append(i)

    def dur(name):
        return sum(spans[i]["end"] - spans[i]["start"] for i in by_name.get(name, ()))

    def self_sum(name):
        return sum(selves[i] for i in by_name.get(name, ()))

    def attr_sum(name, key):
        return sum((spans[i]["attrs"] or {}).get(key, 0) for i in by_name.get(name, ()))

    m: dict[str, float] = {}
    calls = {r: 0 for r in ROLES}
    chars = {r: 0 for r in ROLES}
    backend_chars: dict[int, int] = {}
    for i in by_name.get("gateway.backend", ()):
        a = spans[i]["attrs"] or {}
        chars[a.get("role", "Planner")] += a.get("chars", 0)
        backend_chars[spans[i]["parent"]] = a.get("chars", 0)
    truncated = 0
    for i in by_name.get("gateway.complete", ()):
        a = spans[i]["attrs"] or {}
        calls[a.get("role", "Planner")] += 1
        if backend_chars.get(i, a.get("in_chars", 0)) < a.get("in_chars", 0):
            truncated += 1
    m["gateway.self_s"] = self_sum("gateway.complete")
    m["gateway.backend_s"] = dur("gateway.backend")
    m["gateway.truncated_calls"] = truncated
    for role in ROLES:
        m[f"gateway.calls.{role}"] = calls[role]
    for role in ROLES:
        m[f"prompts.chars.{role}"] = chars[role]
    m["prompts.response_chars"] = attr_sum("gateway.backend", "resp_chars")

    retrieve = [spans[i]["end"] - spans[i]["start"] for i in by_name.get("knowledge.retrieve", ())]
    m["knowledge.retrieve_calls"] = len(retrieve)
    m["knowledge.retrieve_ms"] = statistics.median(retrieve) * 1000 if retrieve else 0.0
    m["knowledge.retrieve_share_of_pipeline"] = sum(retrieve) / rep_seconds

    iterations = attr_sum("engine.run_pentest", "iterations")
    m["engine.self_s"] = self_sum("engine.run_pentest")
    m["engine.plan_render_s"] = dur("engine.plan_render")
    m["engine.plan_parse_s"] = dur("engine.plan_parse")
    m["engine.plan_merge_s"] = dur("engine.plan_merge")
    m["engine.text_parse_s"] = dur("engine.text_parse")
    m["engine.iterations"] = iterations
    m["engine.commands"] = attr_sum("engine.run_pentest", "commands")
    m["engine.useful_iteration_ratio"] = (
        attr_sum("engine.run_pentest", "useful") / iterations if iterations else 0.0)
    m["engine.executor_retries"] = max(calls["Executor"] - iterations, 0)
    m["engine.warnings"] = attr_sum("engine.run_pentest", "warnings")

    m["simulator.run_calls"] = len(by_name.get("simulator.run", ()))
    m["simulator.run_s"] = dur("simulator.run")
    m["simulator.output_bytes"] = attr_sum("simulator.run", "out_bytes")

    lookups = len(by_name.get("nvd.lookup", ()))
    m["nvd.lookups"] = lookups
    m["nvd.lookup_s"] = dur("nvd.lookup")
    m["nvd.hit_ratio"] = attr_sum("nvd.lookup", "hit") / lookups if lookups else 0.0
    m["cvss.parse_calls"] = len(by_name.get("cvss.parse", ()))
    m["cvss.parse_s"] = dur("cvss.parse")

    candidates = attr_sum("remediation.remediate", "candidates")
    m["remediation.self_s"] = self_sum("remediation.remediate")
    m["remediation.candidates"] = candidates
    m["remediation.estimator_fallbacks"] = counts.get((run, "remediation.estimator_fallbacks"), 0)
    m["remediation.evaluator_retries"] = max(calls["Evaluator"] - candidates, 0)
    m["remediation.warnings"] = attr_sum("remediation.remediate", "warnings")

    m["knapsack.solve_s"] = dur("knapsack.solve")
    m["knapsack.groups"] = attr_sum("knapsack.solve", "groups")
    m["knapsack.items"] = attr_sum("knapsack.solve", "items")
    m["knapsack.capacity_units"] = max(
        [(spans[i]["attrs"] or {}).get("capacity", 0) for i in by_name.get("knapsack.solve", ())],
        default=0)
    m["knapsack.share_of_pipeline"] = m["knapsack.solve_s"] / rep_seconds

    m["scoring.score_s"] = dur("scoring.score")
    m["model.serialize_s"] = dur("model.serialize")
    m["model.artifact_bytes"] = attr_sum("model.serialize", "bytes")
    m["trace.spans"] = len(idxs)
    return m


def _is_time(name: str) -> bool:
    return name.endswith(("_s", "_ms"))


def per_layer(spans: list[dict], counts: dict, runs: list[str], rep_seconds: dict,
              scales: dict) -> dict:
    """Per-layer metrics: set-up layers from the ``setup`` run, the rest as medians over ``runs``.

    ``scales`` maps each run (and ``setup``) to the factor that turns its
    seconds into reference seconds.
    """
    selves = _self_times(spans)
    by_run: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_run.setdefault(s["run"], []).append(i)
    per_run = []
    for r in runs:
        m = _one_run(spans, selves, by_run.get(r, []), counts, r, rep_seconds[r])
        per_run.append({k: v * scales[r] if _is_time(k) else v for k, v in m.items()})
    metrics = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}

    setup = by_run.get("setup", [])

    def setup_dur(name):
        seconds = sum(spans[i]["end"] - spans[i]["start"] for i in setup if spans[i]["name"] == name)
        return seconds * scales["setup"]

    def setup_attr(name, key):
        return sum((spans[i]["attrs"] or {}).get(key, 0) for i in setup if spans[i]["name"] == name)

    metrics["gateway.load_s"] = setup_dur("gateway.load")
    metrics["simulator.load_s"] = setup_dur("simulator.load")
    metrics["knowledge.ingest_s"] = setup_dur("knowledge.ingest")
    metrics["knowledge.ingest_chunks"] = setup_attr("knowledge.ingest", "chunks")
    metrics["knowledge.save_s"] = setup_dur("knowledge.save")
    metrics["knowledge.load_s"] = setup_dur("knowledge.load")
    metrics["knowledge.index_bytes"] = max(setup_attr("knowledge.save", "bytes"),
                                           setup_attr("knowledge.load", "bytes"))
    metrics["model.deserialize_s"] = setup_dur("model.deserialize")
    return metrics
