"""One benchmark child process: set-up, the in-process pipeline, or a traced run.

    python3 probe.py setup    <spec.json>
    python3 probe.py pipeline <spec.json> <reps>
    python3 probe.py trace    <spec.json> <reps>

``setup`` times a fresh process importing ``penheal.cli`` and assembling the
workload's inputs through public calls. ``pipeline`` does the same (and
reports that set-up time too), then runs the pipeline stages ``reps + 1``
times and drops the first run as warm-up. ``trace`` does the same untraced,
then again with every seam wrapped (see ``tracing.py``), and writes the
spans out at the end. Every set-up time and every run carries ``ref``, the
host-speed reference timed next to it (see ``hostspeed.py``). Each mode
prints one JSON object on stdout. The parent puts ``src/`` on PYTHONPATH.
"""

import time

T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402


class TimedBackend:
    """Chat-backend shim recording each call's start, end and sizes."""

    def __init__(self, inner):
        self.inner = inner
        self.calls: list[tuple[str, float, float, int]] = []

    def complete(self, role, model, messages):
        start = time.perf_counter()
        response = self.inner.complete(role, model, messages)
        end = time.perf_counter()
        chars = sum(len(t.content) for t in messages)
        self.calls.append((role.value, start, end, chars))
        return response


def critical_path(calls) -> int:
    """Most calls that ran strictly one after another (interval scheduling)."""
    count, last_end = 0, float("-inf")
    for _, start, end, _ in sorted(calls, key=lambda c: c[2]):
        if start >= last_end:
            count, last_end = count + 1, end
    return count


def assemble(spec: dict, scratch: Path) -> dict:
    """Import the CLI and build every input of the workload's command."""
    from importlib import resources

    from penheal import cli, gateway, knowledge, model, simulator
    from penheal.nvd import FixtureNvdClient

    if spec["config"]:
        doc = cli.load_config(spec["config"], {})
    else:
        doc = {"target_address": spec["target"], "mode": "hermetic"}
    config = model.RunConfig.from_dict(doc)
    config.validate()
    role_models = doc.get("role_models") or {}
    fixtures = doc.get("fixtures") or cli.bundled_fixture_path("golden6.jsonl")
    backend = gateway.replay_mode(fixtures, role_models=role_models).backend
    host = simulator.load_host_model(doc.get("host_model"))

    corpus = spec.get("corpus_dir")
    if corpus:  # index writes are part of this workload's set-up
        kb = knowledge.KnowledgeBase()
        for path in sorted(Path(corpus).iterdir()):
            kb.ingest(path.read_text(encoding="utf-8"), doc_id=path.stem)
        kb.save(scratch)
        kb = knowledge.KnowledgeBase.load(scratch)
    elif doc.get("kb_dir"):
        kb = knowledge.KnowledgeBase.load(doc["kb_dir"])
    else:
        kb = knowledge.KnowledgeBase()
        text = resources.files("penheal.data").joinpath("corpus/pentest_notes.txt")
        kb.ingest(text.read_text(encoding="utf-8"), doc_id="pentest_notes")

    nvd = FixtureNvdClient((doc.get("nvd") or {}).get("fixture_dir"))
    plan = findings = None
    if spec.get("artifact"):
        plan, findings, _, _ = model.deserialize_run(Path(spec["artifact"]).read_bytes())
    if doc.get("truth"):
        truth_doc = json.loads(Path(doc["truth"]).read_text(encoding="utf-8"))
        truth = [model.Vulnerability.from_dict(v) for v in truth_doc]
    else:
        truth = simulator.ground_truth(host)
    return {"config": config, "backend": backend, "role_models": role_models,
            "host": host, "kb": kb, "nvd": nvd, "plan": plan, "findings": findings,
            "truth": truth, "fixtures": str(fixtures)}


def pipeline(spec: dict, inputs: dict) -> dict:
    """The stages after set-up, as the CLI runs them; returns facts to check."""
    from penheal import engine, gateway, model, remediation, scoring, simulator

    config = inputs["config"]
    shim = TimedBackend(inputs["backend"])
    gw = gateway.Gateway(shim, role_models=inputs["role_models"])
    termination = None
    if spec["kind"] == "run":
        pentest = engine.run_pentest(
            config, simulator.SimulatorBackend(inputs["host"]), gw, inputs["kb"])
        plan, findings, termination = pentest.plan, pentest.findings, pentest.termination_reason
    else:
        plan, findings = inputs["plan"], inputs["findings"]
    rem = remediation.remediate(findings, config, gw, inputs["nvd"])
    report = scoring.score_run(findings, inputs["truth"], rem.selected,
                               mode=config.aggregation_mode, run_id=spec["workload"])
    artifact = model.serialize_run(
        plan, findings, [c for g in rem.groups for c in g.candidates], report,
        run_id=report.run_id, transcript_ref=inputs["fixtures"])
    roles: dict[str, int] = {}
    for role, *_ in shim.calls:
        roles[role] = roles.get(role, 0) + 1
    return {
        "calls": len(shim.calls),
        "crit": critical_path(shim.calls),
        "chars": sum(c[3] for c in shim.calls),
        "roles": roles,
        "termination": termination,
        "artifact": artifact,
    }


def timed_rep(spec: dict, inputs: dict) -> dict:
    start = time.perf_counter()
    try:
        facts = pipeline(spec, inputs)
    except Exception as exc:  # counted as a failed operation by the parent
        facts = {"error": f"{type(exc).__name__}: {exc}"}
    facts["t"] = time.perf_counter() - start
    return facts


def run_reps(spec: dict, inputs: dict, reps: int, tracer=None) -> list[dict]:
    """``reps + 1`` timed pipeline runs; the first is warm-up and dropped.

    Each run's ``ref`` is the mean of the reference blocks timed just
    before and just after it.
    """
    out = []
    before = hostspeed.reference()
    for i in range(reps + 1):
        if tracer is not None:
            tracer.run = f"rep{i}"
        facts = timed_rep(spec, inputs)
        after = hostspeed.reference()
        facts["ref"] = (before + after) / 2
        before = after
        if tracer is not None:
            facts["run"] = tracer.run
        out.append(facts)
    return out[1:]


def summarize(spec: dict, reps: list[dict], keep: bool = True) -> list[dict]:
    """Replace artifacts by digests; keep the last one on disk for the checks."""
    last = None
    for facts in reps:
        raw = facts.pop("artifact", None)
        if raw is not None:
            facts["artifact_sha"] = hashlib.sha256(raw).hexdigest()
            last = raw
    if keep and last is not None:
        (Path(spec["work"]) / "inproc-artifact.json").write_bytes(last)
    return reps


def main() -> int:
    mode, spec_path = sys.argv[1], Path(sys.argv[2])
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    reps = int(sys.argv[3]) if len(sys.argv) > 3 else 0
    scratch = Path(spec["work"]) / f"kb-scratch-{mode}"
    try:
        if mode == "setup":
            assemble(spec, scratch)
            setup_s = time.perf_counter() - T0
            result = {"setup_s": setup_s, "ref": hostspeed.settled_reference()}
        elif mode == "pipeline":
            inputs = assemble(spec, scratch)
            setup_s = time.perf_counter() - T0
            result = {"setup_s": setup_s, "ref": hostspeed.settled_reference(),
                      "reps": summarize(spec, run_reps(spec, inputs, reps))}
        elif mode == "trace":
            import tracing

            tracer = tracing.Tracer()
            restore = tracing.install(tracer)
            inputs = assemble(spec, scratch)
            restore()
            setup_ref = hostspeed.settled_reference()
            plain = summarize(spec, run_reps(spec, inputs, reps))
            tracing.install(tracer)
            traced = summarize(spec, run_reps(spec, inputs, reps, tracer), keep=False)
            spans_path = Path(spec["work"]) / "spans.jsonl"
            tracer.dump(spans_path)
            result = {
                "plain": plain,
                "traced": traced,
                "setup_ref": setup_ref,
                "spans": str(spans_path),
                "counts": [[r, n, c] for (r, n), c in tracer.counts.items()],
            }
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
