"""Command-line entry point.

Wires config, backends, the pentest and remediation engines, scoring and
artifact persistence. ``run`` executes the whole pipeline; ``pentest`` and
``remediate`` run one stage; ``score`` re-scores artifacts; ``ingest``
builds a knowledge-base index; ``replay`` verifies a recorded transcript.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import time
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Optional

from . import gateway as gw, remediation, scoring
from .model import (
    AggregationMode,
    ArtifactParseError,
    AttackPlan,
    RunConfig,
    Vulnerability,
    decode,
    deserialize_run,
    load_json,
    serialize_run,
)
from .nvd import NVD_BASE_URL, FixtureNvdClient, LiveNvdClient

if TYPE_CHECKING:  # at run time, each command imports only those it uses
    from . import engine, knowledge, simulator

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_PARTIAL = 2

_ENV_REF = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}")


class ConfigError(Exception):
    pass


class LlmSettings(NamedTuple):
    base_url: str = ""
    api_key: Optional[str] = None


class NvdSettings(NamedTuple):
    mode: str = "live"  # or "fixture"
    fixture_dir: Optional[str] = None
    cache_dir: Optional[str] = None  # default: nvd-cache in the out dir
    base_url: str = NVD_BASE_URL


class CliSettings(NamedTuple):
    """The config keys the CLI reads itself; the RunConfig fields are the others."""

    mode: str = "hermetic"  # or "live"
    out_dir: str = "out"
    fixtures: Optional[str] = None
    kb_dir: Optional[str] = None
    truth: Optional[str] = None
    host_model: Optional[str] = None
    llm: LlmSettings = LlmSettings()
    nvd: NvdSettings = NvdSettings()


def _interpolate_env(value):
    """Expand ${VAR} references (intended for secrets) in config strings."""
    if isinstance(value, str):
        def repl(match):
            name = match.group(1)
            if name not in os.environ:
                raise ConfigError(f"environment variable {name} is not set")
            return os.environ[name]
        return _ENV_REF.sub(repl, value)
    if isinstance(value, dict):
        return {k: _interpolate_env(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_interpolate_env(v) for v in value]
    return value


def load_config(path: Optional[str], overrides: dict) -> dict:
    doc: dict = {}
    if path:
        try:
            doc = load_json(Path(path).read_text(encoding="utf-8"), _interpolate_env)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}")
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a JSON object")
    for key, value in overrides.items():
        if value is not None:
            doc[key] = value
    return doc


def bundled_fixture_path(name: str) -> Path:
    with resources.as_file(
        resources.files("penheal.data").joinpath(f"fixtures/{name}")
    ) as path:
        return Path(path)


def _resolve_fixtures(spec: Optional[str]) -> Path:
    if not spec or spec == "builtin":
        return bundled_fixture_path("golden6.jsonl")
    path = Path(spec)
    if path.is_dir():
        path = path / "transcript.jsonl"
    if not path.exists():
        raise ConfigError(f"fixtures transcript not found: {path}")
    return path


def _build_knowledge_base(kb_dir: Optional[str]) -> knowledge.KnowledgeBase:
    from . import knowledge

    if kb_dir:
        try:
            return knowledge.KnowledgeBase.load(kb_dir)
        except (OSError, ValueError, KeyError, knowledge.KnowledgeBaseError) as exc:
            raise ConfigError(f"cannot load knowledge base {kb_dir}: {exc}") from None
    kb = knowledge.KnowledgeBase()
    corpus = resources.files("penheal.data").joinpath("corpus/pentest_notes.txt")
    kb.ingest(corpus.read_text(encoding="utf-8"), doc_id="pentest_notes")
    return kb


def _host_model(path: Optional[str]) -> simulator.HostModel:
    """The simulated host in ``path`` (default: the bundled profile)."""
    from . import simulator

    try:
        return simulator.load_host_model(path or None)
    except (OSError, ValueError, KeyError) as exc:
        raise ConfigError(f"cannot load host model {path or '(bundled)'}: {exc}") from None


def _load_truth(path: Optional[str], host_model: Optional[str] = None) -> list[Vulnerability]:
    """The weaknesses in ``path``; by default, the inventory of the host model.

    Raises ConfigError unless that is a non-empty list of findings.
    """
    if not path:
        from . import simulator

        truth = simulator.ground_truth(_host_model(host_model))
    else:
        try:
            doc = load_json(Path(path).read_text(encoding="utf-8"))
            if type(doc) is not list:
                raise ValueError("expected a list of findings")
            truth = [Vulnerability.from_dict(v) for v in doc]
        except (OSError, ValueError, KeyError) as exc:
            raise ConfigError(f"cannot read ground truth {path}: {exc}") from None
    if not truth:  # coverage is a fraction of the ground truth
        raise ConfigError(f"ground truth {path or 'of the host model'} is empty")
    return truth


def _deterministic_run_id(*parts: str) -> str:
    return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Pipeline assembly
# ---------------------------------------------------------------------------


def _stage_setup(args) -> tuple[CliSettings, RunConfig, Path]:
    """The CLI settings, the validated run config and the created out dir."""
    doc = load_config(args.config, _overrides(args))
    try:
        settings = decode(CliSettings, doc)
        config = RunConfig.from_dict(doc)
        config.validate()
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"invalid configuration: {exc}")
    out_dir = Path(settings.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return settings, config, out_dir


def _chat_gateway(settings: CliSettings, role_models: tuple[tuple[str, str], ...],
                  out_dir: Path) -> tuple[gw.Gateway, str]:
    """The mode's chat gateway and the transcript it replays or records."""
    if settings.mode == "hermetic":
        fixtures = _resolve_fixtures(settings.fixtures)
        return gw.replay_mode(fixtures, role_models=dict(role_models)), str(fixtures)
    if settings.mode != "live":
        raise ConfigError(f"unknown mode {settings.mode!r} (expected hermetic or live)")
    if not settings.llm.base_url:
        raise ConfigError("live mode requires llm.base_url")
    live = gw.LiveBackend(settings.llm.base_url, api_key=settings.llm.api_key)
    record_path = out_dir / "transcript.jsonl"
    return gw.record_mode(live, record_path, role_models=dict(role_models)), str(record_path)


def _executor(settings: CliSettings):
    """The discovery stage's command backend (local shell or simulated host) and KB."""
    if settings.mode == "live":
        from .backends import ShellBackend

        return ShellBackend(), _build_knowledge_base(settings.kb_dir)
    from . import simulator

    host = _host_model(settings.host_model)
    return simulator.SimulatorBackend(host), _build_knowledge_base(settings.kb_dir)


def _nvd_client(settings: CliSettings, out_dir: Path):
    nvd = settings.nvd
    if settings.mode == "hermetic" or nvd.mode == "fixture":
        return FixtureNvdClient(nvd.fixture_dir)
    return LiveNvdClient(cache_dir=nvd.cache_dir or out_dir / "nvd-cache", base_url=nvd.base_url)


def _write_artifact(out_dir: Path, *parts, run_id: str, transcript_ref: str) -> None:
    """Serialize (plan, findings, recommendations, report) to run-artifact.json."""
    artifact = serialize_run(*parts, run_id=run_id, transcript_ref=transcript_ref,
                             created_at=time.strftime("%Y-%m-%dT%H:%M:%S"))
    (out_dir / "run-artifact.json").write_bytes(artifact)


def _persist_history(history: engine.PentestHistory, out_dir: Path) -> None:
    with open(out_dir / "history.jsonl", "w", encoding="utf-8") as fh:
        for record in history.records:
            fh.write(json.dumps(record.to_dict(), ensure_ascii=False) + "\n")


def _discover(settings: CliSettings, config: RunConfig, gateway: gw.Gateway,
              out_dir: Path) -> Optional[engine.PentestResult]:
    """Run the pentest stage; None once a fatal error is reported.

    If the command backend goes away, the partial history is written first.
    """
    from . import engine

    backend, kb = _executor(settings)
    try:
        return engine.run_pentest(config, backend, gateway, kb)
    except engine.BackendUnreachableError as exc:
        if exc.history is not None:
            _persist_history(exc.history, out_dir)
        print(f"fatal: command backend unreachable: {exc}", file=sys.stderr)
    except (engine.EngineError, gw.GatewayError) as exc:
        print(f"fatal: {exc}", file=sys.stderr)
    return None


def _remediate_and_score(config: RunConfig, gateway: gw.Gateway, nvd_client, out_dir: Path,
                         plan: AttackPlan, findings: list[Vulnerability],
                         truth: list[Vulnerability],
                         run_id: str, transcript_ref: str) -> Optional[tuple[str, list[str]]]:
    """Remediate and score the findings, then write the artifact.

    Returns the selection report and score table, and the remediation
    warnings; None once a fatal error is reported.
    """
    try:
        rem = remediation.remediate(findings, config, gateway, nvd_client)
    except (remediation.RemediationError, gw.GatewayError) as exc:
        print(f"fatal: remediation failed: {exc}", file=sys.stderr)
        return None
    report = scoring.score_run(findings, truth, rem.selected, mode=config.aggregation_mode,
                               run_id=run_id)
    _write_artifact(out_dir, plan, findings, [c for g in rem.groups for c in g.candidates],
                    report, run_id=run_id, transcript_ref=transcript_ref)
    text = (remediation.format_selection_report(rem.groups) + "\n\n"
            + scoring.format_score_table(report, config.aggregation_mode))
    return text, rem.warnings


def _exit_code(warnings: list[str]) -> int:
    """Print each warning to stderr; a run with any warning exits partial."""
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return EXIT_PARTIAL if warnings else EXIT_OK


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    settings, config, out_dir = _stage_setup(args)
    truth = _load_truth(settings.truth, settings.host_model)
    gateway, transcript_ref = _chat_gateway(settings, config.role_models, out_dir)
    nvd_client = _nvd_client(settings, out_dir)
    pentest = _discover(settings, config, gateway, out_dir)
    if pentest is None:
        return EXIT_FATAL
    run_id = _deterministic_run_id(config.target_address, settings.mode)
    done = _remediate_and_score(config, gateway, nvd_client, out_dir, pentest.plan,
                                pentest.findings, truth, run_id, transcript_ref)
    if done is None:
        return EXIT_FATAL
    report_text, rem_warnings = done
    _persist_history(pentest.history, out_dir)
    text_report = "\n".join([
        f"run {run_id} against {config.target_address}",
        f"termination: {pentest.termination_reason}",
        f"findings: {len(pentest.findings)}",
        "",
        report_text,
    ])
    (out_dir / "report.txt").write_text(text_report + "\n", encoding="utf-8")
    print(text_report)
    return _exit_code(pentest.warnings + rem_warnings)


def cmd_pentest(args) -> int:
    settings, config, out_dir = _stage_setup(args)
    gateway, transcript_ref = _chat_gateway(settings, config.role_models, out_dir)
    pentest = _discover(settings, config, gateway, out_dir)
    if pentest is None:
        return EXIT_FATAL
    _persist_history(pentest.history, out_dir)
    _write_artifact(out_dir, pentest.plan, pentest.findings, [], None,
                    run_id=_deterministic_run_id(config.target_address, "pentest"),
                    transcript_ref=transcript_ref)
    print(f"findings: {len(pentest.findings)} (termination: {pentest.termination_reason})")
    for v in pentest.findings:
        print(f"  {v.key_str}")
    return _exit_code(pentest.warnings)


def cmd_remediate(args) -> int:
    settings, config, out_dir = _stage_setup(args)
    truth = _load_truth(settings.truth)
    try:
        plan, findings, _, _ = deserialize_run(Path(args.artifact).read_bytes())
    except (OSError, ArtifactParseError) as exc:
        print(f"fatal: cannot read artifact: {exc}", file=sys.stderr)
        return EXIT_FATAL
    gateway, transcript_ref = _chat_gateway(settings, config.role_models, out_dir)
    done = _remediate_and_score(config, gateway, _nvd_client(settings, out_dir), out_dir,
                                plan, findings, truth,
                                _deterministic_run_id(config.target_address, "remediate"),
                                transcript_ref)
    if done is None:
        return EXIT_FATAL
    report_text, rem_warnings = done
    print(report_text)
    return _exit_code(rem_warnings)


def cmd_score(args) -> int:
    mode = AggregationMode.SUM if args.aggregation == "sum" else AggregationMode.DIVIDED_BY_THREE
    truth = _load_truth(args.truth)

    reports = []
    for path in args.artifacts:
        try:
            _, findings, recommendations, _ = deserialize_run(Path(path).read_bytes())
        except (OSError, ArtifactParseError) as exc:
            print(f"fatal: artifact {path}: {exc}", file=sys.stderr)
            return EXIT_FATAL
        selected = [r for r in recommendations if r.status.value == "adopted"]
        reports.append(scoring.score_run(findings, truth, selected, mode=mode, run_id=path))

    if args.repeat_mean and len(reports) > 1:
        n = len(reports)
        print(f"mean over {n} runs:")
        print(f"  S_D       = {sum(r.s_d for r in reports) / n:.4f}")
        print(f"  S_R       = {sum(r.s_r for r in reports) / n:.4f}")
        print(f"  C         = {sum(r.c for r in reports) / n:.4f}")
        print(f"  S_overall = {sum(r.s_overall for r in reports) / n:.4f}")
    else:
        for report in reports:
            print(scoring.format_score_table(report, mode))
    return EXIT_OK


def cmd_ingest(args) -> int:
    from . import knowledge

    kb_dir = Path(args.kb)
    if (kb_dir / "meta.json").exists():
        kb = _build_knowledge_base(str(kb_dir))
    else:
        kb = knowledge.KnowledgeBase()
    total = 0
    for path in args.paths:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            print(f"fatal: cannot read {path}: {exc}", file=sys.stderr)
            return EXIT_FATAL
        count = kb.ingest(
            text, doc_id=Path(path).stem,
            chunk_size=args.chunk_size, overlap=args.overlap,
        )
        print(f"{path}: {count} chunks")
        total += count
    kb.save(kb_dir)
    print(f"indexed {total} chunks into {kb_dir}")
    return EXIT_OK


def cmd_replay(args) -> int:
    try:
        transcript = gw.Transcript.load(args.transcript)
    except (OSError, gw.GatewayError) as exc:
        print(f"fatal: {exc}", file=sys.stderr)
        return EXIT_FATAL
    bad = 0
    for i, exchange in enumerate(transcript.exchanges):
        recomputed = gw.request_hash(exchange.role, list(exchange.messages))
        if recomputed != exchange.request_hash:
            print(
                f"line {i + 1}: hash mismatch ({exchange.role.value}): "
                f"recorded {exchange.request_hash[:12]} != recomputed {recomputed[:12]}",
                file=sys.stderr,
            )
            bad += 1
    if bad:
        print(f"transcript invalid: {bad} corrupted exchanges", file=sys.stderr)
        return EXIT_FATAL
    print(f"transcript ok: {len(transcript.exchanges)} exchanges")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _overrides(args) -> dict:
    overrides = {
        "target_address": getattr(args, "target", None),
        "budget_per_vuln": getattr(args, "budget_per_vuln", None),
        "mode": getattr(args, "mode", None),
        "fixtures": getattr(args, "fixtures", None),
        "kb_dir": getattr(args, "kb", None),
        "out_dir": getattr(args, "out", None),
        "truth": getattr(args, "truth", None),
    }
    aggregation = getattr(args, "aggregation", None)
    if aggregation:
        overrides["aggregation_mode"] = "sum" if aggregation == "sum" else "div3"
    return overrides


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--target", help="target address (overrides config)")
    parser.add_argument("--budget-per-vuln", type=float, dest="budget_per_vuln")
    parser.add_argument("--mode", choices=["live", "hermetic"])
    parser.add_argument("--fixtures", help="replay transcript file or directory")
    parser.add_argument("--kb", help="knowledge-base index directory")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--truth", help="ground-truth JSON file")
    parser.add_argument("--aggregation", choices=["div3", "sum"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="penheal",
        description="Automated pentest orchestration and budget-optimal remediation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="full pipeline: pentest, remediate, score")
    _add_pipeline_flags(run_p)
    run_p.set_defaults(func=cmd_run)

    pen_p = sub.add_parser("pentest", help="discovery stage only")
    _add_pipeline_flags(pen_p)
    pen_p.set_defaults(func=cmd_pentest)

    rem_p = sub.add_parser("remediate", help="remediation stage over an artifact")
    rem_p.add_argument("artifact", help="run artifact from the pentest stage")
    _add_pipeline_flags(rem_p)
    rem_p.set_defaults(func=cmd_remediate)

    score_p = sub.add_parser("score", help="score one or more run artifacts")
    score_p.add_argument("artifacts", nargs="+")
    score_p.add_argument("--truth", help="ground-truth JSON file (default: bundled)")
    score_p.add_argument("--aggregation", choices=["div3", "sum"], default="div3")
    score_p.add_argument("--repeat-mean", action="store_true", dest="repeat_mean")
    score_p.set_defaults(func=cmd_score)

    ingest_p = sub.add_parser("ingest", help="index documents into a knowledge base")
    ingest_p.add_argument("paths", nargs="+")
    ingest_p.add_argument("--kb", required=True, help="index directory")
    ingest_p.add_argument("--chunk-size", type=int, default=800, dest="chunk_size")
    ingest_p.add_argument("--overlap", type=int, default=200)
    ingest_p.set_defaults(func=cmd_ingest)

    replay_p = sub.add_parser("replay", help="verify a recorded transcript")
    replay_p.add_argument("transcript")
    replay_p.set_defaults(func=cmd_replay)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, gw.GatewayError) as exc:  # a bad config or fixtures transcript
        print(f"fatal: {exc}", file=sys.stderr)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
