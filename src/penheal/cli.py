"""Command-line entry point.

Wires config, backends, the pentest and remediation engines, scoring and
artifact persistence. ``pentest`` and ``remediate`` run one stage, and
``run`` is ``pentest`` followed by ``remediate``; ``score`` re-scores
artifacts; ``ingest`` builds a knowledge-base index; ``replay`` verifies a
recorded transcript. Each runs in the one ``Session`` that ``main`` holds, which keeps
every warning printed; every fatal condition raises ``Fatal``, which ``main`` alone reports.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Optional

from . import gateway as gw
from .model import (
    DATA_DIR,
    AggregationMode,
    AttackPlan,
    RecommendationStatus,
    RunConfig,
    Vulnerability,
    deserialize_run,
    load_json,
    serialize_run,
    write_json_lines,
)

# At run time each stage module (these, remediation, scoring, nvd) is imported by its helper.
if TYPE_CHECKING:
    from . import engine, knowledge, simulator

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_PARTIAL = 2

_ENV_REF = r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}"  # compiled by re's cache on first use


class Fatal(Exception):
    """Ends the command; ``main`` prints it as the one ``fatal:`` line and exits 1."""


def _interpolate_env(value):
    """Expand ${VAR} references (intended for secrets) in config strings."""
    if isinstance(value, str):
        def repl(match):
            name = match.group(1)
            if name not in os.environ:
                raise Fatal(f"environment variable {name} is not set")
            return os.environ[name]
        return re.sub(_ENV_REF, repl, value)
    if isinstance(value, dict):
        return {k: _interpolate_env(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_interpolate_env(v) for v in value]
    return value


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """The object of a config document's ``pairs``; ValueError if a key comes twice."""
    doc: dict = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"key {key!r} is given twice in one object")
        doc[key] = value
    return doc


def _read_config(path: str) -> dict:
    """The config document at ``path``: a JSON object, its strings interpolated."""
    doc = load_json(Path(path).read_text(encoding="utf-8"), _interpolate_env,
                    object_pairs_hook=_unique_keys)
    if not isinstance(doc, dict):
        raise ValueError("its root is not a JSON object")
    return doc


def load_config(path: Optional[str], overrides: dict) -> dict:
    doc = _input("read config file", path, _read_config) if path else {}
    doc.update((key, value) for key, value in overrides.items() if value is not None)
    return doc


def bundled_fixture_path(name: str) -> Path:
    return DATA_DIR / "fixtures" / name


def _build_knowledge_base(kb_dir: Optional[str]) -> knowledge.KnowledgeBase:
    from . import knowledge

    if kb_dir:
        return _input("load knowledge base", kb_dir, knowledge.KnowledgeBase.load)
    kb = knowledge.KnowledgeBase()
    corpus = DATA_DIR / "corpus" / "pentest_notes.txt"
    kb.ingest(corpus.read_text(encoding="utf-8"), doc_id="pentest_notes")
    return kb


def _host_model(path: Optional[str]) -> simulator.HostModel:
    """The simulated host in ``path`` (default: the bundled profile)."""
    from . import simulator

    return _input("load host model", path or "(bundled)",
                  lambda _: simulator.load_host_model(path or None))


def _findings(doc: Any) -> list[Vulnerability]:
    """A ground-truth document's findings; ValueError unless it is a list of them."""
    if type(doc) is not list:
        raise ValueError("expected a list of findings")
    return [Vulnerability.from_dict(v) for v in doc]


def _load_truth(path: Optional[str], host=None) -> list[Vulnerability]:
    """The weaknesses in ``path``; by default, the inventory of ``host`` (or the bundled one).

    Raises Fatal unless that is a non-empty list of findings.
    """
    if not path:
        from . import simulator

        truth = simulator.ground_truth(_host_model(None) if host is None else host)
    else:
        truth = _input("read ground truth", path,
                       lambda p: load_json(Path(p).read_text(encoding="utf-8"), _findings))
    if not truth:  # coverage is a fraction of the ground truth
        raise Fatal(f"ground truth {path or 'of the host model'} is empty")
    return truth


def _deterministic_run_id(*parts: str) -> str:
    return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Pipeline assembly
# ---------------------------------------------------------------------------


def _check_keys(doc: dict) -> None:
    """Raise ValueError for a config key naming no field, at the top or in llm, nvd, cost_policy.

    The keys of a map, ``role_models`` or ``cost_policy.tier_scores``, are free.
    """
    fields = RunConfig._field_defaults
    for key, value in doc.items():
        if key not in fields:
            raise ValueError(f"unknown key {key}")
        section = getattr(fields[key], "_fields", ())  # a settings type's own fields
        for inner in value if section and type(value) is dict else ():
            if inner not in section:
                raise ValueError(f"unknown key {key}.{inner}")


class Session:
    """One command as it runs: its args, the warnings printed so far, and, once ``setup``
    and the stage helpers have built them, the config, the out dir, the gateway and the
    transcript it replays or records. ``main`` holds it, so it outlives a ``Fatal``."""

    def __init__(self, args) -> None:
        self.args = args
        self.warnings: list[str] = []

    def setup(self) -> RunConfig:
        """Check every config rule, then create the out dir; returns the config."""
        doc = load_config(self.args.config, _overrides(self.args))
        try:
            _check_keys(doc)
            config = RunConfig.from_dict(doc)
            config.validate()
        except (ValueError, KeyError) as exc:
            raise Fatal(f"invalid configuration: {exc}")
        if config.mode not in ("hermetic", "live"):
            raise Fatal(f"unknown mode {config.mode!r} (expected hermetic or live)")
        if config.mode == "live" and not config.llm.base_url:
            raise Fatal("live mode requires llm.base_url")
        gw.route_table(config.role_models)  # for its key checks: a GatewayError, which main reports
        self.config, self.out_dir = config, Path(config.out_dir)
        _output(self.out_dir, lambda path: path.mkdir(parents=True, exist_ok=True))
        return config

    def warn(self, warnings: list[str]) -> None:
        """Print each warning to stderr, and keep it."""
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        self.warnings += warnings


def _chat_gateway(session: Session) -> None:
    """Give the session the mode's chat gateway and the transcript it replays or records."""
    config, roles = session.config, dict(session.config.role_models)
    if config.mode == "hermetic":
        path = Path(config.fixtures or bundled_fixture_path("golden6.jsonl"))
        path = path / "transcript.jsonl" if path.is_dir() else path
        session.gateway = gw.replay_mode(path, role_models=roles)
    else:
        from .backends import LiveBackend

        live = LiveBackend(config.llm.base_url, api_key=config.llm.api_key)
        path = session.out_dir / "transcript.jsonl"
        session.gateway = _output(path, lambda p: gw.record_mode(live, p, roles))
    session.transcript_ref = str(path)


def _executor(config: RunConfig, host=None):
    """The discovery stage's command backend: the local shell, or ``host`` simulated."""
    if config.mode == "live":
        from .backends import ShellBackend

        return ShellBackend()
    from . import simulator

    return simulator.SimulatorBackend(_host_model(config.host_model) if host is None else host)


def _nvd_client(session: Session):
    """Fixture records when the run is hermetic or ``nvd.fixture_dir`` is set, else live."""
    nvd = session.config.nvd
    if session.config.mode == "hermetic" or nvd.fixture_dir:
        from .nvd import FixtureNvdClient

        return FixtureNvdClient(nvd.fixture_dir)
    from .backends import LiveNvdClient

    return _output(Path(nvd.cache_dir or session.out_dir / "nvd-cache"),
                   lambda path: LiveNvdClient(cache_dir=path, base_url=nvd.base_url))


def _input(what: str, path: Any, read: Callable[[Any], Any]) -> Any:
    """``read(path)``; an OSError, ValueError or KeyError from it is the fatal error naming
    ``path``: ``cannot <what> <path>: <reason>``."""
    try:
        return read(path)
    except (OSError, ValueError, KeyError) as exc:
        raise Fatal(f"cannot {what} {path}: {exc}") from None


def _output(path: Path, write: Callable[[Path], Any]) -> Any:
    """``write(path)``; an OSError from it is the fatal error naming ``path``."""
    try:
        return write(path)
    except OSError as exc:
        raise Fatal(f"cannot write {path}: {exc}") from None


def _write_artifact(session: Session, *parts, run_id: str) -> None:
    """Serialize (plan, findings, recommendations, report) to run-artifact.json."""
    artifact = serialize_run(*parts, run_id=run_id, transcript_ref=session.transcript_ref,
                             created_at=time.strftime("%Y-%m-%dT%H:%M:%S"))
    _output(session.out_dir / "run-artifact.json", lambda path: path.write_bytes(artifact))


def _read_artifact(path: str):
    """(plan, findings, recommendations, report) from a run artifact."""
    return _input("read artifact", path, lambda p: deserialize_run(Path(p).read_bytes()))


def _pentest_stage(session: Session, host=None) -> engine.PentestResult:
    """Run discovery, print its warnings, then write history.jsonl and the stage-one artifact."""
    from . import engine  # compiled before a replay transcript is read: a lower peak RSS

    _chat_gateway(session)
    backend = _executor(session.config, host)
    kb = _build_knowledge_base(session.config.kb_dir)
    try:
        pentest = engine.run_pentest(session.config, backend, session.gateway, kb)
    except engine.EngineError as exc:
        raise Fatal(str(exc)) from None
    session.warn(pentest.warnings)
    _output(session.out_dir / "history.jsonl",
            lambda path: write_json_lines(path, pentest.history))
    _write_artifact(session, pentest.plan, pentest.findings, [], None,
                    run_id=_deterministic_run_id(session.config.target_address, "pentest"))
    return pentest


def _remediate_and_score(session: Session, nvd_client, plan: AttackPlan,
                         findings: list[Vulnerability], truth: list[Vulnerability],
                         run_id: str) -> str:
    """Remediate (printing its warnings), score and write the artifact; the report text."""
    from . import remediation, scoring

    mode = session.config.aggregation_mode
    try:
        rem = remediation.remediate(findings, session.config, session.gateway, nvd_client)
    except gw.GatewayError as exc:
        raise Fatal(f"remediation failed: {exc}") from None
    session.warn(rem.warnings)
    report = scoring.score_run(findings, truth, rem.selected, mode=mode, run_id=run_id)
    _write_artifact(session, plan, findings, [c for g in rem.groups for c in g.candidates],
                    report, run_id=run_id)
    return (remediation.format_selection_report(rem.groups) + "\n\n"
            + scoring.format_score_table(report, mode))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_run(session: Session) -> None:
    """The pentest stage, then the remediate stage on its findings."""
    config = session.setup()
    # Read once: a hermetic run simulates the host model, and without --truth scores against it.
    host = _host_model(config.host_model) if config.mode == "hermetic" or not config.truth else None
    truth = _load_truth(config.truth, host)
    nvd_client = _nvd_client(session)
    pentest = _pentest_stage(session, host)
    run_id = _deterministic_run_id(config.target_address, config.mode)
    text_report = "\n".join([
        f"run {run_id} against {config.target_address}",
        f"termination: {pentest.termination_reason}",
        f"findings: {len(pentest.findings)}",
        "",
        _remediate_and_score(session, nvd_client, pentest.plan, pentest.findings, truth, run_id),
    ])
    _output(session.out_dir / "report.txt",
            lambda path: path.write_text(text_report + "\n", encoding="utf-8"))
    print(text_report)


def cmd_pentest(session: Session) -> None:
    session.setup()
    pentest = _pentest_stage(session)
    print(f"findings: {len(pentest.findings)} (termination: {pentest.termination_reason})",
          *(f"  {v.key_str}" for v in pentest.findings), sep="\n")


def cmd_remediate(session: Session) -> None:
    config = session.setup()
    host = None if config.truth else _host_model(config.host_model)
    truth = _load_truth(config.truth, host)
    plan, findings, _, _ = _read_artifact(session.args.artifact)
    _chat_gateway(session)
    print(_remediate_and_score(session, _nvd_client(session), plan, findings, truth,
                               _deterministic_run_id(config.target_address, "remediate")))


def cmd_score(session: Session) -> None:
    from . import scoring

    args = session.args
    mode = AggregationMode(args.aggregation)
    truth = _load_truth(args.truth)

    reports = []
    for path in args.artifacts:
        _, findings, recommendations, _ = _read_artifact(path)
        selected = [r for r in recommendations if r.status is RecommendationStatus.ADOPTED]
        reports.append(scoring.score_run(findings, truth, selected, mode=mode, run_id=path))

    if args.repeat_mean and len(reports) > 1:
        n = len(reports)
        print(f"mean over {n} runs:")
        for name in ("S_D", "S_R", "C", "S_overall"):
            print(f"  {name:<9} = {sum(getattr(r, name.lower()) for r in reports) / n:.4f}")
    else:
        for report in reports:
            print(scoring.format_score_table(report, mode))


def cmd_ingest(session: Session) -> None:
    from . import knowledge

    args = session.args
    doc_ids: dict[str, str] = {}  # doc id -> the input it comes from
    for path in args.paths:  # before any is read: a later one would replace an earlier one
        stem = Path(path).stem
        if stem in doc_ids:
            raise Fatal(f"cannot ingest {path}: {doc_ids[stem]} has the same doc id {stem!r}")
        doc_ids[stem] = path
    kb_dir = Path(args.kb)
    kb = (_build_knowledge_base(str(kb_dir)) if (kb_dir / "meta.json").exists()
          else knowledge.KnowledgeBase())
    total = 0
    for doc_id, path in doc_ids.items():  # a bad chunk size and a non-UTF-8 file are ValueErrors
        count = _input("ingest", path, lambda p: kb.ingest(Path(p).read_text(encoding="utf-8"),
                                                           doc_id, args.chunk_size, args.overlap))
        print(f"{path}: {count} chunks")
        total += count
    _output(kb_dir, kb.save)
    print(f"indexed {total} chunks into {kb_dir}")


def cmd_replay(session: Session) -> None:
    exchanges = gw.load_transcript(session.args.transcript)
    bad = 0
    chars: dict[gw.AgentRole, int] = {}  # request characters by role: what a live run sends
    for i, exchange in enumerate(exchanges):
        sent = sum(len(turn.content) for turn in exchange.messages)
        chars[exchange.role] = chars.get(exchange.role, 0) + sent
        recomputed = gw.request_hash(exchange.role, list(exchange.messages))
        if recomputed != exchange.request_hash:
            print(
                f"line {i + 1}: hash mismatch ({exchange.role.value}): "
                f"recorded {exchange.request_hash[:12]} != recomputed {recomputed[:12]}",
                file=sys.stderr,
            )
            bad += 1
    if bad:
        raise Fatal(f"transcript invalid: {bad} corrupted exchanges")
    print(f"transcript ok: {len(exchanges)} exchanges")
    parts = [f"{role.value} {chars[role]:,}" for role in gw.AgentRole if role in chars]
    print("prompt chars: " + ", ".join(parts + [f"total {sum(chars.values()):,}"]))


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _overrides(args) -> dict:
    """The pipeline flags, by the config key each overrides: its argparse dest."""
    return {key: value for key, value in vars(args).items() if key in RunConfig._fields}


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--target", dest="target_address", help="target address")
    parser.add_argument("--budget-per-vuln", type=float, dest="budget_per_vuln")
    parser.add_argument("--mode", choices=["live", "hermetic"])
    parser.add_argument("--fixtures", help="replay transcript file or directory")
    parser.add_argument("--kb", dest="kb_dir", help="knowledge-base index directory")
    parser.add_argument("--out", dest="out_dir", help="output directory")
    parser.add_argument("--truth", help="ground-truth JSON file")
    parser.add_argument("--aggregation", dest="aggregation_mode", choices=["div3", "sum"])


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
    session = Session(build_parser().parse_args(argv))
    try:
        session.args.func(session)
    except (Fatal, gw.GatewayError) as exc:
        print(f"fatal: {exc}", file=sys.stderr)
        return EXIT_FATAL
    return EXIT_PARTIAL if session.warnings else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
