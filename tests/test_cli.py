"""CLI wiring: subcommands, exit codes, hermetic isolation."""

import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from penheal import cli
from penheal.backends import ShellBackend
from penheal.cli import _chat_gateway, _executor, _nvd_client, main
from penheal.engine import BackendUnreachableError
from penheal.gateway import AgentRole, Gateway, LiveBackend, ScriptedBackend
from penheal.model import AttackPlan, Vulnerability, decode, deserialize_run, serialize_run
from penheal.nvd import FixtureNvdClient
from penheal.simulator import ground_truth


def run_cli(*argv):
    return main(list(argv))


def hermetic_args(out_dir):
    return [
        "run",
        "--target",
        "10.0.2.4",
        "--mode",
        "hermetic",
        "--out",
        str(out_dir),
    ]


class TestRun:
    def test_hermetic_run_succeeds_offline(self, tmp_path, capsys, no_network):
        code = run_cli(*hermetic_args(tmp_path / "out"))
        assert code == 0
        artifact_path = tmp_path / "out" / "run-artifact.json"
        assert artifact_path.exists()
        plan, findings, recommendations, report = deserialize_run(
            artifact_path.read_bytes()
        )
        assert len(findings) == 6
        assert report.s_d == 6.0
        assert (tmp_path / "out" / "history.jsonl").exists()
        assert (tmp_path / "out" / "report.txt").exists()

    def test_missing_target_names_the_key(self, tmp_path, capsys):
        code = run_cli("run", "--mode", "hermetic", "--out", str(tmp_path / "out"))
        assert code == 1
        assert "target_address" in capsys.readouterr().err

    def test_exhausted_fixtures_fail_with_role_and_hash(self, tmp_path, capsys, no_network):
        code = run_cli(
            "run",
            "--target",
            "10.9.9.9",  # prompts differ from every recorded request
            "--mode",
            "hermetic",
            "--out",
            str(tmp_path / "out"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "Planner" in err
        assert "request hash" in err

    def test_config_file_with_env_interpolation(self, tmp_path, monkeypatch, no_network):
        monkeypatch.setenv("TEST_TARGET_HOST", "10.0.2.4")
        config = {"target_address": "${TEST_TARGET_HOST}", "mode": "hermetic"}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        code = run_cli(
            "run", "--config", str(config_path), "--out", str(tmp_path / "out")
        )
        assert code == 0

    def test_role_models_as_pairs(self, tmp_path, no_network):
        """The gateway takes the validated role models, which may be a list of pairs."""
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"target_address": "10.0.2.4", "mode": "hermetic",
                                           "role_models": [["planner", "gpt-4"]]}))
        assert run_cli("run", "--config", str(config_path), "--out", str(tmp_path / "out")) == 0

    def test_missing_env_variable_is_fatal(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"target_address": "${NO_SUCH_VAR_SET}"}))
        code = run_cli("run", "--config", str(config_path))
        assert code == 1
        assert "NO_SUCH_VAR_SET" in capsys.readouterr().err

    def test_malformed_config_is_fatal(self, tmp_path, capsys):
        config_path = tmp_path / "bad.json"
        config_path.write_text("{not json")
        assert run_cli("run", "--config", str(config_path)) == 1
        assert "not valid JSON" in capsys.readouterr().err


class TestPentestSubcommand:
    def test_discovery_stage_only(self, tmp_path, capsys, no_network):
        code = run_cli(
            "pentest",
            "--target",
            "10.0.2.4",
            "--mode",
            "hermetic",
            "--out",
            str(tmp_path / "out"),
        )
        assert code == 0
        _, findings, recommendations, report = deserialize_run(
            (tmp_path / "out" / "run-artifact.json").read_bytes()
        )
        assert len(findings) == 6
        assert recommendations == [] and report is None
        assert "CVE-2011-2523@ftp:21" in capsys.readouterr().out


class TestScoreSubcommand:
    @pytest.fixture
    def artifact(self, tmp_path, no_network):
        out = tmp_path / "out"
        assert run_cli(*hermetic_args(out)) == 0
        return out / "run-artifact.json"

    def test_scores_single_artifact(self, artifact, capsys):
        assert run_cli("score", str(artifact)) == 0
        out = capsys.readouterr().out
        assert "6.00" in out  # detection row

    def test_sum_aggregation_flag(self, artifact, capsys):
        assert run_cli("score", str(artifact), "--aggregation", "sum") == 0
        assert "S_D + S_R - C" in capsys.readouterr().out

    def test_repeat_mean_over_three_artifacts(self, artifact, capsys):
        assert (
            run_cli(
                "score", str(artifact), str(artifact), str(artifact), "--repeat-mean"
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "mean over 3 runs" in out
        assert "S_D       = 6.0000" in out

    def test_corrupt_artifact_fails(self, tmp_path, capsys):
        bad = tmp_path / "corrupt.json"
        bad.write_text("{broken")
        assert run_cli("score", str(bad)) == 1

    def test_custom_truth_file(self, artifact, tmp_path, capsys):
        truth = [{"id": "CVE-2011-2523", "service": "ftp", "port": 21}]
        truth_path = tmp_path / "truth.json"
        truth_path.write_text(json.dumps(truth))
        assert run_cli("score", str(artifact), "--truth", str(truth_path)) == 0
        assert "1 ground truth" in capsys.readouterr().out


class TestIngestSubcommand:
    def test_ingest_bundled_corpus_prints_count(self, tmp_path, capsys):
        corpus = resources.files("penheal.data").joinpath("corpus/pentest_notes.txt")
        doc = tmp_path / "notes.txt"
        doc.write_text(corpus.read_text(encoding="utf-8"))
        code = run_cli("ingest", str(doc), "--kb", str(tmp_path / "kb"))
        assert code == 0
        out = capsys.readouterr().out
        assert "8 chunks" in out  # golden count for the bundled corpus
        assert (tmp_path / "kb" / "meta.json").exists()
        assert (tmp_path / "kb" / "chunks.jsonl").exists()
        assert (tmp_path / "kb" / "vectors.bin").exists()

    def test_missing_file_fatal(self, tmp_path):
        assert run_cli("ingest", str(tmp_path / "nope.txt"), "--kb", str(tmp_path / "kb")) == 1

    def test_unreadable_index_fatal(self, tmp_path, capsys):
        (tmp_path / "kb").mkdir()
        (tmp_path / "kb" / "meta.json").write_text("{broken")
        doc = tmp_path / "notes.txt"
        doc.write_text("notes about the ftp service")
        assert run_cli("ingest", str(doc), "--kb", str(tmp_path / "kb")) == 1
        assert "knowledge base" in fatal_line(capsys.readouterr().err)


class TestReplaySubcommand:
    def test_intact_transcript_verifies(self, capsys):
        fixtures = resources.files("penheal.data").joinpath("fixtures/golden6.jsonl")
        with resources.as_file(fixtures) as path:
            assert run_cli("replay", str(path)) == 0
        assert "transcript ok" in capsys.readouterr().out

    def test_truncated_transcript_fails(self, tmp_path, capsys):
        fixtures = resources.files("penheal.data").joinpath("fixtures/golden6.jsonl")
        raw = fixtures.read_bytes()
        clipped = tmp_path / "clipped.jsonl"
        clipped.write_bytes(raw[: int(len(raw) * 0.7)])
        assert run_cli("replay", str(clipped)) == 1

    def test_tampered_content_fails_hash_check(self, tmp_path, capsys):
        fixtures = resources.files("penheal.data").joinpath("fixtures/nofind.jsonl")
        lines = fixtures.read_text(encoding="utf-8").splitlines()
        doc = json.loads(lines[0])
        doc["messages"][-1]["content"] += " TAMPERED"
        lines[0] = json.dumps(doc)
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text("\n".join(lines) + "\n")
        assert run_cli("replay", str(tampered)) == 1
        assert "hash mismatch" in capsys.readouterr().err


class TestOutputContainment:
    def test_run_writes_only_inside_out_dir(self, tmp_path, no_network, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "only-here"
        assert run_cli(*hermetic_args(out)) == 0
        created = {p.name for p in tmp_path.iterdir()}
        assert created == {"only-here"}


class TestReplayDeterminism:
    def test_artifacts_byte_identical_except_timestamp(self, tmp_path, no_network):
        docs = []
        for i in range(2):
            out = tmp_path / f"out{i}"
            assert run_cli(*hermetic_args(out)) == 0
            docs.append(json.loads((out / "run-artifact.json").read_text()))
        for doc in docs:
            doc.pop("created_at")
        assert json.dumps(docs[0], sort_keys=True) == json.dumps(docs[1], sort_keys=True)


class TestTwoStageFlow:
    def test_pentest_artifact_feeds_remediate(self, tmp_path, no_network):
        stage1 = tmp_path / "stage1"
        assert (
            run_cli(
                "pentest", "--target", "10.0.2.4", "--mode", "hermetic",
                "--out", str(stage1),
            )
            == 0
        )
        stage2 = tmp_path / "stage2"
        assert (
            run_cli(
                "remediate", str(stage1 / "run-artifact.json"),
                "--target", "10.0.2.4", "--mode", "hermetic", "--out", str(stage2),
            )
            == 0
        )
        _, findings, recommendations, report = deserialize_run(
            (stage2 / "run-artifact.json").read_bytes()
        )
        assert len(findings) == 6
        adopted = [r for r in recommendations if r.status.value == "adopted"]
        assert len(adopted) == 6
        assert report.s_d == 6.0


class TestDefaultTruth:
    def test_follows_the_configured_host_model(self, tmp_path, capsys, no_network):
        host = json.loads(
            resources.files("penheal.data").joinpath("hosts/metasploitable2.json").read_text()
        )
        kept = [w for svc in host["services"] for w in svc.get("weaknesses", [])][:1]
        for svc in host["services"]:
            svc["weaknesses"] = [w for w in svc.get("weaknesses", []) if w in kept]
        host_path = tmp_path / "host.json"
        host_path.write_text(json.dumps(host))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "target_address": "10.0.2.4", "mode": "hermetic", "host_model": str(host_path),
        }))
        fixtures = resources.files("penheal.data").joinpath("fixtures/nofind.jsonl")
        # nofind never exploits anything, so the one-weakness host replays it
        # unchanged; no findings means nothing to remediate, hence exit 2.
        code = run_cli("run", "--config", str(config_path), "--fixtures", str(fixtures),
                       "--out", str(tmp_path / "out"))
        assert code == 2
        assert "(0 found, 1 ground truth)" in capsys.readouterr().out


def fatal_line(err: str) -> str:
    """stderr, checked to be a single ``fatal:`` line."""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("fatal: "), err
    return lines[0]


def _refuse(*args):
    raise AssertionError("the model stage was reached")


class TestBadInputsFailFirst:
    """A bad --truth or --kb is one ``fatal:`` line and exit 1, before any model call."""

    @pytest.fixture
    def no_model_stage(self, monkeypatch):
        monkeypatch.setattr(cli, "_chat_gateway", _refuse)

    @pytest.mark.parametrize("content", [
        '[{"id": 1}]', '[{"id": "CVE-2011-2523"}]', '{"id": "CVE-2011-2523", "service": "ftp"}',
        '[{"id": "CVE-2011-2523", "service": "ftp", "cvss_source": "guessed"}]', "not json",
        '[{"id": "CVE-NA", "service": "http", "port": "80"}]', "[]",
    ])
    @pytest.mark.parametrize("command", ["run", "remediate", "score"])
    def test_bad_truth(self, tmp_path, capsys, no_model_stage, content, command):
        truth = tmp_path / "truth.json"
        truth.write_text(content)
        artifact = tmp_path / "artifact.json"
        artifact.write_bytes(serialize_run(AttackPlan(), [], [], None))
        argv = {
            "run": hermetic_args(tmp_path / "out"),
            "remediate": ["remediate", str(artifact), "--target", "10.0.2.4",
                          "--mode", "hermetic", "--out", str(tmp_path / "out")],
            "score": ["score", str(artifact)],
        }[command]
        assert run_cli(*argv, "--truth", str(truth)) == 1
        assert "ground truth" in fatal_line(capsys.readouterr().err)

    def test_missing_truth_file(self, tmp_path, capsys, no_model_stage):
        assert run_cli(*hermetic_args(tmp_path / "out"), "--truth", str(tmp_path / "no.json")) == 1
        assert "no.json" in fatal_line(capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["remediate", "score"])
    def test_mistyped_artifact(self, tmp_path, capsys, no_model_stage, command):
        finding = Vulnerability(id="CVE-2011-2523", service="ftp", port=21)
        doc = json.loads(serialize_run(AttackPlan(), [finding], [], None))
        doc["findings"][0]["service"] = 5
        artifact = tmp_path / "artifact.json"
        artifact.write_text(json.dumps(doc))
        argv = {
            "remediate": ["remediate", str(artifact), "--target", "10.0.2.4",
                          "--mode", "hermetic", "--out", str(tmp_path / "out")],
            "score": ["score", str(artifact)],
        }[command]
        assert run_cli(*argv) == 1
        assert "Vulnerability.service" in fatal_line(capsys.readouterr().err)

    @pytest.mark.parametrize("command, host, message", [
        *[(command, host, "cannot load host model")
          for command in ("run", "pentest") for host in ("missing", "nameless-service")],
        ("run", "no-weaknesses", "ground truth of the host model is empty"),
    ])
    def test_bad_host_model(self, tmp_path, capsys, monkeypatch, no_network, command, host,
                            message):
        monkeypatch.setattr(Gateway, "complete", _refuse)
        host_path = tmp_path / "host.json"
        if host != "missing":
            doc = json.loads(resources.files("penheal.data")
                             .joinpath("hosts/metasploitable2.json").read_text())
            if host == "nameless-service":
                del doc["services"][0]["name"]
            else:
                for service in doc["services"]:
                    service.pop("weaknesses", None)
            host_path.write_text(json.dumps(doc))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"target_address": "10.0.2.4", "mode": "hermetic",
                                      "host_model": str(host_path)}))
        assert run_cli(command, "--config", str(config), "--out", str(tmp_path / "out")) == 1
        assert message in fatal_line(capsys.readouterr().err)

    @pytest.mark.parametrize("key, value", [
        ("out_dir", 5), ("mode", ["live"]), ("fixtures", 5), ("kb_dir", True), ("truth", {}),
        ("host_model", 5), ("llm", "x"), ("llm", {"base_url": 5}), ("nvd", None),
        ("nvd", {"cache_dir": 5}),
    ])
    @pytest.mark.parametrize("command", ["run", "pentest", "remediate"])
    def test_mistyped_cli_key(self, tmp_path, capsys, monkeypatch, command, key, value):
        monkeypatch.setattr(Gateway, "complete", _refuse)
        monkeypatch.chdir(tmp_path)  # a rejected out_dir must not be created anywhere
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"target_address": "10.0.2.4", key: value}))
        artifact = tmp_path / "artifact.json"
        artifact.write_bytes(serialize_run(AttackPlan(), [], [], None))
        argv = [command, str(artifact)] if command == "remediate" else [command]
        assert run_cli(*argv, "--config", str(config)) == 1
        assert f"invalid configuration: CliSettings.{key}" in fatal_line(capsys.readouterr().err)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.json", "config.json"]

    @pytest.mark.parametrize("site", ["config", "config-interpolation", "truth", "fixtures",
                                      "host_model", "remediate", "score", "replay"])
    def test_deeply_nested_json(self, tmp_path, capsys, monkeypatch, no_network, site):
        """JSON nested too deep to read is a parse error, never a RecursionError."""
        monkeypatch.setattr(Gateway, "complete", _refuse)
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"target_address": "10.0.2.4", "mode": "hermetic",
                                      "host_model": str(deep)}))
        parseable = tmp_path / "parseable.json"  # but too deep for the ${VAR} interpolation
        parseable.write_text('{"x": ' + "[" * 500 + "]" * 500 + "}")
        out = ["--target", "10.0.2.4", "--mode", "hermetic", "--out", str(tmp_path / "out")]
        argv = {
            "config": ["run", "--config", str(deep)],
            "config-interpolation": ["run", "--config", str(parseable)],
            "truth": ["run", *out, "--truth", str(deep)],
            "fixtures": ["run", *out, "--fixtures", str(deep)],
            "host_model": ["run", "--config", str(config), "--out", str(tmp_path / "out")],
            "remediate": ["remediate", str(deep), *out],
            "score": ["score", str(deep)],
            "replay": ["replay", str(deep)],
        }[site]
        assert run_cli(*argv) == 1
        assert "nesting too deep" in fatal_line(capsys.readouterr().err)

    def test_missing_kb(self, tmp_path, capsys, monkeypatch, no_network):
        monkeypatch.setattr(Gateway, "complete", _refuse)
        kb = tmp_path / "no-such-index"
        assert run_cli(*hermetic_args(tmp_path / "out"), "--kb", str(kb)) == 1
        assert "knowledge base" in fatal_line(capsys.readouterr().err)


class _VanishingHost:
    """A command backend whose host disappears after the first command."""

    def __init__(self):
        self.calls = 0

    def run(self, command):
        self.calls += 1
        if self.calls >= 2:
            raise BackendUnreachableError("target host vanished")
        return "first output", 0


def _scripted_stage(monkeypatch, scripts, backend):
    """Make the CLI's model and command stages the given stubs."""
    monkeypatch.setattr(cli, "_chat_gateway",
                        lambda settings, role_models, out_dir:
                        (Gateway(ScriptedBackend(scripts)), "scripted"))
    monkeypatch.setattr(cli, "_executor", lambda settings: (backend, None))


class TestStageFailuresAndWarnings:
    @pytest.mark.parametrize("command", ["run", "pentest"])
    def test_unreachable_backend_keeps_partial_history(self, tmp_path, capsys, monkeypatch,
                                                       command):
        _scripted_stage(monkeypatch, {
            AgentRole.PLANNER: ["1 Recon [to-do]\n  1.1 Scan the target [to-do]", "1.1"],
            AgentRole.EXECUTOR: ["$first$ $second$"],
            AgentRole.SUMMARIZER: ["summary of first"],
        }, _VanishingHost())
        out = tmp_path / "out"
        assert run_cli(command, "--target", "10.0.2.4", "--out", str(out)) == 1
        assert "backend unreachable" in fatal_line(capsys.readouterr().err)
        records = (out / "history.jsonl").read_text().splitlines()
        assert [json.loads(r)["raw_output"] for r in records] == ["first output"]
        assert not (out / "run-artifact.json").exists()

    def test_pentest_prints_warnings(self, tmp_path, capsys, monkeypatch):
        _scripted_stage(monkeypatch, {
            AgentRole.PLANNER: ["1 Recon [to-do]", "1"],
            AgentRole.EXECUTOR: ["no command here", "still none"],
        }, _VanishingHost())
        assert run_cli("pentest", "--target", "10.0.2.4", "--out", str(tmp_path / "out")) == 2
        captured = capsys.readouterr()
        assert "findings: 0" in captured.out
        assert captured.err == "warning: 1: executor produced no command twice\n"

    def test_remediate_prints_warnings(self, tmp_path, capsys, no_network):
        artifact = tmp_path / "artifact.json"
        artifact.write_bytes(serialize_run(AttackPlan(), [], [], None))
        assert run_cli("remediate", str(artifact), "--target", "10.0.2.4", "--mode", "hermetic",
                       "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == "warning: nothing to remediate: no findings\n"


SRC = Path(__file__).resolve().parent.parent / "src"
DISCOVERY_STACK = ("penheal.engine", "penheal.simulator", "penheal.knowledge")
# Value types are NamedTuples, so no penheal process pays for these imports.
CODEGEN = ("dataclasses", "inspect")


def fresh_process(script: str, names: tuple[str, ...]) -> dict:
    """Run ``script`` in a new interpreter; its exit code and which ``names`` it imported.

    ``script`` sets ``code``; the probe prints one JSON line after the script's output.
    """
    probe = "\n".join([
        "import json, sys",
        f"sys.path.insert(0, {str(SRC)!r})",
        "code = 0",
        script,
        f"print(json.dumps({{'code': code, 'loaded': sorted(set({names!r}) & set(sys.modules))}}))",
    ])
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, check=True
    )
    return json.loads(result.stdout.splitlines()[-1])


def test_import_does_not_load_requests():
    """Importing the CLI loads neither the HTTP client nor the discovery stack."""
    names = ("requests", "logging", "subprocess", "penheal.backends", *DISCOVERY_STACK,
             *CODEGEN)
    assert fresh_process("import penheal.cli", names) == {"code": 0, "loaded": []}


def test_import_builds_no_codec():
    """JSON codecs are built on first use, so importing the CLI builds none."""
    script = "import penheal.cli\nfrom penheal import model\ncode = len(model._CODECS)"
    assert fresh_process(script, ()) == {"code": 0, "loaded": []}


@pytest.mark.parametrize("command", ["run", "pentest"])
def test_hermetic_stages_skip_code_generation_modules(tmp_path, command):
    argv = [command, "--target", "10.0.2.4", "--mode", "hermetic", "--out", str(tmp_path)]
    script = f"from penheal.cli import main\ncode = main({argv!r})"
    assert fresh_process(script, CODEGEN) == {"code": 0, "loaded": []}


def test_hermetic_remediate_skips_the_discovery_stack(tmp_path, no_network):
    stage1 = tmp_path / "stage1"
    assert run_cli("pentest", "--target", "10.0.2.4", "--mode", "hermetic",
                   "--out", str(stage1)) == 0
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps([v.to_dict() for v in ground_truth()]))
    argv = ["remediate", str(stage1 / "run-artifact.json"), "--target", "10.0.2.4",
            "--mode", "hermetic", "--kb", str(tmp_path / "no-such-index"),
            "--truth", str(truth), "--out", str(tmp_path / "stage2")]
    script = f"from penheal.cli import main\ncode = main({argv!r})"
    assert fresh_process(script, DISCOVERY_STACK + CODEGEN) == {"code": 0, "loaded": []}
    _, findings, recommendations, _ = deserialize_run(
        (tmp_path / "stage2" / "run-artifact.json").read_bytes()
    )
    assert len(findings) == 6 and recommendations


def test_live_mode_assembly(tmp_path, no_network):
    """Live assembly builds the shell backend and a recording gateway, and connects nowhere."""
    settings = decode(cli.CliSettings, {"mode": "live", "llm": {"base_url": "http://127.0.0.1:9/v1"},
                                        "nvd": {"mode": "fixture"}})
    gateway, transcript_ref = _chat_gateway(settings, (), tmp_path)
    backend, _ = _executor(settings)
    assert isinstance(gateway.backend, LiveBackend)
    assert transcript_ref == str(tmp_path / "transcript.jsonl")
    assert (tmp_path / "transcript.jsonl").read_text() == ""  # record mode starts it empty
    assert isinstance(backend, ShellBackend)
    assert isinstance(_nvd_client(settings, tmp_path), FixtureNvdClient)
