"""CLI wiring: subcommands, exit codes, hermetic isolation."""

import argparse
import ast
import builtins
import json
import os
import struct
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from penheal import cli
from penheal.backends import LiveBackend, LiveNvdClient, ShellBackend
from penheal.cli import _chat_gateway, _executor, _nvd_client, main
from penheal.engine import ExecutionRecord
from penheal.gateway import AgentRole, Gateway, ScriptedBackend
from penheal.model import (AttackPlan, RunConfig, Vulnerability, deserialize_run,
                           read_json_lines, serialize_run)
from penheal.nvd import FixtureNvdClient
from penheal.simulator import ground_truth, load_host_model


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

    def test_budget_beyond_every_fix_is_solved_at_the_bound(self, tmp_path, capsys,
                                                             no_network):
        """A budget no finding can spend picks what budget 10 per finding does."""
        outputs = []
        for budget in ("10", "1e308"):
            assert run_cli(*hermetic_args(tmp_path / budget), "--budget-per-vuln", budget) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

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
        assert fatal_line(capsys.readouterr().err) == (
            f"fatal: cannot read config file {config_path}: "
            "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)")

    @pytest.mark.parametrize("damage", ["directory", "not-utf8"])
    def test_unreadable_config_is_fatal(self, tmp_path, capsys, damage):
        config_path = tmp_path / "config.json"
        if damage == "directory":
            config_path.mkdir()
        else:
            config_path.write_bytes(b"\xff\xfe{}")
        assert run_cli("run", "--config", str(config_path)) == 1
        assert fatal_line(capsys.readouterr().err).startswith(
            f"fatal: cannot read config file {config_path}: ")

    def test_missing_config_is_fatal(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli("run", "--config", "none.json") == 1
        assert fatal_line(capsys.readouterr().err) == (
            "fatal: cannot read config file none.json: "
            "[Errno 2] No such file or directory: 'none.json'")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("text", ['["target_address", "10.0.2.4"]', '"10.0.2.4"', "null"])
    def test_config_root_that_is_not_an_object_is_fatal(self, tmp_path, capsys, text):
        config_path = tmp_path / "config.json"
        config_path.write_text(text)
        assert run_cli("run", "--config", str(config_path)) == 1
        assert fatal_line(capsys.readouterr().err) == (
            f"fatal: cannot read config file {config_path}: its root is not a JSON object")


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
        assert (tmp_path / "kb" / "texts.bin").exists()
        assert (tmp_path / "kb" / "postings.bin").exists()
        assert not (tmp_path / "kb" / "vectors.bin").exists()  # one layout
        assert not (tmp_path / "kb" / "chunks.jsonl").exists()

    def test_empty_file_indexes_nothing_and_warns_nowhere(self, tmp_path):
        """A new process, so no test harness catches what would go to stderr."""
        doc = tmp_path / "empty.txt"
        doc.write_text("")
        paths = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
        result = subprocess.run(
            [sys.executable, "-m", "penheal.cli", "ingest", str(doc), "--kb", str(tmp_path / "kb")],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)})
        assert (result.returncode, result.stderr) == (0, "")
        assert f"{doc}: 0 chunks" in result.stdout

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
        out = capsys.readouterr().out
        assert "transcript ok" in out
        assert out.splitlines()[1] == (
            "prompt chars: Planner 56,359, Executor 27,156, Summarizer 7,418, Extractor 7,765, "
            "Estimator 4,820, Advisor 5,208, Evaluator 31,928, total 140,654")

    def test_prompt_chars_leave_out_roles_with_no_exchange(self, capsys):
        fixtures = resources.files("penheal.data").joinpath("fixtures/nofind.jsonl")
        with resources.as_file(fixtures) as path:
            assert run_cli("replay", str(path)) == 0
        assert capsys.readouterr().out.splitlines()[1] == (
            "prompt chars: Planner 7,575, Executor 6,644, Summarizer 1,713, Extractor 1,911, "
            "total 17,843")

    def test_truncated_transcript_fails(self, tmp_path, capsys):
        fixtures = resources.files("penheal.data").joinpath("fixtures/golden6.jsonl")
        raw = fixtures.read_bytes()
        clipped = tmp_path / "clipped.jsonl"
        clipped.write_bytes(raw[: int(len(raw) * 0.7)])
        assert run_cli("replay", str(clipped)) == 1

    def test_tampered_content_fails_hash_check(self, tmp_path, capsys):
        fixtures = resources.files("penheal.data").joinpath("fixtures/nofind.jsonl")
        lines = fixtures.read_text(encoding="utf-8").splitlines()
        with resources.as_file(fixtures) as path:  # hashes every intact first turn first
            assert run_cli("replay", str(path)) == 0
        for turn in (-1, 0):  # the last turn, then the system turn
            doc = json.loads(lines[0])
            doc["messages"][turn]["content"] += " TAMPERED"
            tampered = tmp_path / "tampered.jsonl"
            tampered.write_text("\n".join([json.dumps(doc)] + lines[1:]) + "\n")
            assert run_cli("replay", str(tampered)) == 1
            err = capsys.readouterr().err
            assert "line 1: hash mismatch" in err
            assert "1 corrupted exchanges" in err


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
    NOFIND = resources.files("penheal.data").joinpath("fixtures/nofind.jsonl")

    @staticmethod
    def one_weakness_config(tmp_path):
        """A config naming a copy of the bundled host with only its first weakness."""
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
        return str(config_path)

    def test_follows_the_configured_host_model(self, tmp_path, capsys, no_network):
        # nofind never exploits anything, so the one-weakness host replays it
        # unchanged; no findings means nothing to remediate, hence exit 2.
        code = run_cli("run", "--config", self.one_weakness_config(tmp_path),
                       "--fixtures", str(self.NOFIND), "--out", str(tmp_path / "out"))
        assert code == 2
        assert "(0 found, 1 ground truth)" in capsys.readouterr().out

    def test_remediate_follows_the_configured_host_model(self, tmp_path, capsys, no_network):
        config = self.one_weakness_config(tmp_path)
        run_cli("pentest", "--config", config, "--fixtures", str(self.NOFIND),
                "--out", str(tmp_path / "stage1"))
        capsys.readouterr()
        code = run_cli("remediate", str(tmp_path / "stage1" / "run-artifact.json"),
                       "--config", config, "--fixtures", str(self.NOFIND),
                       "--out", str(tmp_path / "stage2"))
        assert code == 2
        assert "(0 found, 1 ground truth)" in capsys.readouterr().out

    @pytest.mark.parametrize("with_truth", [False, True])
    def test_hermetic_run_reads_the_host_model_once(self, tmp_path, capsys, monkeypatch,
                                                    no_network, with_truth):
        """Simulated and, without --truth, scored against: one read serves both."""
        import penheal.simulator as simulator

        reads, load = [], simulator.load_host_model

        def counted_load(path=None):
            reads.append(path)
            return load(path)

        monkeypatch.setattr(simulator, "load_host_model", counted_load)
        config = self.one_weakness_config(tmp_path)
        truth_args = []
        if with_truth:
            truth = ground_truth(load(tmp_path / "host.json"))
            (tmp_path / "truth.json").write_text(json.dumps([v.to_dict() for v in truth]))
            truth_args = ["--truth", str(tmp_path / "truth.json")]
        code = run_cli("run", "--config", config, "--fixtures", str(self.NOFIND), *truth_args,
                       "--out", str(tmp_path / "out"))
        assert code == 2
        assert "(0 found, 1 ground truth)" in capsys.readouterr().out  # the configured host's
        assert reads == [str(tmp_path / "host.json")]


def fatal_line(err: str) -> str:
    """stderr, checked to be a single ``fatal:`` line."""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("fatal: "), err
    return lines[0]


def _refuse(*args):
    raise AssertionError("the model stage was reached")


def _rejected_config(tmp_path, capsys, monkeypatch, command, doc, *flags):
    """The fatal line of ``command`` on a config with ``doc`` (or text) and ``flags``; checks
    nothing else ran and nothing was created."""
    monkeypatch.setattr(Gateway, "complete", _refuse)
    monkeypatch.chdir(tmp_path)  # a rejected out_dir must not be created anywhere
    config = tmp_path / "config.json"
    config.write_text(doc if isinstance(doc, str)  # raw text, for what json.dumps cannot write
                      else json.dumps({"target_address": "10.0.2.4", **doc}))
    artifact = tmp_path / "artifact.json"
    artifact.write_bytes(serialize_run(AttackPlan(), [], [], None))
    argv = [command, str(artifact)] if command == "remediate" else [command]
    assert run_cli(*argv, "--config", str(config), *flags) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.json", "config.json"]
    return fatal_line(capsys.readouterr().err)


class TestBadInputsFailFirst:
    """A bad --truth or --kb is one ``fatal:`` line and exit 1, before any model call."""

    def test_fixtures_builtin_is_a_path_like_any_other(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(Gateway, "complete", _refuse)
        assert run_cli(*hermetic_args(tmp_path / "out"), "--fixtures", "builtin") == 1
        assert fatal_line(capsys.readouterr().err) == (
            "fatal: cannot read transcript builtin: No such file or directory")

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

    def test_lone_surrogate_in_artifact(self, tmp_path, capsys, no_model_stage):
        """No UTF-8 writer takes a lone surrogate, so it is refused where the artifact is
        read, not when the transcript records the first request quoting it."""
        text = (Path(__file__).parent / "data" / "artifact_3vuln.json").read_text("utf-8")
        artifact = tmp_path / "artifact.json"
        artifact.write_text(text.replace('"description": "sqli"', '"description": "sqli\\udc80"'),
                            encoding="utf-8")
        assert run_cli("remediate", str(artifact), "--target", "10.0.2.4", "--mode", "hermetic",
                       "--out", str(tmp_path / "out")) == 1
        assert fatal_line(capsys.readouterr().err) == (
            f"fatal: cannot read artifact {artifact}: invalid JSON: lone surrogate \\udc80 "
            f"(byte offset {text.index('sqli') + 4})")

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
        message = _rejected_config(tmp_path, capsys, monkeypatch, command, {key: value})
        assert f"invalid configuration: RunConfig.{key}" in message

    @pytest.mark.parametrize("mode, message", [
        ("hemetic", "unknown mode 'hemetic' (expected hermetic or live)"),
        ("live", "live mode requires llm.base_url"),
    ], ids=["unknown", "live-without-base-url"])
    @pytest.mark.parametrize("command", ["run", "pentest", "remediate"])
    def test_unrunnable_mode(self, tmp_path, capsys, monkeypatch, no_network, command, mode,
                             message):
        message_line = _rejected_config(tmp_path, capsys, monkeypatch, command, {"mode": mode})
        assert message_line == f"fatal: {message}"

    @pytest.mark.parametrize("section, key", [
        (None, "budgte_per_vuln"), (None, "budget_scope"), ("nvd", "mode"), ("nvd", "mdoe"),
        ("llm", "base_ulr"), ("cost_policy", "tier_score"),
    ])
    @pytest.mark.parametrize("command", ["run", "pentest", "remediate"])
    def test_unknown_config_key(self, tmp_path, capsys, monkeypatch, command, section, key):
        doc = {key: "x"} if section is None else {section: {key: "x"}}
        message = _rejected_config(tmp_path, capsys, monkeypatch, command, doc)
        dotted = key if section is None else f"{section}.{key}"
        assert message == f"fatal: invalid configuration: unknown key {dotted}"

    @pytest.mark.parametrize("command", ["run", "pentest", "remediate"])
    def test_role_models_key_naming_no_role(self, tmp_path, capsys, monkeypatch, no_network,
                                            command):
        """A typo in a role name is one fatal line before any model call, not a silent route
        of that role to the tier model."""
        doc = {"mode": "hermetic", "role_models": {"planer": "special-model", "Strong": "big"}}
        assert _rejected_config(tmp_path, capsys, monkeypatch, command, doc) == (
            "fatal: role_models key 'planer' names no role, nor strong or light")

    @pytest.mark.parametrize("doc, message", [
        ({"role_models": {"Planner": "a", "planner": "b"}},
         "role_models names planner twice (case is ignored)"),
        ({"role_models": [["light", "a"], ["light", "b"]]},
         "role_models names light twice (case is ignored)"),
        ({"cost_policy": {"tier_scores": {"low": 1.0, "LOW": 3.0}}},
         "invalid configuration: tier_scores names low twice (case is ignored)"),
    ], ids=["role", "role-pairs", "cost-tier"])
    @pytest.mark.parametrize("command", ["run", "pentest", "remediate"])
    def test_name_given_twice(self, tmp_path, capsys, monkeypatch, no_network, command, doc,
                              message):
        """Names are read in any case, so two keys that differ only in case are one key
        given twice: fatal, not resolved by whichever comes last."""
        assert _rejected_config(tmp_path, capsys, monkeypatch, command, doc) == f"fatal: {message}"

    @pytest.mark.parametrize("text, key", [
        ('{"target_address": "10.0.2.4", "budget_per_vuln": 5, "budget_per_vuln": 50}',
         "budget_per_vuln"),
        ('{"target_address": "10.0.2.4", "cost_policy": {"tier_scores": {"low": 1.0, "low": 3.0}}}',
         "low"),
        ('{"target_address": "10.0.2.4", "role_models": {"Planner": "a", "Planner": "b"}}',
         "Planner"),
    ], ids=["top-level", "cost-tier", "role"])
    @pytest.mark.parametrize("command", ["run", "pentest", "remediate"])
    def test_key_repeated_in_one_object(self, tmp_path, capsys, monkeypatch, command, text, key):
        """JSON keeps the last of two identical keys; in the config that would hide a typo's
        twin, so the repeat is fatal before anything is created."""
        assert _rejected_config(tmp_path, capsys, monkeypatch, command, text) == (
            f"fatal: cannot read config file {tmp_path / 'config.json'}: "
            f"key {key!r} is given twice in one object")

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

    @pytest.mark.parametrize("flag, config_keys", [
        ("nan", {}), ("inf", {}),
        (None, {"budget_per_vuln": float("nan")}), (None, {"budget_per_vuln": float("inf")}),
        (None, {"cost_policy": {"tier_scores": {"low": -2.0}}}),
        (None, {"cost_policy": {"tier_scores": {"high": float("inf")}}}),
        (None, {"cost_policy": {"tier_scores": {"high": 1e308}}}),
        (None, {"cost_policy": {"tier_scores": {"low": 10.5}}}),
        (None, {"no_new_finding_window": 0}),
        (None, {"cost_policy": {"tier_scores": {"Urgent": 7}}}),
    ], ids=["flag-nan", "flag-inf", "config-nan", "config-inf", "tier-negative", "tier-inf",
            "tier-huge", "tier-above-ten", "window-zero", "tier-unknown"])
    def test_unusable_budget_or_tier(self, tmp_path, capsys, monkeypatch, no_network, flag,
                                     config_keys):
        """The knapsack needs a finite budget and tier scores from 0 to 10, and the
        stagnation check a window of at least one iteration."""
        budget = ["--budget-per-vuln", flag] if flag else []
        doc = {"mode": "hermetic", **config_keys}  # json writes nan and inf as NaN, Infinity
        message = _rejected_config(tmp_path, capsys, monkeypatch, "run", doc, *budget)
        assert "invalid configuration: " in message

    @pytest.mark.parametrize("damage", ["overlap", "not-utf8", "duplicate-stem", "chunk-size"])
    def test_bad_ingest_input(self, tmp_path, capsys, damage):
        doc = tmp_path / "notes.txt"
        doc.write_bytes(b"\xff\xfe notes" if damage == "not-utf8" else b"notes about ftp")
        chunks = {"overlap": ["--chunk-size", "100", "--overlap", "200"],
                  "chunk-size": ["--chunk-size", str(2**25 + 1)]}.get(damage, [])
        same_id = tmp_path / "other" / "notes.md"  # doc id "notes", like notes.txt
        same_id.parent.mkdir()
        same_id.write_text("notes about ssh")
        first = [str(same_id)] if damage == "duplicate-stem" else []
        assert run_cli("ingest", *first, str(doc), "--kb", str(tmp_path / "kb"), *chunks) == 1
        assert f"cannot ingest {doc}" in fatal_line(capsys.readouterr().err)
        assert not (tmp_path / "kb").exists()  # no index written

    @pytest.mark.parametrize("command", ["replay", "run"])
    def test_undecodable_transcript(self, tmp_path, capsys, monkeypatch, no_network, command):
        """A transcript that cannot be decoded, or not read at all, is one fatal line."""
        monkeypatch.setattr(Gateway, "complete", _refuse)
        transcript = tmp_path / "transcript.jsonl"
        transcript.write_bytes(b"\xff\xfe\n")
        argv = (["replay", str(transcript)] if command == "replay"
                else [*hermetic_args(tmp_path / "out"), "--fixtures", str(transcript)])
        assert run_cli(*argv) == 1
        assert "line 1 is unreadable" in fatal_line(capsys.readouterr().err)
        transcript.unlink()
        transcript.mkdir()  # `run` finds it in the --fixtures directory
        argv[-1] = str(transcript if command == "replay" else tmp_path)
        assert run_cli(*argv) == 1
        assert f"cannot read transcript {transcript}: " in fatal_line(capsys.readouterr().err)

    def test_missing_kb(self, tmp_path, capsys, monkeypatch, no_network):
        monkeypatch.setattr(Gateway, "complete", _refuse)
        kb = tmp_path / "no-such-index"
        assert run_cli(*hermetic_args(tmp_path / "out"), "--kb", str(kb)) == 1
        assert "knowledge base" in fatal_line(capsys.readouterr().err)

    NEW_INGEST = ("index layout None is not 'hashed-tf-512 postings-uint32-le "
                  "texts-uint32-lengths-utf8'; re-run `penheal ingest` on its documents into a "
                  "new directory")
    BAD_KB = {
        "meta-list": "expected dict, got list",
        "meta-too-deep": "nesting too deep",
        "mistyped-chunk": "IndexMeta.documents: expected int, got str",
        "broken-chunk": "texts.bin is not UTF-8: invalid start byte",
        "truncated-texts": "texts.bin has lengths that sum to 47, not its 46 characters",
        "short-texts": "texts.bin has 3 bytes, fewer than 4 per chunk",
        "lengths": "texts.bin has lengths that sum to 48, not its 47 characters",
        "documents": "meta.json documents must name each doc id once, each with 1 or more chunks",
        "chunks-jsonl-layout": NEW_INGEST,
        "norms-layout": NEW_INGEST,
    }

    @pytest.mark.parametrize("damage", BAD_KB)
    def test_bad_kb(self, tmp_path, capsys, monkeypatch, no_network, damage):
        from penheal.knowledge import KnowledgeBase
        from test_knowledge_matrix import write_jsonl_layout, write_norms_layout

        monkeypatch.setattr(Gateway, "complete", _refuse)
        kb = tmp_path / "index"
        index = KnowledgeBase()
        index.ingest("Scan the target with nmap before exploiting it.", doc_id="notes")
        index.save(kb)
        texts, meta = (kb / "texts.bin").read_bytes(), (kb / "meta.json").read_text()
        if damage == "meta-list":
            (kb / "meta.json").write_text("[]")
        elif damage == "meta-too-deep":
            (kb / "meta.json").write_text("[" * 100_000)
        elif damage == "mistyped-chunk":
            (kb / "meta.json").write_text(meta.replace('"notes": 1', '"notes": "1"'))
        elif damage == "documents":
            (kb / "meta.json").write_text(meta.replace('"notes": 1', '"notes": 0'))
        elif damage == "chunks-jsonl-layout":
            write_jsonl_layout(kb)
        elif damage == "norms-layout":
            write_norms_layout(kb)
        else:
            (kb / "texts.bin").write_bytes({
                "broken-chunk": texts[:4] + b"\xff" + texts[5:],
                "truncated-texts": texts[:-1], "short-texts": texts[:3],
                "lengths": struct.pack("<I", 48) + texts[4:]}[damage])
        assert run_cli(*hermetic_args(tmp_path / "out"), "--kb", str(kb)) == 1
        line = fatal_line(capsys.readouterr().err)
        assert f"cannot load knowledge base {kb}: {self.BAD_KB[damage]}" in line

    def test_kb_in_the_dense_layout(self, tmp_path, capsys, monkeypatch, no_network):
        from penheal.knowledge import KnowledgeBase
        from test_knowledge_matrix import write_dense_layout

        monkeypatch.setattr(Gateway, "complete", _refuse)
        kb = tmp_path / "index"
        index = KnowledgeBase()
        index.ingest("Scan the target with nmap before exploiting it.", doc_id="notes")
        index.save(kb)
        write_dense_layout(kb)
        assert run_cli(*hermetic_args(tmp_path / "out"), "--kb", str(kb)) == 1
        line = fatal_line(capsys.readouterr().err)
        assert f"cannot load knowledge base {kb}" in line and "re-run `penheal ingest`" in line


class TestUnwritableOutput:
    """An output path that cannot be written is one ``fatal:`` line naming it, and exit 1."""

    @pytest.mark.parametrize("command, blocked", [
        ("pentest", "out"), ("ingest", "kb"), ("pentest", "history.jsonl"),
        ("pentest", "run-artifact.json"), ("run", "run-artifact.json"),
        ("remediate", "run-artifact.json"), ("run", "report.txt"), ("live", "transcript.jsonl"),
        ("live-remediate", "nvd-cache"),
    ])
    def test_fatal_names_the_path(self, tmp_path, capsys, no_network, command, blocked):
        regular = tmp_path / "regular-file"
        regular.write_text("not a directory")
        out = regular / "out" if blocked == "out" else tmp_path / "out"
        path = {"out": out, "kb": regular, "nvd-cache": regular / "nvd-cache"}.get(
            blocked, out / blocked)
        if blocked not in ("out", "kb", "nvd-cache"):
            path.mkdir(parents=True)
        stage1 = tmp_path / "stage1"
        if command.endswith("remediate"):
            assert run_cli("pentest", "--target", "10.0.2.4", "--out", str(stage1)) == 0
            capsys.readouterr()
        corpus = cli.DATA_DIR / "corpus" / "pentest_notes.txt"
        live = tmp_path / "live.json"
        live.write_text(json.dumps({"target_address": "10.0.2.4", "mode": "live",
                                    "llm": {"base_url": "http://127.0.0.1:9/v1"},
                                    "nvd": {"cache_dir": str(regular / "nvd-cache")}}))
        argv = {
            "pentest": ["pentest", "--target", "10.0.2.4", "--out", str(out)],
            "run": hermetic_args(out),
            "remediate": ["remediate", str(stage1 / "run-artifact.json"), "--target", "10.0.2.4",
                          "--mode", "hermetic", "--out", str(out)],
            "ingest": ["ingest", str(corpus), "--kb", str(regular)],
            "live": ["pentest", "--config", str(live), "--out", str(out)],
            "live-remediate": ["remediate", str(stage1 / "run-artifact.json"), "--config",
                               str(live), "--out", str(out)],
        }[command]
        assert run_cli(*argv) == 1
        assert str(path) in fatal_line(capsys.readouterr().err)


class TestWarningsBeforeAFailedWrite:
    """A stage prints its warnings when it returns, so a failed write after it keeps them."""

    def test_report_write(self, tmp_path, capsys, no_network):
        out = tmp_path / "out"
        (out / "report.txt").mkdir(parents=True)
        nofind = cli.bundled_fixture_path("nofind.jsonl")
        assert run_cli(*hermetic_args(out), "--fixtures", str(nofind)) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "warning: nothing to remediate: no findings"
        assert fatal_line("\n".join(err[1:])).startswith(
            f"fatal: cannot write {out / 'report.txt'}")

    def test_history_write(self, tmp_path, capsys, monkeypatch, no_network):
        from penheal import engine

        run_pentest = engine.run_pentest
        monkeypatch.setattr(engine, "run_pentest", lambda *args: run_pentest(*args)._replace(
            warnings=["a discovery warning"]))
        out = tmp_path / "out"
        (out / "history.jsonl").mkdir(parents=True)
        assert run_cli("pentest", "--target", "10.0.2.4", "--out", str(out)) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "warning: a discovery warning"
        assert fatal_line("\n".join(err[1:])).startswith(
            f"fatal: cannot write {out / 'history.jsonl'}")


class _OneOutputHost:
    """A command backend that answers every command with the same output."""

    def run(self, command):
        return "first output", 0


def _scripted_stage(monkeypatch, scripts, backend):
    """Make the CLI's model and command stages the given stubs."""
    from penheal.knowledge import KnowledgeBase

    def chat_gateway(session):
        session.gateway, session.transcript_ref = Gateway(ScriptedBackend(scripts)), "scripted"

    monkeypatch.setattr(cli, "_chat_gateway", chat_gateway)
    monkeypatch.setattr(cli, "_executor", lambda config, host: backend)
    monkeypatch.setattr(cli, "_build_knowledge_base", lambda kb_dir: KnowledgeBase())


@pytest.fixture
def sessions(monkeypatch):
    """The sessions ``main`` builds, kept for the test to read after ``main`` returns."""
    built = []

    class Recorded(cli.Session):
        def __init__(self, args):
            super().__init__(args)
            built.append(self)

    monkeypatch.setattr(cli, "Session", Recorded)
    return built


class TestStageFailuresAndWarnings:
    def test_pentest_prints_warnings(self, tmp_path, capsys, monkeypatch):
        _scripted_stage(monkeypatch, {
            AgentRole.PLANNER: ["1 Recon [to-do]", "1"],
            AgentRole.EXECUTOR: ["no command here", "still none"],
        }, _OneOutputHost())
        assert run_cli("pentest", "--target", "10.0.2.4", "--out", str(tmp_path / "out")) == 2
        captured = capsys.readouterr()
        assert "findings: 0" in captured.out
        assert captured.err == "warning: 1: executor produced no command twice\n"

    def test_run_prints_discovery_warnings_when_remediation_fails(self, tmp_path, capsys,
                                                                  monkeypatch):
        done = "1 Recon [completed] - result: web server found"
        finding = "Exploited: CVE-NA\nservice: http\nport: 80\ndescription: weak login\nmethod: -"
        _scripted_stage(monkeypatch, {  # no Estimator reply for the CVE-NA finding
            AgentRole.PLANNER: ["1 Recon [to-do]", "1", done, done],
            AgentRole.EXECUTOR: ["$nmap -sV 10.0.2.4$ $dangling"],
            AgentRole.SUMMARIZER: ["web server found"],
            AgentRole.EXTRACTOR: [finding, finding],
        }, _OneOutputHost())
        assert run_cli("run", "--target", "10.0.2.4", "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err.splitlines() == [
            "warning: unpaired $ delimiter near: 'dangling'",
            "fatal: remediation failed: scripted backend has no response left for Estimator",
        ]

    def test_remediate_prints_warnings(self, tmp_path, capsys, no_network):
        artifact = tmp_path / "artifact.json"
        artifact.write_bytes(serialize_run(AttackPlan(), [], [], None))
        assert run_cli("remediate", str(artifact), "--target", "10.0.2.4", "--mode", "hermetic",
                       "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == "warning: nothing to remediate: no findings\n"


    def test_the_session_keeps_the_warnings_printed_before_a_fatal(self, tmp_path, monkeypatch,
                                                                   sessions):
        done = "1 Recon [completed] - result: web server found"
        finding = "Exploited: CVE-NA\nservice: http\nport: 80\ndescription: weak login\nmethod: -"
        _scripted_stage(monkeypatch, {  # no Estimator reply for the CVE-NA finding
            AgentRole.PLANNER: ["1 Recon [to-do]", "1", done, done],
            AgentRole.EXECUTOR: ["$nmap -sV 10.0.2.4$ $dangling"],
            AgentRole.SUMMARIZER: ["web server found"],
            AgentRole.EXTRACTOR: [finding, finding],
        }, _OneOutputHost())
        assert run_cli("run", "--target", "10.0.2.4", "--out", str(tmp_path / "out")) == 1
        assert [session.warnings for session in sessions] == [
            ["unpaired $ delimiter near: 'dangling'"]]

    def test_the_session_keeps_the_warnings_that_make_exit_2(self, tmp_path, no_network,
                                                              sessions):
        artifact = tmp_path / "artifact.json"
        artifact.write_bytes(serialize_run(AttackPlan(), [], [], None))
        assert run_cli("remediate", str(artifact), "--target", "10.0.2.4", "--mode", "hermetic",
                       "--out", str(tmp_path / "out")) == 2
        assert [session.warnings for session in sessions] == [
            ["nothing to remediate: no findings"]]

    def test_a_reply_holding_a_lone_surrogate_is_written_out(self, tmp_path, capsys, monkeypatch):
        _scripted_stage(monkeypatch, {
            AgentRole.PLANNER: ["1 Recon [to-do]", "1", "1 Recon [completed] - result: ports"],
            AgentRole.EXECUTOR: ["$nmap 10.0.2.4$"],
            AgentRole.SUMMARIZER: [json.loads('"open ports \\ud83d"')],  # as a JSON body
            AgentRole.EXTRACTOR: ["NONE", "NONE"],
        }, _OneOutputHost())
        assert run_cli("pentest", "--target", "10.0.2.4", "--out", str(tmp_path / "out")) == 0
        assert capsys.readouterr().err == ""
        history = read_json_lines(tmp_path / "out" / "history.jsonl", ExecutionRecord)
        assert [record.summary for record in history] == ["open ports \ufffd"]

    def test_engine_error_is_one_fatal_line(self, tmp_path, capsys, monkeypatch):
        _scripted_stage(monkeypatch, {AgentRole.PLANNER: ["no plan line here"]},
                        _OneOutputHost())
        assert run_cli("pentest", "--target", "10.0.2.4", "--out", str(tmp_path / "out")) == 1
        assert fatal_line(capsys.readouterr().err) == (
            "fatal: planner produced no parseable initial plan")


class TestStageCheckpoint:
    """``run`` writes stage one before remediating, so a failed remediation can resume."""

    def test_failed_remediation_resumes_from_out(self, tmp_path, capsys, no_network):
        golden = cli.bundled_fixture_path("golden6.jsonl").read_text(encoding="utf-8")
        no_evaluator = tmp_path / "no-evaluator.jsonl"
        no_evaluator.write_text("".join(line for line in golden.splitlines(keepends=True)
                                        if json.loads(line)["role"] != "Evaluator"))
        full, failed, stage1, resumed = (tmp_path / n for n in ("full", "failed", "stage1",
                                                                 "resumed"))
        target = ["--target", "10.0.2.4", "--mode", "hermetic"]
        assert run_cli(*hermetic_args(full)) == 0
        assert run_cli("pentest", *target, "--fixtures", str(no_evaluator),
                       "--out", str(stage1)) == 0
        capsys.readouterr()

        assert run_cli(*hermetic_args(failed), "--fixtures", str(no_evaluator)) == 1
        assert "no recorded response for role Evaluator" in fatal_line(capsys.readouterr().err)
        assert (failed / "history.jsonl").read_bytes() == (full / "history.jsonl").read_bytes()
        docs = [json.loads((d / "run-artifact.json").read_text()) for d in (failed, stage1)]
        for doc in docs:
            doc.pop("created_at")
        assert docs[0] == docs[1]

        assert run_cli("remediate", str(failed / "run-artifact.json"), *target,
                       "--out", str(resumed)) == 0
        _, findings, recommendations, report = deserialize_run(
            (resumed / "run-artifact.json").read_bytes())
        _, *expected = deserialize_run((full / "run-artifact.json").read_bytes())
        assert [findings, recommendations] == expected[:2]
        assert report._replace(run_id="") == expected[2]._replace(run_id="")


SRC = Path(__file__).resolve().parent.parent / "src"
PENHEAL_MODULES = tuple(f"penheal.{path.stem}" for path in sorted((SRC / "penheal").glob("*.py"))
                        if path.stem != "__init__")
DISCOVERY_STACK = ("penheal.engine", "penheal.simulator", "penheal.knowledge")
REMEDIATION_STACK = ("penheal.remediation", "penheal.scoring", "penheal.cvss", "penheal.knapsack",
                     "penheal.nvd", "penheal.prompts")
LIVE_CLIENTS = ("penheal.backends", "requests")
# Value types are model.Record namedtuples, not data classes, so no penheal process pays for
# these imports.
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
    """Importing the CLI loads neither the HTTP client nor either stage."""
    names = ("requests", "logging", "subprocess", "penheal.backends", *DISCOVERY_STACK,
             *REMEDIATION_STACK, *CODEGEN)
    assert fresh_process("import penheal.cli", names) == {"code": 0, "loaded": []}


@pytest.mark.parametrize("argv, stage", [
    (None, ()),
    (["pentest", "--target", "10.0.2.4", "--mode", "hermetic", "--out", "{tmp}/out"],
     (*DISCOVERY_STACK, "penheal.prompts")),
    (["replay", str(cli.bundled_fixture_path("golden6.jsonl"))], ()),
    (["ingest", "{tmp}/notes.txt", "--kb", "{tmp}/kb"], ("penheal.knowledge", "penheal.index_files")),
    (["score", "{tmp}/run-artifact.json", "--truth", "{tmp}/truth.json"], ("penheal.scoring",)),
    (["run", "--target", "10.0.2.4", "--mode", "hermetic", "--out", "{tmp}/out"],
     DISCOVERY_STACK + REMEDIATION_STACK),
], ids=["import", "pentest", "replay", "ingest", "score", "run"])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, stage):
    """A fresh process loads the CLI, gateway and model, and beyond them only the penheal
    modules of the command's own stage: none of remediation's for pentest, replay, ingest
    or score."""
    (tmp_path / "notes.txt").write_text("samba usermap script exploit", encoding="utf-8")
    (tmp_path / "truth.json").write_text(
        json.dumps([v.to_dict() for v in ground_truth(load_host_model())]), encoding="utf-8")
    (tmp_path / "run-artifact.json").write_bytes(serialize_run(AttackPlan(), [], [], None))
    script = "import penheal.cli" if argv is None else "\n".join([
        "from penheal.cli import main",
        f"code = main({[arg.format(tmp=tmp_path) for arg in argv]!r})"])
    loaded = sorted({"penheal.cli", "penheal.gateway", "penheal.model", *stage})
    assert fresh_process(script, PENHEAL_MODULES) == {"code": 0, "loaded": loaded}


def test_import_builds_no_codec():
    """JSON codecs are built on first use, so importing the CLI builds none."""
    script = "import penheal.cli\nfrom penheal import model\ncode = len(model._CODECS)"
    assert fresh_process(script, ()) == {"code": 0, "loaded": []}


@pytest.mark.parametrize("command", ["run", "pentest"])
def test_hermetic_stages_skip_code_generation_modules(tmp_path, command):
    argv = [command, "--target", "10.0.2.4", "--mode", "hermetic", "--out", str(tmp_path)]
    script = f"from penheal.cli import main\ncode = main({argv!r})"
    assert fresh_process(script, CODEGEN + LIVE_CLIENTS) == {"code": 0, "loaded": []}


def test_golden_run_builds_no_index_code_and_no_annotation(tmp_path):
    """A golden hermetic ``run`` neither saves nor loads an index, so it never imports the
    persistence module, and every value type it loads keeps its annotations as strings."""
    argv = ["run", "--target", "10.0.2.4", "--mode", "hermetic", "--out", str(tmp_path)]
    script = "\n".join([
        "from penheal.cli import main",
        f"code = main({argv!r})",
        "types = {v for name, m in list(sys.modules.items()) if name.startswith('penheal.')",
        "         for v in vars(m).values() if isinstance(v, type) and hasattr(v, '_fields')",
        "         and v.__module__ == name}",
        "hints = [h for v in types for h in vars(v).get('__annotations__', {}).values()]",
        "if len(types) < 20 or not all(isinstance(h, str) for h in hints):",
        "    code = 'a value type is missing or holds an annotation that is not a string'",
    ])
    assert fresh_process(script, ("penheal.index_files",)) == {"code": 0, "loaded": []}


@pytest.mark.parametrize("mode", ["hemetic", "live"])  # live without llm.base_url
def test_unrunnable_mode_fails_before_any_stage_work(tmp_path, mode):
    """No host model, truth, live client or out dir is touched before the mode is checked."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"target_address": "10.0.2.4", "mode": mode}))
    argv = ["run", "--config", str(config), "--out", str(tmp_path / "out")]
    script = f"from penheal.cli import main\ncode = main({argv!r})"
    assert fresh_process(script, DISCOVERY_STACK + LIVE_CLIENTS) == {"code": 1, "loaded": []}
    assert not (tmp_path / "out").exists()


def test_hermetic_remediate_skips_the_discovery_stack(tmp_path, no_network):
    stage1 = tmp_path / "stage1"
    assert run_cli("pentest", "--target", "10.0.2.4", "--mode", "hermetic",
                   "--out", str(stage1)) == 0
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps([v.to_dict() for v in ground_truth(load_host_model())]))
    argv = ["remediate", str(stage1 / "run-artifact.json"), "--target", "10.0.2.4",
            "--mode", "hermetic", "--kb", str(tmp_path / "no-such-index"),
            "--truth", str(truth), "--out", str(tmp_path / "stage2")]
    script = f"from penheal.cli import main\ncode = main({argv!r})"
    assert fresh_process(script, DISCOVERY_STACK + CODEGEN + LIVE_CLIENTS) == {
        "code": 0, "loaded": []}
    _, findings, recommendations, _ = deserialize_run(
        (tmp_path / "stage2" / "run-artifact.json").read_bytes()
    )
    assert len(findings) == 6 and recommendations


def test_only_backends_imports_requests():
    """The HTTP client is the live clients' alone, so no other module can load it."""
    importers = []
    for path in sorted((SRC / "penheal").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "requests" for name in names):
                importers.append(path.name)
    assert importers == ["backends.py"]


def imported_modules(path: Path) -> set[str]:
    """The penheal modules a source file imports, at any depth, outside TYPE_CHECKING blocks."""
    found, stack = set(), [ast.parse(path.read_text(encoding="utf-8"))]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            stack.extend(node.orelse)
            continue
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["penheal" * bool(node.level), node.module]))
            names = [f"{module}.{a.name}" for a in node.names] if module == "penheal" else [module]
        else:
            continue
        found.update(name.split(".")[1] for name in names if name.startswith("penheal."))
    return found


def test_only_the_cli_imports_a_stage():
    """The stages sit on shared services; no service imports a stage back."""
    imports = {path.stem: imported_modules(path) for path in (SRC / "penheal").glob("*.py")}
    importers = {name for name, used in imports.items() if used & {"engine", "remediation", "cli"}}
    assert importers == {"cli"}
    services = ("model", "knapsack", "cvss", "knowledge", "index_files", "simulator", "scoring",
                "nvd", "backends")
    assert {name: imports[name] for name in services} == {
        "model": set(), "knapsack": set(), "cvss": {"model"},
        "knowledge": {"index_files", "model"}, "index_files": {"knowledge", "model"},
        "simulator": {"model"}, "scoring": {"model"}, "nvd": {"cvss", "model"},
        "backends": {"gateway", "model", "nvd"}}


def test_only_the_model_formats_json():
    """Every JSON file is a value type written by ``model``'s ``write_json_lines`` or
    ``json_document``; no other module holds a JSON writer, a hand-built encoder or a
    reference to ``json_text``, the one-line encoder those JSON-lines writes use."""
    writers = {"dump", "dumps", "JSONEncoder"}
    found = []
    for path in sorted((SRC / "penheal").glob("*.py")):
        if path.stem == "model":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in writers
                    and ast.unparse(node.value).split(".")[0] == "json"):
                found.append(f"{path.stem}: {ast.unparse(node)}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json":
                found.extend(f"{path.stem}: {a.name}" for a in node.names if a.name in writers)
            elif isinstance(node, ast.ClassDef):
                found.extend(f"{path.stem}: {node.name}.to_dict" for item in node.body
                             if isinstance(item, ast.FunctionDef) and item.name == "to_dict")
            if "json_text" in (getattr(node, n, None) for n in ("id", "attr", "name")):
                found.append(f"{path.stem}: json_text")
    assert found == []


def test_only_the_remediation_stage_builds_a_cost_tier_table():
    """``CostPolicy.tiers()`` has one caller, the evaluator context: one tier table per run."""
    callers = [path.stem for path in sorted((SRC / "penheal").glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "tiers"]
    assert callers == ["remediation"]



def command_calls(node, function="<module>"):
    """The enclosing function of every ``Command(...)`` call under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and "Command" in (getattr(child.func, "id", None),
                                                          getattr(child.func, "attr", None)):
            yield function
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        yield from command_calls(child, inner or function)


def test_only_parse_commands_builds_a_command():
    """``Command`` checks nothing itself: ``engine.parse_commands`` holds the non-blank rule,
    so it alone may build one."""
    builders = {(path.stem, function) for path in sorted((SRC / "penheal").glob("*.py"))
                for function in command_calls(ast.parse(path.read_text(encoding="utf-8")))}
    assert builders == {("engine", "parse_commands")}


def handlers(node, function="<module>"):
    """(enclosing function, handler) for every ``except`` clause under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ExceptHandler):
            yield function, child
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        yield from handlers(child, inner or function)


def catches_os_errors(handler) -> bool:
    """Whether an ``except`` clause catches an OSError, or a kind of one."""
    if handler.type is None:
        return True
    names = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    caught = [getattr(builtins, n.id, None) for n in names if isinstance(n, ast.Name)]
    return any(isinstance(c, type) and (issubclass(OSError, c) or issubclass(c, OSError))
               for c in caught)


def test_only_the_file_guards_catch_os_errors():
    """In ``cli`` every file is read through ``_input`` and written through ``_output``, so
    a file that fails is one ``fatal:`` line in one form; no other function catches OSError."""
    tree = ast.parse((SRC / "penheal" / "cli.py").read_text(encoding="utf-8"))
    guards = {function for function, handler in handlers(tree) if catches_os_errors(handler)}
    assert guards == {"_input", "_output"}


def names_read(node, function="<module>"):
    """(enclosing function, name) for every name or attribute read under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Name, ast.Attribute)) and isinstance(child.ctx, ast.Load):
            yield function, child.id if isinstance(child, ast.Name) else child.attr
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        yield from names_read(child, inner or function)


def test_only_main_picks_the_exit_code():
    """A stage helper adds each warning to the session, and ``main`` alone turns the session's
    warnings or a fatal error into the exit code: no other code in ``cli`` reads EXIT_OK or
    EXIT_PARTIAL."""
    tree = ast.parse((SRC / "penheal" / "cli.py").read_text(encoding="utf-8"))
    readers = {function for function, name in names_read(tree)
               if name in ("EXIT_OK", "EXIT_PARTIAL")}
    assert readers == {"main"}


def session_uses(node, function="<module>"):
    """The enclosing function of every use of ``session.warnings`` under ``node``."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.Attribute) and child.attr == "warnings"
                and isinstance(child.value, ast.Name) and child.value.id == "session"):
            yield function
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        yield from session_uses(child, inner or function)


def test_only_main_reads_the_session_warnings():
    """The stage helpers add each warning through ``Session.warn``, which prints and
    keeps it; outside ``Session`` only ``main`` reads them back, to pick the exit code."""
    tree = ast.parse((SRC / "penheal" / "cli.py").read_text(encoding="utf-8"))
    assert set(session_uses(tree)) == {"main"}


def test_only_the_stage_helpers_print_warnings():
    """Each stage helper hands its stage's warnings to ``Session.warn`` as the stage returns,
    before it writes anything, so no command holds warnings back until its outputs are out."""
    tree = ast.parse((SRC / "penheal" / "cli.py").read_text(encoding="utf-8"))
    callers = {function for function, name in names_read(tree) if name == "warn"}
    assert callers == {"_pentest_stage", "_remediate_and_score"}


@pytest.mark.parametrize("module", ["simulator", "knowledge"])
def test_a_service_loads_only_the_model(module):
    assert fresh_process(f"import penheal.{module}", PENHEAL_MODULES) == {
        "code": 0, "loaded": sorted({"penheal.model", f"penheal.{module}"})}


def test_live_clients_load_no_discovery_stage():
    assert fresh_process("import penheal.backends", DISCOVERY_STACK) == {"code": 0, "loaded": []}


def test_score_with_the_default_truth_loads_only_the_simulator(tmp_path):
    artifact = tmp_path / "run-artifact.json"
    artifact.write_bytes(serialize_run(AttackPlan(), [], [], None))
    script = f"from penheal.cli import main\ncode = main({['score', str(artifact)]!r})"
    assert fresh_process(script, DISCOVERY_STACK) == {"code": 0, "loaded": ["penheal.simulator"]}


def test_cli_runs_under_the_profiler(tmp_path):
    """``-m cProfile -m penheal.cli`` runs the CLI as ``__main__`` with the profiler's module
    in the ``penheal.cli`` slot, so the settings' codec must not look names up there."""
    argv = [sys.executable, "-m", "cProfile", "-o", str(tmp_path / "p.out"), "-m", "penheal.cli",
            "run", "--mode", "hermetic", "--target", "10.0.2.4", "--out", str(tmp_path / "out")]
    paths = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    result = subprocess.run(argv, capture_output=True, text=True, timeout=120, env=env,
                            cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out" / "run-artifact.json").is_file()
    assert (tmp_path / "p.out").is_file()


def test_live_mode_assembly(tmp_path, no_network):
    """Live assembly builds the shell backend and a recording gateway, and connects nowhere."""
    config = RunConfig.from_dict({"mode": "live", "llm": {"base_url": "http://127.0.0.1:9/v1"},
                                  "nvd": {"fixture_dir": str(tmp_path)}})
    session = cli.Session(None)
    session.config, session.out_dir = config, tmp_path
    _chat_gateway(session)
    backend = _executor(config)
    assert isinstance(session.gateway.backend, LiveBackend)
    assert session.transcript_ref == str(tmp_path / "transcript.jsonl")
    assert (tmp_path / "transcript.jsonl").read_text() == ""  # record mode starts it empty
    assert isinstance(backend, ShellBackend)
    assert isinstance(_nvd_client(session), FixtureNvdClient)
    session.config = config._replace(nvd=config.nvd._replace(fixture_dir=None))
    assert isinstance(_nvd_client(session), LiveNvdClient)


def test_every_pipeline_flag_overrides_a_config_field():
    """``_overrides`` keeps only the flags whose dest is a config field, so a flag with any
    other dest would be dropped without a word."""
    parser = argparse.ArgumentParser()
    cli._add_pipeline_flags(parser)
    dests = set(vars(parser.parse_args([]))) - {"config"}
    assert dests and dests - set(RunConfig._fields) == set()


def test_readme_config_passes_the_strict_check(tmp_path, monkeypatch):
    """The README's live config example decodes, unknown-key check included."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("with a config such as:\n\n```json\n", 1)[1].split("```", 1)[0]
    config = tmp_path / "config.json"
    config.write_text(block, encoding="utf-8")
    monkeypatch.setenv("PENHEAL_LLM_API_KEY", "test-key")
    args = cli.build_parser().parse_args(["run", "--config", str(config),
                                          "--out", str(tmp_path / "out")])
    config = cli.Session(args).setup()
    assert (config.mode, config.llm.api_key) == ("live", "test-key")
    assert config.nvd.cache_dir and config.cost_policy.user_preference_text
