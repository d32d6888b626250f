"""Gateway behavior: prompt rendering, record/replay, retries, tier routing."""

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from penheal.gateway import (
    AgentRole,
    ChatTurn,
    Gateway,
    GatewayError,
    LiveBackend,
    MissingFixtureError,
    RoleTag,
    ScriptedBackend,
    Transcript,
    record_mode,
    replay_mode,
    request_hash,
    system_turn,
    _truncate,
    assistant_turn,
    user_turn,
)
from penheal.prompts import PromptError, render_prompt


class TestRenderPrompt:
    def test_executor_carries_delimiter_and_console_rules(self):
        text = render_prompt(AgentRole.EXECUTOR, {"task": "Scan vulnerabilities"})
        assert 'starting and ending with "$"' in text
        assert "msfconsole: [command]" in text
        assert "Scan vulnerabilities" in text

    def test_evaluator_with_empty_vulnerability_slot(self):
        text = render_prompt(
            AgentRole.EVALUATOR,
            {"vulns": "", "value_def": "V", "cost_def": "C"},
        )
        assert "You have already discovered these vulnerabilities: ." in text
        assert "Give the score based on the rule: V." in text

    def test_planner_counterfactual_wording(self):
        text = render_prompt(
            AgentRole.PLANNER,
            {"findings": "CVE-2011-2523 on 21/ftp", "plan": "1 x [to-do]"},
            kind="counterfactual",
        )
        assert "mark them as completed" in text
        assert "as if they do not exist" in text
        assert "CVE-2011-2523 on 21/ftp" in text

    def test_missing_placeholder_named(self):
        with pytest.raises(PromptError) as exc_info:
            render_prompt(AgentRole.PLANNER, {}, kind="init")
        assert "target" in str(exc_info.value)

    def test_unknown_template_rejected(self):
        with pytest.raises(PromptError):
            render_prompt(AgentRole.SUMMARIZER, {}, kind="nonsense")

    def test_substitution_is_single_pass(self):
        text = render_prompt(AgentRole.PLANNER, {"target": "{plan}"}, kind="init")
        assert "{plan}" in text


class TestChatTurn:
    def test_empty_content_rejected(self):
        with pytest.raises(ValueError):
            ChatTurn(RoleTag.USER, "")


def _history(content="hello"):
    return [system_turn("system prompt"), user_turn(content)]


class TestRecordReplay:
    def test_record_then_replay_serves_both_and_errors_on_third(self, tmp_path):
        path = tmp_path / "t.jsonl"
        backend = ScriptedBackend({AgentRole.PLANNER: ["alpha", "beta"]})
        recorder = record_mode(backend, path)
        assert recorder.complete(AgentRole.PLANNER, _history("one")) == "alpha"
        assert recorder.complete(AgentRole.PLANNER, _history("two")) == "beta"

        replayer = replay_mode(path)
        assert replayer.complete(AgentRole.PLANNER, _history("one")) == "alpha"
        assert replayer.complete(AgentRole.PLANNER, _history("two")) == "beta"
        with pytest.raises(MissingFixtureError) as exc_info:
            replayer.complete(AgentRole.PLANNER, _history("three"))
        assert "Planner" in str(exc_info.value)
        assert request_hash(AgentRole.PLANNER, _history("three")) in str(exc_info.value)

    def test_same_request_twice_is_identical(self, tmp_path):
        path = tmp_path / "t.jsonl"
        recorder = record_mode(ScriptedBackend({AgentRole.PLANNER: ["only"]}), path)
        recorder.complete(AgentRole.PLANNER, _history())
        replayer = replay_mode(path)
        first = replayer.complete(AgentRole.PLANNER, _history())
        second = replayer.complete(AgentRole.PLANNER, _history())
        assert first == second == "only"

    def test_empty_transcript_gives_missing_fixture(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(MissingFixtureError):
            replay_mode(path).complete(AgentRole.PLANNER, _history())

    def test_unreadable_transcript_is_startup_error(self, tmp_path):
        with pytest.raises(GatewayError):
            replay_mode(tmp_path / "does-not-exist.jsonl")
        garbled = tmp_path / "garbled.jsonl"
        garbled.write_text("not json\n")
        with pytest.raises(GatewayError):
            replay_mode(garbled)

    def test_deeply_nested_line_is_unreadable(self, tmp_path):
        deep = tmp_path / "deep.jsonl"
        deep.write_text("[" * 100_000 + "\n")
        with pytest.raises(GatewayError, match="line 1 is unreadable: nesting too deep"):
            Transcript.load(deep)

    def test_record_preserves_order_under_interleaved_roles(self, tmp_path):
        path = tmp_path / "t.jsonl"
        backend = ScriptedBackend(
            {
                AgentRole.PLANNER: ["p1", "p2"],
                AgentRole.EXECUTOR: ["e1"],
                AgentRole.SUMMARIZER: ["s1"],
            }
        )
        recorder = record_mode(backend, path)
        recorder.complete(AgentRole.PLANNER, _history("a"))
        recorder.complete(AgentRole.EXECUTOR, _history("b"))
        recorder.complete(AgentRole.SUMMARIZER, _history("c"))
        recorder.complete(AgentRole.PLANNER, _history("d"))
        loaded = Transcript.load(path)
        assert [e.role for e in loaded.exchanges] == [
            AgentRole.PLANNER,
            AgentRole.EXECUTOR,
            AgentRole.SUMMARIZER,
            AgentRole.PLANNER,
        ]
        assert [e.response for e in loaded.exchanges] == ["p1", "e1", "s1", "p2"]

    def test_history_must_start_with_system(self):
        gateway = Gateway(ScriptedBackend({AgentRole.PLANNER: ["x"]}))
        with pytest.raises(GatewayError):
            gateway.complete(AgentRole.PLANNER, [user_turn("no system")])


class TestTierRouting:
    def test_roles_map_to_tier_models(self):
        backend = ScriptedBackend(
            {role: ["ok"] * 2 for role in AgentRole}
        )
        gateway = Gateway(backend)
        for role in AgentRole:
            gateway.complete(role, _history(role.value))
        models = dict(backend.calls)
        assert models[AgentRole.PLANNER] == "gpt-4"
        assert models[AgentRole.EXECUTOR] == "gpt-4"
        assert models[AgentRole.ADVISOR] == "gpt-4"
        assert models[AgentRole.EVALUATOR] == "gpt-4"
        assert models[AgentRole.SUMMARIZER] == "gpt-3.5-turbo"
        assert models[AgentRole.EXTRACTOR] == "gpt-3.5-turbo"
        assert models[AgentRole.ESTIMATOR] == "gpt-3.5-turbo"

    def test_tier_models_configurable(self):
        backend = ScriptedBackend({AgentRole.PLANNER: ["ok"]})
        gateway = Gateway(backend, role_models={"strong": "local-large"})
        gateway.complete(AgentRole.PLANNER, _history())
        assert backend.calls == [(AgentRole.PLANNER, "local-large")]

    def test_per_role_override_beats_tier(self):
        backend = ScriptedBackend({AgentRole.PLANNER: ["ok"], AgentRole.EXECUTOR: ["ok"]})
        gateway = Gateway(
            backend, role_models={"strong": "local-large", "planner": "special"}
        )
        gateway.complete(AgentRole.PLANNER, _history("a"))
        gateway.complete(AgentRole.EXECUTOR, _history("b"))
        assert dict(backend.calls) == {
            AgentRole.PLANNER: "special",
            AgentRole.EXECUTOR: "local-large",
        }


class TestTruncation:
    def test_oldest_turns_dropped_first_for_light_tier(self):
        captured = {}

        class Capture:
            def complete(self, role, model, messages):
                captured["messages"] = messages
                return "ok"

        gateway = Gateway(Capture())
        history = [system_turn("sys")]
        for i in range(40):
            history.append(user_turn(f"turn-{i:03d} " + "x" * 1000))
        gateway.complete(AgentRole.SUMMARIZER, history)
        messages = captured["messages"]
        assert messages[0].content == "sys"
        assert sum(len(t.content) for t in messages) <= 12_000
        assert messages[-1].content == history[-1].content  # newest survives

    def test_within_budget_untouched(self):
        captured = {}

        class Capture:
            def complete(self, role, model, messages):
                captured["messages"] = messages
                return "ok"

        gateway = Gateway(Capture())
        history = _history("short")
        gateway.complete(AgentRole.PLANNER, history)
        assert captured["messages"] == history


    @settings(max_examples=200, deadline=None)
    @given(
        st.text(min_size=1, max_size=80),
        st.lists(
            st.tuples(st.booleans(), st.text(min_size=1, max_size=120)), max_size=6
        ),
        st.integers(0, 400),
    )
    def test_total_keeps_system_and_fits_budget(self, system, turns, budget):
        history = [system_turn(system)] + [
            user_turn(text) if is_user else assistant_turn(text) for is_user, text in turns
        ]
        result = _truncate(history, budget)
        assert result[0] == history[0]
        size = sum(len(t.content) for t in result)
        if sum(len(t.content) for t in history) <= budget:
            assert result == history
        elif len(system) <= budget:
            assert size <= budget
        elif turns:  # no clip could fit: the newest turn is kept whole
            assert result == [history[0], history[-1]]
        if len(result) > 1:  # the newest turn is kept, clipped at most
            kept = result[-1].content.removeprefix("...[earlier context truncated] ")
            assert history[-1].content.endswith(kept)

    def test_clip_never_exceeds_budget_for_large_system_turn(self):
        history = [system_turn("s" * 11_900), user_turn("u" * 5_000)]
        result = _truncate(history, 12_000)
        assert sum(len(t.content) for t in result) == 12_000
        assert result[1].content == "...[earlier context truncated] " + "u" * 69
        assert _truncate(history, 11_910)[1].content == "u" * 10
        assert _truncate(history, 11_900) == [history[0]]
        assert _truncate(history, 11_000) == history  # the system turn alone is over


class _StubHandler(BaseHTTPRequestHandler):
    responses = []
    requests = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        _StubHandler.requests.append(
            {"path": self.path, "body": body, "auth": self.headers.get("Authorization")}
        )
        status, payload = _StubHandler.responses.pop(0)
        raw = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _StubHandler.responses = []
    _StubHandler.requests = []
    yield f"http://127.0.0.1:{server.server_port}", _StubHandler
    server.shutdown()
    server.server_close()


def _completion(text):
    return {"choices": [{"message": {"content": text}}]}


class TestLiveBackend:
    def test_invalid_credential_surfaces_status(self, stub_server):
        url, handler = stub_server
        handler.responses = [(401, {"error": "bad key"})]
        backend = LiveBackend(url, api_key="wrong")
        with pytest.raises(GatewayError) as exc_info:
            backend.complete(AgentRole.PLANNER, "gpt-4", _history())
        assert "401" in str(exc_info.value)
        assert url in str(exc_info.value)

    def test_success_carries_model_and_zero_temperature(self, stub_server):
        url, handler = stub_server
        handler.responses = [(200, _completion("hi"))]
        backend = LiveBackend(url, api_key="k")
        assert backend.complete(AgentRole.PLANNER, "gpt-4", _history()) == "hi"
        request = handler.requests[0]
        assert request["path"] == "/chat/completions"
        assert request["body"]["model"] == "gpt-4"
        assert request["body"]["temperature"] == 0
        assert request["auth"] == "Bearer k"

    def test_retries_transient_500_then_succeeds(self, stub_server):
        url, handler = stub_server
        handler.responses = [(500, {}), (200, _completion("recovered"))]
        backend = LiveBackend(url, api_key="k", backoff=0.01)
        assert backend.complete(AgentRole.PLANNER, "gpt-4", _history()) == "recovered"
        assert len(handler.requests) == 2

    def test_gives_up_after_bounded_attempts(self, stub_server):
        url, handler = stub_server
        handler.responses = [(500, {}), (500, {}), (500, {})]
        backend = LiveBackend(url, api_key="k", backoff=0.01)
        with pytest.raises(GatewayError) as exc_info:
            backend.complete(AgentRole.PLANNER, "gpt-4", _history())
        assert "3 attempts" in str(exc_info.value)
