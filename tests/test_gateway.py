"""Gateway behavior: prompt rendering, record/replay, retries, tier routing."""

import enum
import hashlib
import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from importlib import resources
from pathlib import Path

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from penheal.backends import LiveBackend, send_with_retries
from penheal.gateway import (
    AgentRole,
    ChatTurn,
    Gateway,
    GatewayError,
    MissingFixtureError,
    RoleTag,
    ScriptedBackend,
    load_transcript,
    record_mode,
    replay_mode,
    request_hash,
    _truncate,
)
from penheal.model import decode
from penheal.prompts import render_prompt

NO_MODEL = object()  # a transcript damage: the line keeps its messages and loses its model


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
        with pytest.raises(KeyError) as exc_info:
            render_prompt(AgentRole.PLANNER, {}, kind="init")
        assert "target" in str(exc_info.value)

    def test_substitution_is_single_pass(self):
        text = render_prompt(AgentRole.PLANNER, {"target": "{plan}"}, kind="init")
        assert "{plan}" in text


class TestChatTurn:
    def test_empty_content_rejected(self):
        with pytest.raises(ValueError):
            ChatTurn(RoleTag.USER, "")

    def test_positional_and_keyword_construction_agree(self):
        turn = ChatTurn(RoleTag.USER, "hi")
        assert type(turn) is ChatTurn and (turn.role_tag, turn.content) == (RoleTag.USER, "hi")
        assert turn == ChatTurn(role_tag=RoleTag.USER, content="hi") == ChatTurn(
            RoleTag.USER, content="hi")
        assert decode(ChatTurn, {"role_tag": "user", "content": "hi"}) == turn
        with pytest.raises(TypeError):
            ChatTurn(RoleTag.USER)

    @pytest.mark.parametrize("build", [
        lambda: ChatTurn(role_tag=RoleTag.USER, content=""),
        lambda: ChatTurn(RoleTag.SYSTEM, content=""),
        lambda: decode(ChatTurn, {"role_tag": "user", "content": ""}),
    ], ids=["keyword", "mixed", "decoded"])
    def test_empty_content_rejected_however_built(self, build):
        with pytest.raises(ValueError, match="chat turn content must be non-empty"):
            build()


def _history(content="hello"):
    return [ChatTurn(RoleTag.SYSTEM, "system prompt"), ChatTurn(RoleTag.USER, content)]


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
        missing = tmp_path / "does-not-exist.jsonl"
        with pytest.raises(GatewayError, match=f"cannot read transcript {missing}: "):
            replay_mode(missing)
        garbled = tmp_path / "garbled.jsonl"
        garbled.write_text("not json\n")
        with pytest.raises(GatewayError):
            replay_mode(garbled)

    def test_deeply_nested_line_is_unreadable(self, tmp_path):
        deep = tmp_path / "deep.jsonl"
        deep.write_text("[" * 100_000 + "\n")
        with pytest.raises(GatewayError, match="line 1 is unreadable: nesting too deep"):
            load_transcript(deep)

    @staticmethod
    def _recorded_lines(tmp_path):
        """A two-exchange transcript's path and its lines, decoded."""
        path = tmp_path / "t.jsonl"
        recorder = record_mode(ScriptedBackend({AgentRole.PLANNER: ["alpha", "beta"]}), path)
        recorder.complete(AgentRole.PLANNER, _history("one"))
        recorder.complete(AgentRole.PLANNER, _history("two"))
        return path, [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]

    @staticmethod
    def _write(path, lines):
        path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")

    @pytest.mark.parametrize("field, value", [("response", 7), ("response", None),
                                              ("response", ["beta"]), ("request_hash", 1),
                                              ("request_hash", None), ("request_hash", "missing")])
    def test_bad_hash_or_response_is_unreadable_on_its_line(self, tmp_path, field, value):
        path, lines = self._recorded_lines(tmp_path)
        if value == "missing":
            del lines[1][field]
        else:
            lines[1][field] = value
        self._write(path, lines)
        with pytest.raises(GatewayError, match=f"line 2 is unreadable: .*{field}"):
            replay_mode(path)

    def test_line_that_is_no_object_is_unreadable(self, tmp_path):
        path, lines = self._recorded_lines(tmp_path)
        self._write(path, [lines[0], [lines[1]["request_hash"], lines[1]["response"]]])
        with pytest.raises(GatewayError, match="line 2 is unreadable: expected dict, got list"):
            replay_mode(path)

    def test_conflicting_responses_raise(self, tmp_path):
        path, lines = self._recorded_lines(tmp_path)
        self._write(path, lines + [lines[0]])  # a repeat with the same response is fine
        assert replay_mode(path).complete(AgentRole.PLANNER, _history("one")) == "alpha"
        self._write(path, lines + [dict(lines[0], response="other")])
        with pytest.raises(GatewayError, match=f"conflicting recorded responses for hash "
                                               f"{lines[0]['request_hash']}"):
            replay_mode(path)

    @pytest.mark.parametrize("messages", ["not a list", [["nobody", "hi"]], [["user", ""]], None,
                                          pytest.param(NO_MODEL, id="no-model")])
    def test_malformed_messages_replay_but_fail_the_replay_check(self, tmp_path, capsys, messages):
        """A replay reads only each line's hash and response; `penheal replay` reads it all.
        The no-model case keeps the messages and drops the line's model instead."""
        from penheal.cli import main

        path, lines = self._recorded_lines(tmp_path)
        if messages is NO_MODEL:
            del lines[0]["model"]
        else:
            lines[0]["messages"] = messages
        self._write(path, lines)
        replayer = replay_mode(path)
        assert replayer.complete(AgentRole.PLANNER, _history("one")) == "alpha"
        assert replayer.complete(AgentRole.PLANNER, _history("two")) == "beta"
        with pytest.raises(GatewayError, match="line 1 is unreadable"):
            load_transcript(path)
        assert main(["replay", str(path)]) == 1
        assert "line 1 is unreadable" in capsys.readouterr().err

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
        loaded = load_transcript(path)
        assert [e.role for e in loaded] == [
            AgentRole.PLANNER,
            AgentRole.EXECUTOR,
            AgentRole.SUMMARIZER,
            AgentRole.PLANNER,
        ]
        assert [e.response for e in loaded] == ["p1", "e1", "s1", "p2"]

    def test_a_lone_surrogate_in_a_reply_is_recorded_and_returned_as_u_fffd(self, tmp_path):
        path = tmp_path / "t.jsonl"
        reply = json.loads('"open ports \\ud83d, \\udc80 and \\ud83d\\ude00"')  # as a JSON body
        recorder = record_mode(ScriptedBackend({AgentRole.SUMMARIZER: [reply]}), path)
        expected = "open ports \ufffd, \ufffd and \U0001f600"
        assert recorder.complete(AgentRole.SUMMARIZER, _history()) == expected
        assert [e.response for e in load_transcript(path)] == [expected]
        assert replay_mode(path).complete(AgentRole.SUMMARIZER, _history()) == expected


def _reference_hash(role, messages):
    """The request hash by its definition: sha256 of the whole payload in one json.dumps."""
    payload = json.dumps(
        {"role": role.value, "messages": [[t.role_tag.value, t.content] for t in messages]},
        sort_keys=True,
        ensure_ascii=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# Quotes, backslashes, control characters, non-ASCII (BMP and astral) and lone surrogates.
_TRICKY = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u2028", "é", "€",
                           "\U0001f600", "\ud800", "\udfff", "{", "]", ","])
_CONTENT = st.text(st.one_of(_TRICKY, st.characters()), min_size=1, max_size=40)
_TURN = st.builds(ChatTurn, st.sampled_from(RoleTag), _CONTENT)


class TestRequestHash:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(AgentRole), st.lists(_TURN, max_size=4))
    def test_matches_one_shot_payload_hash(self, role, messages):
        assert request_hash(role, messages) == _reference_hash(role, messages)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(AgentRole), _TURN, st.lists(st.lists(_TURN, max_size=3), min_size=2,
                                                       max_size=4))
    def test_shared_first_turn_with_different_later_turns(self, role, first, tails):
        # The first turn's hash state is reused across these requests: it must never change.
        for tail in tails + tails[::-1]:
            messages = [first] + tail
            assert request_hash(role, messages) == _reference_hash(role, messages)

    def test_threads_sharing_first_turns_get_the_one_shot_hash(self):
        # The cached first-turn states are shared by every thread; each must copy, never update.
        firsts = [ChatTurn(RoleTag.SYSTEM, f"system {i} " + "x" * 2000) for i in range(3)]
        requests = [(role, [first, ChatTurn(RoleTag.USER, f"task {n}")])
                    for n in range(40) for role in (AgentRole.ADVISOR, AgentRole.EVALUATOR)
                    for first in firsts]
        expected = [_reference_hash(role, messages) for role, messages in requests]
        results: dict[int, list[str]] = {}

        def work(worker):
            results[worker] = [request_hash(role, messages) for role, messages in requests]

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(w,)) for w in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert results == {w: expected for w in range(6)}

    def test_bundled_fixtures_recompute_their_recorded_hashes(self):
        for name in ("golden6.jsonl", "nofind.jsonl"):
            with resources.as_file(
                resources.files("penheal.data").joinpath(f"fixtures/{name}")
            ) as path:
                exchanges = load_transcript(path)
            assert exchanges
            for e in exchanges:
                assert request_hash(e.role, list(e.messages)) == e.request_hash
                assert _reference_hash(e.role, e.messages) == e.request_hash


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

    @pytest.mark.parametrize("role_models, typo", [
        ({"planer": "special-model", "Strong": "big"}, "planer"),
        ({"Strong": "big", "Evaluater": "x"}, "Evaluater"),
        ({"medium": "x"}, "medium"),
    ])
    def test_a_key_naming_no_role_or_tier_is_rejected(self, tmp_path, role_models, typo):
        """A typo would otherwise route its role to the tier model; nothing is recorded."""
        record = tmp_path / "transcript.jsonl"
        with pytest.raises(GatewayError, match=f"role_models key '{typo}' names no role"):
            Gateway(ScriptedBackend({}), role_models=role_models, record_path=record)
        assert not record.exists()

    @pytest.mark.parametrize("role_models, name", [
        ({"Planner": "a", "planner": "b"}, "planner"),
        ({"light": "a", "LIGHT": "b"}, "light"),
    ])
    def test_a_name_given_twice_is_rejected(self, tmp_path, role_models, name):
        """Keys are read in any case, so a second spelling is the same key given twice."""
        record = tmp_path / "transcript.jsonl"
        with pytest.raises(GatewayError, match=f"role_models names {name} twice"):
            Gateway(ScriptedBackend({}), role_models=role_models, record_path=record)
        assert not record.exists()

    def test_keys_name_roles_and_tiers_in_any_case(self):
        backend = ScriptedBackend({AgentRole.PLANNER: ["ok"], AgentRole.SUMMARIZER: ["ok"]})
        gateway = Gateway(backend, role_models={"PLANNER": "special", "Light": "small"})
        gateway.complete(AgentRole.PLANNER, _history("a"))
        gateway.complete(AgentRole.SUMMARIZER, _history("b"))
        assert dict(backend.calls) == {AgentRole.PLANNER: "special",
                                       AgentRole.SUMMARIZER: "small"}

    def test_a_call_runs_no_enum_code(self, tmp_path):
        """Routing, truncation, hashing and recording read no enum value and hash no member
        in Python: every enum lookup on the call path is a C-level dict or identity test.
        The first record builds the transcript codec, which is set-up, so it is not profiled."""
        history = [ChatTurn(RoleTag.SYSTEM, "s" * 20_000), ChatTurn(RoleTag.USER, "u"),
                   ChatTurn(RoleTag.ASSISTANT, "a"), ChatTurn(RoleTag.USER, "u" * 2_000)]
        roles = list(AgentRole)  # iterating an enum class runs enum code itself
        path = tmp_path / "t.jsonl"
        scripts = {role: ["ok", "ok"] for role in roles}
        recorder = record_mode(ScriptedBackend(scripts), path)
        recorder.complete(AgentRole.PLANNER, history)
        called = []

        def complete_every_role(gateway):
            sys.setprofile(lambda frame, event, arg: event == "call" and called.append(
                (frame.f_code.co_filename, frame.f_code.co_name)))
            try:
                return [gateway.complete(role, history) for role in roles]
            finally:
                sys.setprofile(None)

        complete_every_role(recorder)
        assert complete_every_role(replay_mode(path)) == ["ok"] * len(roles)
        assert called and [c for c in called if c[0] == enum.__file__] == []


class TestTruncation:
    def test_oldest_turns_dropped_first_for_light_tier(self):
        captured = {}

        class Capture:
            def complete(self, role, model, messages):
                captured["messages"] = messages
                return "ok"

        gateway = Gateway(Capture())
        history = [ChatTurn(RoleTag.SYSTEM, "sys")]
        for i in range(40):
            history.append(ChatTurn(RoleTag.USER, f"turn-{i:03d} " + "x" * 1000))
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
        history = [ChatTurn(RoleTag.SYSTEM, system)] + [
            ChatTurn(RoleTag.USER if is_user else RoleTag.ASSISTANT, text)
            for is_user, text in turns
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
        history = [ChatTurn(RoleTag.SYSTEM, "s" * 11_900), ChatTurn(RoleTag.USER, "u" * 5_000)]
        result = _truncate(history, 12_000)
        assert sum(len(t.content) for t in result) == 12_000
        assert result[1].content == "...[earlier context truncated] " + "u" * 69
        assert _truncate(history, 11_910)[1].content == "u" * 10
        assert _truncate(history, 11_900) == [history[0]]
        assert _truncate(history, 11_000) == history  # the system turn alone is over

    def test_retry_keeps_the_task_turn_before_the_failed_reply(self):
        system, task, reply, retry = [ChatTurn(tag, text) for tag, text in [
            (RoleTag.SYSTEM, "s" * 10), (RoleTag.USER, "t" * 20 + "T" * 30),
            (RoleTag.ASSISTANT, "a" * 30), (RoleTag.USER, "r" * 20)]]
        assert _truncate([system, task, reply, retry], 60) == [
            system, ChatTurn(RoleTag.USER, "T" * 30), retry]
        # With no room left beside the system and newest turns, the task turn goes.
        assert _truncate([system, task, reply, retry], 30) == [system, retry]
        assert _truncate([system, task, reply, retry], 25) == [
            system, ChatTurn(RoleTag.USER, "r" * 15)]

    @settings(max_examples=200, deadline=None)
    @given(
        st.text(min_size=1, max_size=80),
        st.lists(st.text(min_size=1, max_size=120), min_size=2, max_size=6),
        st.integers(0, 600),
    )
    def test_over_budget_keeps_the_task_tail_while_there_is_room(self, system, turns, budget):
        history = [ChatTurn(RoleTag.SYSTEM, system)] + [
            ChatTurn(RoleTag.USER if i % 2 == 0 else RoleTag.ASSISTANT, text)
            for i, text in enumerate(turns)
        ]
        room = budget - len(system) - len(turns[-1])
        if sum(map(len, [system, *turns])) <= budget or room <= 0:
            return
        result = _truncate(history, budget)
        size = sum(len(t.content) for t in result)
        assert result[0] == history[0] and result[-1] == history[-1] and size <= budget
        middle = result[2:-1]  # the newest of the turns between the task and the newest
        assert middle == history[len(history) - 1 - len(middle):-1]
        if len(middle) < len(turns) - 2:  # the next older one would not have fit
            assert size + len(history[-2 - len(middle)].content) > budget
        task = result[1].content
        assert turns[0].endswith(task.removeprefix("...[earlier context truncated] "))
        assert len(task) == min(room - sum(len(t.content) for t in middle), len(turns[0]))


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

    def test_null_content_is_an_empty_reply_that_replays(self, stub_server, tmp_path):
        url, handler = stub_server
        handler.responses = [(200, _completion(None))]
        transcript = tmp_path / "transcript.jsonl"
        gateway = Gateway(LiveBackend(url, api_key="k"), record_path=transcript)
        assert gateway.complete(AgentRole.PLANNER, _history()) == ""
        assert load_transcript(transcript)[0].response == ""
        assert replay_mode(transcript).complete(AgentRole.PLANNER, _history()) == ""

    @pytest.mark.parametrize("content", [5, ["hi"], {"text": "hi"}])
    def test_content_that_is_not_text_is_malformed(self, stub_server, content):
        url, handler = stub_server
        handler.responses = [(200, _completion(content))]
        with pytest.raises(GatewayError, match="malformed completion response"):
            LiveBackend(url, api_key="k").complete(AgentRole.PLANNER, "gpt-4", _history())

    def test_retries_transient_500_then_succeeds(self, stub_server, fast_retries):
        url, handler = stub_server
        handler.responses = [(500, {}), (200, _completion("recovered"))]
        backend = LiveBackend(url, api_key="k")
        assert backend.complete(AgentRole.PLANNER, "gpt-4", _history()) == "recovered"
        assert len(handler.requests) == 2

    def test_gives_up_after_bounded_attempts(self, stub_server, fast_retries):
        url, handler = stub_server
        handler.responses = [(500, {}), (500, {}), (500, {})]
        backend = LiveBackend(url, api_key="k")
        with pytest.raises(GatewayError) as exc_info:
            backend.complete(AgentRole.PLANNER, "gpt-4", _history())
        assert "3 attempts" in str(exc_info.value)


def test_transport_errors_give_up_after_bounded_attempts(monkeypatch, no_network):
    """Every attempt failing to connect is one error naming the last transport failure."""
    monkeypatch.setattr("penheal.backends.BACKOFF_SECONDS", 0)
    attempts = []

    def unreachable():
        attempts.append(1)
        raise requests.ConnectionError("connection refused")

    with pytest.raises(GatewayError) as exc_info:
        send_with_retries(unreachable, (), "chat request failed", GatewayError)
    assert str(exc_info.value) == (
        "chat request failed after 3 attempts: transport error: connection refused")
    assert len(attempts) == 3


class TestFixtureRegeneration:
    def test_build_fixtures_reproduces_bundled_transcripts(self, tmp_path):
        """Rerunning the fixture builder records the bundled transcripts, apart from ts."""
        import importlib.util

        script = Path(__file__).resolve().parent.parent / "scripts" / "build_fixtures.py"
        spec = importlib.util.spec_from_file_location("build_fixtures", script)
        builder = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(builder)
        builder.main([str(tmp_path)])
        for name in ("golden6.jsonl", "nofind.jsonl"):
            rebuilt = load_transcript(tmp_path / name)
            bundled = load_transcript(builder.FIXTURE_DIR / name)
            assert [e._replace(ts="") for e in rebuilt] == [e._replace(ts="") for e in bundled]
