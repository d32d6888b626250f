"""Single chat abstraction for every agent role.

All agents (planner, executor, summarizer, extractor, estimator, advisor,
evaluator) talk to a language model through :class:`Gateway`. Backends are
pluggable: a deterministic replay backend serving recorded exchanges, a
scripted backend for tests and the live HTTP backend in :mod:`penheal.backends`.
In record mode every exchange is appended to a JSON-lines transcript, which
:func:`load_transcript` reads back and which can later drive a replay run.

A request is keyed by :func:`request_hash`. The hash state after a request's
first (system) turn is cached per distinct turn, so the system turn the
evaluator repeats for every candidate is escaped and hashed only once. Each
gateway resolves every role's model and character budget once, when it is
built, so a call reads no enum value.
"""

from __future__ import annotations

import functools
import hashlib
import re
import time
from json.encoder import encode_basestring_ascii as _escape
from pathlib import Path
from typing import Iterable, Optional, Protocol

from .model import IdentityEnum, Record, read_json_lines, write_json_lines

STRONG_CHAR_BUDGET = 100_000
LIGHT_CHAR_BUDGET = 12_000

DEFAULT_MODELS = {"strong": "gpt-4", "light": "gpt-3.5-turbo"}


class AgentRole(IdentityEnum):
    PLANNER = "Planner"
    EXECUTOR = "Executor"
    SUMMARIZER = "Summarizer"
    EXTRACTOR = "Extractor"
    ESTIMATOR = "Estimator"
    ADVISOR = "Advisor"
    EVALUATOR = "Evaluator"


# The roles on the light tier; every other role is on the strong tier.
LIGHT_ROLES = frozenset({AgentRole.SUMMARIZER, AgentRole.EXTRACTOR, AgentRole.ESTIMATOR})
_ROUTE_KEYS = {role.value.lower() for role in AgentRole} | DEFAULT_MODELS.keys()


class RoleTag(IdentityEnum):
    SYSTEM = "system"
    USER = "user"
    ASSISTANT = "assistant"


class _ChatTurnFields(Record):
    role_tag: RoleTag
    content: str


class ChatTurn(_ChatTurnFields):
    """One message of a chat history; its content must not be empty."""

    __slots__ = ()

    def __new__(cls, role_tag: RoleTag, content: str):
        if not content:
            raise ValueError("chat turn content must be non-empty")
        return tuple.__new__(cls, (role_tag, content))


def request_hash(role: AgentRole, messages: list[ChatTurn]) -> str:
    """Stable content hash keying a request for record/replay.

    The sha256 hex digest of ``{"messages":[[tag,content],...],"role":role}``
    written as ``json.dumps(..., sort_keys=True, ensure_ascii=True,
    separators=(",", ":"))`` would write it.
    """
    if not messages:
        state = hashlib.sha256(b'{"messages":[')
    else:  # a copy: the cached state is never updated
        state = _first_turn_state(_TAG_JSON[messages[0].role_tag], messages[0].content).copy()
    tail = "".join([f",[{_TAG_JSON[t.role_tag]},{_escape(t.content)}]" for t in messages[1:]])
    state.update(f'{tail}],"role":{_ROLE_JSON[role]}}}'.encode("ascii"))
    return state.hexdigest()


# Each role and tag as its JSON string, escaped once.
_ROLE_JSON = {role: _escape(role.value) for role in AgentRole}
_TAG_JSON = {tag: _escape(tag.value) for tag in RoleTag}
# Distinct first (system) turns whose hash state is kept; a run has a few dozen.
FIRST_TURN_STATES = 64
_SURROGATE = "[\ud800-\udfff]"  # JSON can carry one alone; UTF-8 cannot; compiled on use


@functools.lru_cache(maxsize=FIRST_TURN_STATES)
def _first_turn_state(tag_json: str, content: str):
    """The hash state after the payload's opening and its first turn."""
    return hashlib.sha256(f'{{"messages":[[{tag_json},{_escape(content)}]'.encode("ascii"))


class Exchange(Record):
    role: AgentRole
    model: str
    request_hash: str
    messages: tuple[ChatTurn, ...]
    response: str
    ts: str = ""


class RecordedReply(Record):
    """The two fields of a transcript line that a replay reads."""

    request_hash: str
    response: str


def load_transcript(path: str | Path, cls: type = Exchange) -> list:
    """Each line of a transcript as ``cls``, in file order; GatewayError names a bad file/line."""
    try:
        return read_json_lines(path, cls)
    except OSError as exc:
        raise GatewayError(f"cannot read transcript {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise GatewayError(f"transcript {exc}") from exc


class GatewayError(Exception):
    """Base error for gateway failures."""


class MissingFixtureError(GatewayError):
    """Replay mode saw a request it has no recorded response for."""


class ChatBackend(Protocol):
    def complete(self, role: AgentRole, model: str, messages: list[ChatTurn]) -> str: ...


class ReplayBackend:
    """Serves only previously recorded responses, keyed by request hash."""

    def __init__(self, path: str | Path):
        self._responses: dict[str, str] = {}
        for digest, response in load_transcript(path, RecordedReply):  # `penheal replay` reads all
            if self._responses.setdefault(digest, response) != response:
                raise GatewayError(f"conflicting recorded responses for hash {digest}")

    def complete(self, role: AgentRole, model: str, messages: list[ChatTurn]) -> str:
        digest = request_hash(role, messages)
        try:
            return self._responses[digest]
        except KeyError:
            raise MissingFixtureError(
                f"no recorded response for role {role.value}, request hash {digest}") from None


class ScriptedBackend:
    """Deterministic canned backend: per-role FIFO queues of responses.

    Used to drive tests and to author replay fixtures; exhausting a queue
    is an error so scripts and pipeline call order stay in lock step.
    """

    def __init__(self, scripts: dict[AgentRole, list[str]]):
        self._scripts = {role: list(responses) for role, responses in scripts.items()}
        self.calls: list[tuple[AgentRole, str]] = []

    def complete(self, role: AgentRole, model: str, messages: list[ChatTurn]) -> str:
        self.calls.append((role, model))
        queue = self._scripts.get(role)
        if not queue:
            raise GatewayError(f"scripted backend has no response left for {role.value}")
        return queue.pop(0)

    def remaining(self) -> dict[str, int]:
        return {role.value: len(q) for role, q in self._scripts.items() if q}


def route_table(role_models: Iterable[tuple[str, str]]) -> dict[AgentRole, tuple[str, int]]:
    """Each role's (model, char budget); GatewayError for a key naming no role or tier, or twice."""
    given: dict[str, str] = {}  # model by lowercased role or tier
    for key, model in role_models:
        if key.lower() not in _ROUTE_KEYS:
            raise GatewayError(f"role_models key {key!r} names no role, nor strong or light")
        if key.lower() in given:
            raise GatewayError(f"role_models names {key.lower()} twice (case is ignored)")
        given[key.lower()] = model
    models = DEFAULT_MODELS | given
    routes = {}
    for role in AgentRole:  # a per-role key wins; otherwise the role's tier key decides
        tier, budget = (("light", LIGHT_CHAR_BUDGET) if role in LIGHT_ROLES
                        else ("strong", STRONG_CHAR_BUDGET))
        routes[role] = models.get(role.value.lower(), models[tier]), budget
    return routes


class Gateway:
    """Routes each role's requests to its tier model; with a record path, records each exchange.

    Meant for one thread: a record-mode append takes no lock.
    """

    def __init__(
        self,
        backend: ChatBackend,
        role_models: Optional[dict[str, str]] = None,
        record_path: Optional[str | Path] = None,
    ):
        self.backend = backend
        self._routes = route_table((role_models or {}).items())
        self._record_path = Path(record_path) if record_path else None
        if self._record_path:
            # Truncate eagerly so a failed run never leaves stale exchanges behind.
            self._record_path.parent.mkdir(parents=True, exist_ok=True)
            self._record_path.write_text("", encoding="utf-8")

    def complete(self, role: AgentRole, history: list[ChatTurn]) -> str:
        """One chat completion for the role; ``history`` starts with its system turn, as
        ``prompts.ask``, the one caller, builds every history. Each surrogate code point
        in the reply becomes U+FFFD before it is recorded or returned."""
        model, budget = self._routes[role]
        messages = _truncate(history, budget)
        response = self.backend.complete(role, model, messages)
        if not response.isascii():
            response = re.sub(_SURROGATE, "\ufffd", response)
        if self._record_path:
            exchange = Exchange(
                role=role,
                model=model,
                request_hash=request_hash(role, messages),
                messages=tuple(messages),
                response=response,
                ts=time.strftime("%Y-%m-%dT%H:%M:%S"),
            )
            write_json_lines(self._record_path, [exchange], append=True)
        return response


def record_mode(
    backend: ChatBackend,
    transcript_path: str | Path,
    role_models: Optional[dict[str, str]] = None,
) -> Gateway:
    """Wrap a backend so every exchange is persisted for later replay."""
    return Gateway(backend, role_models=role_models, record_path=transcript_path)


def replay_mode(
    transcript_path: str | Path,
    role_models: Optional[dict[str, str]] = None,
) -> Gateway:
    """Serve only the exchanges previously persisted at transcript_path."""
    return Gateway(ReplayBackend(transcript_path), role_models=role_models)


def _truncate(history: list[ChatTurn], budget: int) -> list[ChatTurn]:
    """Fit the history to the budget: drop the turns between the task turn (the first after
    the system turn) and the newest, oldest first, then clip the task turn from the front.

    The task turn goes only when the system and newest turns fill the budget; the newest is
    then clipped instead. The system turn stays whole, and the newest too if it alone is over."""
    if sum(len(t.content) for t in history) <= budget:
        return list(history)
    system, rest = history[0], list(history[1:])
    while len(rest) > 2 and sum(len(t.content) for t in [system] + rest) > budget:
        rest.pop(1)
    if len(rest) > 1 and len(system.content) + len(rest[-1].content) >= budget:
        rest.pop(0)  # no room for the task turn
    remaining = budget - len(system.content) - sum(len(t.content) for t in rest[1:])
    if rest and 0 <= remaining < len(rest[0].content):
        marker = "...[earlier context truncated] "
        if remaining <= len(marker):  # no room for the marker
            marker = ""
        keep = remaining - len(marker)
        rest[:1] = [ChatTurn(rest[0].role_tag, marker + rest[0].content[-keep:])] if keep > 0 else []
    return [system] + rest
