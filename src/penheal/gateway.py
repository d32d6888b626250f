"""Single chat abstraction for every agent role.

All agents (planner, executor, summarizer, extractor, estimator, advisor,
evaluator) talk to a language model through :class:`Gateway`. Backends are
pluggable: a live OpenAI-compatible HTTP backend, a deterministic replay
backend serving recorded exchanges, and a scripted backend for tests.
Every exchange lands in an append-only transcript; in record mode the
transcript is persisted as JSON lines and can later drive a replay run.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import threading
import time
from enum import Enum
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Protocol

from .model import decode, encode, load_json

API_KEY_ENV = "PENHEAL_LLM_API_KEY"

STRONG_CHAR_BUDGET = 100_000
LIGHT_CHAR_BUDGET = 12_000

DEFAULT_MODELS = {"strong": "gpt-4", "light": "gpt-3.5-turbo"}

MAX_ATTEMPTS = 3
BACKOFF_SECONDS = 1.0


class Tier(Enum):
    STRONG = "strong"
    LIGHT = "light"


class AgentRole(Enum):
    PLANNER = "Planner"
    EXECUTOR = "Executor"
    SUMMARIZER = "Summarizer"
    EXTRACTOR = "Extractor"
    ESTIMATOR = "Estimator"
    ADVISOR = "Advisor"
    EVALUATOR = "Evaluator"

    @property
    def tier(self) -> Tier:
        if self in (AgentRole.SUMMARIZER, AgentRole.EXTRACTOR, AgentRole.ESTIMATOR):
            return Tier.LIGHT
        return Tier.STRONG


class RoleTag(Enum):
    SYSTEM = "system"
    USER = "user"
    ASSISTANT = "assistant"


class _ChatTurnFields(NamedTuple):
    role_tag: RoleTag
    content: str


class ChatTurn(_ChatTurnFields):
    """One message of a chat history; its content must not be empty."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.content:
            raise ValueError("chat turn content must be non-empty")
        return self


def system_turn(content: str) -> ChatTurn:
    return ChatTurn(RoleTag.SYSTEM, content)


def user_turn(content: str) -> ChatTurn:
    return ChatTurn(RoleTag.USER, content)


def assistant_turn(content: str) -> ChatTurn:
    return ChatTurn(RoleTag.ASSISTANT, content)


def request_hash(role: AgentRole, messages: list[ChatTurn]) -> str:
    """Stable content hash keying a request for record/replay."""
    return _request_hash(role, tuple(messages))


# In replay the backend and then the gateway hash the same request: one entry serves both.
@functools.lru_cache(maxsize=1)
def _request_hash(role: AgentRole, messages: tuple[ChatTurn, ...]) -> str:
    payload = json.dumps(
        {
            "role": role.value,
            "messages": [[t.role_tag.value, t.content] for t in messages],
        },
        sort_keys=True,
        ensure_ascii=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class Exchange(NamedTuple):
    role: AgentRole
    model: str
    request_hash: str
    messages: tuple[ChatTurn, ...]
    response: str
    ts: str = ""


class Transcript:
    """Append-only record of every exchange in a run, in call order."""

    def __init__(self, exchanges: Iterable[Exchange] = ()) -> None:
        self.exchanges: list[Exchange] = list(exchanges)

    def append(self, exchange: Exchange) -> None:
        self.exchanges.append(exchange)

    @staticmethod
    def load(path: str | Path) -> "Transcript":
        exchanges = []
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    data = load_json(line)
                    if type(data) is dict:
                        data.setdefault("model", "")  # a recorded line may omit the model
                    exchanges.append(decode(Exchange, data))
                except (json.JSONDecodeError, KeyError, ValueError) as exc:
                    raise GatewayError(
                        f"transcript {path} line {line_no} is unreadable: {exc}"
                    ) from exc
        return Transcript(exchanges)


class GatewayError(Exception):
    """Base error for gateway failures."""


class MissingFixtureError(GatewayError):
    """Replay mode saw a request it has no recorded response for."""

    def __init__(self, role: AgentRole, digest: str):
        super().__init__(
            f"no recorded response for role {role.value}, request hash {digest}"
        )
        self.role = role
        self.digest = digest


class ChatBackend(Protocol):
    def complete(self, role: AgentRole, model: str, messages: list[ChatTurn]) -> str: ...


class LiveBackend:
    """OpenAI-compatible chat-completions client with bounded retries.

    Retries only transient failures (HTTP 429/5xx and transport errors),
    with exponential backoff. Temperature is pinned to 0 to minimize run
    variance at the source.
    """

    def __init__(
        self,
        base_url: str,
        api_key: Optional[str] = None,
        timeout: float = 60.0,
        max_attempts: int = MAX_ATTEMPTS,
        backoff: float = BACKOFF_SECONDS,
    ):
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff = backoff

    def complete(self, role: AgentRole, model: str, messages: list[ChatTurn]) -> str:
        import requests  # live only: hermetic runs never pay for the import

        url = f"{self.base_url}/chat/completions"
        payload = {
            "model": model,
            "temperature": 0,
            "messages": [
                {"role": t.role_tag.value, "content": t.content} for t in messages
            ],
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"

        last_error = ""
        for attempt in range(1, self.max_attempts + 1):
            try:
                resp = requests.post(url, json=payload, headers=headers, timeout=self.timeout)
            except requests.RequestException as exc:
                last_error = f"transport error: {exc}"
            else:
                if resp.status_code == 200:
                    try:
                        return resp.json()["choices"][0]["message"]["content"]
                    except (KeyError, IndexError, ValueError) as exc:
                        raise GatewayError(
                            f"malformed completion response from {url}: {exc}"
                        ) from exc
                if resp.status_code == 429 or resp.status_code >= 500:
                    last_error = f"HTTP {resp.status_code}"
                else:
                    raise GatewayError(
                        f"chat completion failed at {url}: HTTP {resp.status_code} "
                        f"{resp.text[:200]}"
                    )
            if attempt < self.max_attempts:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
        raise GatewayError(
            f"chat completion failed at {url} after {self.max_attempts} attempts: {last_error}"
        )


class ReplayBackend:
    """Serves only previously recorded responses, keyed by request hash."""

    def __init__(self, transcript_path: str | Path):
        path = Path(transcript_path)
        if not path.exists():
            raise GatewayError(f"replay transcript not found: {path}")
        self._responses: dict[str, str] = {}
        for exchange in Transcript.load(path).exchanges:
            existing = self._responses.get(exchange.request_hash)
            if existing is not None and existing != exchange.response:
                raise GatewayError(
                    f"conflicting recorded responses for hash {exchange.request_hash}"
                )
            self._responses[exchange.request_hash] = exchange.response

    def complete(self, role: AgentRole, model: str, messages: list[ChatTurn]) -> str:
        digest = request_hash(role, messages)
        try:
            return self._responses[digest]
        except KeyError:
            raise MissingFixtureError(role, digest) from None


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


class Gateway:
    """Routes each role's requests to its tier model and records the exchange."""

    def __init__(
        self,
        backend: ChatBackend,
        role_models: Optional[dict[str, str]] = None,
        record_path: Optional[str | Path] = None,
    ):
        self.backend = backend
        self.models = dict(DEFAULT_MODELS)
        if role_models:
            self.models.update({k.lower(): v for k, v in role_models.items()})
        self.transcript = Transcript()
        self._record_path = Path(record_path) if record_path else None
        self._lock = threading.Lock()
        if self._record_path:
            # Truncate eagerly so a failed run never leaves stale exchanges behind.
            self._record_path.parent.mkdir(parents=True, exist_ok=True)
            self._record_path.write_text("", encoding="utf-8")

    def model_for(self, role: AgentRole) -> str:
        # Per-role override wins; otherwise the role's tier decides.
        return self.models.get(role.value.lower(), self.models[role.tier.value])

    def char_budget(self, role: AgentRole) -> int:
        return STRONG_CHAR_BUDGET if role.tier is Tier.STRONG else LIGHT_CHAR_BUDGET

    def complete(self, role: AgentRole, history: list[ChatTurn]) -> str:
        """One chat completion for the role; history must start with its system prompt."""
        if not history or history[0].role_tag is not RoleTag.SYSTEM:
            raise GatewayError(f"{role.value} history must start with a system turn")
        messages = _truncate(history, self.char_budget(role))
        model = self.model_for(role)
        response = self.backend.complete(role, model, messages)
        exchange = Exchange(
            role=role,
            model=model,
            request_hash=request_hash(role, messages),
            messages=tuple(messages),
            response=response,
            ts=time.strftime("%Y-%m-%dT%H:%M:%S"),
        )
        with self._lock:
            self.transcript.append(exchange)
            if self._record_path:
                with open(self._record_path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(encode(exchange), ensure_ascii=False) + "\n")
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
    """Drop oldest non-system turns, then clip the oldest kept one, to fit the budget.

    The system turn is always kept whole. If it alone exceeds the budget, the
    newest turn is kept whole too: no clip could fit, and it holds the task.
    """
    total = sum(len(t.content) for t in history)
    if total <= budget:
        return list(history)
    system, rest = history[0], list(history[1:])
    while len(rest) > 1 and sum(len(t.content) for t in [system] + rest) > budget:
        rest.pop(0)
    remaining = budget - len(system.content)
    if rest and 0 <= remaining < len(rest[0].content):
        marker = "...[earlier context truncated] "
        if remaining <= len(marker):  # no room for the marker
            marker = ""
        keep = remaining - len(marker)
        rest = [ChatTurn(rest[0].role_tag, marker + rest[0].content[-keep:])] if keep > 0 else []
    return [system] + rest
