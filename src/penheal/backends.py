"""Live clients: the shell, the chat model and NVD. Hermetic runs never import this.

The chat backend and the NVD client share one retry loop, :func:`send_with_retries`.
The shell backend spawns a subprocess per command, in its own session, with
merged output capture bounded to CAPTURE_BYTES. The command's whole process
group is killed when its shell exits, or after COMMAND_TIMEOUT_SECONDS.
Console-channel commands are fed to ``msfconsole`` on PATH one-shot as an
argv list, with no shell between (spawn, run, capture, exit); when it is
absent the command fails as an ordinary execution record, never a crash.
"""

from __future__ import annotations

import contextlib
import os
import selectors
import signal
import subprocess
import tempfile
import time
from pathlib import Path
from typing import Callable, Optional, Union

import requests

from .gateway import AgentRole, ChatTurn, GatewayError
from .model import NVD_BASE_URL, OUTPUT_CAP, Command, CommandChannel
from .nvd import CveNotFound, FixtureNvdClient, NvdError, _parse_record

API_KEY_ENV = "PENHEAL_LLM_API_KEY"
NVD_API_KEY_ENV = "PENHEAL_NVD_API_KEY"

MAX_ATTEMPTS = 3
BACKOFF_SECONDS = 1.0  # before the second attempt; doubled before each later one
CHAT_TIMEOUT_SECONDS = 60.0
NVD_TIMEOUT_SECONDS = 30.0

# Output bytes kept per command; the rest is read and dropped, so memory stays
# bounded and the command never blocks on a full pipe. OUTPUT_CAP characters
# of UTF-8 take at most 4 * OUTPUT_CAP bytes, and 4 more make execute's
# truncation fire exactly when it would on the whole output.
CAPTURE_BYTES = 4 * OUTPUT_CAP + 4
# The longest the read loop waits before it looks again whether the shell has exited.
EXIT_POLL_SECONDS = 0.01
_EXITED = os.WEXITED | os.WNOHANG | os.WNOWAIT
COMMAND_TIMEOUT_SECONDS = 120
TIMEOUT_STATUS = "timeout"  # the exit status of a command killed at the timeout
MSFCONSOLE = "msfconsole"


def send_with_retries(send: Callable[[], requests.Response], retry_on: tuple[int, ...],
                      failure: str, error: type[Exception]) -> requests.Response:
    """The first response of ``send()`` that is not a transient failure.

    Transient failures are transport errors, HTTP 5xx and the ``retry_on``
    statuses; after MAX_ATTEMPTS of them, raises ``error`` with the text
    ``"<failure> after 3 attempts: <last failure>"``.
    """
    last_error = ""
    for attempt in range(1, MAX_ATTEMPTS + 1):
        try:
            resp = send()
        except requests.RequestException as exc:
            last_error = f"transport error: {exc}"
        else:
            if resp.status_code not in retry_on and resp.status_code < 500:
                return resp
            last_error = f"HTTP {resp.status_code}"
        if attempt < MAX_ATTEMPTS:
            time.sleep(BACKOFF_SECONDS * (2 ** (attempt - 1)))
    raise error(f"{failure} after {MAX_ATTEMPTS} attempts: {last_error}")


class LiveBackend:
    """OpenAI-compatible chat-completions client with bounded retries.

    Retries only transient failures (HTTP 429/5xx and transport errors),
    with exponential backoff. Temperature is pinned to 0 to minimize run
    variance at the source.
    """

    def __init__(self, base_url: str, api_key: Optional[str] = None):
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")

    def complete(self, role: AgentRole, model: str, messages: list[ChatTurn]) -> str:
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

        resp = send_with_retries(
            lambda: requests.post(url, json=payload, headers=headers,
                                  timeout=CHAT_TIMEOUT_SECONDS),
            (429,), f"chat completion failed at {url}", GatewayError,
        )
        if resp.status_code != 200:
            raise GatewayError(
                f"chat completion failed at {url}: HTTP {resp.status_code} {resp.text[:200]}"
            )
        try:
            content = resp.json()["choices"][0]["message"]["content"]
            if content is not None and type(content) is not str:
                raise TypeError(f"message content is {type(content).__name__}, not text")
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise GatewayError(f"malformed completion response from {url}: {exc}") from exc
        return content or ""  # null content: a reply with no text


class LiveNvdClient(FixtureNvdClient):
    """The fixture client over an indefinite on-disk cache, filled from NVD on a miss."""

    def __init__(self, cache_dir: str | Path, base_url: str = NVD_BASE_URL):
        super().__init__(cache_dir)
        self.fixture_dir.mkdir(parents=True, exist_ok=True)
        self.base_url = base_url
        self.api_key = os.environ.get(NVD_API_KEY_ENV)

    def _read(self, cve_id: str) -> str:
        """The cached record's text; on a miss, the fetched one, validated and cached."""
        cached = super()._read(cve_id)
        if cached is not None:
            return cached
        text = self._fetch(cve_id)
        _parse_record(cve_id, text)  # validate before caching
        # A cache file appears whole or not at all: a truncated one would be read
        # as a bad record on every later run, and the CVE never fetched again.
        try:
            fd, part = tempfile.mkstemp(prefix=f".{cve_id}.", suffix=".part",
                                        dir=self.fixture_dir)
            try:
                os.close(fd)
                Path(part).write_text(text, encoding="utf-8")
                os.replace(part, self.fixture_dir / f"{cve_id}.json")
            except BaseException:
                os.unlink(part)
                raise
        except OSError as exc:
            raise NvdError(f"cannot cache {cve_id} in {self.fixture_dir}: {exc}") from exc
        return text

    def _fetch(self, cve_id: str) -> str:
        headers = {"apiKey": self.api_key} if self.api_key else {}
        resp = send_with_retries(
            lambda: requests.get(self.base_url, params={"cveId": cve_id}, headers=headers,
                                 timeout=NVD_TIMEOUT_SECONDS),
            (403, 429), f"NVD query for {cve_id} failed", NvdError,
        )
        if resp.status_code == 404:
            raise CveNotFound(cve_id)
        if resp.status_code != 200:
            raise NvdError(f"NVD query for {cve_id} failed: HTTP {resp.status_code}")
        return resp.text


class ShellBackend:
    """Runs commands on the local system. Use only against hosts you own."""

    def run(self, command: Command) -> tuple[str, Union[int, str]]:
        if command.channel is CommandChannel.MSFCONSOLE:
            # One-shot session: run the batch, then exit, so output capture is bounded.
            # An argv list, not a shell line: the batch reaches the console verbatim.
            return self._spawn([MSFCONSOLE, "-q", "-x", f"{command.raw}; exit"])
        return self._spawn(command.raw, shell=True)

    def _spawn(
        self, args: Union[str, list[str]], shell: bool = False
    ) -> tuple[str, Union[int, str]]:
        """Run ``args``; its output and the shell's own exit status, or the timeout marker.

        A new session puts the command and everything it starts in one process
        group. The group is killed once the shell exits, or at the timeout, so
        no background child outlives the command or holds its output open. A
        child that calls ``setsid`` itself leaves the group and escapes.
        """
        deadline = time.monotonic() + COMMAND_TIMEOUT_SECONDS
        kept = bytearray()
        with subprocess.Popen(
            args,
            shell=shell,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        ) as proc, selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)

            def read_until(done: Callable[[], bool]) -> bool:
                """Read output until ``done()``; False if the deadline comes first."""
                while not done():
                    left = deadline - time.monotonic()
                    if left <= 0:
                        return False
                    if selector.select(min(left, EXIT_POLL_SECONDS)):
                        chunk = os.read(proc.stdout.fileno(), 1 << 16)
                        kept.extend(chunk[: CAPTURE_BYTES - len(kept)])
                        if not chunk:
                            selector.unregister(proc.stdout)
                return True

            # WNOWAIT leaves the exited shell unreaped, so the group id is still its own.
            exited = read_until(lambda: os.waitid(os.P_PID, proc.pid, _EXITED) is not None)
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            if exited:
                read_until(lambda: not selector.get_map())
            proc.wait()
        output = kept.decode("utf-8", "replace")
        if not exited:
            output += f"\n[command timed out after {COMMAND_TIMEOUT_SECONDS}s]"
            return output, TIMEOUT_STATUS
        return output, proc.returncode
