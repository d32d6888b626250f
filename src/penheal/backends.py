"""Real command-execution backends.

The shell backend spawns a subprocess per command, in its own session, with
merged output capture bounded to CAPTURE_BYTES and a hard timeout that kills
the command's whole process group. Console-channel commands are fed to a
metasploit console binary one-shot as an argv list, with no shell between
(spawn, run, capture, exit); when the binary is absent the command fails as
an ordinary execution record, never a crash.
"""

from __future__ import annotations

import contextlib
import os
import selectors
import shutil
import signal
import subprocess
import time
from typing import Union

from .engine import Command, CommandChannel, OUTPUT_CAP, TIMEOUT_STATUS

# Output bytes kept per command; the rest is read and dropped, so memory stays
# bounded and the command never blocks on a full pipe. OUTPUT_CAP characters
# of UTF-8 take at most 4 * OUTPUT_CAP bytes, and 4 more make execute's
# truncation fire exactly when it would on the whole output.
CAPTURE_BYTES = 4 * OUTPUT_CAP + 4


class ShellBackend:
    """Runs commands on the local system. Use only against hosts you own."""

    def __init__(self, msfconsole_binary: str = "msfconsole"):
        self.msfconsole_binary = msfconsole_binary

    def run(self, command: Command) -> tuple[str, Union[int, str]]:
        if command.channel is CommandChannel.MSFCONSOLE:
            return self._run_msfconsole(command)
        return self._spawn(command.raw, command.timeout_seconds, shell=True)

    def _spawn(
        self, args: Union[str, list[str]], timeout: int, shell: bool = False
    ) -> tuple[str, Union[int, str]]:
        # A new session puts the command and everything it starts in one
        # process group, so a timeout kills the whole group, not only sh.
        deadline = time.monotonic() + timeout
        kept = bytearray()
        with subprocess.Popen(
            args,
            shell=shell,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        ) as proc, selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            try:
                while selector.select(deadline - time.monotonic()):
                    chunk = os.read(proc.stdout.fileno(), 1 << 16)
                    if not chunk:
                        break
                    kept += chunk[: CAPTURE_BYTES - len(kept)]
                else:  # no output and no end of output before the deadline
                    raise subprocess.TimeoutExpired(args, timeout)
                proc.wait(deadline - time.monotonic())
            except subprocess.TimeoutExpired:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                partial = kept.decode("utf-8", "replace")
                return partial + f"\n[command timed out after {timeout}s]", TIMEOUT_STATUS
        return kept.decode("utf-8", "replace"), proc.returncode

    def _run_msfconsole(self, command: Command) -> tuple[str, Union[int, str]]:
        if shutil.which(self.msfconsole_binary) is None:
            return (
                f"execution error: {self.msfconsole_binary} not found on this system",
                -1,
            )
        # One-shot session: run the batch, then exit, so output capture is bounded.
        # An argv list, not a shell line: the batch reaches the console verbatim.
        argv = [self.msfconsole_binary, "-q", "-x", f"{command.raw}; exit"]
        return self._spawn(argv, command.timeout_seconds)
