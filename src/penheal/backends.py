"""Real command-execution backends.

The shell backend spawns a subprocess per command, in its own session, with
merged output capture and a hard timeout that kills the command's whole
process group. Console-channel commands are fed to a metasploit console
binary one-shot as an argv list, with no shell between (spawn, run, capture,
exit); when the binary is absent the command fails as an ordinary execution
record, never a crash.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import signal
import subprocess
from typing import Union

from .engine import Command, CommandChannel, TIMEOUT_STATUS


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
        with subprocess.Popen(
            args,
            shell=shell,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        ) as proc:
            try:
                output, _ = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired as exc:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                partial = exc.output.decode("utf-8", "replace") if exc.output else ""
                return partial + f"\n[command timed out after {timeout}s]", TIMEOUT_STATUS
        return output.decode("utf-8", "replace"), proc.returncode

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
