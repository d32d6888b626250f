"""Real command-execution backends.

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
import time
from typing import Callable, Union

from .engine import Command, CommandChannel, OUTPUT_CAP, TIMEOUT_STATUS

# Output bytes kept per command; the rest is read and dropped, so memory stays
# bounded and the command never blocks on a full pipe. OUTPUT_CAP characters
# of UTF-8 take at most 4 * OUTPUT_CAP bytes, and 4 more make execute's
# truncation fire exactly when it would on the whole output.
CAPTURE_BYTES = 4 * OUTPUT_CAP + 4
# The longest the read loop waits before it looks again whether the shell has exited.
EXIT_POLL_SECONDS = 0.01
_EXITED = os.WEXITED | os.WNOHANG | os.WNOWAIT
COMMAND_TIMEOUT_SECONDS = 120
MSFCONSOLE = "msfconsole"


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
