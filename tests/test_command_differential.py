"""Differential property: the executor command parser reads every reply as its earlier form did.

``parse_commands`` once walked the ``$``-split pieces by index, breaking at an unpaired tail
and skipping empty bodies, and wrote its bound warning itself. It now walks the bodies between
delimiter pairs once, checks the unpaired tail after the loop and bounds the list through
``model.keep_first``. The reference below is that earlier parser. For replies mixing
delimiters, ``msfconsole:`` prefixes and whitespace of every kind, both must give the same
commands and the same warnings, in order.
"""

import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from penheal.engine import parse_commands
from penheal.model import Command, CommandChannel

_REF_MSF_PREFIX = re.compile(r"^\s*(?a:msfconsole)\s*:\s*", re.IGNORECASE)
_REF_MAX_COMMANDS = 8


def ref_parse_commands(llm_output: str) -> tuple[list[Command], list[str]]:
    commands: list[Command] = []
    warnings: list[str] = []
    pieces = llm_output.split("$")
    for idx in range(1, len(pieces), 2):
        if idx + 1 >= len(pieces):
            fragment = pieces[idx].strip()
            if fragment:
                warnings.append(f"unpaired $ delimiter near: {fragment[:60]!r}")
            break
        body = pieces[idx].strip()
        if not body:
            warnings.append("empty command between $ delimiters")
            continue
        match = _REF_MSF_PREFIX.match(body)
        if match:
            remainder = body[match.end():].strip()
            if not remainder:
                warnings.append("empty msfconsole command")
                continue
            commands.append(Command(raw=remainder, channel=CommandChannel.MSFCONSOLE))
        else:
            commands.append(Command(raw=body, channel=CommandChannel.SHELL))
    if len(commands) > _REF_MAX_COMMANDS:
        warnings.append(f"{len(commands) - _REF_MAX_COMMANDS} command(s) past the first "
                        f"{_REF_MAX_COMMANDS} ignored")
        del commands[_REF_MAX_COMMANDS:]
    return commands, warnings


_PIECE = st.sampled_from([
    "$", "$", "$", "msfconsole:", "MSFConsole :", "msfconsole: use x", "msfconsoIe:", "nmap -sV",
    "id", " ", "\t", "\n", "\xa0", "\x85", " ", "\x1c", "'quoted'", "x" * 70,
])


@settings(max_examples=500, deadline=None)
@given(st.lists(_PIECE, max_size=40).map("".join))
@example("")
@example("$ok$ and $dangling")
@example("$msfconsole:$ $ $ $tail")
@example(" ".join(f"$id {n}$" for n in range(20)) + " $unpaired")  # past MAX_COMMANDS
def test_the_pair_walk_reads_every_reply_as_before(reply):
    assert parse_commands(reply) == ref_parse_commands(reply)
