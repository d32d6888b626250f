"""Properties of the parsers of model text: each returns or raises its documented error,
and what it returns stays within its caps, whatever the model wrote."""

import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from penheal.engine import (
    CommandChannel,
    merge_revision,
    parse_commands,
    parse_extractor_blocks,
    parse_plan_text,
    render_plan,
)
from penheal.model import (
    RESULT_SUMMARY_MAX,
    AttackPlan,
    CostPolicy,
    TaskStatus,
    validate_plan,
)
from penheal.remediation import RemediationError, parse_evaluation, parse_numbered_list

_TASK_ID = re.compile(r"^\d+(\.\d+)*$")
# A warning quotes at most 60 characters of the reply, each at most 10 in repr.
WARNING_CAP = 100 + 10 * 60


def _texts(*fragments: str, max_size: int = 30):
    """Text mixing grammar fragments of a parser with arbitrary characters."""
    piece = st.one_of(st.sampled_from(fragments), st.text(max_size=6),
                      st.sampled_from(["\n", " ", "\t", "\r\n", "\x85", " ", "0", "9"]))
    return st.lists(piece, max_size=max_size).map("".join)


@settings(deadline=None)
@given(_texts("$", "$ ", "msfconsole:", "msfconsole: use x", "nmap -sV 10.0.2.4", "$$"))
def test_parse_commands(text):
    commands, warnings = parse_commands(text)
    pairs = text.count("$") // 2
    assert len(commands) <= pairs
    assert len(warnings) <= pairs + 1
    for command in commands:
        assert command.raw and command.raw == command.raw.strip()
        assert "$" not in command.raw and command.raw in text
        assert command.channel in (CommandChannel.SHELL, CommandChannel.MSFCONSOLE)
    assert all(len(w) <= WARNING_CAP for w in warnings)


@settings(deadline=None)
@given(_texts("Exploited: ", "exploited:", "CVE-2011-2523", "cve-2017-0144", "CVE-NA", "CVE-99",
              "Service: ", "Port: ", "port: 70000", "tcp/21", "Description: ", "Method: ",
              "NONE", "99999999999", "0" * 5000))
def test_parse_extractor_blocks(text):
    findings, warnings = parse_extractor_blocks(text)
    headers = sum(1 for line in text.splitlines() if "exploited" in line.lower())
    assert len(findings) <= headers
    assert len(warnings) <= 2 * headers
    assert len({f.key for f in findings}) == len(findings)
    for f in findings:
        assert f.has_valid_id() and f.id == f.id.upper()
        assert f.port is None or 0 <= f.port <= 65535
        assert f.service == f.service.strip().lower()
    assert all(len(w) <= WARNING_CAP for w in warnings)


@settings(deadline=None)
@given(_texts("1. ", "2) ", "10. ", "  - ", "Update the package", "\n3. x"))
def test_parse_numbered_list(text):
    items = parse_numbered_list(text)
    assert len(items) <= len(text.splitlines())
    assert sum(len(i) for i in items) <= len(text)
    assert all(i and i == i.strip() for i in items)


EFFECT_CLASSES = {"full", "partial", "zero", "negative"}


@settings(deadline=None)
@given(_texts("Effect: ", "effect: full", "effect: zero", "Effect: partial 40%",
              "effect: negative 250", "partial 1" + "0" * 400, "Cost: ", "cost: low",
              "cost: Moderate", "cost: high", "cost: 3.25", "cost: 99", "cost: medium",
              "Targets: ", "CVE-2011-2523@ftp:21, ,x"))
def test_parse_evaluation(text):
    try:
        verdict = parse_evaluation(text, CostPolicy())
    except RemediationError:
        return
    assert verdict.effect_class in EFFECT_CLASSES
    assert 0.0 <= verdict.k <= 100.0
    assert 0.0 <= verdict.cost <= 10.0 and round(verdict.cost * 10) == verdict.cost * 10
    assert all(t and t == t.strip() and "," not in t for t in verdict.extra_target_keys)


_STATUS_WORDS = ["to-do", "to do", "todo", "completed", "done", "failed", "TODO", "Done"]
_IDS = st.lists(st.integers(0, 3), min_size=1, max_size=3).map(lambda p: ".".join(map(str, p)))
_RESULT = st.one_of(st.none(), st.text(max_size=8), st.just("r" * (RESULT_SUMMARY_MAX + 40)))


@st.composite
def _plan_line(draw):
    line = "{}{}{} {} [{}]".format(
        draw(st.sampled_from(["", "  ", "\t"])),
        draw(_IDS),
        draw(st.sampled_from(["", "."])),
        draw(st.one_of(st.sampled_from(["Scan ports", " ", "x [y]", "-"]), st.text(max_size=8))),
        draw(st.sampled_from(_STATUS_WORDS)),
    )
    result = draw(_RESULT)
    return line if result is None else f"{line} - result: {result}"


_PLAN_TEXT = st.lists(st.one_of(_plan_line(), st.text(max_size=10)), max_size=12).map("\n".join)


@settings(deadline=None)
@given(_PLAN_TEXT)
def test_parse_plan_text(text):
    lines = parse_plan_text(text)
    assert len(lines) <= len(text.splitlines())
    for line in lines:
        assert _TASK_ID.match(line.id)
        assert line.description and line.description == line.description.strip()


@settings(deadline=None)
@given(_PLAN_TEXT, _PLAN_TEXT)
def test_merge_revision_keeps_a_plan_valid(base_text, revision_text):
    base, _ = merge_revision(AttackPlan(), parse_plan_text(base_text))
    assume(base.roots)
    assert validate_plan(base) == []
    merged, _ = merge_revision(base, parse_plan_text(revision_text))
    assert validate_plan(merged) == []
    for node in base.walk():  # nothing is dropped, and a finished task stays finished
        kept = merged.find(node.id)
        assert kept is not None
        if node.status is not TaskStatus.TODO:
            assert kept.status is node.status
    # A merged plan renders to text that parses back to the same plan.
    again, _ = merge_revision(merged, parse_plan_text(render_plan(merged)))
    assert again == merged


@pytest.mark.parametrize("text", ["2  [todo]", "1.1 \t[done] - result: x", "3 \xa0 [failed]"])
def test_blank_description_is_not_a_plan_line(text):
    assert parse_plan_text(text) == []


def test_port_with_more_digits_than_int_reads_is_a_warning():
    text = "Exploited: CVE-NA\nService: x\nPort: " + "9" * 5000
    findings, warnings = parse_extractor_blocks(text)
    assert findings[0].port is None
    assert len(warnings) == 1 and len(warnings[0]) <= WARNING_CAP
