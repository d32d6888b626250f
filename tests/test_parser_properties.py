"""Properties of the parsers of model text: each returns or raises its documented error,
and what it returns stays within its caps, whatever the model wrote."""

import ast
import re
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from plan_invariants import find, validate_plan, walk

from penheal import engine, remediation
from penheal.cvss import CONSERVATIVE_DEFAULT_VECTOR, parse_vector
from penheal.engine import (
    MAX_COMMANDS,
    MAX_FINDINGS,
    MAX_PLAN_TASKS,
    Command,
    CommandChannel,
    PlanTable,
    initial_plan,
    merge_revision,
    parse_commands,
    parse_extractor_blocks,
    parse_plan_text,
    render_plan,
    run_pentest,
)
from penheal.gateway import AgentRole, Gateway, ScriptedBackend
from penheal.knowledge import KnowledgeBase
from penheal.model import (
    RESULT_SUMMARY_MAX,
    CostPolicy,
    CvssSource,
    Recommendation,
    RunConfig,
    TaskNode,
    TaskStatus,
    Vulnerability,
)
from penheal.nvd import CVE_PATTERN, FixtureNvdClient, _validated_id
from penheal.remediation import (
    MAX_ADVISOR_ITEMS,
    MAX_EXTRA_TARGETS,
    EvaluatorContext,
    _parse_vector_reply,
    evaluate,
    parse_evaluation,
    parse_numbered_list,
    remediate,
)

_TASK_ID = re.compile(r"^\d+(\.\d+)*$")
# A warning quotes at most 60 characters of the reply, each at most 10 in repr.
WARNING_CAP = 100 + 10 * 60


def _texts(*fragments: str, max_size: int = 30):
    """Text mixing grammar fragments of a parser with arbitrary characters."""
    piece = st.one_of(st.sampled_from(fragments), st.text(max_size=6),
                      st.sampled_from(["\n", " ", "\t", "\r\n", "\x85", " ", "0", "9"]))
    return st.lists(piece, max_size=max_size).map("".join)


def _lines(grammar: list[str], noise):
    """Lines joined by newlines: two in three are whole ``grammar`` lines, the rest ``noise``.
    A reply of one noise line is the noise alone."""
    line = st.one_of(st.sampled_from(grammar), st.sampled_from(grammar), noise)
    return st.lists(line, min_size=1, max_size=8).map("\n".join)


_MANY_COMMANDS = " ".join(f"$id {n}$" for n in range(2000))
_MANY_BLOCKS = "\n".join(f"Exploited: CVE-2011-{n:04d}\nService: s{n}\nPort: {n}"
                         for n in range(2000))


@settings(deadline=None)
@given(_texts("$", "$ ", "msfconsole:", "msfconsole: use x", "nmap -sV 10.0.2.4", "$$", "$id$"))
@example(_MANY_COMMANDS)
def test_parse_commands(text):
    commands, warnings = parse_commands(text)
    pairs = text.count("$") // 2
    assert len(commands) <= min(pairs, MAX_COMMANDS)
    assert len(warnings) <= pairs + 1
    for command in commands:
        assert command.raw and command.raw == command.raw.strip()
        assert "$" not in command.raw and command.raw in text
        assert command.channel in (CommandChannel.SHELL, CommandChannel.MSFCONSOLE)
    assert all(len(w) <= WARNING_CAP for w in warnings)


@pytest.mark.parametrize("prefix", ["CVE", "cve", "cVe"])
@pytest.mark.parametrize("digits", [3, 4, 7, 8])
def test_extractor_recognises_an_id_exactly_when_nvd_looks_it_up(prefix, digits):
    cve_id = f"{prefix}-2017-{'1' * digits}"
    findings, warnings = parse_extractor_blocks(f"Exploited: {cve_id}\nservice: ftp")
    try:
        looked_up = [_validated_id(cve_id)]
    except ValueError:
        looked_up = []
    assert [f.id for f in findings] == looked_up
    assert len(warnings) == 1 - len(looked_up)  # an unrecognized id is a skipped block
    assert (digits in (4, 7)) == bool(looked_up)


@settings(deadline=None)
@given(_texts("Exploited: ", "exploited:", "CVE-2011-2523", "cve-2017-0144", "CVE-NA", "CVE-99",
              "Service: ", "Port: ", "port: 70000", "tcp/21", "Description: ", "Method: ",
              "NONE", "99999999999", "0" * 5000))
@example("Exploited: CVE-2011-2523" + "0" * 5000 + "\nPort: Exploited: ")  # an id past the cap
@example("Exploited: CVE-2011-2523" + "0" * 5000)  # a sequence number past 7 digits: no id
@example(_MANY_BLOCKS)
def test_parse_extractor_blocks(text):
    findings, warnings = parse_extractor_blocks(text)
    headers = sum(1 for line in text.splitlines() if "exploited" in line.lower())
    assert len(findings) <= min(headers, MAX_FINDINGS)
    assert len(warnings) <= 2 * headers
    assert len({f.key for f in findings}) == len(findings)
    for f in findings:
        assert f.id == "CVE-NA" or CVE_PATTERN.match(f.id)
        assert len(f.id) <= len("CVE-2017-1000117")
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


_EVALUATION_NOISE = _texts("Effect: ", "effect: full", "effect: zero", "Effect: partial 40%",
                           "effect: negative 250", "partial 1" + "0" * 400, "Cost: ", "cost: low",
                           "cost: Moderate", "cost: high", "cost: 3.25", "cost: 99",
                           "cost: medium", "Targets: ", "CVE-2011-2523@ftp:21, ,x")
_EVALUATION_LINES = ["effect: full", "Effect: ZERO", " effect : partial 40% ",
                     "effect: partial 7.5", "EFFECT: negative 250", "effect: negative 0",
                     "effect: partial 1" + "0" * 400, "cost: low", "Cost: Moderate", "cost:high",
                     "cost: 3.25", "cost: 99", "targets: CVE-2011-2523@ftp:21, ,x",
                     "Targets: " + ",".join("abcdefghij")]


@settings(deadline=None)
@given(_lines(_EVALUATION_LINES, _EVALUATION_NOISE))
@example("effect: partial 40%\ncost: moderate\ntargets: CVE-2011-2523@ftp:21")
@example("Effect: negative 250\nCost: 99")
def test_parse_evaluation(text):
    try:
        verdict = parse_evaluation(text, CostPolicy().tiers())
    except ValueError:
        return
    assert -1.0 <= verdict.effect <= 1.0
    assert 0.0 <= verdict.cost <= 10.0 and round(verdict.cost * 10) == verdict.cost * 10
    assert all(t and t == t.strip() and "," not in t for t in verdict.extra_target_keys)
    assert len(verdict.extra_target_keys) <= MAX_EXTRA_TARGETS


_VECTOR_NOISE = _texts("CVSS:3.1/", "cvss:3.0/", "AV:N/AC:L/PR:N/UI:N/", "S:U/C:H/I:H/A:H", "/",
                       ":", "AV:", "X" * 300, "\x85" * 80, "no vector here ", "'", "`")
_VECTOR_LINES = ["CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", "The vector is:",
                 "Vector: `CVSS:3.0/AV:L/AC:H/PR:H/UI:R/S:C/C:L/I:N/A:N`", "",
                 "  'cvss:3.1/av:p/ac:l/pr:l/ui:n/s:u/c:n/i:l/a:h'", "no vector here"]


@settings(deadline=None)
@given(_lines(_VECTOR_LINES, _VECTOR_NOISE))
@example("The estimate:\nCVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H\nbecause it is remote")
@example("no vector here " * 5000)  # no vector: the whole reply is quoted
@example("CVSS:3.1/" + "X" * 50000)  # a malformed segment
@example("CVSS:3.1/" + "Q" * 50000 + ":N")  # an unknown metric
@example("CVSS:3.1/AV:" + "Q" * 50000)  # an invalid value
def test_parse_vector_reply(text):
    metrics, warnings = _parse_vector_reply(text)
    assert (metrics is None) == (len(warnings) == 1) and len(warnings) <= 1
    if metrics is not None:
        assert metrics == parse_vector(metrics.vector_string())
    assert all(len(w) <= WARNING_CAP for w in warnings)


_TARGET = Vulnerability("CVE-2011-2523", "ftp", 21, cvss=parse_vector(CONSERVATIVE_DEFAULT_VECTOR),
                        cvss_source=CvssSource.ESTIMATED)
_EVALUATION = EvaluatorContext([_TARGET], CostPolicy())
_REPLY_NOISE = _texts("effect: full", "Effect: partial 40%", "cost: low", "cost: 3.2",
                      "targets: ", "CVE-2011-2523", "Z" * 300, "\x85" * 80, ", ", "\n")
_REPLY = _lines(["effect: full", "Effect: partial 40%", "cost: low", "cost: 3.2",
                 "targets: CVE-2011-2523, " + "Z" * 300], _REPLY_NOISE)


@settings(deadline=None)
@given(_REPLY, _REPLY)
@example("effect: partial 40%\ncost: 3.2\ntargets: CVE-2011-2523", "")  # parsed at once
@example("no verdict", "effect: full\ncost: low")  # parsed on the re-prompt
@example("effect: full\ncost: low\ntargets: " + "Z" * 40000, "")  # an unknown target
@example("\x85" * 40000, "\x85" * 40000)  # unparseable twice
def test_evaluate_warnings_are_bounded(first, second):
    gateway = Gateway(ScriptedBackend({AgentRole.EVALUATOR: [first, second]}))
    recommendation = Recommendation(text="x", target_vuln_ids=(_TARGET.key_str,))
    scored, warnings = evaluate(recommendation, _EVALUATION, gateway)
    assert 0.0 <= scored.cost <= 10.0
    assert all(len(w) <= WARNING_CAP for w in warnings)


def test_many_unknown_targets_give_one_bounded_warning():
    reply = "effect: full\ncost: low\ntargets: " + ",".join(f"x{n}" for n in range(20000))
    gateway = Gateway(ScriptedBackend({AgentRole.EVALUATOR: [reply]}))
    recommendation = Recommendation(text="x", target_vuln_ids=(_TARGET.key_str,))
    assert parse_evaluation(reply, CostPolicy().tiers()).extra_target_keys == tuple(
        f"x{n}" for n in range(MAX_EXTRA_TARGETS))  # the first keys, in reply order
    _, warnings = evaluate(recommendation, _EVALUATION, gateway)
    assert len(warnings) <= 2 and all(len(w) <= WARNING_CAP for w in warnings)
    assert warnings == [f"CVE-2011-2523@ftp:21 candidate 1: {20000 - MAX_EXTRA_TARGETS} "
                        f"target key(s) past the first {MAX_EXTRA_TARGETS} ignored",
                        f"CVE-2011-2523@ftp:21 candidate 1: evaluator named "
                        f"{MAX_EXTRA_TARGETS} unknown target(s), the first 'x0'; ignored"]


def test_long_extractor_reply_yields_the_first_findings():
    findings, warnings = parse_extractor_blocks(_MANY_BLOCKS)
    assert [f.id for f in findings] == [f"CVE-2011-{n:04d}" for n in range(MAX_FINDINGS)]
    assert warnings == [f"{2000 - MAX_FINDINGS} block(s) past the first {MAX_FINDINGS} ignored"]
    assert all(len(w) <= WARNING_CAP for w in warnings)


def test_long_planner_reply_leaves_a_bounded_plan():
    reply = "\n".join(["1 Recon [to-do]"] + [f"1.{n} Probe {n} [to-do]" for n in range(1, 3001)])
    gateway = Gateway(ScriptedBackend({AgentRole.PLANNER: [reply]}))
    plan, warnings = initial_plan(RunConfig(target_address="10.0.2.4"), gateway)
    assert plan.ids() == ["1"] + [f"1.{n}" for n in range(1, MAX_PLAN_TASKS)]  # reply order
    assert warnings == [f"{3001 - MAX_PLAN_TASKS} new task(s) past the plan's "
                        f"{MAX_PLAN_TASKS} ignored"]
    # A full plan still settles its tasks; only additions are dropped.
    warnings = merge_revision(plan, parse_plan_text("1.5 Probe 5 [done] - result: ok\n"
                                                    "1.9999 Probe more [to-do]"))
    assert plan.tasks["1.5"][1] is TaskStatus.COMPLETED and len(plan.tasks) == MAX_PLAN_TASKS
    assert warnings == [f"1 new task(s) past the plan's {MAX_PLAN_TASKS} ignored"]


def test_long_executor_reply_runs_the_first_commands():
    class Counting:
        def __init__(self):
            self.ran = []

        def run(self, command):
            self.ran.append(command.raw)
            return "ok", 0

    gateway = Gateway(ScriptedBackend({
        AgentRole.PLANNER: ["1 Recon [to-do]", "1", "1 Recon [completed] - result: done"],
        AgentRole.EXECUTOR: [_MANY_COMMANDS],
        AgentRole.SUMMARIZER: ["ok"] * MAX_COMMANDS,
        AgentRole.EXTRACTOR: ["NONE", "NONE"]}))
    executor = Counting()
    result = run_pentest(RunConfig(target_address="10.0.2.4"), executor, gateway, KnowledgeBase())
    assert executor.ran == [f"id {n}" for n in range(MAX_COMMANDS)]  # the first, in reply order
    assert result.warnings == [f"{2000 - MAX_COMMANDS} command(s) past the first "
                               f"{MAX_COMMANDS} ignored"]


def test_long_advisor_reply_is_evaluated_up_to_the_bound():
    backend = ScriptedBackend({
        AgentRole.ADVISOR: ["\n".join(f"{n}. fix {n}" for n in range(1, 501))],
        AgentRole.EVALUATOR: ["effect: full\ncost: low"] * 500})
    result = remediate([_TARGET._replace(service="s" * 100_000)], RunConfig(), Gateway(backend),
                       FixtureNvdClient())
    evaluated = [c.text for g in result.groups for c in g.candidates]
    assert evaluated == [f"fix {n}" for n in range(1, MAX_ADVISOR_ITEMS + 1)]
    assert [role for role, _ in backend.calls].count(AgentRole.EVALUATOR) == MAX_ADVISOR_ITEMS
    assert len(result.warnings) == 1 and len(result.warnings[0]) <= WARNING_CAP
    assert f"{500 - MAX_ADVISOR_ITEMS} advisor item(s)" in result.warnings[0]


@settings(deadline=None, max_examples=50)
@given(st.text(min_size=1, max_size=300),
       st.sampled_from(["CVE-NA", "CVE-1999-99999", "cve-2011-2523", "EXPLOIT-1"]))
@example("s" * 100_000, "CVE-NA")  # a service past every cap
@example("ftp", "CVE-2011-" + "2" * 5000)  # an id past the extractor's 7 digits: no lookup
def test_remediate_warnings_are_bounded(service, vuln_id):
    """Each warning quotes the finding clipped, whatever the extractor kept of it."""
    gateway = Gateway(ScriptedBackend({AgentRole.ESTIMATOR: ["no vector", "no vector"],
                                       AgentRole.ADVISOR: ["", ""]}))
    result = remediate([Vulnerability(vuln_id, service, 21)], RunConfig(), gateway,
                       FixtureNvdClient())
    assert result.warnings and not result.selected
    assert all(len(w) <= WARNING_CAP for w in result.warnings)


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


def parse_each_line(text):
    """``parse_plan_text`` without the line memo: one ``_PLAN_LINE`` match per line."""
    parsed = []
    for line in text.splitlines():
        match = engine._PLAN_LINE.match(line)
        if match:
            task_id, description, status_word, result = match.groups()
            parsed.append(TaskNode(task_id, description.strip(),
                                   engine._STATUS_WORDS[status_word.lower()],
                                   result.strip() if result else None))
    return parsed


@settings(deadline=None)
@given(_PLAN_TEXT, _PLAN_TEXT)
def test_parse_plan_text_reads_the_same_with_a_cold_or_warm_memo(text, other):
    expected = parse_each_line(text)
    engine._parse_plan_line.cache_clear()
    assert parse_plan_text(text) == expected  # cold
    assert parse_plan_text(text) == expected  # warm with these lines
    parse_plan_text(other)
    assert parse_plan_text(text + "\n" + other) == expected + parse_each_line(other)


@settings(deadline=None)
@given(_PLAN_TEXT, _PLAN_TEXT)
def test_merging_no_lines_returns_the_plan(base_text, revision_text):
    plan = PlanTable()
    for text in (base_text, revision_text):
        merge_revision(plan, parse_plan_text(text))
        frozen, version, rendered = plan.freeze(), plan.version, render_plan(plan)
        assert merge_revision(plan, []) == []
        assert (plan.freeze(), plan.version, render_plan(plan)) == (frozen, version, rendered)


@settings(deadline=None)
@given(_PLAN_TEXT, _PLAN_TEXT)
def test_merge_revision_keeps_a_plan_valid(base_text, revision_text):
    plan = PlanTable()
    merge_revision(plan, parse_plan_text(base_text))
    base = plan.freeze()
    assume(base.roots)
    assert validate_plan(base) == []
    merge_revision(plan, parse_plan_text(revision_text))
    merged = plan.freeze()
    assert validate_plan(merged) == []
    for node in walk(base):  # nothing is dropped, and a finished task stays finished
        kept = find(merged, node.id)
        assert kept is not None
        if node.status is not TaskStatus.TODO:
            assert kept.status is node.status
    # A merged plan renders to text that parses back to the same plan.
    version = plan.version
    merge_revision(plan, parse_plan_text(render_plan(plan)))
    assert (plan.freeze(), plan.version) == (merged, version)


@settings(deadline=None)
@given(_PLAN_TEXT, _PLAN_TEXT, st.integers(1, 6))
def test_merge_revision_keeps_a_plan_within_the_bound(base_text, revision_text, bound):
    """A merge's one drop warning counts the lines whose id the plan lacks after it, and it
    reads "past the plan's" exactly when the plan is full; otherwise they are orphans."""
    with mock.patch.object(engine, "MAX_PLAN_TASKS", bound):
        plan = PlanTable()
        for text in (base_text, revision_text):
            lines = parse_plan_text(text)
            warnings = merge_revision(plan, lines)
            assert len(plan.tasks) <= bound
            assert sum("past the plan's" in w for w in warnings) <= 1
            assert not plan.tasks or validate_plan(plan.freeze()) == []
            unplaced = sum(line.id not in plan.tasks for line in lines)
            drops = [w for w in warnings if "past the plan's" in w or "orphan task(s)" in w]
            assert len(drops) == (unplaced > 0)
            for drop in drops:  # "N new task(s) past the plan's B ignored" or "dropped N orphan..."
                assert int(drop.removeprefix("dropped ").split()[0]) == unplaced
                assert ("past the plan's" in drop) == (len(plan.tasks) == bound)


def test_orphans_of_one_reply_give_one_warning():
    plan = PlanTable()
    merge_revision(plan, parse_plan_text("1 root [to-do]"))
    long_id = "9." + "1" * 5000  # the plan-line grammar does not bound an id's length
    reply = "\n".join([f"{long_id} orphan [to-do]"]
                      + [f"9.{n} orphan task {n} [to-do]" for n in range(2999)])
    warnings = merge_revision(plan, parse_plan_text(reply))
    assert warnings == [f"dropped 3000 orphan task(s), the first {long_id[:60]} "
                        "(no parent in plan)"]
    assert len(warnings[0]) <= WARNING_CAP and plan.ids() == ["1"]


def test_orphans_are_not_carried_through_the_deferral_passes():
    """A chain listed deepest first takes one pass per level; lines that can never attach
    leave after the first pass instead of riding along on every later one."""
    chain = [".".join("1" * depth) for depth in range(MAX_PLAN_TASKS - 1, 0, -1)]
    lines = ([TaskNode(task_id, "step") for task_id in chain]
             + [TaskNode(f"9.{n}", "orphan") for n in range(30000)])
    plan = PlanTable()
    started = time.perf_counter()
    warnings = merge_revision(plan, lines)
    assert time.perf_counter() - started < 2
    assert len(plan.tasks) == MAX_PLAN_TASKS - 1
    assert warnings == ["dropped 30000 orphan task(s), the first 9.0 (no parent in plan)"]


def test_an_orphan_deferred_before_the_plan_fills_counts_as_dropped():
    with mock.patch.object(engine, "MAX_PLAN_TASKS", 3):
        plan = PlanTable()
        merge_revision(plan, parse_plan_text("1 root [to-do]"))
        warnings = merge_revision(plan, parse_plan_text(
            "9.1 orphan [to-do]\n1.1 a [to-do]\n1.2 b [to-do]\n1.3 c [to-do]"))
    assert plan.ids() == ["1", "1.1", "1.2"]
    assert warnings == ["2 new task(s) past the plan's 3 ignored"]


def test_orphan_warning_quotes_the_first_unplaced_line_in_reply_order():
    """``9.1`` and ``2.1`` are stranded in the first pass and ``2.1.1`` only in the second,
    yet the warning quotes ``2.1.1``, which the reply lists first."""
    plan = PlanTable()
    text = "2.1.1 b [to-do]\n1.1 a [to-do]\n9.1 c [to-do]\n2.1 d [to-do]\n1 root [to-do]"
    warnings = merge_revision(plan, parse_plan_text(text))
    assert plan.ids() == ["1", "1.1"]
    assert warnings == ["dropped 3 orphan task(s), the first 2.1.1 (no parent in plan)"]


@pytest.mark.parametrize("text", ["2  [todo]", "1.1 \t[done] - result: x", "3 \xa0 [failed]"])
def test_blank_description_is_not_a_plan_line(text):
    assert parse_plan_text(text) == []


def test_port_with_more_digits_than_int_reads_is_a_warning():
    text = "Exploited: CVE-NA\nService: x\nPort: " + "9" * 5000
    findings, warnings = parse_extractor_blocks(text)
    assert findings[0].port is None
    assert len(warnings) == 1 and len(warnings[0]) <= WARNING_CAP


# Non-ASCII letters that Unicode case folding matches to ASCII ones under re.IGNORECASE.
_LOOKALIKES = {"i": "ıİ", "s": "ſ", "k": "K"}
_KEYWORD = re.compile(r"<([^<>]*)>")  # marks the keywords of a grammar line below
# parser of model text: (its documented errors, grammar lines)
_KEYWORD_GRAMMARS = {
    parse_plan_text: ((), [
        "1 Recon [<to-do>]", "1.1 Scan ports [<failed>] - <result>: port 21 open",
        "2. Exploit the file service [<Done>] - <Result>: root shell", "2.1 Try it [<FAILED>]",
        "3 Report [<todo>]"]),
    parse_extractor_blocks: ((), [
        "<Exploited>: <CVE>-2011-2523", "<exploited>: <cve-na>", "<EXPLOITED>: <CVE>-2017-0144",
        "service: ftp", "Port: 21", "description: backdoor", "method: msf"]),
    lambda reply: parse_evaluation(reply, CostPolicy().tiers()): ((ValueError,), [
        "<effect>: <full>", "<Effect>: <partial> 40%", "<EFFECT>: <negative> 25",
        "<effect>: <zero>", "<cost>: <high>", "<Cost>: <low>", "<cost>: <Moderate>",
        "<COST>: 3.5", "<targets>: CVE-2011-2523@ftp:21"]),
}


def _foldable(line: str) -> list[int]:
    """The indices in ``line`` of the keyword letters that have a lookalike."""
    return [m.start(1) + i for m in _KEYWORD.finditer(line) for i, c in enumerate(m[1])
            if c.lower() in _LOOKALIKES]


@st.composite
def _one_keyword_folded(draw, grammar: list[str]) -> tuple[str, str]:
    """A reply of grammar lines in which one keyword letter is a lookalike, and the same
    reply with that line left blank."""
    lines = draw(st.lists(st.sampled_from(grammar), max_size=5))
    line = draw(st.sampled_from([g for g in grammar if _foldable(g)]))
    at = draw(st.sampled_from(_foldable(line)))
    folded = line[:at] + draw(st.sampled_from(_LOOKALIKES[line[at].lower()])) + line[at + 1:]
    where = draw(st.integers(0, len(lines)))
    return tuple("\n".join(_KEYWORD.sub(r"\1", g) for g in [*lines[:where], middle, *lines[where:]])
                 for middle in (folded, ""))


def _outcome(parse, errors, reply):
    """What ``parse`` returns for ``reply``, or the type of the documented error it raises."""
    try:
        return parse(reply)
    except errors as exc:
        return type(exc)


@pytest.mark.parametrize("parse", list(_KEYWORD_GRAMMARS),
                         ids=["plan", "extractor", "evaluation"])
@settings(deadline=None)
@given(data=st.data())
def test_a_keyword_with_a_folding_lookalike_is_no_keyword(parse, data):
    """Keywords are ASCII: the line of a folded keyword reads as a blank line, so the parser
    raises only its documented error and returns nothing read from that keyword."""
    errors, grammar = _KEYWORD_GRAMMARS[parse]
    folded, blanked = data.draw(_one_keyword_folded(grammar))
    assert _outcome(parse, errors, folded) == _outcome(parse, errors, blanked)


@st.composite
def _folded(draw, keyword: str) -> str:
    """``keyword`` in some ASCII case with one letter swapped for a lookalike."""
    word = draw(st.sampled_from([keyword.lower(), keyword.upper(), keyword.title()]))
    at = draw(st.sampled_from([i for i, c in enumerate(word) if c.lower() in _LOOKALIKES]))
    return word[:at] + draw(st.sampled_from(_LOOKALIKES[word[at].lower()])) + word[at + 1:]


@settings(deadline=None)
@given(_folded("msfconsole"), st.sampled_from([":", " : ", ":\t"]),
       st.text(st.characters(blacklist_characters="$"), max_size=20))
@example("mſfconsole", ":", " use exploit/unix/ftp/vsftpd_234_backdoor")
def test_a_folded_msfconsole_prefix_is_a_shell_command(prefix, separator, rest):
    """A folded ``msfconsole:`` is no console prefix: the body stays one shell command,
    verbatim, and nothing is warned of."""
    body = f"{prefix}{separator}{rest}".strip()
    assert parse_commands(f"${body}$") == ([Command(body, CommandChannel.SHELL)], [])


@settings(deadline=None)
@given(_folded("CVSS"), st.lists(st.sampled_from(["The vector is:", "", "no vector here"]),
                                 max_size=3))
def test_a_folded_cvss_prefix_is_never_located(prefix, prose):
    """The estimator's ``CVSS:`` is ASCII: a folded one locates no vector line, so the whole
    reply is read, and it gives no metrics and one error."""
    vector = prefix + CONSERVATIVE_DEFAULT_VECTOR.removeprefix("CVSS")
    metrics, errors = _parse_vector_reply("\n".join([*prose, vector]))
    assert metrics is None and len(errors) == 1


@pytest.mark.parametrize("module", [engine, remediation])
def test_every_case_folded_pattern_keeps_its_keywords_ascii(module):
    """Each ``re.compile(..., re.IGNORECASE)`` of a parser module holds ``(?a:``, the scope in
    which its keywords match ASCII letters only."""
    source = Path(module.__file__).read_text(encoding="utf-8")
    patterns = [ast.get_source_segment(source, node.args[0]) for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "re.compile"
                and "IGNORECASE" in ast.unparse(node)]
    assert patterns and all("(?a:" in pattern for pattern in patterns)
