"""Pentest loop mechanics: parsers, plan updates, termination, scripted runs."""

import contextlib
import enum
import json
import os
import re
import signal
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from plan_invariants import find, validate_plan, walk

from penheal.engine import (
    MAX_SERVICE_CHARS,
    PLAN_LINE_MEMO,
    Command,
    CommandChannel,
    EngineError,
    ExecutionRecord,
    IterationLog,
    PlanTable,
    _covers,
    _finding_matcher,
    _parse_plan_line,
    counterfactual_update,
    execute,
    initial_plan,
    merge_revision,
    parse_commands,
    parse_extractor_blocks,
    parse_plan_text,
    render_plan,
    run_pentest,
    select_next_task,
    summarize,
    termination_reason,
    update_plan,
)
from penheal.gateway import AgentRole, Gateway, ReplayBackend, ScriptedBackend, load_transcript
from penheal.model import (
    CVE_NA,
    RunConfig,
    TaskStatus,
    Vulnerability,
    decode,
    encode,
    json_text,
    load_json,
)
from penheal.knowledge import KnowledgeBase
from penheal.simulator import SimulatorBackend, load_host_model


HOST = load_host_model()


def gw(scripts):
    return Gateway(ScriptedBackend(scripts))


def plan_from(text):
    plan = PlanTable()
    assert merge_revision(plan, parse_plan_text(text)) == []
    return plan


def basic_plan():
    """A fresh table each time: the loop's calls edit the plan they are given."""
    return plan_from(
        """
1 Reconnaissance [to-do]
  1.1 Scan ports [to-do]
2 Exploitation [to-do]
  2.1 Exploit the ftp backdoor [to-do]
  2.3 Probe the web application [to-do]
"""
    )


def node(plan, task_id):
    """The task as the frozen plan holds it, or None."""
    return find(plan.freeze(), task_id)


class TestParseCommands:
    @pytest.mark.parametrize(
        "text,expected",
        [
            # the two canonical forms
            ("$nmap --script vuln 10.0.2.4$", [("nmap --script vuln 10.0.2.4", "shell")]),
            (
                "run $msfconsole: use exploit/multi/samba/usermap_script$ now",
                [("use exploit/multi/samba/usermap_script", "msfconsole")],
            ),
            # ordering and multiplicity
            ("$a1$ then $b2$", [("a1", "shell"), ("b2", "shell")]),
            ("$a1$$b2$", [("a1", "shell"), ("b2", "shell")]),
            (
                "$cmd1$ mid $msfconsole: run$ end $cmd2$",
                [("cmd1", "shell"), ("run", "msfconsole"), ("cmd2", "shell")],
            ),
            # whitespace and casing
            ("$  spaced   out  $", [("spaced   out", "shell")]),
            ("$MSFCONSOLE:   search samba$", [("search samba", "msfconsole")]),
            ("$msfconsole : use x$", [("use x", "msfconsole")]),
            ("prefix text $ls -la$ suffix", [("ls -la", "shell")]),
            ("'$whoami$'", [("whoami", "shell")]),
            ("$echo \"a b\"$", [('echo "a b"', "shell")]),
            # msfconsole keyword not at the start stays shell
            ("$echo msfconsole: hi$", [("echo msfconsole: hi", "shell")]),
            # multi-line command body preserved
            ("$nmap -p 1-1000\n 10.0.2.4$", [("nmap -p 1-1000\n 10.0.2.4", "shell")]),
            (
                "$msfconsole: use exploit/unix/ftp/vsftpd_234_backdoor; set RHOSTS 10.0.2.4; exploit$",
                [
                    (
                        "use exploit/unix/ftp/vsftpd_234_backdoor; set RHOSTS 10.0.2.4; exploit",
                        "msfconsole",
                    )
                ],
            ),
        ],
    )
    def test_extraction(self, text, expected):
        commands, _ = parse_commands(text)
        assert [(c.raw, c.channel.value) for c in commands] == expected

    @pytest.mark.parametrize(
        "text",
        ["no dollar signs here", "", "   \n  ", "plain prose, nothing to run"],
    )
    def test_no_command_signal(self, text):
        commands, warnings = parse_commands(text)
        assert commands == []

    @pytest.mark.parametrize(
        "text,expected_commands",
        [
            ("unpaired $tail", 0),
            ("$ok$ and $dangling", 1),
            ("$$", 0),
            ("$msfconsole:$", 0),
            ("$ $", 0),
        ],
    )
    def test_bad_fragments_warn_not_crash(self, text, expected_commands):
        commands, warnings = parse_commands(text)
        assert len(commands) == expected_commands
        assert warnings

    def test_default_timeout(self):
        from penheal import backends

        assert backends.COMMAND_TIMEOUT_SECONDS == 120

    def test_bodies_contain_no_delimiters(self):
        commands, _ = parse_commands("$a$ $b$ $msfconsole: c$")
        assert all("$" not in c.raw for c in commands)

    @pytest.mark.parametrize("raw", ["", "  ", "\n\t"])
    def test_blank_command_rejected(self, raw):
        assert parse_commands(f"${raw}$ $msfconsole:{raw}$") == (
            [], ["empty command between $ delimiters", "empty msfconsole command"])


class TestPlanText:
    def test_render_parse_round_trip(self):
        plan, rebuilt = basic_plan(), PlanTable()
        warnings = merge_revision(rebuilt, parse_plan_text(render_plan(plan)))
        assert rebuilt.freeze() == plan.freeze()
        assert not warnings

    def test_status_synonyms(self):
        lines = parse_plan_text(
            "1 a [todo]\n2 b [done] - result: r\n3 c [to do]\n4 d [completed] - result: r2"
        )
        assert [l.status for l in lines] == [
            TaskStatus.TODO,
            TaskStatus.COMPLETED,
            TaskStatus.TODO,
            TaskStatus.COMPLETED,
        ]

    def test_prose_lines_ignored(self):
        lines = parse_plan_text("Sure, here is the plan:\n1 task one [to-do]\nGood luck!")
        assert len(lines) == 1

    def test_orphan_dropped_with_warning(self):
        plan = PlanTable()
        warnings = merge_revision(plan, parse_plan_text("1 root [to-do]\n9.9 orphan [to-do]"))
        assert node(plan, "9.9") is None
        assert any("orphan" in w for w in warnings)

    def test_child_listed_before_parent_still_attaches(self):
        plan = PlanTable()
        warnings = merge_revision(plan, parse_plan_text("1.1 child [to-do]\n1 parent [to-do]"))
        assert node(plan, "1.1") is not None
        assert not warnings

    def test_grandchild_listed_before_its_ancestors_attaches(self):
        """The orphan rule looks at the whole revision, in any order."""
        plan = PlanTable()
        text = "1.1.1 grandchild [to-do]\n1.1 child [to-do]\n1 root [to-do]"
        assert merge_revision(plan, parse_plan_text(text)) == []
        assert render_plan(plan).splitlines() == [
            "1 root [to-do]", "  1.1 child [to-do]", "    1.1.1 grandchild [to-do]"]

    def test_a_merge_runs_no_enum_code(self):
        """A plan line's status text is a dict lookup; ``status.value`` runs enum.py."""
        plan = PlanTable()
        first = parse_plan_text("1 Recon [to-do]\n1.1 Scan [to-do]\n2 Exploit [to-do]")
        revision = parse_plan_text("1 Recon [completed] - result: done\n1.1 Scan [failed]\n"
                                   "2 Exploit [done]\n2.1 Shell [todo]")
        called = []
        sys.setprofile(lambda frame, event, arg: event == "call" and called.append(
            frame.f_code.co_filename))
        try:
            merge_revision(plan, first)
            merge_revision(plan, revision)
        finally:
            sys.setprofile(None)
        assert render_plan(plan).splitlines()[:3] == [
            "1 Recon [completed] - result: done", "  1.1 Scan [failed] - result: "
            "(no result provided)", "2 Exploit [completed] - result: (no result provided)"]
        assert called and enum.__file__ not in called


class TestMergeRevision:
    def test_marks_and_extends(self):
        revision = parse_plan_text(
            "2.1 Exploit the ftp backdoor [completed] - result: root shell\n"
            "2.4 Enumerate NFS exports [to-do]"
        )
        merged = basic_plan()
        warnings = merge_revision(merged, revision)
        assert node(merged, "2.1").status is TaskStatus.COMPLETED
        assert node(merged, "2.1").result_summary == "root shell"
        assert node(merged, "2.4").status is TaskStatus.TODO
        assert node(merged, "1.1").status is TaskStatus.TODO  # untouched tasks kept
        assert not warnings
        assert validate_plan(merged.freeze()) == []

    def test_completed_tasks_never_revert(self):
        plan = basic_plan()
        merge_revision(plan, parse_plan_text("2.1 x [completed] - result: done"))
        warnings = merge_revision(plan, parse_plan_text("2.1 x [to-do]"))
        assert node(plan, "2.1").status is TaskStatus.COMPLETED
        assert any("revert" in w for w in warnings)

    def test_failed_task_may_gain_todo_children(self):
        plan = basic_plan()
        merge_revision(plan, parse_plan_text("2.1 x [failed] - result: refused"))
        merge_revision(plan, parse_plan_text("2.1.1 gather service version first [to-do]"))
        assert node(plan, "2.1.1").status is TaskStatus.TODO
        assert node(plan, "2.1").status is TaskStatus.FAILED

    def test_completed_without_result_gets_placeholder(self):
        plan = basic_plan()
        merge_revision(plan, parse_plan_text("2.1 x [completed]"))
        assert node(plan, "2.1").result_summary == "(no result provided)"


class TestSelectNextTask:
    def test_single_candidate_regardless_of_reply(self):
        plan = plan_from("1 only [to-do]")
        gateway = gw({AgentRole.PLANNER: ["pick task 7.7 please"]})
        assert select_next_task(plan, gateway) == "1"

    def test_scripted_choice_among_candidates(self):
        gateway = gw({AgentRole.PLANNER: ["Next task: 2.3"]})
        assert select_next_task(basic_plan(), gateway) == "2.3"

    def test_non_todo_reply_falls_back_depth_first(self):
        plan = basic_plan()
        merge_revision(plan, parse_plan_text("1.1 Scan ports [completed] - result: done"))
        gateway = gw({AgentRole.PLANNER: ["1.1"]})
        assert select_next_task(plan, gateway) == "1"  # first to-do depth-first


class TestUpdatePlan:
    def test_success_marks_completed(self):
        plan = basic_plan()
        reply = render_plan(plan).replace(
            "2.1 Exploit the ftp backdoor [to-do]",
            "2.1 Exploit the ftp backdoor [completed] - result: session opened",
        )
        gateway = gw({AgentRole.PLANNER: [reply]})
        warnings = update_plan(plan, "2.1", "shell opened", gateway)
        assert node(plan, "2.1").status is TaskStatus.COMPLETED
        assert node(plan, "2.1").result_summary == "session opened"
        assert not warnings

    def test_failure_adds_subtask(self):
        plan = basic_plan()
        reply = render_plan(plan).replace(
            "2.1 Exploit the ftp backdoor [to-do]",
            "2.1 Exploit the ftp backdoor [failed] - result: connection refused",
        ) + "\n  2.1.1 Check whether the service is filtered [to-do]"
        gateway = gw({AgentRole.PLANNER: [reply]})
        update_plan(plan, "2.1", "refused", gateway)
        assert node(plan, "2.1").status is TaskStatus.FAILED
        assert node(plan, "2.1.1").status is TaskStatus.TODO

    def test_unparseable_reply_fails_task(self):
        gateway = gw({AgentRole.PLANNER: ["I cannot do that."]})
        plan = basic_plan()
        warnings = update_plan(plan, "2.1", "whatever", gateway)
        assert node(plan, "2.1").status is TaskStatus.FAILED
        assert node(plan, "2.1").result_summary == "planner-parse-failure"

    def test_planner_leaving_task_todo_forces_failed(self):
        plan = basic_plan()
        gateway = gw({AgentRole.PLANNER: [render_plan(plan)]})
        warnings = update_plan(plan, "2.1", "summary text", gateway)
        assert node(plan, "2.1").status is TaskStatus.FAILED
        assert any("did not settle" in w for w in warnings)


FINDINGS = [
    Vulnerability(
        id="CVE-2011-2523",
        service="ftp",
        port=21,
        description="vsFTPd version 2.3.4 backdoor",
    ),
    Vulnerability(
        id="CVE-2010-2075",
        service="irc",
        port=6667,
        description="Trojaned version of UnrealIRCd",
    ),
    Vulnerability(id="CVE-NA", service="http", port=80, description="SQL injection points"),
]


class TestCounterfactual:
    def test_prompt_lists_findings_in_port_service_format(self, tmp_path):
        plan = basic_plan()
        backend = ScriptedBackend({AgentRole.PLANNER: [render_plan(plan)]})
        gateway = Gateway(backend, record_path=tmp_path / "t.jsonl")
        counterfactual_update(plan, FINDINGS, gateway)
        request = load_transcript(tmp_path / "t.jsonl")[0].messages[-1].content
        assert "Port 21/ftp:\n  vsFTPd version 2.3.4 backdoor (CVE-2011-2523)" in request
        assert "Port 6667/irc:\n  Trojaned version of UnrealIRCd (CVE-2010-2075)" in request
        assert "Port 80/http:\n  SQL injection points (Unknown CVE)" in request
        assert "mark them as completed" in request
        assert "as if they do not exist" in request

    def test_scripted_revision_adds_task(self):
        plan = basic_plan()
        reply = render_plan(plan) + "\n  2.4 Enumerate NFS exports [to-do]"
        gateway = gw({AgentRole.PLANNER: [reply]})
        counterfactual_update(plan, FINDINGS[:1], gateway)
        assert node(plan, "2.4").status is TaskStatus.TODO

    def test_straggler_tasks_force_marked(self):
        # The planner "forgets" to mark the ftp task; the engine must not.
        plan = basic_plan()
        gateway = gw({AgentRole.PLANNER: [render_plan(plan)]})
        counterfactual_update(plan, FINDINGS, gateway)
        task = node(plan, "2.1")  # "Exploit the ftp backdoor"
        assert task.status is TaskStatus.COMPLETED
        assert "already exploited" in task.result_summary

    def test_unparseable_revision_keeps_plan_and_still_verifies(self):
        gateway = gw({AgentRole.PLANNER: ["cannot comply"]})
        plan = basic_plan()
        warnings = counterfactual_update(plan, FINDINGS, gateway)
        assert any("unparseable" in w for w in warnings)
        assert node(plan, "2.1").status is TaskStatus.COMPLETED  # verification ran

    def test_unnamed_finding_in_any_case_matches_by_service_and_port_only(self):
        plan = plan_from("1 Look up CVE-NA entries for the target [to-do]")
        gateway = gw({AgentRole.PLANNER: [render_plan(plan)]})
        finding = Vulnerability(id="cve-na", service="http", port=80)
        counterfactual_update(plan, [finding], gateway)
        assert node(plan, "1").status is TaskStatus.TODO

    def test_service_with_a_non_word_edge_is_force_marked(self):
        plan = plan_from("1 Brute-force the ftp? listener [to-do]")
        gateway = gw({AgentRole.PLANNER: [render_plan(plan)]})
        counterfactual_update(plan, [Vulnerability("CVE-NA", "ftp?")], gateway)
        assert node(plan, "1").status is TaskStatus.COMPLETED

    def test_a_task_is_checked_again_after_its_description_changes(self):
        """The coverage memo is keyed by the task's text, not its id: a to-do task the planner
        rewrites to name a found service is closed on the next check."""
        plan = plan_from("1 Probe the mail relay [to-do]")
        renamed = "1 Exploit the ftp backdoor [to-do]"
        gateway = gw({AgentRole.PLANNER: [render_plan(plan), renamed]})
        counterfactual_update(plan, FINDINGS[:1], gateway)
        assert node(plan, "1").status is TaskStatus.TODO
        counterfactual_update(plan, FINDINGS[:1], gateway)
        task = node(plan, "1")
        assert (task.description, task.status) == ("Exploit the ftp backdoor",
                                                    TaskStatus.COMPLETED)
        assert task.result_summary == "already exploited: CVE-2011-2523 on ftp (verified)"


def references_finding(description, finding):
    """The matcher's oracle: three separate checks, with the service bounded by ``\\b``."""
    text = description.lower()
    if finding.id.upper() != CVE_NA and finding.id.lower() in text:
        return True
    service = finding.service.strip().lower()
    if service and re.search(rf"\b{re.escape(service)}\b", text):
        return True
    if finding.port is not None and re.search(rf"\bport\s+{finding.port}\b", text):
        return True
    return False


_IDS = st.one_of(st.from_regex(r"CVE-\d{4}-\d{4,7}", fullmatch=True),
                 st.sampled_from([CVE_NA, "cve-na", "Cve-Na", "cve-2011-2523"]))
# Services that start and end with a word character, where \b and the lookarounds agree.
_SERVICES = st.one_of(
    st.sampled_from(["", "  ", "ftp", " FTP ", "ssl/http", "ms.sql", "ms-sql-s", "x11", "irc"]),
    st.from_regex(r"[a-z0-9_](?:[a-z0-9_./+?*()\[\] -]{0,6}[a-z0-9_])?", fullmatch=True),
)
_PORTS = st.one_of(st.none(), st.sampled_from([0, 21, 65535]), st.integers(0, 65535))


@st.composite
def finding_and_description(draw):
    finding = Vulnerability(draw(_IDS), draw(_SERVICES), draw(_PORTS))
    service = finding.service.strip()
    pieces = [finding.id, finding.id.lower(), service, service.upper(), "port ", "Port  ",
              str(finding.port), "ports", "s", "1", "_", ".", "/", "?", " ", "\t", "CVE-2011-2523"]
    fragment = st.one_of(st.sampled_from(pieces), st.text(max_size=4))
    return finding, "".join(draw(st.lists(fragment, max_size=12)))


class TestFindingMatcher:
    @settings(max_examples=300)
    @given(finding_and_description())
    @example((Vulnerability(CVE_NA, "", 21), "Probe port 211"))
    @example((Vulnerability(CVE_NA, "", 21), "Probe sport 21 and port\t21"))
    @example((Vulnerability(CVE_NA, "ms.sql", 0), "Dump msXsql, then the ms.sql_1 port 0x"))
    @example((Vulnerability(CVE_NA, "FTP", None), "Fetch over sftp or ftps, not FTP"))
    def test_agrees_with_the_three_checks_for_word_edged_services(self, case):
        finding, description = case
        matched = _finding_matcher(finding)(description.lower()) is not None
        assert matched == references_finding(description, finding)

    @pytest.mark.parametrize("service, description", [
        ("ftp?", "Brute-force the ftp? listener"),
        ("c++", "Fuzz the C++ runtime"),
        ("c++", "c++"),
    ])
    def test_service_with_a_non_word_edge_matches(self, service, description):
        finding = Vulnerability(CVE_NA, service)
        assert _finding_matcher(finding)(description.lower())
        assert not references_finding(description, finding)  # what \b missed

    @pytest.mark.parametrize("description", ["the sftp? listener", "the ftp?x listener"])
    def test_service_inside_a_longer_word_does_not_match(self, description):
        assert _finding_matcher(Vulnerability(CVE_NA, "ftp?"))(description) is None

    def test_finding_with_nothing_to_match_matches_nothing(self):
        matches = _finding_matcher(Vulnerability("cve-na", " "))
        assert matches("") is None and matches("cve-na port 21") is None


class TestExtractorBlocks:
    def test_standard_cve_block(self):
        findings, warnings = parse_extractor_blocks(
            "Exploited: CVE-2011-2523\nservice: ftp\nport: 21\n"
            "description: vsFTPd backdoor\nmethod: msf module"
        )
        assert findings == [
            Vulnerability(
                id="CVE-2011-2523",
                service="ftp",
                port=21,
                description="vsFTPd backdoor",
                exploitation_method="msf module",
            )
        ]
        assert not warnings

    def test_cve_na_block(self):
        findings, _ = parse_extractor_blocks(
            "Exploited: CVE-NA\nservice: http\nport: 80\ndescription: SQL injection"
        )
        assert findings[0].id == "CVE-NA"

    def test_bracketed_backdoor_form(self):
        findings, _ = parse_extractor_blocks(
            "Exploited: [backdoor/CVE-2011-2523]\nservice: ftp\nport: 21"
        )
        assert findings[0].id == "CVE-2011-2523"

    def test_two_blocks(self):
        findings, _ = parse_extractor_blocks(
            "Exploited: CVE-2011-2523\nservice: ftp\nport: 21\n\n"
            "Exploited: CVE-NA\nservice: http\nport: 80"
        )
        assert [f.id for f in findings] == ["CVE-2011-2523", "CVE-NA"]

    def test_duplicate_blocks_deduplicated(self):
        text = "Exploited: CVE-NA\nservice: http\nport: 80\n"
        findings, _ = parse_extractor_blocks(text + "\n" + text)
        assert len(findings) == 1

    def test_none_and_empty(self):
        assert parse_extractor_blocks("NONE") == ([], [])
        assert parse_extractor_blocks("  none \n") == ([], [])
        assert parse_extractor_blocks("") == ([], [])

    def test_lowercase_header_accepted(self):
        findings, _ = parse_extractor_blocks("exploited: cve-na\nservice: nfs\nport: 2049")
        assert findings[0].id == "CVE-NA"
        assert findings[0].service == "nfs"

    def test_bad_port_warns(self):
        findings, warnings = parse_extractor_blocks(
            "Exploited: CVE-NA\nservice: x\nport: unknown-port"
        )
        assert findings[0].port is None
        assert any("port" in w for w in warnings)

    @pytest.mark.parametrize("port", ["\uff12\uff11", "\u0662\u0661"],
                             ids=["fullwidth", "arabic-indic"])
    def test_non_ascii_digit_port_warns(self, port):
        """A port is ASCII digits, as the simulator reads one from a command."""
        findings, warnings = parse_extractor_blocks(f"Exploited: CVE-NA\nport: {port}")
        assert findings[0].port is None
        assert warnings == [f"unparseable port {port!r} for CVE-NA"]

    def test_out_of_range_port_warns(self):
        findings, warnings = parse_extractor_blocks(
            "Exploited: CVE-NA\nservice: x\nport: 99999"
        )
        assert findings[0].port is None
        assert warnings

    def test_unrecognized_header_skipped_with_warning(self):
        findings, warnings = parse_extractor_blocks(
            "Exploited: something weird\nservice: x\nport: 1"
        )
        assert findings == []
        assert warnings

    @pytest.mark.parametrize("digits", ["1000117", "10001170", "2523" + "0" * 5000])
    def test_sequence_number_is_bounded(self, digits):
        findings, warnings = parse_extractor_blocks(f"Exploited: CVE-2017-{digits}\nPort: 21")
        if len(digits) <= 7:
            assert [f.id for f in findings] == [f"CVE-2017-{digits}"] and warnings == []
        else:  # not clipped to a shorter id: skipped with the clipped warning
            assert findings == []
            assert warnings == [f"skipped block with unrecognized id: {f'CVE-2017-{digits}'[:60]!r}"]

    def test_alternate_method_key_and_unknown_attrs(self):
        findings, _ = parse_extractor_blocks(
            "Exploited: CVE-NA\nservice: ssh\nport: 22\n"
            "exploitation_method: password guessing\nseverity: who knows"
        )
        assert findings[0].exploitation_method == "password guessing"

    def test_missing_service_defaults_unknown(self):
        findings, _ = parse_extractor_blocks("Exploited: CVE-NA\nport: 80")
        assert findings[0].service == "unknown"

    @pytest.mark.parametrize("service, kept", [
        ("h" * MAX_SERVICE_CHARS, "h" * MAX_SERVICE_CHARS),
        ("H" * 20_000, "h" * MAX_SERVICE_CHARS),
        ("x" * (MAX_SERVICE_CHARS - 1) + " tail", "x" * (MAX_SERVICE_CHARS - 1)),
    ], ids=["at-the-bound", "long", "clipped-at-a-space"])
    def test_service_name_clipped_to_its_bound_with_one_warning(self, service, kept):
        findings, warnings = parse_extractor_blocks(
            f"Exploited: CVE-NA\nservice: {service}\nport: 80\n\n"
            f"Exploited: CVE-2011-2523\nservice: {service}\nport: 21")
        assert [f.service for f in findings] == [kept, kept]
        extra = len(service) - MAX_SERVICE_CHARS
        assert warnings == ([] if extra <= 0 else [
            f"{extra} service character(s) of {i} past the first {MAX_SERVICE_CHARS} ignored"
            for i in ("CVE-NA", "CVE-2011-2523")])


class TestSummarize:
    def test_empty_output_fixed_string_without_llm(self):
        gateway = gw({})  # any call would raise
        assert summarize("cmd", "   ", gateway) == "(no output)"

    def test_scripted_summary_passthrough(self):
        gateway = gw({AgentRole.SUMMARIZER: ["ports 21 and 80 open"]})
        assert summarize("nmap", "raw scan text", gateway) == "ports 21 and 80 open"

    def test_overlong_reply_capped_at_1200(self):
        gateway = gw({AgentRole.SUMMARIZER: ["y" * 2000]})
        result = summarize("cmd", "x" * 10000, gateway)
        assert len(result) == 1200
        assert result.endswith("...[truncated]")


def _gone_or_zombie(pid):
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except FileNotFoundError:
        return True


def _live_processes(argv):
    """Pids of the live processes whose command line is ``argv`` (a zombie's reads empty)."""
    wanted = "".join(f"{arg}\0" for arg in argv).encode()
    pids = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        with contextlib.suppress(OSError), open(f"/proc/{entry}/cmdline", "rb") as cmdline:
            if cmdline.read() == wanted:
                pids.append(int(entry))
    return pids


# Runs a 20 MB command through execute; prints [ru_maxrss growth in KiB, output, status].
MEASURE_BIG_OUTPUT = r"""
import json, resource, sys
sys.path.insert(0, sys.argv[1])
from penheal.backends import ShellBackend
from penheal.engine import Command, execute
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
output, status = execute(Command("head -c 20000000 /dev/zero | tr '\\0' x"), ShellBackend())
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps([after - before, output, status]))
"""


class TestExecute:
    def test_timeout_returns_marker(self, monkeypatch):
        from penheal import backends

        monkeypatch.setattr(backends, "COMMAND_TIMEOUT_SECONDS", 1)
        output, status = execute(Command("sleep 999"), backends.ShellBackend())
        assert status == "timeout"
        assert "timed out after 1s" in output

    def test_timeout_kills_background_children(self, tmp_path, monkeypatch):
        from penheal import backends

        monkeypatch.setattr(backends, "COMMAND_TIMEOUT_SECONDS", 1)
        pidfile = tmp_path / "pid"
        command = Command(f"sleep 30 & echo $! > {pidfile}; wait")
        _, status = backends.ShellBackend().run(command)
        assert status == "timeout"
        pid = int(pidfile.read_text())
        try:
            # SIGKILL is delivered asynchronously; allow a moment for it to land.
            deadline = time.monotonic() + 5
            while not _gone_or_zombie(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert _gone_or_zombie(pid)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)

    @pytest.mark.parametrize("command", ["sleep {} >/dev/null 2>&1 & echo started",
                                         "sleep {} & echo started"])
    def test_command_ends_with_its_shell(self, command, monkeypatch):
        """A background child neither outlives its command nor holds it open to the timeout."""
        from penheal import backends

        monkeypatch.setattr(backends, "COMMAND_TIMEOUT_SECONDS", 10)
        sleep = ["sleep", f"9{os.getpid()}{len(command)}"]  # unique to this test
        started = time.monotonic()
        result = backends.ShellBackend().run(Command(command.format(sleep[1])))
        elapsed = time.monotonic() - started
        try:
            deadline = time.monotonic() + 5  # SIGKILL lands asynchronously
            while _live_processes(sleep) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert _live_processes(sleep) == []
        finally:
            for pid in _live_processes(sleep):
                os.kill(pid, signal.SIGKILL)
        assert result == ("started\n", 0)
        assert elapsed < 5

    def test_missing_console_binary_is_a_record(self, tmp_path, monkeypatch):
        from penheal import backends

        missing = str(tmp_path / "msfconsole")
        monkeypatch.setattr(backends, "MSFCONSOLE", missing)
        command = Command("version", channel=CommandChannel.MSFCONSOLE)
        output, status = execute(command, backends.ShellBackend())
        assert status == -1
        assert output == f"execution error: [Errno 2] No such file or directory: '{missing}'"

    def test_big_output_keeps_memory_bounded(self):
        # A child's ru_maxrss starts at the RSS of the process that forked it,
        # so the measuring process is forked from a fresh, small interpreter.
        launch = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"
        src = str(Path(__file__).resolve().parent.parent / "src")
        result = subprocess.run(
            [sys.executable, "-c", launch, sys.executable, "-c", MEASURE_BIG_OUTPUT, src],
            capture_output=True, text=True, timeout=60, check=True,
        )
        grown_kib, output, status = json.loads(result.stdout)
        assert status == 0
        assert output == "x" * (64 * 1024 - len("...[truncated]")) + "...[truncated]"
        assert grown_kib < 20 * 1024

    def test_msfconsole_batch_reaches_console_verbatim(self, tmp_path, monkeypatch):
        from penheal import backends

        console = tmp_path / "msfconsole"
        console.write_text('#!/bin/sh\nprintf \'%s\\n\' "$@"\n')
        console.chmod(0o755)
        monkeypatch.setattr(backends, "MSFCONSOLE", str(console))
        monkeypatch.setattr(backends, "COMMAND_TIMEOUT_SECONDS", 10)
        batch = "echo $HOME `id` \"quoted\""
        output, status = backends.ShellBackend().run(
            Command(batch, channel=CommandChannel.MSFCONSOLE)
        )
        assert status == 0
        assert output.splitlines() == ["-q", "-x", f"{batch}; exit"]

    def test_spawn_failure_becomes_record(self):
        class Broken:
            def run(self, command):
                raise OSError("spawn failed")

        output, status = execute(Command("x"), Broken())
        assert status == -1
        assert "spawn failed" in output

    def test_output_capped_at_64k(self):
        class Chatty:
            def run(self, command):
                return "z" * 100_000, 0

        output, _ = execute(Command("x"), Chatty())
        assert len(output) == 64 * 1024
        assert output.endswith("...[truncated]")


def iteration_log(new_findings=0, plan_changed=False):
    return IterationLog(iteration=1, task_id="1",
                        new_finding_keys=("CVE-NA@ftp:21",) * new_findings,
                        command_count=1, plan_changed=plan_changed)


def loop_config(window=5, max_iterations=30):
    return RunConfig(target_address="x", no_new_finding_window=window,
                     max_iterations=max_iterations)


DONE_PLAN = plan_from("1 a [completed] - result: r")


class TestShouldTerminate:
    def test_all_completed(self):
        assert termination_reason(DONE_PLAN, [], loop_config()) == "plan-exhausted"

    def test_stagnation_window(self):
        timeline = [iteration_log()] * 5
        assert termination_reason(basic_plan(), timeline, loop_config()) == "stagnation"

    def test_new_finding_resets_streak(self):
        timeline = [iteration_log()] * 4 + [iteration_log(1, True)]
        assert termination_reason(basic_plan(), timeline, loop_config()) is None

    def test_plan_change_resets_streak(self):
        timeline = [iteration_log()] * 4 + [iteration_log(0, True)] + [iteration_log()] * 4
        assert termination_reason(basic_plan(), timeline, loop_config()) is None

    def test_iteration_budget(self):
        timeline = [iteration_log(1, True)] * 30  # each iteration found something
        assert termination_reason(basic_plan(), timeline, loop_config()) == "budget-exhausted"

    def test_no_stagnation_before_the_first_iteration(self):
        assert termination_reason(basic_plan(), [], loop_config(window=0)) is None
        assert termination_reason(basic_plan(), [iteration_log()],
                                  loop_config(window=0)) == "stagnation"

    @given(
        signals=st.lists(st.tuples(st.integers(0, 1), st.booleans()), max_size=12),
        window=st.integers(-2, 14),
        max_iterations=st.integers(1, 15),
        exhausted=st.booleans(),
    )
    def test_matches_brute_force_reading(self, signals, window, max_iterations, exhausted):
        logs = [iteration_log(new, changed) for new, changed in signals]
        plan = DONE_PLAN if exhausted else basic_plan()
        quiet = [not (new or changed) for new, changed in signals]
        if len(logs) >= max_iterations:
            expected = "budget-exhausted"
        elif exhausted:
            expected = "plan-exhausted"
        elif logs and len(logs) >= window and all(quiet[len(quiet) - max(window, 0):]):
            expected = "stagnation"
        else:
            expected = None
        config = loop_config(window, max_iterations)
        assert termination_reason(plan, logs, config) == expected


class TestScriptedRuns:
    def test_zero_exploit_run(self):
        # Everything fails; the loop ends with all exploitation tasks failed.
        init = "1 Recon [to-do]\n  1.1 Scan [to-do]\n4 Exploitation [to-do]\n  4.1 Attack the mail service [to-do]"
        after_scan = (
            "1 Recon [completed] - result: scan done\n"
            "  1.1 Scan [completed] - result: ports listed\n"
            "4 Exploitation [to-do]\n  4.1 Attack the mail service [to-do]"
        )
        after_fail = after_scan.replace(
            "4 Exploitation [to-do]", "4 Exploitation [failed] - result: nothing worked"
        ).replace(
            "  4.1 Attack the mail service [to-do]",
            "  4.1 Attack the mail service [failed] - result: no session",
        )
        gateway = gw(
            {
                AgentRole.PLANNER: [init, "1.1", after_scan, "4.1", after_fail],
                AgentRole.EXECUTOR: [
                    "$nmap -p- 10.0.2.4$",
                    "$msfconsole: use exploit/unix/misc/nothing; set RHOSTS 10.0.2.4; exploit$",
                ],
                AgentRole.SUMMARIZER: ["ports listed", "exploit failed, no session"],
                AgentRole.EXTRACTOR: ["NONE", "NONE", "NONE"],
            }
        )
        config = RunConfig(target_address="10.0.2.4", no_new_finding_window=5)
        result = run_pentest(config, SimulatorBackend(HOST), gateway, KnowledgeBase())
        assert result.findings == []
        assert result.termination_reason == "plan-exhausted"
        exploitation = [
            n for n in walk(result.plan) if n.id.startswith("4")
        ]
        assert all(n.status is TaskStatus.FAILED for n in exploitation)
        assert all(not log.new_finding_keys for log in result.iterations)  # no counterfactual
        assert len(result.iterations) <= config.no_new_finding_window + 2

    def test_same_cve_twice_deduplicated_and_single_counterfactual(self):
        init = (
            "4 Exploitation [to-do]\n"
            "  4.1 Exploit the backdoor in the file service [to-do]\n"
            "  4.2 Re-run the module from the previous step [to-do]"
        )
        after1 = (
            "4 Exploitation [to-do]\n"
            "  4.1 Exploit the backdoor in the file service [completed] - result: root shell\n"
            "  4.2 Re-run the module from the previous step [to-do]"
        )
        after2 = after1.replace(
            "  4.2 Re-run the module from the previous step [to-do]",
            "  4.2 Re-run the module from the previous step [completed] - result: same shell",
        ).replace("4 Exploitation [to-do]", "4 Exploitation [completed] - result: done")
        block = (
            "Exploited: CVE-2011-2523\nservice: ftp\nport: 21\n"
            "description: vsFTPd backdoor\nmethod: msf"
        )
        command = "$msfconsole: use exploit/unix/ftp/vsftpd_234_backdoor; set RHOSTS 10.0.2.4; exploit$"
        gateway = gw(
            {
                AgentRole.PLANNER: [init, "4.1", after1, after1, "4.2", after2],
                AgentRole.EXECUTOR: [command, command],
                AgentRole.SUMMARIZER: ["root shell via backdoor", "root shell again"],
                AgentRole.EXTRACTOR: [block, block, block],
            }
        )
        config = RunConfig(target_address="10.0.2.4")
        result = run_pentest(config, SimulatorBackend(HOST), gateway, KnowledgeBase())
        assert len(result.findings) == 1
        assert result.findings[0].key == ("CVE-2011-2523", "ftp", 21)
        counterfactuals = [log for log in result.iterations if log.new_finding_keys]
        assert len(counterfactuals) == 1
        assert counterfactuals[0].iteration == 1

    def test_no_command_twice_fails_task(self):
        init = "1 Recon [to-do]\n  1.1 Scan the target [to-do]"
        gateway = gw(
            {
                AgentRole.PLANNER: [init, "1.1"],
                AgentRole.EXECUTOR: ["no commands to give", "still refusing"],
            }
        )
        config = RunConfig(target_address="10.0.2.4", max_iterations=1)
        result = run_pentest(config, SimulatorBackend(HOST), gateway, KnowledgeBase())
        task = find(result.plan, "1.1")
        assert task.status is TaskStatus.FAILED
        assert "no executable command" in task.result_summary

    @pytest.mark.parametrize("line", ["2. Old probe [faıled]", "2. Old probe [FAİLED]",
                                      "٢. Old probe [todo]"])
    def test_a_non_ascii_keyword_or_id_makes_no_plan_line(self, line):
        """Status words and task ids are ASCII: a dotless or dotted capital i folds to ``i``
        only in Unicode, and ``٢`` is a digit only in Unicode, so the line is skipped."""
        init = f"1 Recon [to-do]\n{line}"
        gateway = gw(
            {
                AgentRole.PLANNER: [init, "1", f"1 Recon [completed] - result: r\n{line}"],
                AgentRole.EXECUTOR: ["$nmap 10.0.0.1$"],
                AgentRole.SUMMARIZER: ["ports listed"],
                AgentRole.EXTRACTOR: ["NONE", "NONE"],
            }
        )
        config = RunConfig(target_address="10.0.0.1", max_iterations=1)
        result = run_pentest(config, SimulatorBackend(HOST), gateway, KnowledgeBase())
        assert [(n.id, n.status) for n in walk(result.plan)] == [("1", TaskStatus.COMPLETED)]

    def test_empty_executor_reply_is_asked_again(self):
        init = "1 Recon [to-do]\n  1.1 Scan the target [to-do]"
        done = "1 Recon [to-do]\n  1.1 Scan the target [completed] - result: ports listed"
        gateway = gw(
            {
                AgentRole.PLANNER: [init, "1.1", done],
                AgentRole.EXECUTOR: ["", "$nmap 10.0.0.1$"],
                AgentRole.SUMMARIZER: ["ports listed"],
                AgentRole.EXTRACTOR: ["NONE", "NONE"],
            }
        )
        config = RunConfig(target_address="10.0.0.1", max_iterations=1)
        result = run_pentest(config, SimulatorBackend(HOST), gateway, KnowledgeBase())
        assert [record.command for record in result.history] == ["nmap 10.0.0.1"]
        assert find(result.plan, "1.1").status is TaskStatus.COMPLETED

    def test_monotone_findings_and_replay_purity(self):
        # Same scripts twice produce identical findings lists.
        def build_gateway():
            init = "4 Exploitation [to-do]\n  4.1 Exploit the backdoor in the file service [to-do]"
            after = (
                "4 Exploitation [completed] - result: done\n"
                "  4.1 Exploit the backdoor in the file service [completed] - result: shell"
            )
            block = "Exploited: CVE-2011-2523\nservice: ftp\nport: 21"
            return gw(
                {
                    AgentRole.PLANNER: [init, "4.1", after, after],
                    AgentRole.EXECUTOR: [
                        "$msfconsole: use exploit/unix/ftp/vsftpd_234_backdoor; set RHOSTS 10.0.2.4; exploit$"
                    ],
                    AgentRole.SUMMARIZER: ["root shell"],
                    AgentRole.EXTRACTOR: [block, block],
                }
            )

        config = RunConfig(target_address="10.0.2.4")
        first = run_pentest(config, SimulatorBackend(HOST), build_gateway(), KnowledgeBase())
        second = run_pentest(config, SimulatorBackend(HOST), build_gateway(), KnowledgeBase())
        assert first.findings == second.findings
        assert [f.key_str for f in first.findings] == ["CVE-2011-2523@ftp:21"]

    def test_a_second_run_in_the_process_repeats_the_first(self):
        """The golden replay twice in one process: the same result, and the coverage memo
        starts empty each time, so the second run makes the first run's checks afresh."""
        from penheal.cli import _build_knowledge_base, bundled_fixture_path

        def run():
            gateway = Gateway(ReplayBackend(bundled_fixture_path("golden6.jsonl")))
            result = run_pentest(RunConfig(target_address="10.0.2.4"), SimulatorBackend(HOST),
                                 gateway, _build_knowledge_base(None))
            return result, _covers.cache_info()

        (first, first_memo), (second, second_memo) = run(), run()
        assert second == first
        assert sum(1 for log in first.iterations if log.new_finding_keys) == 6
        assert first_memo.misses > 0 and second_memo == first_memo

    def test_each_extractor_request_lists_its_iterations_commands(self):
        """An iteration's records are the tail of the one history list: its extractor request
        names just that iteration's commands, in order, and the final pass names them all."""

        class ExtractorRecorder(ScriptedBackend):
            def __init__(self, scripts):
                super().__init__(scripts)
                self.extractor_requests = []

            def complete(self, role, model, messages):
                if role is AgentRole.EXTRACTOR:
                    self.extractor_requests.append(messages[-1].content)
                return super().complete(role, model, messages)

        init = "1 Recon [to-do]\n  1.1 Scan [to-do]\n  1.2 Probe [to-do]"
        after1 = "1 Recon [to-do]\n  1.1 Scan [completed] - result: r\n  1.2 Probe [to-do]"
        after2 = ("1 Recon [completed] - result: r\n  1.1 Scan [completed] - result: r\n"
                  "  1.2 Probe [completed] - result: r")
        backend = ExtractorRecorder({
            AgentRole.PLANNER: [init, "1.1", after1, "1.2", after2],
            AgentRole.EXECUTOR: ["$nmap -p- 10.0.2.4$ $msfconsole: search vsftpd$",
                                 "$nmap -sV 10.0.2.4$"],
            AgentRole.SUMMARIZER: ["ports listed", "module found", "versions listed"],
            AgentRole.EXTRACTOR: ["NONE", "NONE", "NONE"],
        })
        config = RunConfig(target_address="10.0.2.4")
        result = run_pentest(config, SimulatorBackend(HOST), Gateway(backend), KnowledgeBase())

        def commands_in(request):
            return [line for line in request.splitlines() if line.startswith("Command: ")]

        assert [commands_in(request) for request in backend.extractor_requests] == [
            ["Command: nmap -p- 10.0.2.4", "Command: search vsftpd"],
            ["Command: nmap -sV 10.0.2.4"],
            ["Command: nmap -p- 10.0.2.4", "Command: search vsftpd", "Command: nmap -sV 10.0.2.4"],
        ]
        assert [log.command_count for log in result.iterations] == [2, 1]
        assert len(result.history) == sum(log.command_count for log in result.iterations)
        assert backend.remaining() == {}

    def test_each_run_starts_with_an_empty_line_memo(self):
        first_plan = "1 Recon [to-do]\n  1.1 Scan [to-do]"
        first_done = "1 Recon [done] - result: r\n  1.1 Scan [done] - result: r"
        second_plan = "2 Exploit [to-do]\n  2.1 Attack the file service [to-do]"
        second_done = "2 Exploit [done] - result: r\n  2.1 Attack the file service [failed]"

        def run(init, after, task_id):
            gateway = gw({AgentRole.PLANNER: [init, task_id, after],
                          AgentRole.EXECUTOR: ["$nmap -p- 10.0.2.4$"],
                          AgentRole.SUMMARIZER: ["nothing"],
                          AgentRole.EXTRACTOR: ["NONE", "NONE"]})
            config = RunConfig(target_address="10.0.2.4")
            run_pentest(config, SimulatorBackend(HOST), gateway, KnowledgeBase())

        run(first_plan, first_done, "1.1")
        run(second_plan, second_done, "2.1")
        second_lines = set((second_plan + "\n" + second_done).splitlines())
        assert _parse_plan_line.cache_info().currsize == len(second_lines) <= PLAN_LINE_MEMO
        hits = _parse_plan_line.cache_info().hits
        for line in second_lines:
            _parse_plan_line(line)
        assert _parse_plan_line.cache_info().hits == hits + len(second_lines)


class TestExecutionRecordCodec:
    """A history.jsonl line is an ``ExecutionRecord`` written by the codec."""

    def test_golden_history_lines_round_trip_to_the_same_bytes(self):
        path = Path(__file__).resolve().parent / "data" / "golden-run" / "history.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines
        for line in lines:
            record = load_json(line, partial(decode, ExecutionRecord))
            assert json_text(encode(record)) == line

    @pytest.mark.parametrize("status", [0, -1, "timeout"])
    def test_exit_status_takes_an_int_or_a_string(self, status):
        record = ExecutionRecord("id", CommandChannel.MSFCONSOLE, "out", "sum", status)
        data = encode(record)
        assert list(data) == ["command", "channel", "raw_output", "summary", "exit_status"]
        assert data["channel"] == "msfconsole" and data["exit_status"] == status
        assert decode(ExecutionRecord, data) == record

    @pytest.mark.parametrize("status", [1.5, True, None, []])
    def test_exit_status_refuses_any_other_type(self, status):
        data = encode(ExecutionRecord("id", CommandChannel.SHELL, "", "", 0))
        with pytest.raises(ValueError, match=r"ExecutionRecord\.exit_status: .*int.*str"):
            decode(ExecutionRecord, {**data, "exit_status": status})


class TestInitialPlan:
    def test_unparseable_init_raises(self):
        gateway = gw({AgentRole.PLANNER: ["no plan here"]})
        with pytest.raises(EngineError):
            initial_plan(RunConfig(target_address="10.0.2.4"), gateway)

    def test_init_builds_tree(self):
        gateway = gw({AgentRole.PLANNER: ["1 Recon [to-do]\n  1.1 Scan [to-do]"]})
        plan, warnings = initial_plan(RunConfig(target_address="10.0.2.4"), gateway)
        assert node(plan, "1.1") is not None
        assert validate_plan(plan.freeze()) == []
