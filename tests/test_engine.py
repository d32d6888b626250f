"""Pentest loop mechanics: parsers, plan updates, termination, scripted runs."""

import contextlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from penheal.engine import (
    Command,
    CommandChannel,
    EngineError,
    IterationLog,
    PlanExhaustedError,
    counterfactual_update,
    execute,
    initial_plan,
    mark_task,
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
from penheal.gateway import AgentRole, Gateway, ScriptedBackend
from penheal.model import AttackPlan, RunConfig, TaskStatus, Vulnerability, validate_plan
from penheal.simulator import SimulatorBackend


def gw(scripts):
    return Gateway(ScriptedBackend(scripts))


def plan_from(text):
    plan, warnings = merge_revision(AttackPlan(), parse_plan_text(text))
    assert not warnings
    return plan


BASIC_PLAN = plan_from(
    """
1 Reconnaissance [to-do]
  1.1 Scan ports [to-do]
2 Exploitation [to-do]
  2.1 Exploit the ftp backdoor [to-do]
  2.3 Probe the web application [to-do]
"""
)


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
        commands, _ = parse_commands("$sleep 1$")
        assert commands[0].timeout_seconds == 120

    def test_bodies_contain_no_delimiters(self):
        commands, _ = parse_commands("$a$ $b$ $msfconsole: c$")
        assert all("$" not in c.raw for c in commands)

    @pytest.mark.parametrize("raw", ["", "  ", "\n\t"])
    def test_blank_command_rejected(self, raw):
        with pytest.raises(ValueError):
            Command(raw)
        with pytest.raises(ValueError):
            Command(raw=raw, channel=CommandChannel.MSFCONSOLE)


class TestPlanText:
    def test_render_parse_round_trip(self):
        lines = parse_plan_text(render_plan(BASIC_PLAN))
        rebuilt, warnings = merge_revision(AttackPlan(), lines)
        assert rebuilt == BASIC_PLAN
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
        plan, warnings = merge_revision(
            AttackPlan(), parse_plan_text("1 root [to-do]\n9.9 orphan [to-do]"))
        assert plan.find("9.9") is None
        assert any("orphan" in w for w in warnings)

    def test_child_listed_before_parent_still_attaches(self):
        plan, warnings = merge_revision(
            AttackPlan(), parse_plan_text("1.1 child [to-do]\n1 parent [to-do]"))
        assert plan.find("1.1") is not None
        assert not warnings


class TestMergeRevision:
    def test_marks_and_extends(self):
        revision = parse_plan_text(
            "2.1 Exploit the ftp backdoor [completed] - result: root shell\n"
            "2.4 Enumerate NFS exports [to-do]"
        )
        merged, warnings = merge_revision(BASIC_PLAN, revision)
        assert merged.find("2.1").status is TaskStatus.COMPLETED
        assert merged.find("2.1").result_summary == "root shell"
        assert merged.find("2.4").status is TaskStatus.TODO
        assert merged.find("1.1").status is TaskStatus.TODO  # untouched tasks kept
        assert not warnings
        assert validate_plan(merged) == []

    def test_completed_tasks_never_revert(self):
        plan = merge_revision(
            BASIC_PLAN, parse_plan_text("2.1 x [completed] - result: done")
        )[0]
        merged, warnings = merge_revision(plan, parse_plan_text("2.1 x [to-do]"))
        assert merged.find("2.1").status is TaskStatus.COMPLETED
        assert any("revert" in w for w in warnings)

    def test_failed_task_may_gain_todo_children(self):
        plan = merge_revision(
            BASIC_PLAN, parse_plan_text("2.1 x [failed] - result: refused")
        )[0]
        merged, _ = merge_revision(
            plan, parse_plan_text("2.1.1 gather service version first [to-do]")
        )
        assert merged.find("2.1.1").status is TaskStatus.TODO
        assert merged.find("2.1").status is TaskStatus.FAILED

    def test_completed_without_result_gets_placeholder(self):
        merged, _ = merge_revision(BASIC_PLAN, parse_plan_text("2.1 x [completed]"))
        assert merged.find("2.1").result_summary == "(no result provided)"


class TestSelectNextTask:
    def test_single_candidate_regardless_of_reply(self):
        plan = plan_from("1 only [to-do]")
        gateway = gw({AgentRole.PLANNER: ["pick task 7.7 please"]})
        assert select_next_task(plan, gateway) == "1"

    def test_scripted_choice_among_candidates(self):
        gateway = gw({AgentRole.PLANNER: ["Next task: 2.3"]})
        assert select_next_task(BASIC_PLAN, gateway) == "2.3"

    def test_non_todo_reply_falls_back_depth_first(self):
        plan = merge_revision(
            BASIC_PLAN, parse_plan_text("1.1 Scan ports [completed] - result: done")
        )[0]
        gateway = gw({AgentRole.PLANNER: ["1.1"]})
        assert select_next_task(plan, gateway) == "1"  # first to-do depth-first

    def test_exhausted_plan_signals(self):
        plan = plan_from("1 done [completed] - result: r")
        with pytest.raises(PlanExhaustedError):
            select_next_task(plan, gw({AgentRole.PLANNER: ["1"]}))


class TestUpdatePlan:
    def test_success_marks_completed(self):
        reply = render_plan(BASIC_PLAN).replace(
            "2.1 Exploit the ftp backdoor [to-do]",
            "2.1 Exploit the ftp backdoor [completed] - result: session opened",
        )
        gateway = gw({AgentRole.PLANNER: [reply]})
        merged, warnings = update_plan(BASIC_PLAN, "2.1", "shell opened", gateway)
        assert merged.find("2.1").status is TaskStatus.COMPLETED
        assert merged.find("2.1").result_summary == "session opened"
        assert not warnings

    def test_failure_adds_subtask(self):
        reply = render_plan(BASIC_PLAN).replace(
            "2.1 Exploit the ftp backdoor [to-do]",
            "2.1 Exploit the ftp backdoor [failed] - result: connection refused",
        ) + "\n  2.1.1 Check whether the service is filtered [to-do]"
        gateway = gw({AgentRole.PLANNER: [reply]})
        merged, _ = update_plan(BASIC_PLAN, "2.1", "refused", gateway)
        assert merged.find("2.1").status is TaskStatus.FAILED
        assert merged.find("2.1.1").status is TaskStatus.TODO

    def test_unparseable_reply_fails_task(self):
        gateway = gw({AgentRole.PLANNER: ["I cannot do that."]})
        merged, warnings = update_plan(BASIC_PLAN, "2.1", "whatever", gateway)
        assert merged.find("2.1").status is TaskStatus.FAILED
        assert merged.find("2.1").result_summary == "planner-parse-failure"

    def test_planner_leaving_task_todo_forces_failed(self):
        gateway = gw({AgentRole.PLANNER: [render_plan(BASIC_PLAN)]})
        merged, warnings = update_plan(BASIC_PLAN, "2.1", "summary text", gateway)
        assert merged.find("2.1").status is TaskStatus.FAILED
        assert any("did not settle" in w for w in warnings)

    def test_non_todo_target_rejected(self):
        plan = mark_task(BASIC_PLAN, "2.1", TaskStatus.COMPLETED, "done")
        with pytest.raises(EngineError):
            update_plan(plan, "2.1", "s", gw({AgentRole.PLANNER: ["x"]}))


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
    def test_prompt_lists_findings_in_port_service_format(self):
        backend = ScriptedBackend({AgentRole.PLANNER: [render_plan(BASIC_PLAN)]})
        gateway = Gateway(backend)
        counterfactual_update(BASIC_PLAN, FINDINGS, gateway)
        request = gateway.transcript.exchanges[0].messages[-1].content
        assert "Port 21/ftp:\n  vsFTPd version 2.3.4 backdoor (CVE-2011-2523)" in request
        assert "Port 6667/irc:\n  Trojaned version of UnrealIRCd (CVE-2010-2075)" in request
        assert "Port 80/http:\n  SQL injection points (Unknown CVE)" in request
        assert "mark them as completed" in request
        assert "as if they do not exist" in request

    def test_scripted_revision_adds_task(self):
        reply = render_plan(BASIC_PLAN) + "\n  2.4 Enumerate NFS exports [to-do]"
        gateway = gw({AgentRole.PLANNER: [reply]})
        merged, _ = counterfactual_update(BASIC_PLAN, FINDINGS[:1], gateway)
        assert merged.find("2.4").status is TaskStatus.TODO

    def test_straggler_tasks_force_marked(self):
        # The planner "forgets" to mark the ftp task; the engine must not.
        gateway = gw({AgentRole.PLANNER: [render_plan(BASIC_PLAN)]})
        merged, _ = counterfactual_update(BASIC_PLAN, FINDINGS, gateway)
        node = merged.find("2.1")  # "Exploit the ftp backdoor"
        assert node.status is TaskStatus.COMPLETED
        assert "already exploited" in node.result_summary

    def test_unparseable_revision_keeps_plan_and_still_verifies(self):
        gateway = gw({AgentRole.PLANNER: ["cannot comply"]})
        merged, warnings = counterfactual_update(BASIC_PLAN, FINDINGS, gateway)
        assert any("unparseable" in w for w in warnings)
        assert merged.find("2.1").status is TaskStatus.COMPLETED  # verification ran

    def test_requires_findings(self):
        with pytest.raises(EngineError):
            counterfactual_update(BASIC_PLAN, [], gw({}))


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

    def test_alternate_method_key_and_unknown_attrs(self):
        findings, _ = parse_extractor_blocks(
            "Exploited: CVE-NA\nservice: ssh\nport: 22\n"
            "exploitation_method: password guessing\nseverity: who knows"
        )
        assert findings[0].exploitation_method == "password guessing"

    def test_missing_service_defaults_unknown(self):
        findings, _ = parse_extractor_blocks("Exploited: CVE-NA\nport: 80")
        assert findings[0].service == "unknown"


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
    def test_timeout_returns_marker(self):
        from penheal.backends import ShellBackend

        output, status = execute(
            Command("sleep 999", timeout_seconds=1), ShellBackend()
        )
        assert status == "timeout"
        assert "timed out" in output

    def test_timeout_kills_background_children(self, tmp_path):
        from penheal.backends import ShellBackend

        pidfile = tmp_path / "pid"
        command = Command(f"sleep 30 & echo $! > {pidfile}; wait", timeout_seconds=1)
        _, status = ShellBackend().run(command)
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

    def test_msfconsole_batch_reaches_console_verbatim(self, tmp_path):
        from penheal.backends import ShellBackend

        console = tmp_path / "msfconsole"
        console.write_text('#!/bin/sh\nprintf \'%s\\n\' "$@"\n')
        console.chmod(0o755)
        batch = "echo $HOME `id` \"quoted\""
        output, status = ShellBackend(str(console)).run(
            Command(batch, channel=CommandChannel.MSFCONSOLE, timeout_seconds=10)
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
                        counterfactual_issued=False, command_count=1, plan_changed=plan_changed)


def loop_config(window=5, max_iterations=30):
    return RunConfig(target_address="x", no_new_finding_window=window,
                     max_iterations=max_iterations)


DONE_PLAN = plan_from("1 a [completed] - result: r")


class TestShouldTerminate:
    def test_all_completed(self):
        assert termination_reason(DONE_PLAN, [], 1, loop_config()) == "plan-exhausted"

    def test_stagnation_window(self):
        timeline = [iteration_log()] * 5
        assert termination_reason(BASIC_PLAN, timeline, 6, loop_config()) == "stagnation"

    def test_new_finding_resets_streak(self):
        timeline = [iteration_log()] * 4 + [iteration_log(1, True)]
        assert termination_reason(BASIC_PLAN, timeline, 5, loop_config()) is None

    def test_plan_change_resets_streak(self):
        timeline = [iteration_log()] * 4 + [iteration_log(0, True)] + [iteration_log()] * 4
        assert termination_reason(BASIC_PLAN, timeline, 9, loop_config()) is None

    def test_iteration_budget(self):
        assert termination_reason(BASIC_PLAN, [], 30, loop_config()) == "budget-exhausted"

    def test_no_stagnation_before_the_first_iteration(self):
        assert termination_reason(BASIC_PLAN, [], 0, loop_config(window=0)) is None
        assert termination_reason(BASIC_PLAN, [iteration_log()], 1,
                                  loop_config(window=0)) == "stagnation"

    @given(
        signals=st.lists(st.tuples(st.integers(0, 1), st.booleans()), max_size=12),
        window=st.integers(-2, 14),
        max_iterations=st.integers(1, 15),
        exhausted=st.booleans(),
    )
    def test_matches_brute_force_reading(self, signals, window, max_iterations, exhausted):
        logs = [iteration_log(new, changed) for new, changed in signals]
        plan = DONE_PLAN if exhausted else BASIC_PLAN
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
        assert termination_reason(plan, logs, len(logs), config) == expected


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
        result = run_pentest(config, SimulatorBackend(), gateway, None)
        assert result.findings == []
        assert result.termination_reason == "plan-exhausted"
        exploitation = [
            n for n in result.plan.walk() if n.id.startswith("4")
        ]
        assert all(n.status is TaskStatus.FAILED for n in exploitation)
        assert all(not log.counterfactual_issued for log in result.iterations)
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
        result = run_pentest(config, SimulatorBackend(), gateway, None)
        assert len(result.findings) == 1
        assert result.findings[0].key == ("CVE-2011-2523", "ftp", 21)
        counterfactuals = [log for log in result.iterations if log.counterfactual_issued]
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
        result = run_pentest(config, SimulatorBackend(), gateway, None)
        node = result.plan.find("1.1")
        assert node.status is TaskStatus.FAILED
        assert "no executable command" in node.result_summary

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
        first = run_pentest(config, SimulatorBackend(), build_gateway(), None)
        second = run_pentest(config, SimulatorBackend(), build_gateway(), None)
        assert first.findings == second.findings
        assert [f.key_str for f in first.findings] == ["CVE-2011-2523@ftp:21"]


class TestInitialPlan:
    def test_unparseable_init_raises(self):
        gateway = gw({AgentRole.PLANNER: ["no plan here"]})
        with pytest.raises(EngineError):
            initial_plan(RunConfig(target_address="10.0.2.4"), gateway)

    def test_init_builds_tree(self):
        gateway = gw({AgentRole.PLANNER: ["1 Recon [to-do]\n  1.1 Scan [to-do]"]})
        plan, warnings = initial_plan(RunConfig(target_address="10.0.2.4"), gateway)
        assert plan.find("1.1") is not None
        assert validate_plan(plan) == []


class TestBackendAbort:
    def test_unreachable_backend_aborts_with_partial_history(self):
        from penheal.engine import BackendUnreachableError

        class Flaky:
            def __init__(self):
                self.calls = 0

            def run(self, command):
                self.calls += 1
                if self.calls >= 2:
                    raise BackendUnreachableError("target host vanished")
                return "first output", 0

        init = "1 Recon [to-do]\n  1.1 Scan the target [to-do]"
        gateway = gw(
            {
                AgentRole.PLANNER: [init, "1.1"],
                AgentRole.EXECUTOR: ["$first$ $second$"],
                AgentRole.SUMMARIZER: ["summary of first"],
            }
        )
        config = RunConfig(target_address="10.0.2.4")
        with pytest.raises(BackendUnreachableError) as exc_info:
            run_pentest(config, Flaky(), gateway, None)
        history = exc_info.value.history
        assert history is not None
        assert len(history.records) == 1
        assert history.records[0].raw_output == "first output"
