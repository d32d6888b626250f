"""Deterministic simulated victim host.

Models the classic intentionally-vulnerable lab VM: ten weakness rows
reachable through a small command grammar (nmap scans, one-shot msfconsole
batches, credential attempts, crafted HTTP requests, NFS mounts). The
simulator is a pure function of (command, state), so pipeline runs against
it are exactly reproducible. Every output starts with a "[sim]" banner so
its text can never be confused with a real target.

The host model is declarative JSON; the bundled profile is the default and
alternative hosts can be authored in the same dialect.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path
from typing import NamedTuple, Optional

from .engine import Command, CommandChannel
from .model import Vulnerability, decode

EFFECT_SHELL = "shell"
EFFECT_ROOT_SHELL = "root-shell"
EFFECT_INFO_LEAK = "info-leak"


class SimWeakness(NamedTuple):
    row_id: str
    cve: str
    effect: str
    canonical_service: str
    canonical_port: int
    description: str
    method: str
    triggers: tuple[str, ...]


class SimService(NamedTuple):
    name: str
    port: int
    banner: str = ""
    visible: bool = True
    weaknesses: tuple[SimWeakness, ...] = ()


class SimState(NamedTuple):
    """Exploitation progress; the exploited set only ever grows.

    Entries are weakness row ids: two rows share port 80 with no public
    CVE, so (port, cve) pairs alone could not tell them apart.
    """

    exploited: frozenset[str] = frozenset()
    shells_open: int = 0

    def with_exploit(self, weakness: SimWeakness) -> "SimState":
        shells = self.shells_open
        if (
            weakness.effect in (EFFECT_SHELL, EFFECT_ROOT_SHELL)
            and weakness.row_id not in self.exploited
        ):
            shells += 1
        return SimState(exploited=self.exploited | {weakness.row_id}, shells_open=shells)

    def exploited_port_cve_pairs(self, host: "HostModel") -> set[tuple[int, str]]:
        rows = {w.row_id: w for w in host.weakness_rows()}
        return {
            (rows[r].canonical_port, rows[r].cve) for r in self.exploited if r in rows
        }


class HostModel(NamedTuple):
    address: str
    services: tuple[SimService, ...]
    hostname: str = "victim"
    credentials: tuple[tuple[str, str], ...] = ()

    def visible_services(self) -> list[SimService]:
        return sorted((s for s in self.services if s.visible), key=lambda s: s.port)

    def weakness_rows(self) -> list[SimWeakness]:
        """Unique weakness rows in declaration order (the ground-truth inventory)."""
        seen: set[str] = set()
        rows = []
        for service in self.services:
            for w in service.weaknesses:
                if w.row_id not in seen:
                    seen.add(w.row_id)
                    rows.append(w)
        return rows


def load_host_model(path: Optional[str | Path] = None) -> HostModel:
    """Load a host model file; without a path, loads the bundled profile.

    Raises OSError for an unreadable file, KeyError for a missing required
    field and ValueError for any other malformed content.
    """
    if path is None:
        source = resources.files("penheal.data").joinpath("hosts/metasploitable2.json")
    else:
        source = Path(path)
    host = decode(HostModel, json.loads(source.read_text(encoding="utf-8")))
    ports = [s.port for s in host.services]
    if len(ports) != len(set(ports)):
        raise ValueError("host model has duplicate service ports")
    return host


def ground_truth(host: Optional[HostModel] = None) -> list[Vulnerability]:
    """The canonical weakness inventory used as ground truth for scoring."""
    host = host or load_host_model()
    return [
        Vulnerability(
            id=row.cve,
            service=row.canonical_service,
            port=row.canonical_port,
            description=row.description,
            exploitation_method=row.method,
        )
        for row in host.weakness_rows()
    ]


# ---------------------------------------------------------------------------
# Trigger matching
# ---------------------------------------------------------------------------


def _pattern_matches(pattern: str, command: str) -> bool:
    """Wildcard containment: the '*'-separated parts appear in order."""
    parts = [p for p in pattern.lower().split("*") if p]
    pos = 0
    for part in parts:
        found = command.find(part, pos)
        if found < 0:
            return False
        pos = found + len(part)
    return True


def _expand_triggers(weakness: SimWeakness, credentials: tuple[tuple[str, str], ...]) -> list[str]:
    patterns = []
    for trigger in weakness.triggers:
        if "{user}" in trigger or "{pass}" in trigger:
            for user, password in credentials:
                patterns.append(trigger.replace("{user}", user).replace("{pass}", password))
        else:
            patterns.append(trigger)
    return patterns


def _match_weakness(host: HostModel, command_text: str) -> Optional[SimWeakness]:
    lowered = command_text.lower()
    for service in host.services:
        for weakness in service.weaknesses:
            for pattern in _expand_triggers(weakness, host.credentials):
                if _pattern_matches(pattern, lowered):
                    return weakness
    return None


# ---------------------------------------------------------------------------
# Output rendering
# ---------------------------------------------------------------------------


def _banner(host: HostModel) -> str:
    return f"[sim] simulated host {host.address} ({host.hostname} profile)"

_SERVICE_DISPLAY = {"domain": "domain", "nfs": "nfs", "http": "http"}

_VULN_SCRIPT_HINTS = {
    "ftp": [
        "| ftp-vsftpd-backdoor:",
        "|   VULNERABLE: vsFTPd version 2.3.4 backdoor",
        "|     IDs:  CVE:CVE-2011-2523",
    ],
    "irc": [
        "| irc-unrealircd-backdoor:",
        "|   Looks like a trojaned version of unrealircd (backdoor command execution)",
        "|     IDs:  CVE:CVE-2010-2075",
    ],
    "http": [
        "| http-sql-injection:",
        "|   Possible sqli for queries:",
        "|     /mutillidae/index.php?page=user-info.php&username='%20OR%20'1'%3D'1",
    ],
    "telnet": [
        "| telnet-encryption:",
        "|   Telnet server does not support encryption; default credentials commonly accepted",
    ],
    "nfs": [
        "| nfs-showmount:",
        "|   / *",
    ],
}


def _nmap_output(host: HostModel, command_text: str) -> str:
    vuln_scripts = "--script" in command_text and "vuln" in command_text
    lines = [
        _banner(host),
        "Starting Nmap 7.94 ( https://nmap.org )",
        f"Nmap scan report for {host.address}",
        "Host is up (0.00042s latency).",
        "Not shown: closed tcp ports (reset)",
        "PORT     STATE SERVICE     VERSION",
    ]
    for service in host.visible_services():
        display = _SERVICE_DISPLAY.get(service.name, service.name)
        lines.append(
            f"{service.port}/tcp".ljust(9)
            + "open  "
            + display.ljust(12)
            + service.banner
        )
        if vuln_scripts and service.name in _VULN_SCRIPT_HINTS:
            lines.extend(_VULN_SCRIPT_HINTS[service.name])
    lines.append("Nmap done: 1 IP address (1 host up) scanned")
    return "\n".join(lines)


def _success_output(
    host: HostModel, weakness: SimWeakness, via_msf: bool, with_banner: bool = True
) -> str:
    lines = [_banner(host)] if with_banner else []
    if weakness.effect == EFFECT_ROOT_SHELL:
        if via_msf:
            lines += [
                f"[*] {host.address}:{weakness.canonical_port} - Exploit completed",
                "[*] Command shell session 1 opened",
            ]
        lines += [
            "# whoami",
            "root",
            "# id",
            "uid=0(root) gid=0(root) groups=0(root)",
            f"Root shell obtained via {weakness.description}.",
        ]
    elif weakness.effect == EFFECT_SHELL:
        if via_msf:
            lines += [
                f"[*] {host.address}:{weakness.canonical_port} - Exploit completed",
                "[*] Command shell session 1 opened",
            ]
        else:
            lines.append("Login successful.")
        lines += [
            "$ id",
            "uid=1000(msfadmin) gid=1000(msfadmin) groups=1000(msfadmin)",
            f"Shell access obtained: {weakness.description}.",
        ]
    else:
        lines += [
            f"Information disclosed: {weakness.description}.",
        ]
        if weakness.row_id == "http-sql-injection":
            lines += [
                "username  password",
                "admin     adminpass",
                "john      hunter2",
                "(query returned 2 rows; injection confirmed)",
            ]
        elif weakness.row_id == "smtp-open-port":
            lines += [
                "220 metasploitable.localdomain ESMTP Postfix (Ubuntu)",
                "VRFY root",
                "252 2.0.0 root",
            ]
        elif weakness.row_id == "dns-poisoning":
            lines += [
                'version.bind. CH TXT "9.4.2"',
                "BIND 9.4.2 accepts recursive queries and is susceptible to cache poisoning.",
            ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# msfconsole batch grammar
# ---------------------------------------------------------------------------


def _module_catalog(host: HostModel) -> list[str]:
    modules = set()
    for service in host.services:
        for weakness in service.weaknesses:
            for trigger in weakness.triggers:
                if trigger.startswith(("exploit/", "auxiliary/")):
                    modules.add(trigger)
    modules.update(
        {
            "auxiliary/scanner/telnet/telnet_login",
            "auxiliary/scanner/ssh/ssh_login",
            "auxiliary/scanner/mysql/mysql_login",
            "auxiliary/scanner/postgres/postgres_login",
            "auxiliary/scanner/smtp/smtp_enum",
            "auxiliary/scanner/smtp/smtp_version",
            "auxiliary/admin/smb/samba_symlink_traversal",
        }
    )
    return sorted(modules)


def _simulate_msf(host: HostModel, state: SimState, batch: str) -> tuple[str, SimState]:
    lines = [_banner(host), "msf6 >"]
    statements = [s.strip() for part in batch.splitlines() for s in part.split(";") if s.strip()]
    module = ""
    settings: dict[str, str] = {}
    new_state = state
    for statement in statements:
        lowered = statement.lower()
        if lowered.startswith("search"):
            term = statement.split(None, 1)[1].strip().lower() if " " in statement else ""
            hits = [m for m in _module_catalog(host) if term in m.lower()]
            lines.append(f'msf6 > search {term}')
            if hits:
                lines.append("#  Name")
                lines.extend(f"{i}  {name}" for i, name in enumerate(hits))
            else:
                lines.append("No results from search")
        elif lowered.startswith("use "):
            module = statement.split(None, 1)[1].strip()
            settings = {}
            lines.append(f"msf6 > use {module}")
        elif lowered.startswith("set "):
            parts = statement.split(None, 2)
            if len(parts) == 3:
                settings[parts[1].upper()] = parts[2].strip()
                lines.append(f"{parts[1].upper()} => {parts[2].strip()}")
        elif lowered in ("exploit", "run", "exploit -j", "run -j"):
            output, new_state = _run_msf_module(host, new_state, module, settings)
            lines.append(output)
        elif lowered in ("exit", "back", "quit"):
            continue
        else:
            lines.append(f"[-] Unknown command: {statement}")
    return "\n".join(lines), new_state


def _run_msf_module(
    host: HostModel, state: SimState, module: str, settings: dict[str, str]
) -> tuple[str, SimState]:
    if not module:
        return "[-] No module selected", state
    rhost = settings.get("RHOSTS", settings.get("RHOST", ""))
    if rhost != host.address:
        return f"[-] Exploit failed: could not connect to {rhost or '(unset RHOST)'}", state

    probe = module.lower()
    username = settings.get("USERNAME", "").lower()
    password = settings.get("PASSWORD", "").lower()
    if username or password:
        probe += f" {username} {password}"
    weakness = _match_weakness(host, probe)
    if weakness is None:
        return "[-] Exploit completed, but no session was created.", state
    return (
        _success_output(host, weakness, via_msf=True, with_banner=False),
        state.with_exploit(weakness),
    )


# ---------------------------------------------------------------------------
# Shell grammar
# ---------------------------------------------------------------------------


def _simulate_shell(host: HostModel, state: SimState, text: str) -> tuple[str, SimState]:
    lowered = text.lower()
    first = lowered.split()[0] if lowered.split() else ""

    if first == "nmap":
        if host.address in text or "/24" in text:
            return _nmap_output(host, text), state
        return f"{_banner(host)}\nNote: Host seems down.", state

    if first == "ping":
        if host.address in text:
            return (
                f"{_banner(host)}\n64 bytes from {host.address}: icmp_seq=1 ttl=64 "
                "time=0.4 ms\n1 packets transmitted, 1 received, 0% packet loss",
                state,
            )
        return f"{_banner(host)}\nping: no route to host", state

    if host.address not in text and first not in ("showmount", "mount"):
        return (
            f"{_banner(host)}\nbash: connection attempt ignored: command does not "
            f"reference the target {host.address}",
            state,
        )

    weakness = _match_weakness(host, lowered)
    if weakness is not None:
        return _success_output(host, weakness, via_msf=False), state.with_exploit(weakness)

    if first == "showmount":
        return (
            f"{_banner(host)}\nExport list for {host.address}:\n/ *",
            state,
        )

    if first in ("ftp", "nc", "ncat", "telnet", "curl", "wget"):
        port = _port_in_command(text)
        service = _service_on_port(host, port) if port else None
        if first in ("curl", "wget") and service is None:
            service = _service_on_port(host, 80)
        if first == "ftp":
            service = _service_on_port(host, 21)
        if service is not None:
            return (
                f"{_banner(host)}\nConnected to {host.address}.\n"
                f"{service.port}/{service.name} banner: {service.banner}",
                state,
            )
        return f"{_banner(host)}\nConnection refused", state

    if first in ("ssh", "sshpass", "mysql", "psql"):
        return (
            f"{_banner(host)}\nPermission denied (publickey,password).",
            state,
        )

    return f"{_banner(host)}\nbash: {first or text}: command not found", state


def _port_in_command(text: str) -> Optional[int]:
    for token in text.replace(":", " ").split():
        if token.isdigit():
            value = int(token)
            if 0 < value <= 65535:
                return value
    return None


def _service_on_port(host: HostModel, port: Optional[int]) -> Optional[SimService]:
    for service in host.services:
        if service.port == port:
            return service
    return None


def simulate(command: Command, state: SimState, host: Optional[HostModel] = None) -> tuple[str, SimState]:
    """Run one command against the simulated host; pure in (command, state)."""
    host = host or load_host_model()
    if command.channel is CommandChannel.MSFCONSOLE:
        return _simulate_msf(host, state, command.raw)
    return _simulate_shell(host, state, command.raw)


class SimulatorBackend:
    """Executor backend adapter holding the evolving simulator state."""

    def __init__(self, host: Optional[HostModel] = None):
        self.host = host or load_host_model()
        self.state = SimState()

    def run(self, command: Command) -> tuple[str, int]:
        output, self.state = simulate(command, self.state, self.host)
        return output, 0
