"""Deterministic simulated victim host.

A host model lists services, their weaknesses and the commands that reach
them; the bundled profile models the classic intentionally-vulnerable lab
VM, with ten weakness rows. Commands follow a small grammar (nmap scans,
one-shot msfconsole batches, credential attempts, crafted HTTP requests,
NFS mounts). The simulator is a pure function of (host, command), so
pipeline runs against it are exactly reproducible. Every output starts
with the backend's "[sim]" banner line, prepended to what either grammar
prints, so its text can never be confused with a real target.

The host model is declarative JSON; alternative hosts are authored in the
same dialect as the bundled one. Every host-specific line of output comes
from the host model: a service's ``vuln_script`` lines, a weakness's
``output`` lines and the extra ``modules`` that ``search`` lists.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from .model import BUNDLED_HOST, Command, CommandChannel, Record, Vulnerability, decode, load_json

EFFECT_SHELL = "shell"
EFFECT_ROOT_SHELL = "root-shell"


class SimWeakness(Record):
    row_id: str
    cve: str
    effect: str
    canonical_service: str
    canonical_port: int
    description: str
    method: str
    triggers: tuple[str, ...]
    output: tuple[str, ...] = ()  # printed after the effect lines when it is hit


class SimService(Record):
    name: str
    port: int
    banner: str = ""
    visible: bool = True
    weaknesses: tuple[SimWeakness, ...] = ()
    vuln_script: tuple[str, ...] = ()  # printed under its port by nmap --script vuln


class HostModel(Record):
    address: str
    services: tuple[SimService, ...]
    hostname: str = "victim"
    credentials: tuple[tuple[str, str], ...] = ()
    modules: tuple[str, ...] = ()  # search lists these besides the module triggers

    def visible_services(self) -> list[SimService]:
        return sorted((s for s in self.services if s.visible), key=lambda s: s.port)

    def weakness_rows(self) -> list[SimWeakness]:
        """Unique weakness rows in declaration order (the ground-truth inventory)."""
        rows: dict[str, SimWeakness] = {}
        for service in self.services:
            for w in service.weaknesses:
                rows.setdefault(w.row_id, w)  # an id's first row, where it first appears
        return list(rows.values())


def load_host_model(path: Optional[str | Path] = None) -> HostModel:
    """Load a host model file; without a path, loads the bundled profile.

    Raises OSError for an unreadable file, KeyError for a missing required
    field and ValueError for any other malformed content.
    """
    source = BUNDLED_HOST if path is None else Path(path)
    host = decode(HostModel, load_json(source.read_text(encoding="utf-8")))
    ports = [s.port for s in host.services]
    if len(ports) != len(set(ports)):
        raise ValueError("host model has duplicate service ports")
    return host


def ground_truth(host: HostModel) -> list[Vulnerability]:
    """The canonical weakness inventory used as ground truth for scoring."""
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


def _trigger_table(host: HostModel) -> list[tuple[SimWeakness, list[list[str]]]]:
    """Each weakness in scan order with each trigger's lowered '*'-split parts, per credential."""
    table = []
    for service in host.services:
        for weakness in service.weaknesses:
            patterns = []
            for trigger in weakness.triggers:
                if "{user}" in trigger or "{pass}" in trigger:
                    patterns += [trigger.replace("{user}", user).replace("{pass}", password)
                                 for user, password in host.credentials]
                else:
                    patterns.append(trigger)
            table.append((weakness, [[p for p in pattern.lower().split("*") if p]
                                     for pattern in patterns]))
    return table


def _match_weakness(sim: SimulatorBackend, lowered: str) -> Optional[SimWeakness]:
    """The first weakness with a pattern whose parts all appear, in order, in ``lowered``."""
    for weakness, patterns in sim.triggers:
        for parts in patterns:
            pos = 0
            for part in parts:
                pos = lowered.find(part, pos)
                if pos < 0:
                    break
                pos += len(part)
            else:
                return weakness
    return None


# ---------------------------------------------------------------------------
# Output rendering
# ---------------------------------------------------------------------------


def _nmap_output(host: HostModel, command_text: str) -> str:
    vuln_scripts = "--script" in command_text and "vuln" in command_text
    lines = [
        "Starting Nmap 7.94 ( https://nmap.org )",
        f"Nmap scan report for {host.address}",
        "Host is up (0.00042s latency).",
        "Not shown: closed tcp ports (reset)",
        "PORT     STATE SERVICE     VERSION",
    ]
    for service in host.visible_services():
        lines.append(f"{f'{service.port}/tcp':<9}open  {service.name:<12}{service.banner}")
        if vuln_scripts:
            lines.extend(service.vuln_script)
    lines.append("Nmap done: 1 IP address (1 host up) scanned")
    return "\n".join(lines)


def _success_output(host: HostModel, weakness: SimWeakness, via_msf: bool) -> str:
    """What hitting the weakness prints; through msfconsole, the session it opened first."""
    lines = []
    if via_msf and weakness.effect in (EFFECT_SHELL, EFFECT_ROOT_SHELL):
        lines += [
            f"[*] {host.address}:{weakness.canonical_port} - Exploit completed",
            "[*] Command shell session 1 opened",
        ]
    if weakness.effect == EFFECT_ROOT_SHELL:
        lines += [
            "# whoami",
            "root",
            "# id",
            "uid=0(root) gid=0(root) groups=0(root)",
            f"Root shell obtained via {weakness.description}.",
        ]
    elif weakness.effect == EFFECT_SHELL:
        if not via_msf:
            lines.append("Login successful.")
        lines += [
            "$ id",
            "uid=1000(msfadmin) gid=1000(msfadmin) groups=1000(msfadmin)",
            f"Shell access obtained: {weakness.description}.",
        ]
    else:
        lines.append(f"Information disclosed: {weakness.description}.")
    return "\n".join(lines + list(weakness.output))


# ---------------------------------------------------------------------------
# msfconsole batch grammar
# ---------------------------------------------------------------------------


def _module_catalog(host: HostModel) -> list[tuple[str, str]]:
    triggers = (t for service in host.services for w in service.weaknesses for t in w.triggers)
    names = {t for t in triggers if t.startswith(("exploit/", "auxiliary/"))}.union(host.modules)
    return [(name, name.lower()) for name in sorted(names)]


def _simulate_msf(sim: SimulatorBackend, batch: str) -> str:
    lines = ["msf6 >"]
    statements = [s.strip() for part in batch.splitlines() for s in part.split(";") if s.strip()]
    module = ""
    settings: dict[str, str] = {}
    for statement in statements:
        lowered = statement.lower()
        if lowered.startswith("search"):
            term = statement.split(None, 1)[1].strip().lower() if " " in statement else ""
            hits = [name for name, lowered_name in sim.catalog if term in lowered_name]
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
            lines.append(_run_msf_module(sim, module, settings))
        elif lowered in ("exit", "back", "quit"):
            continue
        else:
            lines.append(f"[-] Unknown command: {statement}")
    return "\n".join(lines)


def _run_msf_module(sim: SimulatorBackend, module: str, settings: dict[str, str]) -> str:
    host = sim.host
    if not module:
        return "[-] No module selected"
    rhost = settings.get("RHOSTS", settings.get("RHOST", ""))
    if rhost != host.address:
        return f"[-] Exploit failed: could not connect to {rhost or '(unset RHOST)'}"

    probe = module.lower()
    username = settings.get("USERNAME", "").lower()
    password = settings.get("PASSWORD", "").lower()
    if username or password:
        probe += f" {username} {password}"
    weakness = _match_weakness(sim, probe)
    if weakness is None:
        return "[-] Exploit completed, but no session was created."
    return _success_output(host, weakness, via_msf=True)


# ---------------------------------------------------------------------------
# Shell grammar
# ---------------------------------------------------------------------------


def _simulate_shell(sim: SimulatorBackend, text: str) -> str:
    host, lowered = sim.host, text.lower()
    first = lowered.split()[0] if lowered.split() else ""

    if first == "nmap":
        if host.address in text or "/24" in text:
            return _nmap_output(host, text)
        return "Note: Host seems down."

    if first == "ping":
        if host.address in text:
            return (f"64 bytes from {host.address}: icmp_seq=1 ttl=64 time=0.4 ms\n"
                    "1 packets transmitted, 1 received, 0% packet loss")
        return "ping: no route to host"

    if host.address not in text and first not in ("showmount", "mount"):
        return ("bash: connection attempt ignored: command does not reference the target "
                f"{host.address}")

    weakness = _match_weakness(sim, lowered)
    if weakness is not None:
        return _success_output(host, weakness, via_msf=False)

    if first == "showmount":
        return f"Export list for {host.address}:\n/ *"

    if first in ("ftp", "nc", "ncat", "telnet", "curl", "wget"):
        port = _port_in_command(text)
        service = _service_on_port(host, port) if port else None
        if first in ("curl", "wget") and service is None:
            service = _service_on_port(host, 80)
        if first == "ftp":
            service = _service_on_port(host, 21)
        if service is not None:
            return (f"Connected to {host.address}.\n"
                    f"{service.port}/{service.name} banner: {service.banner}")
        return "Connection refused"

    if first in ("ssh", "sshpass", "mysql", "psql"):
        return "Permission denied (publickey,password)."

    return f"bash: {first or text}: command not found"


def _port_in_command(text: str) -> Optional[int]:
    for token in text.replace(":", " ").split():
        if token.isascii() and token.isdigit():  # int() refuses `²`; `٢١` names no port
            value = int(token)
            if 0 < value <= 65535:
                return value
    return None


def _service_on_port(host: HostModel, port: Optional[int]) -> Optional[SimService]:
    return next((service for service in host.services if service.port == port), None)


class SimulatorBackend:
    """Executor backend over one (immutable) host; every output starts with its banner line."""

    def __init__(self, host: HostModel):
        self.host = host
        self.banner = f"[sim] simulated host {host.address} ({host.hostname} profile)\n"
        self.triggers = _trigger_table(host)
        self.catalog = _module_catalog(host)

    def run(self, command: Command) -> tuple[str, int]:
        grammar = _simulate_msf if command.channel is CommandChannel.MSFCONSOLE else _simulate_shell
        return self.banner + grammar(self, command.raw), 0
