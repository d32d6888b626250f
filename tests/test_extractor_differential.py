"""Differential property: the extractor parser reads every reply as its earlier form did.

``parse_extractor_blocks`` once returned early for a blank or ``NONE`` reply and matched
each block's header line twice, once to find the block and once to read its id. The
reference below is that earlier parser. It now has one path, on which a reply without an
``Exploited:`` header gives no block, and it keeps each header's id from the first match.
For replies of ``NONE`` in any case, of blocks with and without ids, and of lines padded
with spaces, ``\\xa0``, ``\\x85`` and other whitespace, both must give the same findings and
the same warnings.
"""

import re
from typing import Optional

from hypothesis import example, given, settings
from hypothesis import strategies as st

from penheal.engine import parse_extractor_blocks
from penheal.model import CVE_ID, CVE_NA, Vulnerability, dedupe_findings

# ---------------------------------------------------------------------------
# Reference implementation
# ---------------------------------------------------------------------------

_REF_EXPLOITED_LINE = re.compile(r"^\s*(?a:exploited)\s*:\s*(.+?)\s*$", re.IGNORECASE)
_REF_ATTR_LINE = re.compile(r"^\s*([A-Za-z_ ]+?)\s*:\s*(.*?)\s*$")
_REF_CVE_TOKEN = re.compile(rf"(?a:{CVE_ID})(?!\d)|(?a:{CVE_NA})", re.IGNORECASE)
_REF_MAX_FINDINGS = 32


def ref_parse_extractor_blocks(text: str) -> tuple[list[Vulnerability], list[str]]:
    stripped = text.strip()
    if not stripped or stripped.upper() == "NONE":
        return [], []

    blocks: list[list[str]] = []
    current: Optional[list[str]] = None
    for line in stripped.splitlines():
        if _REF_EXPLOITED_LINE.match(line):
            current = [line]
            blocks.append(current)
        elif current is not None:
            current.append(line)

    findings: list[Vulnerability] = []
    warnings: list[str] = []
    for block in blocks[:_REF_MAX_FINDINGS]:
        header = _REF_EXPLOITED_LINE.match(block[0]).group(1)
        cve_match = _REF_CVE_TOKEN.search(header)
        if not cve_match:
            warnings.append(f"skipped block with unrecognized id: {header[:60]!r}")
            continue
        vuln_id = cve_match.group(0).upper()
        attrs: dict[str, str] = {}
        for line in block[1:]:
            match = _REF_ATTR_LINE.match(line)
            if match:
                attrs[match.group(1).strip().lower()] = match.group(2)
        port: Optional[int] = None
        port_text = attrs.get("port", "")
        if port_text:
            digits = re.search(r"\d+", port_text)
            number = digits.group(0).lstrip("0") if digits else ""
            if digits and len(number) <= 5 and int(number or 0) <= 65535:
                port = int(number or 0)
            else:
                warnings.append(f"unparseable port {port_text[:60]!r} for {vuln_id[:60]}")
        findings.append(
            Vulnerability(
                id=vuln_id,
                service=attrs.get("service", "unknown").strip().lower(),
                port=port,
                description=attrs.get("description", ""),
                exploitation_method=attrs.get("method", attrs.get("exploitation_method", "")),
            )
        )
    if (extra := len(blocks) - _REF_MAX_FINDINGS) > 0:
        warnings.append(f"{extra} block(s) past the first {_REF_MAX_FINDINGS} ignored")
    return dedupe_findings(findings), warnings


# ---------------------------------------------------------------------------
# Replies
# ---------------------------------------------------------------------------

_PAD = st.text(st.sampled_from([" ", "\t", "\xa0", "\x85", "\u2003", "\u3000", "\n"]),
               max_size=3)
_LINE = st.sampled_from([
    "NONE", "none", "None", "nOnE",
    # headers with an id
    "Exploited: CVE-2011-2523", "exploited: cve-na", "EXPLOITED: [backdoor/CVE-2017-0144]",
    "Exploited : CVE-2004-2687 (distcc)",
    # headers without one
    "Exploited: something weird", "EXPLOITED: ", "Exploited:", "exploited: none",
    # block lines and prose
    "service: ftp", "Service: HTTP ", "Port: 21", "port: 0080", "port: unknown",
    "port: 99999", "description: vsFTPd backdoor", "method: msf", "exploitation_method: x",
    "severity: high", "The extractor found:", "", "CVE-2011-2523",
])
_REPLY = st.builds(lambda lines, joiner: joiner.join(lines),
                   st.lists(st.builds("{}{}{}".format, _PAD, _LINE, _PAD), max_size=12),
                   st.sampled_from(["\n", "\r\n", "\x85"]))


@settings(max_examples=1000, deadline=None)
@given(_REPLY)
@example("EXPLOITED: ")
@example("NONE")
@example("  none \n")
@example("\xa0NoNe\x85")
@example("")
@example("\n".join(f"Exploited: CVE-NA\nport: {n}" for n in range(40)))  # past MAX_FINDINGS
def test_the_one_path_parser_reads_every_reply_as_before(reply):
    assert parse_extractor_blocks(reply) == ref_parse_extractor_blocks(reply)
