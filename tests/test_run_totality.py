"""Run-level totality: any sequence of model replies ends the pipeline in a run record,
or in one of the two errors that the CLI reports as its one ``fatal:`` line.

A backend answers each role with that role's next golden6 reply, in transcript order,
after applying the edits drawn for that call: an inserted lookalike letter, non-ASCII
digit, ``nan``/``inf``, 30-digit number, grammar keyword or lone surrogate, a deleted
span, truncation, a duplicated line, a reply swapped in from anywhere in the transcript,
or a change of case. The replies then go through discovery (recorded, as ``record``
mode records them), the history file, remediation, scoring, the artifact and both
reports. Only ``EngineError`` and ``GatewayError`` may escape.
"""

import functools
import tempfile
from collections import defaultdict
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from penheal.cli import _build_knowledge_base, bundled_fixture_path
from penheal.engine import EngineError, run_pentest
from penheal.gateway import AgentRole, GatewayError, load_transcript, record_mode
from penheal.model import RunConfig, serialize_run, write_json_lines
from penheal.nvd import FixtureNvdClient
from penheal.remediation import format_selection_report, remediate
from penheal.scoring import format_score_table, score_run
from penheal.simulator import SimulatorBackend, ground_truth, load_host_model

_EXCHANGES = load_transcript(bundled_fixture_path("golden6.jsonl"))
_GOLDEN = [e.response for e in _EXCHANGES]
_ROLE_REPLIES = defaultdict(list)
for _exchange in _EXCHANGES:
    _ROLE_REPLIES[_exchange.role].append(_exchange.response)

_TOKENS = ("ı", "ſ", "К", "ο", "٣", "²", "١٢", "nan", "inf", "-inf", "9" * 30,
           "Exploited:", "CVE-NA", "CVE-2011-2523", "service:", "port:", "[completed]",
           "[to-do]", "[failed]", " - result: ", "$", "msfconsole:", "effect: full",
           "partial 40%", "cost: high", "CVSS:3.1/AV:N", "NONE", "\n", "\ud83d")
_EDIT = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 4000), st.sampled_from(_TOKENS)),
    st.tuples(st.just("delete"), st.integers(0, 4000), st.integers(1, 400)),
    st.tuples(st.just("truncate"), st.integers(0, 4000)),
    st.tuples(st.just("duplicate"), st.integers(0, 60)),
    st.tuples(st.just("swap"), st.integers(0, len(_GOLDEN) - 1)),
    st.tuples(st.just("case"), st.sampled_from(["upper", "lower", "swapcase"])),
)
# Up to six edits of a reply, keyed by its role and its index among that role's calls.
_EDITS = st.dictionaries(st.tuples(st.sampled_from(list(AgentRole)), st.integers(0, 30)),
                         st.lists(_EDIT, min_size=1, max_size=6), max_size=12)


def _apply(text: str, edit: tuple) -> str:
    kind, arg, *rest = edit
    at = arg % (len(text) + 1) if isinstance(arg, int) else 0
    if kind == "insert":
        return text[:at] + rest[0] + text[at:]
    if kind == "delete":
        return text[:at] + text[at + rest[0]:]
    if kind == "truncate":
        return text[:at]
    if kind == "duplicate":
        lines = text.splitlines(keepends=True) or [""]
        at = arg % len(lines)
        return "".join(lines[:at + 1] + lines[at:])
    if kind == "swap":
        return _GOLDEN[arg]
    return getattr(text, arg)()  # a change of case


class EditedGoldenBackend:
    """Each role's next golden6 reply (cycling past the last), with its drawn edits."""

    def __init__(self, edits: dict):
        self.edits = edits
        self.calls: dict[AgentRole, int] = defaultdict(int)

    def complete(self, role, model, messages):
        index = self.calls[role]
        self.calls[role] += 1
        replies = _ROLE_REPLIES[role]
        text = replies[index % len(replies)]
        for edit in self.edits.get((role, index), ()):
            text = _apply(text, edit)
        return text


@functools.lru_cache(maxsize=1)
def _knowledge_base():
    return _build_knowledge_base(None)


@settings(max_examples=200, deadline=None)
@given(iterations=st.integers(1, 8), edits=_EDITS)
@example(iterations=1, edits={(AgentRole.SUMMARIZER, 0): [("insert", 12, "\ud83d")]})
def test_any_reply_sequence_ends_in_a_run_record_or_a_reported_error(iterations, edits):
    config = RunConfig(target_address="10.0.2.4", max_iterations=iterations)
    host = load_host_model()
    with tempfile.TemporaryDirectory() as out:
        gateway = record_mode(EditedGoldenBackend(edits), Path(out) / "transcript.jsonl")
        try:
            pentest = run_pentest(config, SimulatorBackend(host), gateway, _knowledge_base())
            write_json_lines(Path(out) / "history.jsonl", pentest.history)
            rem = remediate(pentest.findings, config, gateway, FixtureNvdClient())
            mode = config.aggregation_mode
            report = score_run(pentest.findings, ground_truth(host), rem.selected, mode=mode,
                               run_id="totality")
            candidates = [c for g in rem.groups for c in g.candidates]
            serialize_run(pentest.plan, pentest.findings, candidates, report, run_id="totality")
            format_selection_report(rem.groups)
            format_score_table(report, mode)
        except (EngineError, GatewayError):
            pass
