"""The Instructor's recall: how many weakness rows its excerpts name an exploit for.

For each weakness row of a host model, two query forms go to the knowledge base:
``Exploit <service> on port <port> of <address>``, the form a planner writes from a scan,
once for each service the row spans, and ``Exploit <row description>``. A row is a hit for a
form when an excerpt one of its queries retrieves names one of the row's triggers, on any
service. A module trigger (``exploit/unix/ftp/vsftpd_234_backdoor``) is named by its last path
part. A wildcard trigger (``ssh*{user}*{pass}``) is named when all of its literal parts
appear: ``*``, ``{user}`` and ``{pass}`` stand for any text. Parts match as lower-cased
substrings, so the check errs toward a hit, and every miss is a real miss.

It measures retrieval alone, not whether an executor runs what an excerpt names. On the
bundled host's 10 rows and the bundled corpus's 8 chunks it is a mechanism check, not the
paper's coverage figure.
"""

import re
from typing import NamedTuple

from penheal.knowledge import KnowledgeBase
from penheal.simulator import HostModel

_WILDCARD = re.compile(r"\*|\{user\}|\{pass\}")


class Recall(NamedTuple):
    service: int  # rows hit by one of their service-and-port queries
    description: int  # rows hit by their description query


def trigger_parts(trigger: str) -> list[str]:
    """The lower-cased parts an excerpt must all contain to name ``trigger``."""
    if trigger.startswith(("exploit/", "auxiliary/")):
        return [trigger.rpartition("/")[2].lower()]
    return [part for part in _WILDCARD.split(trigger.lower()) if part]


def names_a_trigger(text: str, triggers: list[str]) -> bool:
    lowered = text.lower()
    return any(all(part in lowered for part in trigger_parts(t)) for t in triggers)


def instructor_recall(host: HostModel, kb: KnowledgeBase, k: int) -> Recall:
    """The rows of ``host`` whose top-``k`` excerpts name one of their triggers, per form."""
    spans: dict[str, list] = {}  # row id -> the services carrying it, with their triggers
    for service in host.services:
        for weakness in service.weaknesses:
            spans.setdefault(weakness.row_id, []).append((service, weakness.triggers))

    def hit(query: str, triggers: list[str]) -> bool:
        return any(names_a_trigger(e.chunk.text, triggers) for e in kb.retrieve(query, k))

    by_service = by_description = 0
    for row in host.weakness_rows():
        triggers = [t for _, row_triggers in spans[row.row_id] for t in row_triggers]
        by_service += any(hit(f"Exploit {s.name} on port {s.port} of {host.address}", triggers)
                          for s, _ in spans[row.row_id])
        by_description += hit(f"Exploit {row.description}", triggers)
    return Recall(by_service, by_description)
