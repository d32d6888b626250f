"""CVE record lookup against the National Vulnerability Database.

:class:`FixtureNvdClient` serves records stored one file per CVE id, the
bundled captured responses by default; the live client in :mod:`penheal.backends`
is one over a cache it fills from the NVD API. Either way, the stored base score
is re-verified against the local calculator, so a record whose vector and score
disagree is rejected.
"""

from __future__ import annotations

import errno
import os
import re
import stat
from pathlib import Path
from typing import Optional

from . import cvss
from .model import CVE_ID, DATA_DIR, CvssMetrics, Record, load_json

CVE_PATTERN = re.compile(rf"^{CVE_ID}$", re.ASCII)
BUNDLED_DIR = DATA_DIR / "nvd"
# Errors opening a record path that mean there is no record: nothing there, a
# directory, a path through a file, or a dangling or looping link.
NO_RECORD = (errno.ENOENT, errno.EISDIR, errno.ENOTDIR, errno.ELOOP)


class CveNotFound(Exception):
    """The id is well-formed but the source has no record for it."""


class NvdError(Exception):
    pass


class CveRecord(Record):
    description: str
    metrics: CvssMetrics


def _parse_record(cve_id: str, text: str) -> CveRecord:
    """The record in the text of an NVD API response.

    Raises CveNotFound if it lists no vulnerability, and NvdError naming the CVE
    if it is not JSON, is not shaped like a response or carries a bad vector.
    """
    try:
        return _record_from_api_doc(cve_id, load_json(text))
    except (AttributeError, TypeError, LookupError, ValueError) as exc:  # ValueError: JSON, vector
        raise _unreadable(cve_id, exc) from None


def _unreadable(cve_id: str, exc: Exception) -> NvdError:
    return NvdError(f"{cve_id}: unreadable record: {type(exc).__name__}: {exc}")


def _record_from_api_doc(cve_id: str, doc: dict) -> CveRecord:
    vulnerabilities = doc.get("vulnerabilities") or []
    if not vulnerabilities:
        raise CveNotFound(cve_id)
    cve = vulnerabilities[0].get("cve", {})
    descriptions = cve.get("descriptions", [])
    description = next(
        (d.get("value", "") for d in descriptions if d.get("lang") == "en"),
        descriptions[0].get("value", "") if descriptions else "",
    )
    metrics_doc = cve.get("metrics", {})
    vector = None
    stored_score = None
    for key in ("cvssMetricV31", "cvssMetricV30"):
        entries = metrics_doc.get(key) or []
        if entries:
            data = entries[0].get("cvssData", {})
            vector = data.get("vectorString")
            stored_score = data.get("baseScore")
            break
    if not vector:
        raise NvdError(f"{cve_id}: record carries no v3.x vector string")
    metrics = cvss.parse_vector(vector)
    # Not "difference > 1e-9": a NaN score makes every comparison false, and must fail.
    if stored_score is not None and not abs(metrics.base_score - float(stored_score)) <= 1e-9:
        raise NvdError(
            f"{cve_id}: stored base score {stored_score} does not match "
            f"recomputed {metrics.base_score}"
        )
    return CveRecord(description=description, metrics=metrics)


class FixtureNvdClient:
    """Serves captured NVD responses from a directory (bundled by default)."""

    def __init__(self, fixture_dir: Optional[str | Path] = None):
        self.fixture_dir = Path(fixture_dir) if fixture_dir else None

    def _read(self, cve_id: str) -> Optional[str]:
        """The stored record's text, or None if there is none or it is not a regular file (a
        FIFO is opened without waiting for a writer, and not read); NvdError if unreadable."""
        nonblocking = getattr(os, "O_NONBLOCK", 0)
        try:
            with open(f"{self.fixture_dir or BUNDLED_DIR}/{cve_id}.json", "rb", buffering=0,
                      opener=lambda path, flags: os.open(path, flags | nonblocking)) as f:
                if not stat.S_ISREG(os.fstat(f.fileno()).st_mode):
                    return None
                return f.read().decode("utf-8")
        except OSError as exc:
            if exc.errno in NO_RECORD:
                return None
            raise _unreadable(cve_id, exc) from None
        except UnicodeDecodeError as exc:
            raise _unreadable(cve_id, exc) from None

    def lookup(self, cve_id: str) -> CveRecord:
        cve_id = _validated_id(cve_id)
        raw = self._read(cve_id)
        if raw is None:
            raise CveNotFound(cve_id)
        return _parse_record(cve_id, raw)


def _validated_id(cve_id: str) -> str:
    """The id as a lookup key, whatever its case; ValueError unless it names a CVE."""
    cve_id = cve_id.strip().upper()
    if not CVE_PATTERN.match(cve_id):
        raise ValueError(f"not a CVE identifier: {cve_id[:60]!r}")
    return cve_id
