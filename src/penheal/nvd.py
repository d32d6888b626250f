"""CVE record lookup against the National Vulnerability Database.

Live mode queries the NVD REST API (``?cveId=<id>``) with retry/backoff and
an indefinite on-disk cache keyed by CVE id. Fixture mode serves only
bundled captured responses, which is what the hermetic pipeline uses.
Either way, the stored base score is re-verified against the local
calculator, so a record whose vector and score disagree is rejected.
"""

from __future__ import annotations

import os
import time
from importlib import resources
from pathlib import Path
from typing import NamedTuple, Optional

from . import cvss
from .model import CVE_PATTERN, NVD_BASE_URL, CvssMetrics, load_json

NVD_API_KEY_ENV = "PENHEAL_NVD_API_KEY"


class CveNotFound(Exception):
    """The id is well-formed but the source has no record for it."""


class NvdError(Exception):
    pass


class CveRecord(NamedTuple):
    cve_id: str
    description: str
    vector_string: str
    metrics: CvssMetrics
    source_timestamp: str


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
    if stored_score is not None and abs(metrics.base_score - float(stored_score)) > 1e-9:
        raise NvdError(
            f"{cve_id}: stored base score {stored_score} does not match "
            f"recomputed {metrics.base_score}"
        )
    return CveRecord(
        cve_id=cve.get("id", cve_id),
        description=description,
        vector_string=vector,
        metrics=metrics,
        source_timestamp=doc.get("timestamp", ""),
    )


class FixtureNvdClient:
    """Serves captured NVD responses from a directory (bundled by default)."""

    def __init__(self, fixture_dir: Optional[str | Path] = None):
        self.fixture_dir = Path(fixture_dir) if fixture_dir else None

    def _read(self, cve_id: str) -> Optional[str]:
        """The stored record's text, or None if there is none; NvdError if it is not UTF-8."""
        source = (self.fixture_dir or resources.files("penheal.data") / "nvd") / f"{cve_id}.json"
        if not source.is_file():
            return None
        try:
            return source.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise _unreadable(cve_id, exc) from None

    def lookup(self, cve_id: str) -> CveRecord:
        cve_id = _validated_id(cve_id)
        raw = self._read(cve_id)
        if raw is None:
            raise CveNotFound(cve_id)
        return _parse_record(cve_id, raw)


class LiveNvdClient:
    """Queries the NVD REST endpoint, caching responses on disk indefinitely."""

    def __init__(
        self,
        cache_dir: str | Path,
        base_url: str = NVD_BASE_URL,
        api_key: Optional[str] = None,
        timeout: float = 30.0,
        max_attempts: int = 3,
        backoff: float = 1.0,
    ):
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._cache = FixtureNvdClient(self.cache_dir)
        self.base_url = base_url
        self.api_key = api_key if api_key is not None else os.environ.get(NVD_API_KEY_ENV)
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff = backoff

    def lookup(self, cve_id: str) -> CveRecord:
        cve_id = _validated_id(cve_id)
        cached = self._cache._read(cve_id)
        if cached is not None:
            return _parse_record(cve_id, cached)
        text = self._fetch(cve_id)
        record = _parse_record(cve_id, text)  # validate before caching
        (self.cache_dir / f"{cve_id}.json").write_text(text, encoding="utf-8")
        return record

    def _fetch(self, cve_id: str) -> str:
        import requests  # live only: hermetic runs never pay for the import

        headers = {}
        if self.api_key:
            headers["apiKey"] = self.api_key
        last_error = ""
        for attempt in range(1, self.max_attempts + 1):
            try:
                resp = requests.get(
                    self.base_url,
                    params={"cveId": cve_id},
                    headers=headers,
                    timeout=self.timeout,
                )
            except requests.RequestException as exc:
                last_error = f"transport error: {exc}"
            else:
                if resp.status_code == 200:
                    return resp.text
                if resp.status_code == 404:
                    raise CveNotFound(cve_id)
                if resp.status_code in (403, 429) or resp.status_code >= 500:
                    last_error = f"HTTP {resp.status_code}"
                else:
                    raise NvdError(f"NVD query for {cve_id} failed: HTTP {resp.status_code}")
            if attempt < self.max_attempts:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
        raise NvdError(
            f"NVD query for {cve_id} failed after {self.max_attempts} attempts: {last_error}"
        )


def _validated_id(cve_id: str) -> str:
    cve_id = cve_id.strip().upper()
    if not CVE_PATTERN.match(cve_id):
        raise ValueError(f"not a CVE identifier: {cve_id!r}")
    return cve_id
