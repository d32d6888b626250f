import socket
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

DATA_DIR = Path(__file__).resolve().parent / "data"


@pytest.fixture
def no_network(monkeypatch):
    """Deny-all network guard: any socket connection attempt fails the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("network access attempted during a hermetic test")

    monkeypatch.setattr(socket.socket, "connect", refuse)
    monkeypatch.setattr(socket, "create_connection", refuse)


@pytest.fixture
def fast_retries(monkeypatch):
    """Shrink the live clients' retry backoff from one second to ten milliseconds."""
    from penheal import backends

    monkeypatch.setattr(backends, "BACKOFF_SECONDS", 0.01)


@pytest.fixture
def scripted_gateway():
    """Build a Gateway over per-role scripted response queues."""
    from penheal.gateway import Gateway, ScriptedBackend

    def build(scripts):
        backend = ScriptedBackend(scripts)
        return Gateway(backend), backend

    return build
