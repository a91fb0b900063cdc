"""Fixture: a service that bypasses the container and talks to the network
directly — every form REP001 must catch."""

import socket  # noqa: F401

from repro.transport import udp  # noqa: F401
from repro.simnet.network import SimNetwork  # noqa: F401
from repro.simnet.models import LinkModel  # noqa: F401


def leak():
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.sendto(b"telemetry", ("127.0.0.1", 9000))
