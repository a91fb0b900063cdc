"""Experiment E5's shape (§4.2), on its stream-level harness.

The paper maps events onto UDP with an application-layer ack/retransmit
scheme and claims it is "more efficient for event messages than the generic
case provided by the TCP stack". ``benchmarks/bench_event_reliability.py``
drives that stream and the TCP-behaviour model over the same seeded lossy
link; this pins the verdict its table reads."""

import pytest

from benchmarks.bench_event_reliability import EVENTS, LOSS_RATES, e5_table


@pytest.fixture(scope="module")
def table():
    return e5_table()


def test_both_streams_deliver_every_event_at_every_loss_rate(table):
    assert sorted(table) == sorted(LOSS_RATES)
    for arms in table.values():
        assert arms["udp"]["delivered"] == arms["tcp"]["delivered"] == EVENTS


def test_the_udp_stream_moves_fewer_bytes_at_every_loss_rate(table):
    for arms in table.values():
        assert arms["udp"]["wire_bytes"] < arms["tcp"]["wire_bytes"]


def test_selective_retransmission_resends_no_more_than_go_back_n_under_loss(table):
    for loss, arms in table.items():
        if loss >= 0.05:
            assert arms["udp"]["retx_bytes"] <= arms["tcp"]["retx_bytes"]


def test_the_udp_stream_has_the_lower_p99_under_any_loss(table):
    for loss, arms in table.items():
        if loss > 0:
            assert arms["udp"]["latency"]["p99"] < arms["tcp"]["latency"]["p99"]
