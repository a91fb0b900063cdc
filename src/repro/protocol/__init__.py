"""PEPt Protocol subsystem.

Frames "the encoded data to denote the intent of the message" (§6) and is
"responsible for frame retransmission and other low level bookkeeping":

- :mod:`repro.protocol.frames` — the frame header and message kinds;
- :mod:`repro.protocol.bands` — each kind's priority band, the one table
  egress shaping, admission and ingress scheduling classify by;
- :mod:`repro.protocol.reliability` — the application-layer ack/retransmit
  machinery the paper claims is "more efficient for event messages than the
  generic case provided by the TCP stack" (§4.2);
- :mod:`repro.protocol.fragmentation` — MTU-sized fragmentation/reassembly;
- :mod:`repro.protocol.batching` — packing small same-destination frames
  into one BATCH datagram to amortize fixed per-packet overhead;
- :mod:`repro.protocol.peers` — the one object per remote container that
  holds all of the above for it, and the table that bounds strangers.

:mod:`repro.protocol.tcp_like`, a TCP-behaviour model, is not part of the
stack: it is the baseline experiment E5 drives beside the reliable stream
(``benchmarks/bench_event_reliability.py``), and is imported from there only.
"""

from repro.protocol.batching import (
    FrameBatcher,
    batch_header_size,
    decode_batch_payload,
    encode_batch_payload,
    make_batch_frame,
)
from repro.protocol.fragmentation import Fragmenter, Reassembler
from repro.protocol.frames import Frame, MessageKind
from repro.protocol.reliability import ReliableReceiver, ReliableSender, RetransmitPolicy

__all__ = [
    "Frame",
    "MessageKind",
    "ReliableSender",
    "ReliableReceiver",
    "RetransmitPolicy",
    "Fragmenter",
    "Reassembler",
    "FrameBatcher",
    "encode_batch_payload",
    "decode_batch_payload",
    "make_batch_frame",
    "batch_header_size",
]
