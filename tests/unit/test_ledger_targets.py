"""Every callable the benchmark suite's ledger wraps still exists.

The ledger (``benchmarks/suite/ledger.py``) bills each layer's cost through
wrappers it installs on named ``repro`` callables; a target it cannot
resolve only marks its layer absent in the report. A hot-path function
renamed or deleted without the ledger following it would therefore go
unnoticed until someone reads a per-layer number. This test reads the
ledger's ``TARGETS`` table, as the suite ships it, and resolves each path the
way the ledger does.
"""

import importlib
import importlib.util
from pathlib import Path

from repro.encoding.codec import get_codec

LEDGER = Path(__file__).resolve().parents[2] / "benchmarks" / "suite" / "ledger.py"

#: Targets known to be gone, with why. The zone federation's gossip
#: dissemination was deleted; ``publish_summary`` and ``on_zone_summary``,
#: which the ledger also bills to ``gossip``, remain.
KNOWN_ABSENT = {
    ("repro.container.gossip", "FleetCoordinator.on_gossip"),
    ("repro.container.gossip", "FleetCoordinator.flush"),
}


def _targets():
    spec = importlib.util.spec_from_file_location("suite_ledger", LEDGER)
    ledger = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ledger)
    return ledger.TARGETS, ledger.Ledger().codec_name


def _resolves(module_name, path, codec_name):
    if module_name == "@codec":
        owner = type(get_codec(codec_name))
    else:
        owner = importlib.import_module(module_name)
    try:
        for part in path.split("."):
            owner = getattr(owner, part)
    except AttributeError:
        return False
    return callable(owner)


def test_every_wrapped_path_resolves_in_repro():
    targets, codec_name = _targets()
    missing = {
        (module_name, path)
        for module_name, rows in targets.items()
        for _span, path, _hook in rows
        if not _resolves(module_name, path, codec_name)
    }
    assert missing == KNOWN_ABSENT


def test_the_hooks_that_read_arguments_find_their_methods():
    """The ``batch_add`` hook reads ``args[2].source`` of
    ``FrameBatcher.add(destination, frame, band, slot)``: its parameters must
    keep that order."""
    from inspect import signature

    from repro.protocol.batching import FrameBatcher

    assert list(signature(FrameBatcher.add).parameters)[:4] == [
        "self", "destination", "frame", "band",
    ]
