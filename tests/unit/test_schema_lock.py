"""Tests for the wire-schema lockfile (``schemas.lock.json``).

The committed lock is the compatibility contract and this file is its one
check: the writer's output for the live tree must equal the committed
file byte for byte. The drift cases below pin what :func:`diff` reports
for every way a lock can break — field mutation, manual-layout change,
new kind, removed kind, header change, missing lockfile.
"""

import json
from pathlib import Path

from repro.analysis import schemalock
from repro.analysis.cli import main as analysis_main
from repro.encoding.types import STRING, UINT32, StructType
from repro.protocol.frames import MessageKind
from repro.protocol.wire_registry import KIND_SCHEMA_REFS

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

DATA_REF = "repro/wire.py::DATA_SCHEMA"
DATA = StructType("Data", [("seq", UINT32), ("body", STRING)])
PING_MODULE = "repro/protocol/ping.py"
PING_SOURCE = 'import struct\n\n_SEQ = struct.Struct("<I")\n'


def lock(header="d9e1c2968ef659cc", data=DATA, ping_source=PING_SOURCE, **extra):
    """A two-kind lock document: one typed kind, one hand-packed kind."""
    kinds = {
        "PING": schemalock.manual_entry(1, PING_MODULE, ping_source),
        "DATA": schemalock.typed_entry(2, DATA_REF, data),
        **extra,
    }
    return {"version": 1, "header": header, "kinds": kinds}


class TestLockDiff:
    def test_unchanged_tree_matches_its_lock(self):
        assert schemalock.diff(lock(), lock()) == []

    def test_field_type_change_fails(self):
        current = lock(data=StructType("Data", [("seq", STRING), ("body", STRING)]))
        problems = schemalock.diff(lock(), current)
        assert any(
            "MessageKind.DATA" in p and "mint a new MessageKind" in p for p in problems
        )
        # The locked and current shapes ride in the message for the diff.
        assert any("uint32 seq" in p and "string seq" in p for p in problems)

    def test_field_reorder_fails(self):
        current = lock(data=StructType("Data", [("body", STRING), ("seq", UINT32)]))
        assert any("MessageKind.DATA" in p for p in schemalock.diff(lock(), current))

    def test_manual_layout_change_fails(self):
        current = lock(ping_source=PING_SOURCE.replace('"<I"', '"<Q"'))
        problems = schemalock.diff(lock(), current)
        assert len(problems) == 1 and "MessageKind.PING" in problems[0]

    def test_new_kind_without_lock_entry_fails(self):
        current = lock(EXTRA=schemalock.typed_entry(3, DATA_REF, DATA))
        problems = schemalock.diff(lock(), current)
        assert any(
            "MessageKind.EXTRA" in p and "--update-schema-lock" in p for p in problems
        )

    def test_removed_kind_fails(self):
        current = lock()
        del current["kinds"]["DATA"]
        assert any(
            "MessageKind.DATA" in p and "no longer exists" in p
            for p in schemalock.diff(lock(), current)
        )

    def test_header_format_change_fails(self):
        problems = schemalock.diff(lock(), lock(header="0000000000000000"))
        assert any("frame header layout changed" in p for p in problems)

    def test_missing_lockfile_fails(self):
        problems = schemalock.diff(None, lock())
        assert problems == [
            "no schemas.lock.json found — the wire-schema lockfile is mandatory; "
            "regenerate deliberately with `repro.cli check --update-schema-lock`"
        ]


class TestStaticEvaluatorAgainstRuntime:
    """The lock is computed per kind through ``KIND_SCHEMA_REFS``.

    The static evaluator this class once compared is gone; the writer now
    reads the live schema objects, and this keeps every kind reachable.
    """

    def test_every_kind_is_mapped(self):
        assert {k.name for k in MessageKind} <= set(KIND_SCHEMA_REFS)


class TestCommittedLockIsCurrent:
    def test_repo_lockfile_matches_the_tree(self, tmp_path, capsys):
        # Run the writer itself (into a scratch root) and compare its whole
        # output with the committed file.
        assert analysis_main(["--update-schema-lock", "--root", str(tmp_path)]) == 0
        capsys.readouterr()
        written = (tmp_path / schemalock.LOCK_FILENAME).read_text(encoding="utf-8")
        committed = (REPO_ROOT / schemalock.LOCK_FILENAME).read_text(encoding="utf-8")
        assert written == committed, schemalock.diff(
            json.loads(committed), json.loads(written)
        )
