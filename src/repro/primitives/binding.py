"""Payloads read in place: one prefix compare and one ``unpack_from``.

A §4.1 VarSample and a §4.2 EventMessage share one layout: the name (u32
length, UTF-8 bytes), an f64 timestamp and the value (u32 length, value
bytes in the codec's format). Every untraced payload of one (provider,
name) therefore starts with the same bytes and, for a fixed-size type, has
the same length. :class:`PayloadBindings` binds each pair at first sight to
what it needs to read such a payload in one ``unpack_from``; the variable
and event managers each hold one, and the full decoders in
:mod:`repro.primitives.wire` stay the reference for every payload that does
not match a binding.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional, Tuple

from repro.encoding.compiled import fixed_reader
from repro.encoding.types import DataType

#: Codecs whose value bytes are the binary wire format, which a bound
#: reader decodes in place.
_BINARY_WIRE_CODECS = frozenset({"binary", "compiled"})

_LEN = struct.Struct("<I")

#: The fixed fields after the name, as the bound reader unpacks them: the
#: timestamp and the value's length.
_LEAD = "dI"
_LEAD_SIZE = struct.calcsize("<" + _LEAD)

#: Bound decoders and payload bindings a manager holds at once, each. They
#: are keyed by a source id that comes off the wire, so a full table is
#: cleared wholesale rather than grown with forged ids.
BINDINGS_LIMIT = 1024


class PayloadBinding:
    """What an untraced payload of one (provider, name) is on the wire,
    bound at first sight.

    ``prefix`` is the payload's constant start, the name as encoded (u32
    length, UTF-8 bytes). ``size`` is the exact length of the whole
    untraced payload, and ``read(buf, start + skip)`` returns ``(timestamp,
    value length, value)`` in one ``unpack_from``. A variable-size type, or
    a codec whose values are not the binary wire format, has no reader and
    a size of -1, which no payload has: its payloads take the full decode.
    """

    __slots__ = ("name", "prefix", "skip", "size", "value_size", "read")

    def __init__(self, name: str, raw: bytes, reader) -> None:
        self.name = name
        self.prefix = _LEN.pack(len(raw)) + raw
        self.skip = len(self.prefix)
        if reader is None:
            self.read = None
            self.value_size = self.size = -1
        else:
            self.read, self.value_size = reader
            self.size = self.skip + _LEAD_SIZE + self.value_size


#: The binding of no payload: an empty tuple of prefixes matches nowhere.
UNBOUND = PayloadBinding("", b"", None)
UNBOUND.prefix = ()


class PayloadBindings:
    """(provider, encoded name) -> :class:`PayloadBinding`, for one manager.

    ``subscriptions`` is the manager's name -> subscriptions table: only a
    subscribed name is bound. ``datatype_of(name, provider)`` is the type
    the provider offers for the name, or None; a payload without one is
    never bound. The manager clears the table exactly when it drops its
    bound value decoders.
    """

    def __init__(
        self,
        subscriptions: Dict[str, List],
        datatype_of: Callable[[str, str], Optional[DataType]],
        codec_name: str,
    ) -> None:
        self._subscriptions = subscriptions
        self._datatype_of = datatype_of
        # Bound readers need the binary wire format for values.
        self._binary_values = codec_name in _BINARY_WIRE_CODECS
        self._table: Dict[Tuple[str, bytes], PayloadBinding] = {}

    def __len__(self) -> int:
        return len(self._table)

    def clear(self) -> None:
        self._table.clear()

    def at(self, source: str, buf: bytes, start: int, stop: int) -> PayloadBinding:
        """The binding of the payload in ``buf[start:stop]`` from
        ``source``, found by its name bytes or bound now, or
        :data:`UNBOUND` when it has none."""
        body = start + _LEN.size
        if body > stop:
            return UNBOUND
        end = body + _LEN.unpack_from(buf, start)[0]
        if end > stop:
            return UNBOUND
        raw = buf[body:end]
        binding = self._table.get((source, raw))
        if binding is not None:
            return binding
        # Bound only for a subscribed name whose bytes are its exact UTF-8
        # encoding; "replace" never raises and never yields a lone
        # surrogate, so the round trip below is the validity check. Any
        # other payload is the full decoder's to decode or report.
        name = raw.decode("utf-8", "replace")
        if not self._subscriptions.get(name) or name.encode("utf-8") != raw:
            return UNBOUND
        datatype = self._datatype_of(name, source)
        if datatype is None:
            return UNBOUND
        reader = fixed_reader(datatype, _LEAD) if self._binary_values else None
        if len(self._table) >= BINDINGS_LIMIT:
            self._table.clear()
        binding = self._table[(source, raw)] = PayloadBinding(name, raw, reader)
        return binding


__all__ = ["BINDINGS_LIMIT", "PayloadBinding", "PayloadBindings", "UNBOUND"]
