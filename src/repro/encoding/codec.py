"""The pluggable Codec interface (PEPt Encoding subsystem).

Fig. 4 of the paper shows Encoding as a pluggable subsystem so "different
algorithms and implementations for the same layer" can be evaluated. Codecs
register by name; containers pick one per deployment (experiment E10 sweeps
them).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Protocol, Tuple, runtime_checkable

from repro.encoding.types import DataType
from repro.util.errors import ConfigurationError


@runtime_checkable
class Codec(Protocol):
    """Marshals typed values to/from wire bytes.

    ``encode``/``decode`` take the schema on every call. A caller that
    marshals one schema many times binds it once instead: ``encoder``,
    ``decoder`` and ``prefix_decoder`` return a one-argument callable with
    the same results and the same :class:`EncodingError`s. A codec that
    subclasses this protocol inherits bindings that simply fix the first
    argument; one with per-schema state (the compiled codec's plans)
    returns a callable that skips its per-call lookup.
    """

    #: registry key, e.g. ``"binary"``
    name: str

    def encode(self, datatype: DataType, value: Any) -> bytes:
        """Validate and marshal ``value`` according to ``datatype``."""
        ...

    def decode(self, datatype: DataType, data: bytes) -> Any:
        """Unmarshal bytes produced by :meth:`encode` with the same type."""
        ...

    def encoder(self, datatype: DataType) -> Callable[[Any], bytes]:
        """``value -> bytes``, equal to ``encode(datatype, value)``."""
        return partial(self.encode, datatype)

    def decoder(self, datatype: DataType) -> Callable[[bytes], Any]:
        """``data -> value``, equal to ``decode(datatype, data)``."""
        return partial(self.decode, datatype)

    def prefix_decoder(self, datatype: DataType) -> Callable[[bytes], Tuple[Any, int]]:
        """``data -> (value, consumed)``, equal to ``decode_prefix(datatype,
        data)`` — for codecs whose values are self-delimiting (the binary
        wire format; JSON has no ``decode_prefix``)."""
        return partial(self.decode_prefix, datatype)


_REGISTRY: Dict[str, Codec] = {}


def register_codec(codec: Codec) -> None:
    """Register a codec instance under ``codec.name``."""
    _REGISTRY[codec.name] = codec


def get_codec(name: str) -> Codec:
    """Look up a registered codec.

    The built-in ``"binary"`` and ``"json"`` codecs self-register on import
    of :mod:`repro.encoding`.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown codec {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def available_codecs() -> list:
    return sorted(_REGISTRY)


__all__ = ["Codec", "register_codec", "get_codec", "available_codecs"]
