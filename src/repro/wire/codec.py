"""Binary tag-length-value codec.

The codec handles ``None``, booleans, ints of any size, floats, strings,
bytes, lists, tuples, dicts (string keys not required), registered enums
and registered dataclasses. Encoding is canonical: equal values produce
identical bytes, so content digests of encoded messages are well-defined —
that property is what reply voting and PROPOSE hashing rely on.

Hot-path layout
---------------
``_encode`` dispatches on the *exact* class of the value through a
per-codec table instead of walking an ``isinstance`` chain. Each
registered dataclass gets an encoder, a decoder and a conformance check,
each generated as straight-line Python source and compiled the first
time the codec needs it (:meth:`Codec._compile`), with its type-id
prefix precomputed and its field list read from the registry:

- the **encoder** reads each field once and, guided by the field's
  annotation, appends a precomputed 2-byte chunk for an ``int`` in 0..63,
  the cached TLV chunk of a ``str``, an inline one-byte length header
  for ``bytes`` under 128 bytes, and the tag of a ``bool``; any other
  runtime class goes through the exact-class dispatch table;
- the **decoder** handles full-length frames field by field with the same
  inline fast paths, checks every field annotated exactly ``int``,
  ``str``, ``bytes``, ``bool`` or ``float`` (or ``X | None``) — an
  ``int`` field rejects ``bool``, a ``float`` field accepts ``int`` — and
  fills the instance ``__dict__`` directly when the class has the
  registry's direct ``__init__``. A mismatch is a :class:`DecodeError`.
  Short frames written before trailing default fields existed take the
  generic path (:meth:`Codec._decode_short`) with the same checks;
- :meth:`Codec.conforms` tells whether a value would pass those checks
  after a round trip, which is what lets the channel hand a sender's own
  message object to receivers instead of a decode.

``encode`` fills a fresh ``bytearray`` per call (a pooled buffer
measured slower), ``encode_into`` appends to a caller-owned buffer,
skipping the final ``bytes(bytearray)`` copy, and the TLV chunk of each
distinct string is cached. All caching is behaviour-invisible: every path returns
byte-identical output to a fresh encode (see
``tests/test_wire_codec_caching.py`` and the recorded frames in
``tests/test_wire_golden_frames.py``).

Whole messages are deliberately not memoized: a memo stored on the
message object forms a reference cycle (message -> encoding -> message)
per sealed message, which only the cyclic garbage collector can free,
and on the benchmark workloads it hit on about 0% of encodes.
"""

from __future__ import annotations

import dataclasses
import enum
import struct
import types
import typing

from repro.perf import PERF
from repro.wire.errors import DecodeError, EncodeError
from repro.wire.registry import GLOBAL_REGISTRY, TypeRegistry, has_direct_init

_NONE = 0x00
_TRUE = 0x01
_FALSE = 0x02
_INT = 0x03
_FLOAT = 0x04
_STR = 0x05
_BYTES = 0x06
_LIST = 0x07
_TUPLE = 0x08
_DICT = 0x09
_DATACLASS = 0x0A
_ENUM = 0x0B

_FLOAT_STRUCT = struct.Struct(">d")
#: Tag byte plus big-endian double: one pack for a whole float chunk.
_TAGGED_FLOAT = struct.Struct(">Bd")

#: Full TLV chunk of each int in 0..63 (tag + one sign-and-magnitude byte).
_SMALL_INT_CHUNK = tuple(bytes((_INT, value << 1)) for value in range(0x40))
#: Tag + one-byte length header of a bytes value shorter than 128 bytes.
_SHORT_BYTES_HEADER = tuple(bytes((_BYTES, length)) for length in range(0x80))

#: Field annotations the generated decoder checks, and the runtime
#: classes each accepts (exact classes: ``bool`` is not an ``int``).
_CHECKED_ANNOTATIONS = {
    "int": (int,),
    "str": (str,),
    "bytes": (bytes,),
    "bool": (bool,),
    "float": (float, int),
}
_SCALAR_CLASSES = (int, str, bytes, bool, float)
#: Classes that always survive a round trip (no fields to check).
_PLAIN_CLASSES = frozenset((*_SCALAR_CLASSES, type(None)))


def _annotation_names(annotation) -> list:
    """The member names of a (possibly string) field annotation."""
    if isinstance(annotation, str):
        return [part.strip() for part in annotation.split("|")]
    if isinstance(annotation, types.UnionType) or typing.get_origin(annotation) is typing.Union:
        members = typing.get_args(annotation)
    else:
        members = (annotation,)
    names = []
    for member in members:
        if member is type(None):
            names.append("None")
        elif member in _SCALAR_CLASSES:
            names.append(member.__name__)
        else:
            names.append(repr(member))
    return names


def _field_kind(annotation) -> tuple:
    """``(scalar name or None, accepted classes or None)`` of an annotation.

    The scalar name picks the encoder/decoder fast path; the accepted
    classes are the decode-time check (``None``: the field is unchecked).
    """
    names = _annotation_names(annotation)
    optional = "None" in names
    names = [name for name in names if name != "None"]
    if len(names) != 1 or names[0] not in _CHECKED_ANNOTATIONS:
        return None, None
    accepted = _CHECKED_ANNOTATIONS[names[0]]
    if optional:
        accepted = accepted + (type(None),)
    return names[0], accepted


def _write_uvarint(out: bytearray, value: int) -> None:
    if value < 0x80:
        out.append(value)
        return
    if value < 0x4000:
        out.append(value & 0x7F | 0x80)
        out.append(value >> 7)
        return
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def uvarint_size(value: int) -> int:
    """Encoded length in bytes of ``value`` as an unsigned varint."""
    if value < 0x80:
        return 1
    return (value.bit_length() + 6) // 7


#: str -> its full TLV chunk (tag + length varint + UTF-8 bytes).
#: Bounded, insert-while-under-limit; protocol strings are low-cardinality.
_STR_ENC_CACHE: dict[str, bytes] = {}
_STR_ENC_CACHE_LIMIT = 4096


def _read_uvarint(data, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise DecodeError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 4096:
            # Arbitrary-size ints are supported, but a wire value that
            # claims more than 4096 bits is an attack, not a number.
            raise DecodeError("varint too long")


#: Generated-encoder fast path per scalar annotation (``{v}`` is the
#: field value); every other runtime class takes the exact-class dispatch.
_ENCODE_FAST = {
    "int": (
        "if {v}.__class__ is int:",
        "    if 0 <= {v} < 64:",
        "        out += small_int[{v}]",
        "    else:",
        "        enc_int(out, {v})",
    ),
    "str": (
        "if {v}.__class__ is str:",
        "    try:",
        "        out += str_cache[{v}]",
        "    except KeyError:",
        "        enc_str(out, {v})",
    ),
    "bytes": (
        "if {v}.__class__ is bytes:",
        "    if len({v}) < 128:",
        "        out += short_bytes[len({v})]",
        "        out += {v}",
        "    else:",
        "        enc_bytes(out, {v})",
    ),
    "bool": (
        "if {v} is True:",
        "    out.append(0x01)",
        "elif {v} is False:",
        "    out.append(0x02)",
    ),
    "float": (
        "if {v}.__class__ is float:",
        "    out += tagged_float(0x04, {v})",
    ),
}
_ENCODE_DISPATCH = ("encode_any(out, {v})",)

#: Generated-decoder fast path per scalar annotation (``{v}`` is the
#: field's local); anything else decodes generically and is then checked.
_DECODE_FAST = {
    "int": (
        "if pos + 1 < n and data[pos] == 0x03 and data[pos + 1] < 0x80:",
        "    raw = data[pos + 1]",
        "    pos += 2",
        "    {v} = -(raw >> 1) if raw & 1 else raw >> 1",
    ),
    "str": (
        "if pos + 1 < n and data[pos] == 0x05 and data[pos + 1] < 0x80:",
        "    end = pos + 2 + data[pos + 1]",
        "    if end > n:",
        "        raise DecodeError('truncated string')",
        "    try:",
        "        {v} = str(data[pos + 2:end], 'utf-8')",
        "    except UnicodeDecodeError as exc:",
        "        raise DecodeError(f'invalid utf-8: {{exc}}')",
        "    pos = end",
    ),
    "bytes": (
        "if pos + 1 < n and data[pos] == 0x06 and data[pos + 1] < 0x80:",
        "    end = pos + 2 + data[pos + 1]",
        "    if end > n:",
        "        raise DecodeError('truncated bytes')",
        "    {v} = bytes(data[pos + 2:end])",
        "    pos = end",
    ),
    "bool": (
        "if pos < n and (data[pos] == 0x01 or data[pos] == 0x02):",
        "    {v} = data[pos] == 0x01",
        "    pos += 1",
    ),
    "float": (
        "if pos + 9 <= n and data[pos] == 0x04:",
        "    {v} = unpack_float(data, pos + 1)[0]",
        "    pos += 9",
    ),
}


def _with_fallback(fast, fallback: list, var: str) -> list:
    """Generated source: ``fast`` branch, else ``fallback``, for ``var``."""
    if fast is None:
        return ["    " + line.format(v=var) for line in fallback]
    return [
        *("    " + line.format(v=var) for line in fast),
        "    else:",
        *("        " + line.format(v=var) for line in fallback),
    ]


class Codec:
    """Encoder/decoder bound to a type registry."""

    def __init__(self, registry: TypeRegistry | None = None) -> None:
        self.registry = registry if registry is not None else GLOBAL_REGISTRY
        # Exact-type encoder dispatch. Scalar/container entries are
        # installed eagerly; dataclass and enum encoders are built on
        # first use (and on-the-fly for late registrations).
        self._encoders: dict[type, object] = {
            type(None): self._enc_none,
            bool: self._enc_bool,
            int: self._enc_int,
            float: self._enc_float,
            str: self._enc_str,
            bytes: self._enc_bytes,
            bytearray: self._enc_bytes,
            memoryview: self._enc_bytes,
            list: self._enc_list,
            tuple: self._enc_tuple,
            dict: self._enc_dict,
        }
        # Generated per-dataclass decoders (keyed by wire type id) and
        # conformance checks (keyed by class), built on first use.
        self._decoders: dict[int, object] = {}
        self._conformers: dict[type, object] = {}

    # -- public API ---------------------------------------------------------

    def encode(self, value) -> bytes:
        # A fresh bytearray per call: pooling encode buffers measured
        # slower than CPython's over-allocating growth for every message
        # size on the hot path (0.1-0.45 us more per encode).
        encoder = self._encoders.get(value.__class__)
        if encoder is None:
            encoder = self._resolve_encoder(value)
        out = bytearray()
        encoder(out, value)
        return bytes(out)

    def encode_into(self, out: bytearray, value) -> None:
        """Append the canonical encoding of ``value`` to ``out``.

        The fast path for callers assembling larger buffers (signing
        payloads, framing): no intermediate ``bytes`` copy is made.
        """
        self._encode(out, value)

    def decode(self, data):
        """Decode one complete value from ``data``.

        Accepts ``bytes``, ``bytearray`` or ``memoryview``: mutable
        buffers are read through a ``memoryview`` window, so a frame
        sitting inside a larger receive buffer decodes without being
        copied out first (string/bytes payloads are materialized from
        the buffer directly). Every malformed input raises
        :class:`DecodeError` and nothing else.
        """
        if data.__class__ is not bytes:
            data = memoryview(data)
        try:
            value, pos = self._decode(data, 0)
        except RecursionError:
            raise DecodeError("values nested too deeply") from None
        if pos != len(data):
            raise DecodeError(f"{len(data) - pos} trailing bytes after value")
        return value

    def decode_from(self, data, pos: int = 0) -> tuple:
        """Decode one value starting at ``pos``; returns ``(value, end)``.

        The cursor API for consuming concatenated values from one buffer
        (batch payloads, framed streams) with no per-value slicing:
        ``end`` is the offset one past the value just decoded. Trailing
        bytes are the caller's business, unlike :meth:`decode`.
        """
        if data.__class__ is not bytes:
            data = memoryview(data)
        try:
            return self._decode(data, pos)
        except RecursionError:
            raise DecodeError("values nested too deeply") from None

    def conforms(self, value) -> bool:
        """Whether ``decode(encode(value))`` passes every field type check.

        True for every scalar and container whose registered dataclasses
        (at any depth) hold exactly the runtime classes their checked
        fields accept. Conservative: a value whose field merely encodes
        like an accepted class (a ``bytearray`` in a ``bytes`` field) is
        reported as not conforming.
        """
        cls = value.__class__
        if cls in _PLAIN_CLASSES:
            return True
        check = self._conformers.get(cls)
        if check is not None:
            return check(value)
        if isinstance(value, (tuple, list)):
            items = value
        elif isinstance(value, dict):
            items = [*value, *value.values()]
        elif dataclasses.is_dataclass(value) and not isinstance(value, type):
            try:
                return self._compile(cls, "conforms")(value)
            except EncodeError:
                return False
        else:
            return True
        conforms = self.conforms
        for item in items:
            if item.__class__ not in _PLAIN_CLASSES and not conforms(item):
                return False
        return True

    # -- encoding -----------------------------------------------------------

    def _encode(self, out: bytearray, value) -> None:
        encoder = self._encoders.get(value.__class__)
        if encoder is None:
            encoder = self._resolve_encoder(value)
        encoder(out, value)

    def _resolve_encoder(self, value):
        """Build (and install) the encoder for a class seen for the first time.

        The checks mirror the original ``isinstance`` chain, in the same
        order, so subclasses keep encoding exactly as they always did.
        """
        cls = value.__class__
        if isinstance(value, bool):
            encoder = self._enc_bool
        elif isinstance(value, int):
            encoder = self._enc_int
        elif isinstance(value, float):
            encoder = self._enc_float
        elif isinstance(value, str):
            encoder = self._enc_str
        elif isinstance(value, (bytes, bytearray, memoryview)):
            encoder = self._enc_bytes
        elif isinstance(value, list):
            encoder = self._enc_list
        elif isinstance(value, tuple):
            encoder = self._enc_tuple
        elif isinstance(value, dict):
            encoder = self._enc_dict
        elif isinstance(value, enum.Enum):
            encoder = self._make_enum_encoder(cls)
        elif dataclasses.is_dataclass(value) and not isinstance(value, type):
            encoder = self._compile(cls, "enc")
        else:
            raise EncodeError(f"cannot encode {cls.__name__}: {value!r}")
        self._encoders[cls] = encoder
        return encoder

    # Scalar/container encoders -------------------------------------------

    @staticmethod
    def _enc_none(out: bytearray, value) -> None:
        out.append(_NONE)

    @staticmethod
    def _enc_bool(out: bytearray, value) -> None:
        out.append(_TRUE if value else _FALSE)

    @staticmethod
    def _enc_int(out: bytearray, value) -> None:
        out.append(_INT)
        # Sign-and-magnitude varint: supports arbitrary-size ints. The
        # common one- and two-byte cases are inlined.
        raw = value << 1 if value >= 0 else (-value) << 1 | 1
        if raw < 0x80:
            out.append(raw)
        elif raw < 0x4000:
            out.append(raw & 0x7F | 0x80)
            out.append(raw >> 7)
        else:
            _write_uvarint(out, raw)

    @staticmethod
    def _enc_float(out: bytearray, value) -> None:
        out.append(_FLOAT)
        out += _FLOAT_STRUCT.pack(value)

    @staticmethod
    def _enc_str(out: bytearray, value) -> None:
        if PERF.codec_cache:
            # Protocol strings (addresses, client ids) repeat massively;
            # memoize the full TLV chunk per distinct string, content-keyed
            # so the bytes are identical to the uncached path.
            try:
                out += _STR_ENC_CACHE[value]
                return
            except KeyError:
                pass
            encoded = value.encode("utf-8")
            piece = bytearray((_STR,))
            _write_uvarint(piece, len(encoded))
            piece += encoded
            chunk = bytes(piece)
            if len(_STR_ENC_CACHE) < _STR_ENC_CACHE_LIMIT:
                _STR_ENC_CACHE[value] = chunk
            out += chunk
            return
        encoded = value.encode("utf-8")
        out.append(_STR)
        _write_uvarint(out, len(encoded))
        out += encoded

    @staticmethod
    def _enc_bytes(out: bytearray, value) -> None:
        length = len(value)
        if length < 0x80:
            out += _SHORT_BYTES_HEADER[length]
        else:
            out.append(_BYTES)
            _write_uvarint(out, length)
        out += value

    def _enc_items(self, out: bytearray, items) -> None:
        encoders = self._encoders
        for item in items:
            encoder = encoders.get(item.__class__)
            if encoder is None:
                encoder = self._resolve_encoder(item)
            encoder(out, item)

    def _enc_list(self, out: bytearray, value) -> None:
        out.append(_LIST)
        _write_uvarint(out, len(value))
        self._enc_items(out, value)

    def _enc_tuple(self, out: bytearray, value) -> None:
        out.append(_TUPLE)
        _write_uvarint(out, len(value))
        self._enc_items(out, value)

    def _enc_dict(self, out: bytearray, value) -> None:
        out.append(_DICT)
        _write_uvarint(out, len(value))
        encode_item = self._encode
        for key, item in value.items():
            encode_item(out, key)
            encode_item(out, item)

    # Registered-type code ------------------------------------------------

    def _make_enum_encoder(self, cls: type):
        prefix = bytearray([_ENUM])
        _write_uvarint(prefix, self.registry.id_of(cls))
        prefix = bytes(prefix)
        encode_inner = self._encode

        def enc(out: bytearray, value) -> None:
            out += prefix
            encode_inner(out, value.value)

        return enc

    def _compile(self, cls: type, part: str):
        """Generate, install and return one of ``cls``'s per-type functions.

        ``part`` is ``"enc"`` (takes ``(out, value)``), ``"dec"`` (takes
        ``(data, pos)`` with ``pos`` just past the type id, returns
        ``(instance, end)``) or ``"conforms"`` (takes a value). All three
        sources come from one pass over the registry's fields, but only
        the requested one is compiled: a type that is only ever encoded
        never pays for its decoder.
        """
        type_id = self.registry.id_of(cls)
        fields = self.registry.fields_of(cls)
        name = cls.__name__
        prefix = bytearray([_DATACLASS])
        _write_uvarint(prefix, type_id)
        _write_uvarint(prefix, len(fields))
        namespace = {
            "PREFIX": bytes(prefix),
            "CLS": cls,
            "NEW": object.__new__,
            "encode_any": self._encode,
            "enc_int": self._enc_int,
            "enc_str": self._enc_str,
            "enc_bytes": self._enc_bytes,
            "small_int": _SMALL_INT_CHUNK,
            "short_bytes": _SHORT_BYTES_HEADER,
            "str_cache": _STR_ENC_CACHE,
            "tagged_float": _TAGGED_FLOAT.pack,
            "decode": self._decode,
            "unpack_float": _FLOAT_STRUCT.unpack_from,
            "short": self._decode_short,
            "conforms_any": self.conforms,
            "plain": _PLAIN_CLASSES,
            "DecodeError": DecodeError,
        }
        enc = ["def enc(out, value):", "    out += PREFIX"]
        # A field count of 128 or more is a multi-byte varint; such a
        # class always takes the generic path (never the case today).
        dec = [
            "def dec(data, pos):",
            "    n = len(data)",
            "    if pos >= n:",
            "        raise DecodeError('truncated varint')",
            f"    if data[pos] != {len(fields) if len(fields) < 0x80 else -1}:",
            "        return short(CLS, data, pos)",
            "    pos += 1",
        ]
        checks = []
        for index, field in enumerate(fields):
            kind, accepted = _field_kind(field.type)
            var = f"v{index}"
            enc.append(f"    {var} = value.{field.name}")
            enc += _with_fallback(_ENCODE_FAST.get(kind), _ENCODE_DISPATCH, var)
            fallback = ["{v}, pos = decode(data, pos)"]
            if accepted is None:
                checks.append(
                    f"(value.{field.name}.__class__ in plain"
                    f" or conforms_any(value.{field.name}))"
                )
            else:
                namespace[f"accepted_{index}"] = accepted
                namespace[f"mismatch_{index}"] = f"{name}.{field.name}: expected {kind}, got "
                fallback += [
                    f"if {{v}}.__class__ not in accepted_{index}:",
                    f"    raise DecodeError(mismatch_{index} + {{v}}.__class__.__name__)",
                ]
                checks.append(f"value.{field.name}.__class__ in accepted_{index}")
            dec += _with_fallback(_DECODE_FAST.get(kind), fallback, var)
        if has_direct_init(cls) and all(field.init for field in fields):
            dec += ["    obj = NEW(CLS)", "    d = obj.__dict__"]
            dec += [
                f"    d[{field.name!r}] = v{index}" for index, field in enumerate(fields)
            ]
            if hasattr(cls, "__post_init__"):
                dec += [
                    "    try:",
                    "        obj.__post_init__()",
                    "    except (TypeError, ValueError) as exc:",
                    f"        raise DecodeError(f'cannot construct {name}: {{exc}}')",
                ]
            dec.append("    return obj, pos")
        else:
            values = ", ".join(f"v{index}" for index in range(len(fields)))
            dec += [
                "    try:",
                f"        return CLS({values}), pos",
                "    except (TypeError, ValueError) as exc:",
                f"        raise DecodeError(f'cannot construct {name}: {{exc}}')",
            ]
        conform = ["def conforms(value):", f"    return {' and '.join(checks) or 'True'}"]
        source = {"enc": enc, "dec": dec, "conforms": conform}[part]
        exec(compile("\n".join(source) + "\n", f"<wire-codec {name}.{part}>", "exec"), namespace)
        function = namespace[part]
        if part == "enc":
            self._encoders[cls] = function
        elif part == "dec":
            self._decoders[type_id] = function
        else:
            self._conformers[cls] = function
        return function

    # -- decoding -----------------------------------------------------------

    def _decode(self, data, pos: int):
        # The branch order is by decoded-value frequency in protocol
        # traffic (strings/ints/bytes inside dataclass messages), and the
        # common one-byte varint is inlined — this function runs several
        # times per field of every message a simulation delivers.
        # ``data`` is bytes or a memoryview; every read below (indexing,
        # str()/bytes() construction, unpack_from) is buffer-polymorphic,
        # so a memoryview input is never copied into an intermediate
        # bytes object on the way to the decoded values.
        n = len(data)
        if pos >= n:
            raise DecodeError("truncated input")
        tag = data[pos]
        pos += 1
        if tag == _STR:
            if pos >= n:
                raise DecodeError("truncated varint")
            length = data[pos]
            if length < 0x80:
                pos += 1
            else:
                length, pos = _read_uvarint(data, pos)
            if pos + length > n:
                raise DecodeError("truncated string")
            try:
                # str(buffer, "utf-8") decodes straight from the buffer —
                # no intermediate bytes slice.
                return str(data[pos : pos + length], "utf-8"), pos + length
            except UnicodeDecodeError as exc:
                raise DecodeError(f"invalid utf-8: {exc}")
        if tag == _INT:
            if pos >= n:
                raise DecodeError("truncated varint")
            raw = data[pos]
            if raw < 0x80:
                pos += 1
            else:
                raw, pos = _read_uvarint(data, pos)
            magnitude = raw >> 1
            return (-magnitude if raw & 1 else magnitude), pos
        if tag == _BYTES:
            if pos >= n:
                raise DecodeError("truncated varint")
            length = data[pos]
            if length < 0x80:
                pos += 1
            else:
                length, pos = _read_uvarint(data, pos)
            if pos + length > n:
                raise DecodeError("truncated bytes")
            # bytes(x) is a no-op for a bytes slice and materializes a
            # memoryview slice; decoded values are always real bytes.
            return bytes(data[pos : pos + length]), pos + length
        if tag == _DATACLASS:
            type_id, pos = _read_uvarint(data, pos)
            decoder = self._decoders.get(type_id)
            if decoder is None:
                cls = self.registry.type_of(type_id)
                if not dataclasses.is_dataclass(cls):
                    raise DecodeError(f"wire type id {type_id} is not a dataclass")
                decoder = self._compile(cls, "dec")
            return decoder(data, pos)
        if tag == _NONE:
            return None, pos
        if tag == _TRUE:
            return True, pos
        if tag == _FALSE:
            return False, pos
        if tag == _FLOAT:
            if pos + 8 > n:
                raise DecodeError("truncated float")
            return _FLOAT_STRUCT.unpack_from(data, pos)[0], pos + 8
        if tag in (_LIST, _TUPLE):
            count, pos = _read_uvarint(data, pos)
            items = []
            for _ in range(count):
                item, pos = self._decode(data, pos)
                items.append(item)
            return (tuple(items) if tag == _TUPLE else items), pos
        if tag == _DICT:
            count, pos = _read_uvarint(data, pos)
            result = {}
            for _ in range(count):
                key, pos = self._decode(data, pos)
                value, pos = self._decode(data, pos)
                try:
                    result[key] = value
                except TypeError as exc:
                    raise DecodeError(f"invalid dict key: {exc}") from None
            return result, pos
        if tag == _ENUM:
            type_id, pos = _read_uvarint(data, pos)
            cls = self.registry.type_of(type_id)
            if not isinstance(cls, enum.EnumMeta):
                raise DecodeError(f"wire type id {type_id} is not an enum")
            raw, pos = self._decode(data, pos)
            try:
                return cls(raw), pos
            except (TypeError, ValueError) as exc:
                raise DecodeError(f"invalid enum value for {cls.__name__}: {exc}")
        raise DecodeError(f"unknown tag byte {tag:#04x}")

    def _decode_short(self, cls: type, data, pos: int):
        """Decode a dataclass frame whose field count is not the full one.

        A frame written before trailing default fields were added (e.g.
        ``ClientRequest.trace_id``) decodes by filling the missing tail
        from the defaults; a frame with more fields than the class, or
        missing a field that has no default, is malformed. The decoded
        fields get the same type checks as the generated decoder's.
        """
        count, pos = _read_uvarint(data, pos)
        fields = self.registry.fields_of(cls)
        if count > len(fields):
            raise DecodeError(f"{cls.__name__}: expected {len(fields)} fields, got {count}")
        values = []
        for field in fields[:count]:
            value, pos = self._decode(data, pos)
            accepted = _field_kind(field.type)[1]
            if accepted is not None and value.__class__ not in accepted:
                raise DecodeError(
                    f"{cls.__name__}.{field.name}: got {value.__class__.__name__}"
                )
            values.append(value)
        for field in fields[count:]:
            if field.default is not dataclasses.MISSING:
                values.append(field.default)
            elif field.default_factory is not dataclasses.MISSING:
                values.append(field.default_factory())
            else:
                raise DecodeError(
                    f"{cls.__name__}: expected {len(fields)} fields, got "
                    f"{count}, and field {field.name!r} has no default"
                )
        try:
            return cls(*values), pos
        except (TypeError, ValueError) as exc:
            raise DecodeError(f"cannot construct {cls.__name__}: {exc}")


#: Codec over the global registry; what the protocol stacks use.
DEFAULT_CODEC = Codec()


def encode(value) -> bytes:
    """Encode ``value`` with the default (global-registry) codec."""
    return DEFAULT_CODEC.encode(value)


def decode(data):
    """Decode ``data`` with the default (global-registry) codec."""
    return DEFAULT_CODEC.decode(data)


def decode_from(data, pos: int = 0) -> tuple:
    """Cursor decode with the default codec; returns ``(value, end)``."""
    return DEFAULT_CODEC.decode_from(data, pos)


# -- whole-message encoding with a lazy digest ------------------------------


class EncodedMessage:
    """A message together with its canonical encoding and lazy digest.

    The truncated content digest (what PROPOSE hashing and reply voting
    compare) is computed on first access only.
    """

    __slots__ = ("message", "payload", "_digest")

    def __init__(self, message, payload: bytes) -> None:
        self.message = message
        self.payload = payload
        self._digest: bytes | None = None

    @property
    def digest(self) -> bytes:
        if self._digest is None:
            from repro.crypto.digest import digest as _content_digest

            self._digest = _content_digest(self.payload)
        return self._digest

    def __len__(self) -> int:
        return len(self.payload)

    def __repr__(self) -> str:
        return (
            f"<EncodedMessage {type(self.message).__name__} "
            f"{len(self.payload)} bytes>"
        )


#: Per-class immutability (frozen dataclasses, whose identity pins their
#: content): what the channel's decode-share cache may hand to several
#: receivers.
_FROZEN_CLASS: dict[type, bool] = {}


def _is_frozen_dataclass(cls: type) -> bool:
    frozen = _FROZEN_CLASS.get(cls)
    if frozen is None:
        params = getattr(cls, "__dataclass_params__", None)
        frozen = bool(params is not None and params.frozen)
        _FROZEN_CLASS[cls] = frozen
    return frozen


def encode_cached(message) -> EncodedMessage:
    """Encode ``message`` (default codec) into an :class:`EncodedMessage`.

    A fresh encode every call: nothing is memoized on the message.
    """
    return EncodedMessage(message, DEFAULT_CODEC.encode(message))


def clear_encode_cache() -> None:
    """Drop the string-chunk cache (for a cold measurement)."""
    _STR_ENC_CACHE.clear()
