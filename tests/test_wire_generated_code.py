"""Equivalence and robustness tests for the generated per-type code.

Three generated pieces replace stock Python machinery on the message hot
path, and each must be indistinguishable from what it replaces:

- the direct ``__dict__``-filling ``__init__`` of frozen dataclasses
  (:func:`repro.wire.registry.install_direct_init`) against the stock
  frozen ``__init__``;
- the per-type decoder's field type checks, which turn ill-typed frames
  into :class:`DecodeError` (never a bare ``TypeError``);
- the precomputed-pad HMAC (:func:`repro.crypto.mac.hmac_sha256_pads`)
  against ``hmac.new``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import hmac
import inspect
import random

import pytest

from repro.bftsmart import EchoService, GroupConfig, build_group, build_proxy
from repro.bftsmart.messages import ClientRequest, Reply, WriteMsg
from repro.bftsmart.service import MessageContext
from repro.crypto import Authenticator, KeyStore, MacVector, Signature, Signer, Verifier
from repro.crypto.mac import MAC_SIZE, hmac_sha256_pads
from repro.net import LanLatency, Network
from repro.neoscada.messages import EventQuery, ValueQueryReply
from repro.neoscada.values import DataValue, Quality
from repro.sim import Simulator
from repro.wire import DEFAULT_CODEC, GLOBAL_REGISTRY, DecodeError, decode, encode
from repro.wire.registry import has_direct_init, install_direct_init

from tests.test_wire_golden_frames import instances


def _stock_twin(cls: type) -> type:
    """The same frozen dataclass, keeping the stock generated ``__init__``."""
    specs = [
        (
            field.name,
            field.type,
            dataclasses.field(
                default=field.default,
                default_factory=field.default_factory,
                init=field.init,
                repr=field.repr,
                hash=field.hash,
                compare=field.compare,
            ),
        )
        for field in dataclasses.fields(cls)
    ]
    namespace = {}
    if "__post_init__" in cls.__dict__:
        namespace["__post_init__"] = cls.__dict__["__post_init__"]
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True, namespace=namespace)


def _hot_instances() -> list:
    context = MessageContext(
        cid=7, order=0, timestamp=1.5, regency=0, client_id="c", sequence=3, replica="r0"
    )
    samples = [context, Signature("replica-0", b"\x07" * 32)]
    samples += [
        value for value in instances().values() if dataclasses.is_dataclass(value)
    ]
    return samples


@pytest.mark.parametrize(
    "instance", _hot_instances(), ids=lambda value: type(value).__name__
)
def test_direct_init_matches_the_stock_frozen_init(instance):
    cls = type(instance)
    twin = _stock_twin(cls)
    assert has_direct_init(cls)
    assert str(inspect.signature(cls)) == str(inspect.signature(twin))
    values = {field.name: getattr(instance, field.name) for field in dataclasses.fields(cls)}
    mine, stock = cls(**values), twin(**values)
    assert vars(mine) == vars(stock)
    assert list(vars(mine)) == list(vars(stock))
    assert repr(mine) == repr(stock)
    assert mine == instance and mine is not instance
    try:
        expected_hash = hash(stock)
    except TypeError:
        with pytest.raises(TypeError):
            hash(mine)
    else:
        assert hash(mine) == expected_hash
    first = dataclasses.fields(cls)[0].name
    assert vars(dataclasses.replace(mine, **{first: values[first]})) == vars(
        dataclasses.replace(stock, **{first: values[first]})
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(mine, first, values[first])
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(mine, first)


def test_direct_init_keeps_defaults_factories_and_post_init():
    calls = []

    @install_direct_init
    @dataclasses.dataclass(frozen=True)
    class Sample:
        a: int
        b: list = dataclasses.field(default_factory=list)
        c: str = "c"
        d: int = dataclasses.field(default=4, init=False)

        def __post_init__(self) -> None:
            calls.append(self.a)
            object.__setattr__(self, "b", tuple(self.b))

    assert has_direct_init(Sample)
    first, second = Sample(1), Sample(2)
    assert (first.b, first.c, first.d) == ((), "c", 4)
    assert Sample(3, [1, 2], "x") == Sample(a=3, b=[1, 2], c="x")
    assert Sample(3, [1]).b == (1,)
    assert calls[:2] == [1, 2]
    assert str(inspect.signature(Sample)) == "(a: 'int', b: 'list' = <factory>, c: 'str' = 'c') -> None"
    with pytest.raises(TypeError):
        Sample()
    with pytest.raises(TypeError):
        Sample(1, d=5)


def test_direct_init_leaves_unsupported_classes_alone():
    @dataclasses.dataclass(frozen=True, slots=True)
    class Slotted:
        a: int

    @dataclasses.dataclass(frozen=True)
    class KeywordOnly:
        a: int = dataclasses.field(kw_only=True)

    @dataclasses.dataclass(frozen=True)
    class HandWritten:
        a: int

        def __init__(self, a) -> None:
            object.__setattr__(self, "a", a * 2)

    for cls in (Slotted, KeywordOnly, HandWritten):
        stock = cls.__init__
        install_direct_init(cls)
        assert cls.__init__ is stock
    assert HandWritten(2).a == 4


def test_post_init_validation_still_runs():
    with pytest.raises(ValueError, match="signature tag must be"):
        Signature("replica-0", b"short")
    vector = MacVector("replica-0", {"b": b"2", "a": b"1"})
    assert vector.tags == (("a", b"1"), ("b", b"2"))
    with pytest.raises(TypeError):
        MacVector("replica-0", ["a"])
    with pytest.raises(TypeError):
        DataValue(value=[1])


# -- tags -----------------------------------------------------------------

KEY_LENGTHS = (0, 16, 32, 64, 65, 200)
PAYLOADS = (b"", b"x", bytes(range(256)) * 5)


class _FixedKeys(KeyStore):
    """Hands out one fixed key for every pair and every principal."""

    def __init__(self, key: bytes) -> None:
        super().__init__()
        self._fixed = key

    def pair_key(self, a: str, b: str) -> bytes:
        return self._fixed

    def signing_key(self, principal: str) -> bytes:
        return self._fixed


@pytest.mark.parametrize("length", KEY_LENGTHS)
def test_pad_tags_equal_hmac_new(length):
    key = bytes((7 * i + length) % 256 for i in range(length))
    tag = hmac_sha256_pads(key)
    for payload in PAYLOADS:
        expected = hmac.new(key, payload, hashlib.sha256).digest()
        assert tag(payload) == expected
        assert tag(bytearray(payload)) == expected
        assert tag(memoryview(payload)) == expected


@pytest.mark.parametrize("length", KEY_LENGTHS)
def test_authenticator_and_signer_tags_equal_hmac_new(length):
    key = bytes((3 * i + 1) % 256 for i in range(length))
    keystore = _FixedKeys(key)
    auth = Authenticator("a", keystore)
    signer = Signer("a", keystore)
    verifier = Verifier(keystore)
    for payload in PAYLOADS:
        expected = hmac.new(key, payload, hashlib.sha256).digest()
        # bytearray payloads bypass the MAC and signature memos.
        assert auth.mac("b", bytearray(payload)) == expected[:MAC_SIZE]
        assert auth.mac("b", payload) == expected[:MAC_SIZE]
        assert auth.verify("b", payload, expected[:MAC_SIZE])
        assert signer.sign(bytearray(payload)).tag == expected
        assert signer.sign(payload).tag == expected
        assert verifier.verify(Signature("a", expected), bytearray(payload))
        assert not verifier.verify(Signature("a", bytes(32)), bytearray(payload))


# -- decode-time checks -----------------------------------------------------


def test_unhashable_dict_keys_raise_decode_error():
    # A dict whose key is a list, and a dict whose key is a dict.
    for frame in (bytes([0x09, 1, 0x07, 0, 0x00]), bytes([0x09, 1, 0x09, 0, 0x00])):
        with pytest.raises(DecodeError):
            decode(frame)


def _frame(cls, *raw_fields) -> bytes:
    """A dataclass frame of ``cls`` carrying arbitrary encoded values."""
    head = bytes([0x0A, GLOBAL_REGISTRY.id_of(cls), len(raw_fields)])
    return head + b"".join(encode(value) for value in raw_fields)


@pytest.mark.parametrize(
    ("cls", "fields"),
    [
        (WriteMsg, ("r", "a", 0, b"d")),  # str in an int field
        (WriteMsg, ("r", True, 0, b"d")),  # bool is not an int
        (WriteMsg, ("r", None, 0, b"d")),  # None only where annotated
        (WriteMsg, (3, 0, 0, b"d")),  # int in a str field
        (WriteMsg, ("r", 0, 0, "d")),  # str in a bytes field
        (WriteMsg, ("r", 0, [0], b"d")),  # list in an int field
        (Reply, ("r", "c", 1, b"x", 0, 1.5)),  # float in an int field
        (ClientRequest, ("c", 1, b"op", "c", 1, b"", "")),  # int in a bool field
        (ClientRequest, ("c", "1", b"op", "c")),  # short frame: checked too
        (EventQuery, ("q", "h", "*", "0", 1.0, None, 5)),  # str in a float field
        (EventQuery, ("q", "h", "*", 0.0, 1.0, 5, 5)),  # int in a str | None field
    ],
)
def test_ill_typed_fields_raise_decode_error(cls, fields):
    frame = _frame(cls, *fields)
    with pytest.raises(DecodeError):
        decode(frame)
    with pytest.raises(DecodeError):
        DEFAULT_CODEC.decode_from(frame)


def test_annotated_widenings_still_decode():
    # A float field accepts an int; an optional field accepts None.
    query = decode(_frame(EventQuery, "q", "h", "*", 0, 5, None, None))
    assert (query.start, query.end, query.event_type, query.limit) == (0, 5, None, None)
    assert decode(_frame(ValueQueryReply, "q", "i", None)).value is None
    value = DataValue(value=3, quality=Quality.BAD, timestamp=2)
    assert decode(encode(value)) == value


def test_tag_confusion_between_enums_and_dataclasses_is_rejected():
    quality_id = GLOBAL_REGISTRY.id_of(Quality)
    write_id = GLOBAL_REGISTRY.id_of(WriteMsg)
    with pytest.raises(DecodeError):
        decode(bytes([0x0A, quality_id, 1]) + encode("good"))
    with pytest.raises(DecodeError):
        decode(bytes([0x0B, write_id]) + encode("good"))


def test_deep_nesting_raises_decode_error():
    with pytest.raises(DecodeError):
        decode(bytes([0x07, 1]) * 100_000 + bytes([0x00]))


def test_conforms_mirrors_the_decoder_checks():
    good = WriteMsg("r", 1, 0, b"d")
    bad = WriteMsg("r", "a", 0, b"d")
    assert DEFAULT_CODEC.conforms(good)
    assert not DEFAULT_CODEC.conforms(bad)
    assert not DEFAULT_CODEC.conforms((1, {"k": [bad]}))
    assert DEFAULT_CODEC.conforms((1, {"k": [good]}))
    for instance in instances().values():
        assert DEFAULT_CODEC.conforms(instance)
    with pytest.raises(DecodeError):
        decode(encode(bad))


def _echo_group(seed: int = 5):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=LanLatency(rng=sim.rng.stream("net")))
    keystore = KeyStore()
    config = GroupConfig(n=4, f=1, batch_max=8, batch_wait=0.0005)
    replicas = build_group(sim, net, config, EchoService, keystore)
    proxy = build_proxy(sim, net, "client-0", config, keystore, invoke_timeout=5.0)
    return sim, replicas, proxy


def test_ill_typed_write_from_an_authenticated_replica_is_rejected():
    """A faulty replica with valid keys seals ``WriteMsg(cid="a")``.

    The receiver must count it in ``rejected`` and the group must keep
    deciding, instead of the run aborting with a ``TypeError``.
    """
    sim, replicas, proxy = _echo_group()
    faulty, target = replicas[3], replicas[1]
    replies = []

    def client():
        for i in range(10):
            replies.append((yield proxy.invoke_ordered(b"op-%d" % i)))
            if i == 4:
                before = target.channel.rejected
                faulty.channel.send(
                    target.address,
                    WriteMsg(sender=faulty.address, cid="a", epoch=0, value_digest=bytes(20)),
                )
                yield sim.timeout(0.01)
                assert target.channel.rejected == before + 1

    sim.run_process(client(), until=10.0)
    assert replies == [b"op-%d" % i for i in range(10)]
    assert all(len(replica.decision_log) >= 1 for replica in replicas)


# -- mutation fuzz ------------------------------------------------------------


def _captured_frames() -> list:
    """Distinct frames encoded during a short echo-group and SMaRt-SCADA run."""
    from repro.core import build_smartscada

    frames: dict = {}
    encode_method = DEFAULT_CODEC.encode

    def recording_encode(value):
        frame = encode_method(value)
        if len(frames) < 1500:
            frames.setdefault(frame, None)
        return frame

    DEFAULT_CODEC.encode = recording_encode
    try:
        sim, _replicas, proxy = _echo_group(seed=2)

        def client():
            for i in range(20):
                yield proxy.invoke_ordered(bytes([i]) * (i * 9))

        sim.run_process(client(), until=5.0)

        sim = Simulator(seed=3)
        system = build_smartscada(sim)
        system.frontend.add_item("plant.temperature", initial=20)
        system.frontend.add_item("plant.valve", initial=0, writable=True)
        system.start()

        def scenario():
            for i in range(10):
                system.frontend.inject_update("plant.temperature", 20 + 9 * i)
                yield sim.timeout(0.02)
            yield system.hmi.write("plant.valve", 1)

        sim.run_process(scenario(), until=10.0)
    finally:
        del DEFAULT_CODEC.encode
    return list(frames)


def test_single_byte_mutations_only_ever_raise_decode_error():
    frames = _captured_frames()
    assert len(frames) >= 200
    rng = random.Random(20181)
    decoded = rejected = 0
    for _ in range(4000):
        frame = bytearray(rng.choice(frames))
        frame[rng.randrange(len(frame))] = rng.randrange(256)
        try:
            decode(bytes(frame))
        except DecodeError:
            rejected += 1
        else:
            decoded += 1
    assert decoded + rejected == 4000
    assert rejected > 0
