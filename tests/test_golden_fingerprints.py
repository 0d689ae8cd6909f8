"""Golden fingerprints: seeded runs must reproduce recorded sha256 digests.

Every digest below was recorded before the simulator's hot path was
reworked, on a tree where two independent event kernels (a binary heap
and a timer wheel) produced the identical value for every entry. A
change that moves any scheduling decision — an extra or reordered
event, a changed frame size, a different RNG draw — changes at least
one of them.

Five things are pinned, each on seeds 1-3:

- the decided request stream and the replica state digests of a bare
  BFT-SMaRt echo group;
- the decided stream and ``state_digests()`` of a SMaRt-SCADA update run;
- the campaign fingerprint of every ``crash-restart-*`` chaos scenario;
- the global alarm order of a 2-shard deployment;
- the intrusion detector's detections of a planted falsifying replica.

To re-record after an intentional schedule change, run
``python tests/test_golden_fingerprints.py`` and paste its output over
``GOLDEN`` (and say why in the change description).
"""

import hashlib

import pytest

from repro.bftsmart import EchoService, GroupConfig, build_group, build_proxy
from repro.crypto import KeyStore, digest
from repro.net import LanLatency, Network
from repro.sim import Simulator
from repro.wire import decode

SEEDS = (1, 2, 3)
CRASH_RESTART = ("intact", "torn", "corrupt", "wiped")


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _decided_stream(replica) -> list:
    stream = []
    for cid, value, _timestamp in replica.decision_log:
        if value == b"":
            continue
        for request in decode(value).requests:
            stream.append((cid, request.client_id, request.sequence))
    return stream


def echo_group(seed: int) -> str:
    """Two open-loop clients against an n=4 echo group."""
    sim = Simulator(seed=seed)
    net = Network(sim, latency=LanLatency(rng=sim.rng.stream("net")))
    keystore = KeyStore()
    config = GroupConfig(n=4, f=1, batch_max=8, batch_wait=0.0005)
    replicas = build_group(sim, net, config, EchoService, keystore)
    payloads = sim.rng.stream("payloads")
    replies = []

    def sender(proxy):
        for _ in range(25):
            body = payloads.getrandbits(64).to_bytes(8, "big")
            replies.append(proxy.invoke_ordered(body))
            yield sim.timeout(0.002)

    for i in range(2):
        proxy = build_proxy(sim, net, f"client-{i}", config, keystore, invoke_timeout=30.0)
        sim.process(sender(proxy))
    sim.run(until=5.0)
    assert all(reply.ok for reply in replies)
    return _sha(
        (
            sim.dispatched,
            [_decided_stream(r) for r in replicas],
            [digest(r.service.snapshot()) for r in replicas],
            [reply.value for reply in replies],
        )
    )


def scada_update(seed: int) -> str:
    """Alarming and plain updates plus one HMI write through SMaRt-SCADA."""
    from repro.core import build_smartscada
    from repro.neoscada import HandlerChain, Monitor

    sim = Simulator(seed=seed)
    system = build_smartscada(sim)
    system.frontend.add_item("plant.temperature", initial=20)
    system.frontend.add_item("plant.valve", initial=0, writable=True)
    system.attach_handlers("plant.temperature", lambda: HandlerChain([Monitor(high=80.0)]))
    system.start()
    writes = []

    def scenario():
        for i in range(20):
            system.frontend.inject_update("plant.temperature", 95 if i % 2 else 20 + i)
            yield sim.timeout(0.02)
        result = yield system.hmi.write("plant.valve", 1)
        writes.append(result.success)
        yield sim.timeout(0.5)

    sim.run_process(scenario(), until=30)
    replicas = [pm.replica for pm in system.proxy_masters]
    return _sha(
        (
            sim.dispatched,
            [_decided_stream(r) for r in replicas],
            system.state_digests(),
            writes,
        )
    )


def crash_restart(damage: str, seed: int) -> str:
    from repro.chaos import get_scenario, run_campaign

    scenario = get_scenario(f"crash-restart-{damage}")
    return run_campaign(scenario.schedule(), scenario.config(seed=seed)).fingerprint()


def global_ae_order(seed: int) -> str:
    from repro.neoscada import HandlerChain, Monitor
    from repro.shard import ShardedScadaConfig, build_sharded_scada

    sim = Simulator(seed=seed)
    system = build_sharded_scada(sim, config=ShardedScadaConfig(shards=2))
    items = [f"plant.sensor-{i}" for i in range(8)]
    for item in items:
        system.frontend.add_item(item, initial=0)
        system.attach_handlers(item, lambda: HandlerChain([Monitor(high=80.0)]))
    system.start()

    def workload():
        for rnd in range(3):
            for i, item in enumerate(items):
                system.frontend.inject_update(item, 95 if (i + rnd) % 3 == 0 else 20)
                yield sim.timeout(0.02)
        yield sim.timeout(0.5)

    sim.run_process(workload(), until=60)
    system.flush_events()
    return _sha(
        (
            sim.dispatched,
            [
                (e.item_id, e.event_type, e.value, e.timestamp)
                for e in system.hmi.events
                if e.event_type == "alarm"
            ],
        )
    )


def ids_detections(seed: int) -> str:
    from repro.chaos import Schedule, SwapByzantine, run_campaign
    from repro.chaos.campaign import CampaignConfig

    schedule = Schedule([SwapByzantine(at=1.5, index=2, behaviour="falsifying", duration=3.0)])
    report = run_campaign(schedule, CampaignConfig(seed=seed, ids=True))
    assert report.detections
    return _sha((report.fingerprint(), report.detections, report.ids_score))


CASES = {
    **{("echo-group", seed): (echo_group, seed) for seed in SEEDS},
    **{("scada-update", seed): (scada_update, seed) for seed in SEEDS},
    **{
        (f"crash-restart-{damage}", seed): (crash_restart, damage, seed)
        for damage in CRASH_RESTART
        for seed in SEEDS
    },
    **{("global-ae-order", seed): (global_ae_order, seed) for seed in SEEDS},
    **{("ids-detections", seed): (ids_detections, seed) for seed in SEEDS},
}

GOLDEN = {
    ("crash-restart-corrupt", 1): "8d30499143aa6adc4997058e478028b1cd826d4f9b2f103c52f5a6b0259745f5",
    ("crash-restart-corrupt", 2): "94f0370eb3a0783e2b0de225fe5e365d046ac8724154776d8ecc114569146218",
    ("crash-restart-corrupt", 3): "de02ef8d2789d8e35948607ac1f756dd2be174e0db120989f235f48ccf0765a8",
    ("crash-restart-intact", 1): "d993635805cf6ce42f3aa369c5f071b0fef5c5c1ef274a6aa3d726ca8b1f4e6b",
    ("crash-restart-intact", 2): "6766b25985c6c46a2585fd95d3e2786d2a682b21d798ee3bf2e2386ef4984709",
    ("crash-restart-intact", 3): "6a8b2e8805e3d1b85ca422a97ba398a4028aca52bb56de295db9a38ca7265e4a",
    ("crash-restart-torn", 1): "8d30499143aa6adc4997058e478028b1cd826d4f9b2f103c52f5a6b0259745f5",
    ("crash-restart-torn", 2): "94f0370eb3a0783e2b0de225fe5e365d046ac8724154776d8ecc114569146218",
    ("crash-restart-torn", 3): "de02ef8d2789d8e35948607ac1f756dd2be174e0db120989f235f48ccf0765a8",
    ("crash-restart-wiped", 1): "8d30499143aa6adc4997058e478028b1cd826d4f9b2f103c52f5a6b0259745f5",
    ("crash-restart-wiped", 2): "94f0370eb3a0783e2b0de225fe5e365d046ac8724154776d8ecc114569146218",
    ("crash-restart-wiped", 3): "de02ef8d2789d8e35948607ac1f756dd2be174e0db120989f235f48ccf0765a8",
    ("echo-group", 1): "eb5604b4efec2c4815f54a40768b7aa19943e927a35ed1a9dbbb0a60862b954a",
    ("echo-group", 2): "213b0dc44a2e48cc0bc030625317ec74f6e8abf89ed218e8239d8fa30edffdfd",
    ("echo-group", 3): "50b79ad9ba8bd727cbfd91b6b1df4ca8ea249c20afb97c982ce4da36622b680b",
    ("global-ae-order", 1): "5a211d7bde52cc3ae5b6fa90e2e31126abe08ea1f07caae1669f17b61fa2d7e3",
    ("global-ae-order", 2): "5778a86dceee3458646d27aabb0a6d24724708163d4a321cdcb9d20eccc56cf0",
    ("global-ae-order", 3): "d81374d96dfd7efc338fc1e53a9663166bc836057e388542f77d746adc352096",
    ("ids-detections", 1): "829c574fe3e583a2621c7a5f2adc2c8d9294215bcaba3d0f185f13bc6a5356ea",
    ("ids-detections", 2): "c49e14e90a2c32a9a33e82827fb5cdf22f2d091f40618e545690f8ef38079711",
    ("ids-detections", 3): "9c45e24e13d724beb0953442da356bf15eeb9f55675ad013731e4c0aaf6c9128",
    ("scada-update", 1): "8e977334fc40240a107e5342332bfb1d56a3eff00cd323711f51a9928ac70e64",
    ("scada-update", 2): "08eee2e9afa40975fc8389ca484d6e82c9cecbd362e86369cc5bc7964a6036c7",
    ("scada-update", 3): "6c3f188b2db6dc71ef4cda39fde6de87261ceb1335412be47f2c3af9a6e4c09d",
}


@pytest.mark.parametrize("case", sorted(CASES), ids=lambda case: f"{case[0]}-seed{case[1]}")
def test_golden_fingerprint(case):
    fn, *args = CASES[case]
    assert fn(*args) == GOLDEN[case]


if __name__ == "__main__":
    for case in sorted(CASES):
        fn, *args = CASES[case]
        print(f"    {case!r}: {fn(*args)!r},")
