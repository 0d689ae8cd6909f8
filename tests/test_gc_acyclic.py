"""The simulation hot path creates no reference cycles.

Every dispatched event and every sealed message must be freed by
reference counting alone. A per-event or per-message cycle hands each
such object to CPython's cyclic garbage collector instead, which then
costs a large share of a run's wall time (17% on the BFT microbenchmark
when the kernel's entry<->event links and a per-message encode memo
both formed cycles).

Each test builds a deployment, collects the set-up garbage, runs a short
seeded workload with the collector disabled, empties the hot-path caches
(so the messages they still hold become garbage too), and asserts that a
final collection finds nothing unreachable.
"""

import gc
from collections import Counter

import pytest

from repro.bftsmart import EchoService, GroupConfig, build_group, build_proxy
from repro.crypto import KeyStore
from repro.net import LanLatency, Network
from repro.perf import clear_hot_path_caches
from repro.sim import Simulator


def echo_group():
    sim = Simulator(seed=1)
    net = Network(sim, latency=LanLatency(rng=sim.rng.stream("net")))
    keystore = KeyStore()
    config = GroupConfig(n=4, f=1, batch_max=8, batch_wait=0.0005)
    build_group(sim, net, config, EchoService, keystore)

    def sender(proxy):
        for k in range(50):
            yield proxy.invoke_ordered(b"op-%d" % k)

    for i in range(2):
        proxy = build_proxy(sim, net, f"client-{i}", config, keystore, invoke_timeout=30.0)
        sim.process(sender(proxy))
    return sim, lambda: sim.run(until=3.0)


def scada_update():
    from repro.core import build_smartscada
    from repro.neoscada import HandlerChain, Monitor

    sim = Simulator(seed=1)
    system = build_smartscada(sim)
    system.frontend.add_item("plant.temperature", initial=20)
    system.frontend.add_item("plant.valve", initial=0, writable=True)
    system.attach_handlers("plant.temperature", lambda: HandlerChain([Monitor(high=80.0)]))
    system.start()

    def scenario():
        for i in range(40):
            system.frontend.inject_update("plant.temperature", 95 if i % 2 else 20 + i)
            yield sim.timeout(0.02)
        yield system.hmi.write("plant.valve", 1)
        yield sim.timeout(0.5)

    return sim, lambda: sim.run_process(scenario(), until=30)


@pytest.fixture
def collector_off():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("build", [echo_group, scada_update], ids=lambda fn: fn.__name__)
def test_run_leaves_no_cyclic_garbage(build, collector_off):
    sim, run = build()
    gc.collect()  # set-up garbage is not what this test is about
    run()
    assert sim.dispatched > 2000
    clear_hot_path_caches()
    gc.set_debug(gc.DEBUG_SAVEALL)
    unreachable = gc.collect()
    leaked = Counter(type(obj).__name__ for obj in gc.garbage).most_common(8)
    assert unreachable == 0, f"{unreachable} objects in cycles: {leaked}"
