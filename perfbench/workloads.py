"""The three benchmark workloads, each run once per fresh interpreter.

Each ``run_<name>(seed, ledger)`` builds its deployment from the shipped
defaults, drives it through a warm-up, a measured window and a drain,
checks the program's outputs, and returns a plain dict (see ``_result``).
Simulated numbers depend only on the seed; host time is measured around
the ``Simulator.run`` calls of the window and nothing else, so the output
checks between chunks of the window are not timed.

``ledger`` is a :class:`perfbench.tracer.Ledger` for the traced run, or
``None``; the workload code is otherwise identical in both modes.
"""

from __future__ import annotations

import hashlib
import json
import random
import time

#: Workload parameters; their hash goes into every record.
PARAMS = {
    "bft_micro": {
        "n": 4,
        "f": 1,
        "batch_max": 500,
        "batch_wait": 0.001,
        "invoke_timeout": 5.0,
        "rate": 25_000.0,
        "payload_size": 1024,
        "warmup": 0.2,
        "window": 0.3,
        "chunk": 0.01,
        "drain_limit": 2.0,
    },
    "scada_update": {
        "rate": 1000.0,
        "alarm_ratio": 0.5,
        "items": 20,
        "alarm_threshold": 500.0,
        "normal_value": 100,
        "alarm_value": 900,
        "warmup": 1.0,
        "window": 2.0,
        "chunk": 0.1,
        "drain_limit": 10.0,
    },
    "scada_failover": {
        "rate": 400.0,
        "alarm_ratio": 0.5,
        "items": 20,
        "alarm_threshold": 500.0,
        "normal_value": 100,
        "alarm_value": 900,
        "warmup": 1.0,
        "window": 9.0,
        "crash_at": 1.0 / 3.0,
        "restart_at": 2.0 / 3.0,
        "chunk": 0.2,
        "drain_limit": 30.0,
        "converge_limit": 20.0,
    },
}

DEFAULT_SEEDS = {"bft_micro": 1, "scada_update": 1, "scada_failover": 7}


def params_hash(name: str) -> str:
    blob = json.dumps(PARAMS[name], sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


class OpBook:
    """Ops of one run: when each was due, when (and if) it completed.

    An op belongs to the window when it was due inside ``[w0, w1)``;
    completions count towards throughput when they happen in ``(w0, w1]``.
    """

    def __init__(self, w0: float, w1: float) -> None:
        self.w0 = w0
        self.w1 = w1
        self.pending: dict = {}
        self.attempted = 0
        self.completed = 0
        self.latencies: list = []
        self.write_latencies: list = []
        self.completion_times: list = []
        #: ``(due, completed_at)`` of every window op that succeeded.
        self.done: list = []
        self.duplicates = 0

    def issue(self, key, due: float, write: bool = False) -> None:
        self.pending[key] = (due, write)
        if self.w0 <= due < self.w1:
            self.attempted += 1

    def complete(self, key, now: float, ok: bool = True) -> None:
        entry = self.pending.pop(key, None)
        if entry is None:
            self.duplicates += 1
            return
        due, write = entry
        if self.w0 < now <= self.w1:
            self.completion_times.append(now)
        if not ok or not self.w0 <= due < self.w1:
            return
        self.completed += 1
        self.done.append((due, now))
        self.latencies.append(now - due)
        if write:
            self.write_latencies.append(now - due)

    def outstanding(self) -> int:
        return len(self.pending)

    def first_completion_after(self, instant: float) -> float:
        """Delay from ``instant`` until an op due at or after it completed."""
        return min(now for due, now in self.done if due >= instant) - instant

    def longest_gap(self) -> float:
        """Longest stretch of the window in which no op completed."""
        times = [self.w0] + sorted(self.completion_times) + [self.w1]
        return max(b - a for a, b in zip(times, times[1:]))


#: Wall seconds one calibration slice takes at the reference host speed.
CALIBRATION_REF_S = 0.003


def calibrate() -> float:
    """Host speed probe: the faster of two timings of a fixed work slice.

    On a shared 2-core host the same Python code runs anywhere between
    0.75x and 1.3x its median speed, in phases of a few seconds. The
    window's wall time is therefore also reported scaled by
    ``CALIBRATION_REF_S / calibrate()`` measured around each chunk.
    """
    best = None
    for _ in range(2):
        t0 = time.perf_counter()
        table: dict = {}
        for i in range(20000):
            key = i & 255
            table[key] = table.get(key, 0) + i
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best


class SetupOnly(Exception):
    """Raised at the end of set-up when only set-up time is wanted."""

    def __init__(self, ready_at: float) -> None:
        super().__init__(ready_at)
        self.ready_at = ready_at


class Runner:
    """Runs the simulator, timing only the ``run`` calls of the window."""

    def __init__(self, sim, ledger, setup_only: bool = False) -> None:
        self.sim = sim
        self.ledger = ledger
        self.setup_only = setup_only
        if ledger is not None:
            from tracer import wrap_root

            ledger.sim = sim
            self.run = wrap_root(ledger, sim.run)
        else:
            self.run = sim.run
        #: Raw wall seconds of the window's ``run`` calls.
        self.window_wall = 0.0
        #: The same, each chunk scaled to the reference host speed.
        self.window_host = 0.0
        self.snapshots: dict = {}
        self.ready_at = None

    def ready(self) -> None:
        """Mark the end of set-up: the workload's first event comes next."""
        self.ready_at = time.monotonic()
        if self.setup_only:
            raise SetupOnly(self.ready_at)

    def warm_up(self, until: float, chunk: float, between=None) -> None:
        """Run to ``until`` untimed, calling ``between`` after each chunk."""
        while self.sim.now < until:
            self.run(until=min(until, self.sim.now + chunk))
            if between is not None:
                between()

    def window(self, until: float, chunk: float, between=None) -> None:
        """Run the measured window to ``until``, timing each chunk."""
        clock = time.perf_counter
        before = calibrate()
        while self.sim.now < until:
            step = min(until, self.sim.now + chunk)
            t0 = clock()
            self.run(until=step)
            elapsed = clock() - t0
            after = calibrate()
            self.window_wall += elapsed
            self.window_host += elapsed * CALIBRATION_REF_S * 2.0 / (before + after)
            before = after
            if between is not None:
                between()

    def settle(self, until: float, done, step: float = 0.05) -> bool:
        """Run untimed until ``done()`` or ``until``; returns ``done()``."""
        while not done() and self.sim.now < until:
            self.run(until=min(until, self.sim.now + step))
        return done()

    def mark(self, name: str, counters) -> None:
        """Snapshot program counters (and the ledger) at a window edge.

        The ledger is read on the window's side of the counter reads, so
        nothing the reads themselves call lands in the window.
        """
        entry = {}
        if self.ledger is not None and name == "close":
            entry["ledger"] = self.ledger.snapshot()
            self.ledger.recording = False
        entry["counters"] = counters()
        if self.ledger is not None and name == "open":
            entry["ledger"] = self.ledger.snapshot()
            self.ledger.recording = True
        self.snapshots[name] = entry


def perf_switches():
    """The program's ``repro.perf.PERF`` switch object, or ``None`` if gone."""
    try:
        from repro.perf import PERF
    except ImportError:
        return None
    return PERF


def program_counters(sim, net, replicas, clients, storages=(), timeouts=()):
    """The program's own counters, summed over every component given."""
    stats = sim.stats()
    counters = {
        "events_dispatched": stats["events_dispatched"],
        "timers_cancelled": stats["timers_cancelled"],
        "net_sent": net.sent,
        "replica_executed": sum(r.stats["executed"] for r in replicas),
        "replica_decided": sum(r.stats["decided"] for r in replicas),
        "channel_rejected": sum(r.channel.rejected for r in replicas)
        + sum(c.channel.rejected for c in clients),
        "client_retransmissions": sum(c.stats["retransmissions"] for c in clients),
        "client_failures": sum(c.stats["failures"] for c in clients),
        "regency": max(r.synchronizer.regency for r in replicas),
        "statetransfer_installs": sum(
            r.state_transfer.full_installs + r.state_transfer.partial_installs
            for r in replicas
        ),
        "statetransfer_bytes": sum(r.state_transfer.bytes_installed for r in replicas),
        "logical_timeouts": max((t.stats["synthesized"] for t in timeouts), default=0),
    }
    for key in ("appends", "fsyncs", "bytes_written"):
        counters[f"storage_{key}"] = sum(s.counters()[key] for s in storages)
    perf = perf_switches()
    for name, entry in (perf.stats_map() if perf is not None else {}).items():
        counters[f"perf_{name}_hits"] = entry["hits"]
        counters[f"perf_{name}_misses"] = entry["misses"]
    return counters


def _result(runner, book, window_sim_s, checks, extras, sim) -> dict:
    return {
        "ready_at": runner.ready_at,
        "window_wall_s": runner.window_wall,
        "window_host_s": runner.window_host,
        "window_sim_s": window_sim_s,
        "simulator_class": f"{type(sim).__module__}.{type(sim).__qualname__}",
        "attempted": book.attempted,
        "completed": book.completed,
        "completions_in_window": len(book.completion_times),
        "latencies": book.latencies,
        "write_latencies": book.write_latencies,
        "longest_gap_s": book.longest_gap(),
        "checks": checks,
        "extras": extras,
        "snapshots": runner.snapshots,
    }


def _check(checks: list, name: str, ok: bool, detail="") -> None:
    checks.append({"name": name, "ok": bool(ok), "detail": str(detail)})


# -- bft_micro -------------------------------------------------------------


class _StreamCheck:
    """Checks that every replica decides the same (cid -> batch) stream.

    Polled between chunks of the run. A replica's decision log is cut at
    each checkpoint, so a cid decided and checkpointed between two polls
    is never seen; ``compared`` counts the cids every replica showed.
    """

    def __init__(self, replicas) -> None:
        self.replicas = replicas
        self.next = {r.address: 0 for r in replicas}
        self.values: dict = {}
        self.seen: dict = {}
        self.compared = 0
        self.problems: list = []

    def poll(self) -> None:
        for replica in self.replicas:
            address = replica.address
            for cid, value, _timestamp in replica.decision_log:
                if cid < self.next[address]:
                    continue
                self.next[address] = cid + 1
                stored = self.values.get(cid)
                if stored is None:
                    self.values[cid] = value
                    self.seen[cid] = 1
                elif stored != value:
                    self.problems.append(f"{address} decided another value at cid {cid}")
                else:
                    self.seen[cid] += 1
                if self.seen[cid] == len(self.replicas):
                    self.compared += 1
                    del self.values[cid]
                    del self.seen[cid]


def run_bft_micro(seed: int, ledger=None, setup_only: bool = False) -> dict:
    p = PARAMS["bft_micro"]
    from repro.bftsmart import EchoService, GroupConfig, build_group, build_proxy
    from repro.core.system import make_network
    from repro.crypto import KeyStore
    from repro.sim import Simulator

    sim = Simulator(seed=seed)
    net = make_network(sim)
    keystore = KeyStore()
    config = GroupConfig(
        n=p["n"], f=p["f"], batch_max=p["batch_max"], batch_wait=p["batch_wait"]
    )
    replicas = build_group(sim, net, config, EchoService, keystore)
    proxy = build_proxy(
        sim, net, "load-client", config, keystore, invoke_timeout=p["invoke_timeout"]
    )
    runner = Runner(sim, ledger, setup_only)
    w0 = p["warmup"]
    w1 = w0 + p["window"]
    book = OpBook(w0, w1)
    payloads = random.Random(seed)
    size = p["payload_size"]
    sent: dict = {}
    mismatches = []
    state = {"on": True, "issued": 0}

    def on_done(event, key) -> None:
        event.defused = True
        ok = event.ok and event.value == sent.pop(key)
        if event.ok and not ok:
            mismatches.append(key)
        book.complete(key, sim.now, ok=ok)

    def firehose():
        interval = 1.0 / p["rate"]
        while state["on"]:
            key = state["issued"]
            state["issued"] += 1
            payload = payloads.randbytes(size)
            sent[key] = payload
            book.issue(key, sim.now)
            event = proxy.invoke_ordered(payload)
            event.add_callback(lambda ev, key=key: on_done(ev, key))
            yield sim.timeout(interval)

    def counters():
        return program_counters(sim, net, replicas, [proxy])

    runner.ready()
    sim.process(firehose())
    stream = _StreamCheck(replicas)
    runner.warm_up(w0, p["chunk"], stream.poll)
    runner.mark("open", counters)
    runner.window(w1, p["chunk"], stream.poll)
    runner.mark("close", counters)
    state["on"] = False
    drained = runner.settle(
        w1 + p["drain_limit"], lambda: book.outstanding() == 0, step=0.01
    )
    stream.poll()
    checks: list = []
    _check(checks, "all requests completed", drained, f"{book.outstanding()} outstanding")
    _check(checks, "every reply equals its echo payload", not mismatches, mismatches[:3])
    _check(
        checks,
        "replicas decided one stream",
        not stream.problems and stream.compared > 0,
        stream.problems[:3] or f"{stream.compared} cids compared",
    )
    last = {(r.last_decided, r.checkpoint_cid, r.service.executed) for r in replicas}
    _check(checks, "replicas reached the same cid and checkpoint", len(last) == 1, sorted(last))
    last_cid = replicas[0].last_decided + 1
    extras = {"stream_cids_compared": stream.compared, "stream_cids_decided": last_cid}
    return _result(runner, book, p["window"], checks, extras, sim)


# -- SMaRt-SCADA workloads -------------------------------------------------


class _Injector:
    """Stands between UpdateWorkload and the Frontend to book each update."""

    def __init__(self, sim, frontend, book) -> None:
        self.sim = sim
        self.frontend = frontend
        self.book = book
        self.last: dict = {}

    def inject_update(self, item_id: str, raw) -> None:
        now = self.sim.now
        self.last[item_id] = raw
        self.book.issue((item_id, now), now)
        self.frontend.inject_update(item_id, raw)


def _build_scada(seed: int, p: dict, durability: bool):
    from repro.core import SmartScadaConfig, build_smartscada
    from repro.core.system import make_network
    from repro.neoscada import HandlerChain, Monitor
    from repro.sim import Simulator

    sim = Simulator(seed=seed)
    net = make_network(sim)
    config = SmartScadaConfig(durability=True) if durability else SmartScadaConfig()
    system = build_smartscada(sim, net=net, config=config)
    item_ids = [f"rtu.sensor.{i}" for i in range(p["items"])]
    for item_id in item_ids:
        system.frontend.add_item(item_id, initial=0)
    system.frontend.add_item("rtu.actuator", initial=0, writable=True)

    def chain():
        return HandlerChain([Monitor(high=p["alarm_threshold"])])

    for item_id in item_ids:
        system.attach_handlers(item_id, chain)

    def reattach(proxy_master) -> None:
        for item_id in item_ids:
            proxy_master.attach_handlers(item_id, chain())

    system.start()
    return sim, net, system, item_ids, reattach


def _scada_components(system, retired=()):
    masters = list(system.proxy_masters) + list(retired)
    replicas = [pm.replica for pm in masters]
    clients = [pm.vote_client for pm in masters]
    clients += list(system.proxy_hmi.bft_clients)
    for proxy_frontend in system.proxy_frontends:
        clients += list(proxy_frontend.bft_clients)
    storages = list((system.durable_storage or {}).values())
    timeouts = [pm.timeouts for pm in masters]
    return replicas, clients, storages, timeouts


def _update_traffic(sim, system, item_ids, p, book, duration):
    from repro.workloads.generators import UpdateWorkload

    injector = _Injector(sim, system.frontend, book)

    def on_value(item_id, value) -> None:
        if item_id in injector.last:
            book.complete((item_id, value.timestamp), sim.now)

    system.hmi.on_value_change = on_value
    workload = UpdateWorkload(
        sim,
        injector,
        item_ids,
        rate=p["rate"],
        alarm_ratio=p["alarm_ratio"],
        normal_value=p["normal_value"],
        alarm_value=p["alarm_value"],
    )
    workload.start(duration=duration)
    return injector


def _final_values_match(system, injector) -> list:
    wrong = []
    for item_id, raw in sorted(injector.last.items()):
        seen = system.hmi.values.get(item_id)
        if seen is None or seen.value != raw:
            wrong.append((item_id, raw, None if seen is None else seen.value))
    return wrong


def run_scada_update(seed: int, ledger=None, setup_only: bool = False) -> dict:
    p = PARAMS["scada_update"]
    sim, net, system, item_ids, _ = _build_scada(seed, p, durability=False)
    runner = Runner(sim, ledger, setup_only)
    start = sim.now
    w0 = start + p["warmup"]
    w1 = w0 + p["window"]
    book = OpBook(w0, w1)

    def counters():
        replicas, clients, storages, timeouts = _scada_components(system)
        return program_counters(sim, net, replicas, clients, storages, timeouts)

    runner.ready()
    injector = _update_traffic(sim, system, item_ids, p, book, p["warmup"] + p["window"])
    runner.warm_up(w0, p["chunk"])
    runner.mark("open", counters)
    runner.window(w1, p["chunk"])
    runner.mark("close", counters)
    drained = runner.settle(w1 + p["drain_limit"], lambda: book.outstanding() == 0)
    checks: list = []
    _check(checks, "all updates reached the HMI", drained, f"{book.outstanding()} outstanding")
    wrong = _final_values_match(system, injector)
    _check(checks, "final HMI value is the last injected", not wrong, wrong[:3])
    digests = system.state_digests()
    _check(checks, "replica state digests agree", len(set(digests)) == 1, len(set(digests)))
    extras = {"duplicate_deliveries": book.duplicates}
    return _result(runner, book, p["window"], checks, extras, sim)


def run_scada_failover(seed: int, ledger=None, setup_only: bool = False) -> dict:
    p = PARAMS["scada_failover"]
    from repro.core.recovery import restart_replica
    from repro.net.faults import Drop

    sim, net, system, item_ids, reattach = _build_scada(seed, p, durability=True)
    runner = Runner(sim, ledger, setup_only)
    start = sim.now
    w0 = start + p["warmup"]
    w1 = w0 + p["window"]
    crash_at = w0 + p["window"] * p["crash_at"]
    restart_at = w0 + p["window"] * p["restart_at"]
    book = OpBook(w0, w1)
    retired: list = []
    fault = {"index": None, "rules": [], "crashed_at": None}
    values = random.Random(seed)
    acked: list = []
    write_failures: list = []

    def crash_leader() -> None:
        leader = system.proxy_masters[0].replica.leader
        index = next(
            i for i, pm in enumerate(system.proxy_masters) if pm.address == leader
        )
        victim = system.proxy_masters[index]
        for address in (victim.address, f"{victim.address}-adapter"):
            net.crash(address)
            fault["rules"].append(net.faults.add(Drop(src=address)))
        # Power cut: the process dies with the machine and the disk keeps
        # only what it had (intact crash mode).
        victim.replica.halt()
        storage = victim.replica.storage
        victim.replica.storage = None
        storage.crash("intact")
        retired.append(victim)
        fault["index"] = index
        fault["crashed_at"] = sim.now

    def reboot() -> None:
        victim = retired[-1]
        for address in (victim.address, f"{victim.address}-adapter"):
            net.recover(address)
        for rule in fault["rules"]:
            net.faults.remove(rule)
        restart_replica(system, fault["index"], disk_fault=None, handler_config=reattach)

    def writer():
        key = 0
        while sim.now < w1:
            value = values.randrange(1_000_000)
            book.issue(("write", key), sim.now, write=True)
            result = yield system.hmi.write("rtu.actuator", value)
            book.complete(("write", key), sim.now, ok=result.success)
            if result.success:
                acked.append(value)
            else:
                write_failures.append((key, result.reason))
            key += 1

    def counters():
        replicas, clients, storages, timeouts = _scada_components(system, retired)
        return program_counters(sim, net, replicas, clients, storages, timeouts)

    runner.ready()
    injector = _update_traffic(sim, system, item_ids, p, book, w1 - sim.now)
    sim.process(writer())
    sim.call_later(crash_at - sim.now, crash_leader)
    sim.call_later(restart_at - sim.now, reboot)
    runner.warm_up(w0, p["chunk"])
    runner.mark("open", counters)
    runner.window(w1, p["chunk"])
    runner.mark("close", counters)
    drained = runner.settle(w1 + p["drain_limit"], lambda: book.outstanding() == 0)
    converged = runner.settle(
        sim.now + p["converge_limit"], lambda: len(set(system.state_digests())) == 1
    )
    survivors = [pm.replica for pm in system.proxy_masters if pm not in retired]
    checks: list = []
    _check(checks, "all ops completed", drained, f"{book.outstanding()} outstanding")
    regency = max(r.synchronizer.regency for r in survivors)
    _check(checks, "the leader crash forced a leader change", regency >= 1, regency)
    frontend_value = system.frontend.items.get("rtu.actuator").value.value
    hmi_value = system.hmi.values["rtu.actuator"].value
    last_acked = acked[-1] if acked else 0
    _check(
        checks,
        "no acknowledged write lost",
        frontend_value == last_acked == hmi_value
        and system.frontend.stats["writes"] == len(acked) + len(write_failures),
        (frontend_value, hmi_value, last_acked, system.frontend.stats["writes"], len(acked)),
    )
    wrong = _final_values_match(system, injector)
    _check(checks, "final HMI value is the last injected", not wrong, wrong[:3])
    _check(
        checks,
        "rebooted replica's digest converged with its peers'",
        converged,
        len(set(system.state_digests())),
    )
    rebooted = system.proxy_masters[fault["index"]].replica
    extras = {
        "write_failures": len(write_failures),
        "writes_acknowledged": len(acked),
        "crash_to_first_post_crash_op_s": book.first_completion_after(
            fault["crashed_at"]
        ),
        "rebooted_regency": rebooted.synchronizer.regency,
        "duplicate_deliveries": book.duplicates,
    }
    return _result(runner, book, p["window"], checks, extras, sim)


WORKLOADS = {
    "bft_micro": run_bft_micro,
    "scada_update": run_scada_update,
    "scada_failover": run_scada_failover,
}
