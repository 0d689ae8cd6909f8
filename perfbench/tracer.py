"""Per-layer wrappers for the traced benchmark run.

The benchmark never edits the program. A traced run instead replaces
the entry points of each layer -- its public functions and methods, its
network handlers and a few kernel/timer callbacks listed in ``LAYERS``
-- with wrappers that count calls and time them. Wrappers keep a call
stack, so each call's *self* time is its duration minus the time of the
wrapped calls it made. Every span of the measured window (name, start,
end, parent) is kept in flat in-memory arrays and written out once, when
the run ends.

``install`` must run after ``repro`` is imported and before the
deployment is built: classes are patched in place, so bound methods a
component captures at construction (endpoint handlers, timer callbacks)
are the wrapped ones. A module-level function is also replaced in every
``repro`` module that imported it by name.
"""

from __future__ import annotations

import importlib
import inspect
import struct
import sys
from array import array
from time import perf_counter

#: layer -> [(module, "Class.method" or "function"), ...]. A name that
#: no longer exists in the program is skipped and reported as missing.
LAYERS = {
    "sim": [
        ("repro.sim.events", "Event._dispatch"),
        ("repro.sim.events", "ScheduledCall._dispatch"),
        ("repro.sim.kernel", "Simulator.call_soon"),
        ("repro.sim.kernel", "Simulator.call_later"),
        ("repro.sim.kernel", "Simulator.defer"),
        ("repro.sim.kernel", "Simulator.timer"),
        ("repro.sim.kernel", "Simulator.cancel_timer"),
        ("repro.sim.kernel", "Simulator.timeout"),
        ("repro.sim.kernel", "Simulator.event"),
        ("repro.sim.kernel", "Simulator.process"),
    ],
    "net": [
        ("repro.net.network", "Network.send"),
        ("repro.net.network", "Network._deliver_fast"),
        ("repro.net.network", "Network._deliver"),
        ("repro.net.network", "Network.crash"),
        ("repro.net.network", "Network.recover"),
        ("repro.net.endpoint", "Endpoint.send"),
        ("repro.net.latency", "ConstantLatency.delay"),
        ("repro.net.latency", "UniformLatency.delay"),
        ("repro.net.latency", "LanLatency.delay"),
    ],
    "wire": [
        ("repro.wire.codec", "Codec.encode"),
        ("repro.wire.codec", "Codec.encode_into"),
        ("repro.wire.codec", "Codec.decode"),
        ("repro.wire.codec", "Codec.decode_from"),
        ("repro.wire.codec", "encode_cached"),
    ],
    "crypto": [
        ("repro.crypto.mac", "Authenticator.mac"),
        ("repro.crypto.mac", "Authenticator.verify"),
        ("repro.crypto.mac", "make_mac_vector"),
        ("repro.crypto.mac", "verify_mac_vector"),
        ("repro.crypto.digest", "digest"),
        ("repro.crypto.digest", "sha256"),
        ("repro.crypto.digest", "combine"),
        ("repro.crypto.signatures", "Signer.sign"),
        ("repro.crypto.signatures", "Verifier.verify"),
    ],
    "bftsmart.channel": [
        ("repro.bftsmart.channel", "SecureChannel.seal"),
        ("repro.bftsmart.channel", "SecureChannel.send"),
        ("repro.bftsmart.channel", "SecureChannel.multicast"),
        ("repro.bftsmart.channel", "SecureChannel.broadcast"),
        ("repro.bftsmart.channel", "SecureChannel.open"),
        ("repro.bftsmart.channel", "_decode_shared"),
    ],
    "bftsmart.replica": [
        ("repro.bftsmart.replica", "ServiceReplica._on_network_message"),
        ("repro.bftsmart.replica", "ServiceReplica._batch_timer_fired"),
        ("repro.bftsmart.replica", "ServiceReplica._execute_one"),
        ("repro.bftsmart.replica", "ServiceReplica.on_propose"),
        ("repro.bftsmart.replica", "ServiceReplica.on_write"),
        ("repro.bftsmart.replica", "ServiceReplica.on_accept"),
        ("repro.bftsmart.replica", "ServiceReplica.push"),
        ("repro.bftsmart.replica", "ServiceReplica.halt"),
        ("repro.bftsmart.replica", "ServiceReplica.recover_from_disk"),
        ("repro.bftsmart.service", "EchoService.execute"),
    ],
    "bftsmart.client": [
        ("repro.bftsmart.client", "ServiceProxy.invoke_ordered"),
        ("repro.bftsmart.client", "ServiceProxy.invoke_unordered"),
        ("repro.bftsmart.client", "ServiceProxy._on_network_message"),
        ("repro.bftsmart.client", "ServiceProxy.update_view"),
        ("repro.bftsmart.client", "PushVoter.on_push"),
    ],
    "bftsmart.leaderchange": [
        ("repro.bftsmart.leaderchange", "Synchronizer.suspect"),
        ("repro.bftsmart.leaderchange", "Synchronizer.on_stop"),
        ("repro.bftsmart.leaderchange", "Synchronizer.on_stop_data"),
        ("repro.bftsmart.leaderchange", "Synchronizer.on_sync"),
        ("repro.bftsmart.leaderchange", "Synchronizer.on_decision"),
        ("repro.bftsmart.leaderchange", "Synchronizer.on_view_change"),
    ],
    "bftsmart.statetransfer": [
        ("repro.bftsmart.statetransfer", "StateTransfer.notice_gap"),
        ("repro.bftsmart.statetransfer", "StateTransfer.bootstrap"),
        ("repro.bftsmart.statetransfer", "StateTransfer.on_request"),
        ("repro.bftsmart.statetransfer", "StateTransfer.on_reply"),
    ],
    "core.adapter": [
        ("repro.core.adapter", "ScadaService.execute"),
        ("repro.core.adapter", "ScadaService.execute_unordered"),
        ("repro.core.adapter", "ScadaService.snapshot"),
        ("repro.core.adapter", "ScadaService.install_snapshot"),
        ("repro.core.adapter", "ScadaService.cost_of"),
        ("repro.core.adapter", "ScadaService.post_cost"),
        ("repro.core.timeout", "LogicalTimeoutManager.arm"),
        ("repro.core.timeout", "LogicalTimeoutManager.disarm"),
        ("repro.core.timeout", "LogicalTimeoutManager.on_ordered_vote"),
    ],
    "core.proxies": [
        ("repro.core.proxy_frontend", "ProxyFrontend._on_local_message"),
        ("repro.core.proxy_frontend", "ProxyFrontend._on_push"),
        ("repro.core.proxy_frontend", "ProxyFrontend._on_invoke_done"),
        ("repro.core.proxy_hmi", "ProxyHMI._on_local_message"),
        ("repro.core.proxy_hmi", "ProxyHMI._on_push"),
        ("repro.core.proxy_hmi", "ProxyHMI._on_invoke_done"),
        ("repro.core.proxy_hmi", "ProxyHMI.flush_events"),
    ],
    "neoscada": [
        ("repro.neoscada.master", "ScadaMaster._on_network_message"),
        ("repro.neoscada.master", "ScadaMaster.classify"),
        ("repro.neoscada.master", "ScadaMaster.cost_of"),
        ("repro.neoscada.master", "ScadaMaster.execute"),
        ("repro.neoscada.master", "ScadaMaster.commit_events"),
        ("repro.neoscada.master", "ScadaMaster.answer_event_query"),
        ("repro.neoscada.master", "ScadaMaster.answer_value_query"),
        ("repro.neoscada.master", "ScadaMaster.state_tuple"),
        ("repro.neoscada.master", "ScadaMaster.install_state"),
        ("repro.neoscada.storage", "StorageStation.submit"),
        ("repro.neoscada.storage", "EventStorage.append"),
        ("repro.neoscada.handlers.chain", "HandlerChain.process"),
        ("repro.neoscada.frontend", "Frontend._on_message"),
        ("repro.neoscada.frontend", "Frontend.inject_update"),
        ("repro.neoscada.hmi", "HMI._on_message"),
        ("repro.neoscada.hmi", "HMI.write"),
    ],
    "storage": [
        ("repro.storage.replica_storage", "ReplicaStorage.on_decided"),
        ("repro.storage.replica_storage", "ReplicaStorage.on_checkpoint"),
        ("repro.storage.replica_storage", "ReplicaStorage.reinstall"),
        ("repro.storage.replica_storage", "ReplicaStorage.recover"),
        ("repro.storage.replica_storage", "ReplicaStorage.crash"),
        ("repro.storage.wal", "WriteAheadLog.append"),
        ("repro.storage.wal", "WriteAheadLog.truncate_through"),
        ("repro.storage.wal", "WriteAheadLog.replay"),
        ("repro.storage.checkpoint", "CheckpointStore.install"),
        ("repro.storage.checkpoint", "CheckpointStore.load_newest"),
        ("repro.storage.disk", "SimDisk.fsync"),
    ],
}

#: Name of the root span the workload runner opens around each run.
ROOT = "Simulator.run"


class Ledger:
    """Counts, self times and the in-memory span record of one run."""

    def __init__(self) -> None:
        #: nid -> (layer, name)
        self.names: list = []
        self.calls: list = []
        self.self_s: list = []
        self.errors: list = []
        #: Calls whose result was falsy (a failed verify, a rejected open).
        self.falsy: list = []
        #: Call stack of ``[child_seconds, span_index]`` frames. The bottom
        #: frame collects the duration of every top-level (root) call.
        self.stack: list = [[0.0, -1]]
        self.recording = False
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        #: name -> ``fn(args, result)``, run after each call of that name.
        self.hooks: dict = {}
        self.missing: list = []
        #: Simulator whose clock the hooks read (set by the workload).
        self.sim = None
        # Hook state.
        self.wire_bytes = 0
        self.storage_stall_s = 0.0
        self.wal_entries_replayed = 0
        self.encode_cached_eligible = 0
        self.digest_eligible = 0
        self.mac_eligible = 0
        self.decode_share_eligible = 0
        self._invoked: dict = {}
        self.order_waits: list = []

    def nid(self, layer: str, name: str) -> int:
        self.names.append((layer, name))
        self.calls.append(0)
        self.self_s.append(0.0)
        self.errors.append(0)
        self.falsy.append(0)
        return len(self.names) - 1

    def wrap(self, fn, layer: str, name: str):
        """Return ``fn`` wrapped as a span of ``layer`` named ``name``."""
        nid = self.nid(layer, name)
        calls, self_s, errors, falsy = self.calls, self.self_s, self.errors, self.falsy
        stack = self.stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        hook = self.hooks.get(name)
        ledger = self
        clock = perf_counter

        def wrapper(*args, **kwargs):
            calls[nid] += 1
            if ledger.recording:
                index = len(names)
                names.append(nid)
                parents.append(stack[-1][1])
                starts.append(0.0)
                ends.append(0.0)
            else:
                index = -1
            frame = [0.0, index]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[nid] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                elapsed = t1 - t0
                self_s[nid] += elapsed - frame[0]
                stack[-1][0] += elapsed
                if index >= 0:
                    starts[index] = t0
                    ends[index] = t1
            if not result:
                falsy[nid] += 1
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "calls": list(self.calls),
            "self_s": list(self.self_s),
            "errors": list(self.errors),
            "falsy": list(self.falsy),
            "root_s": self.stack[0][0],
            "wire_bytes": self.wire_bytes,
            "storage_stall_s": self.storage_stall_s,
            "wal_entries_replayed": self.wal_entries_replayed,
            "encode_cached_eligible": self.encode_cached_eligible,
            "digest_eligible": self.digest_eligible,
            "mac_eligible": self.mac_eligible,
            "decode_share_eligible": self.decode_share_eligible,
            "order_waits": len(self.order_waits),
        }

    def write_spans(self, path: str) -> int:
        """Write the recorded spans as a flat binary file, names alongside.

        Layout: ``<u32 count>`` then ``count`` records of
        ``<i32 name, i32 parent, f64 start, f64 end>``; ``path + ".names"``
        holds one ``layer<TAB>name`` line per name id.
        """
        count = len(self.span_name)
        record = struct.Struct("<iidd")
        with open(path, "wb") as fh:
            fh.write(struct.pack("<I", count))
            pack = record.pack
            names, parents = self.span_name, self.span_parent
            starts, ends = self.span_start, self.span_end
            chunk = []
            for i in range(count):
                chunk.append(pack(names[i], parents[i], starts[i], ends[i]))
                if len(chunk) >= 65536:
                    fh.write(b"".join(chunk))
                    chunk.clear()
            fh.write(b"".join(chunk))
        with open(path + ".names", "w", encoding="utf-8") as fh:
            for layer, name in self.names:
                fh.write(f"{layer}\t{name}\n")
        return count

    def span_self_by_layer(self) -> tuple:
        """Recompute per-layer self time from the span record alone.

        Returns ``(self_by_layer, root_total)``: the check that the online
        accumulators and the stored spans tell the same story.
        """
        count = len(self.span_name)
        child = [0.0] * count
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        root_total = 0.0
        for i in range(count):
            duration = ends[i] - starts[i]
            parent = parents[i]
            if parent >= 0:
                child[parent] += duration
            else:
                root_total += duration
        by_layer: dict = {}
        for i in range(count):
            layer = self.names[names[i]][0]
            by_layer[layer] = by_layer.get(layer, 0.0) + (
                ends[i] - starts[i] - child[i]
            )
        return by_layer, root_total


def _install_hooks(ledger: Ledger) -> None:
    from repro.wire.codec import _is_frozen_dataclass

    def on_delay(args, result) -> None:
        ledger.wire_bytes += args[1]

    def on_encode_cached(args, result) -> None:
        if _is_frozen_dataclass(args[0].__class__):
            ledger.encode_cached_eligible += 1

    def on_digest(args, result) -> None:
        if type(args[0]) is bytes:
            ledger.digest_eligible += 1

    def on_mac(args, result) -> None:
        if type(args[2]) is bytes:
            ledger.mac_eligible += 1

    def on_decode_shared(args, result) -> None:
        if type(args[0]) is bytes:
            ledger.decode_share_eligible += 1

    def on_submit(args, result) -> None:
        ledger.storage_stall_s += result

    def on_replay(args, result) -> None:
        ledger.wal_entries_replayed += len(result[0])

    def on_invoke(args, result) -> None:
        proxy = args[0]
        sequence = getattr(proxy, "_sequence", None)
        if sequence is not None and ledger.recording:
            ledger._invoked[(proxy.client_id, sequence)] = ledger.sim.now

    def on_execute(args, result) -> None:
        ctx = args[2]
        started = ledger._invoked.pop((ctx.client_id, ctx.sequence), None)
        if started is not None:
            ledger.order_waits.append(ledger.sim.now - started)

    for name in ("ConstantLatency.delay", "UniformLatency.delay", "LanLatency.delay"):
        ledger.hooks[name] = on_delay
    ledger.hooks["encode_cached"] = on_encode_cached
    ledger.hooks["digest"] = on_digest
    ledger.hooks["Authenticator.mac"] = on_mac
    ledger.hooks["_decode_shared"] = on_decode_shared
    ledger.hooks["StorageStation.submit"] = on_submit
    ledger.hooks["WriteAheadLog.replay"] = on_replay
    ledger.hooks["ServiceProxy.invoke_ordered"] = on_invoke
    ledger.hooks["EchoService.execute"] = on_execute
    ledger.hooks["ScadaService.execute"] = on_execute


def install(ledger: Ledger) -> None:
    """Wrap every entry point in ``LAYERS`` (see the module docstring)."""
    _install_hooks(ledger)
    for layer, targets in LAYERS.items():
        for module_name, path in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                ledger.missing.append(f"{module_name}:{path}")
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__.get(attr) if owner_name else getattr(
                module, attr, None
            )
            if original is None or inspect.isgeneratorfunction(original):
                ledger.missing.append(f"{module_name}:{path}")
                continue
            wrapped = ledger.wrap(original, layer, path)
            setattr(owner, attr, wrapped)
            if not owner_name:
                _rebind(original, wrapped)


def _rebind(original, wrapped) -> None:
    """Replace ``original`` in every ``repro`` module that imported it."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        namespace = getattr(module, "__dict__", {})
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = wrapped


def wrap_root(ledger: Ledger, run):
    """Wrap a simulator's bound ``run`` as the root span of the sim layer."""
    return ledger.wrap(run, "sim", ROOT)


def layer_totals(ledger: Ledger, start: dict, end: dict) -> dict:
    """Per-layer call counts and self seconds between two snapshots."""
    totals: dict = {}
    for nid, (layer, _name) in enumerate(ledger.names):
        entry = totals.setdefault(layer, {"calls": 0, "self_s": 0.0})
        entry["calls"] += end["calls"][nid] - start["calls"][nid]
        entry["self_s"] += end["self_s"][nid] - start["self_s"][nid]
    return totals


def delta(ledger: Ledger, start: dict, end: dict, name: str, key: str = "calls"):
    """Window delta of one wrapped function's counter (0 when absent)."""
    for nid, (_layer, entry) in enumerate(ledger.names):
        if entry == name:
            return end[key][nid] - start[key][nid]
    return 0
