"""One benchmark run of one workload, in a fresh single-threaded interpreter.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``; writes one JSON record to ``--out``. With ``--trace 1`` the layer
wrappers of :mod:`tracer` are installed before the deployment is built
and the record also carries the per-layer ledger and its reconciliation
against the program's own counters.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import threading

import workloads


def percentile(samples: list, p: float) -> float:
    """Linear-interpolated percentile of ``samples`` (``p`` in [0, 100]).

    Defined here rather than taken from ``repro.workloads.metrics`` so that
    a change to the program cannot redefine the benchmark's percentiles.
    """
    ordered = sorted(samples)
    rank = (p / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def window_delta(result: dict) -> dict:
    opened = result["snapshots"]["open"]["counters"]
    closed = result["snapshots"]["close"]["counters"]
    return {key: closed[key] - opened.get(key, 0) for key in closed}


def simulated_metrics(result: dict) -> dict:
    """The seed-determined numbers: identical on every run of one seed."""
    ops = result["completions_in_window"]
    window = result["window_sim_s"]
    latencies = result["latencies"]
    sim = {
        "sim_ops_per_s": ops / window,
        "sim_latency_p50_ms": percentile(latencies, 50) * 1e3 if latencies else 0.0,
        "sim_latency_p99_ms": percentile(latencies, 99) * 1e3 if latencies else 0.0,
        "sim_latency_samples": len(latencies),
        "outage_s": result["longest_gap_s"],
        "attempted": result["attempted"],
        "completed": result["completed"],
        "failed": result["attempted"] - result["completed"],
        "failed_ratio": (result["attempted"] - result["completed"]) / result["attempted"]
        if result["attempted"]
        else 1.0,
    }
    if result["write_latencies"]:
        sim["sim_write_latency_p50_ms"] = percentile(result["write_latencies"], 50) * 1e3
    for key, value in result["extras"].items():
        sim[key] = value
    return sim


def _ratio(hits: int, misses: int) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def per_layer(result: dict, ledger) -> tuple:
    """Per-layer metrics of the traced window, and the reconciliation."""
    from tracer import delta, layer_totals

    start = result["snapshots"]["open"]["ledger"]
    end = result["snapshots"]["close"]["ledger"]
    counters = window_delta(result)
    ops = result["completions_in_window"]
    window = result["window_sim_s"]

    def calls(*names) -> int:
        return sum(delta(ledger, start, end, name) for name in names)

    def errors(*names) -> int:
        return sum(delta(ledger, start, end, name, "errors") for name in names)

    def falsy(*names) -> int:
        return sum(delta(ledger, start, end, name, "falsy") for name in names)

    def hook(key: str):
        return end[key] - start[key]

    totals = layer_totals(ledger, start, end)
    root_s = end["root_s"] - start["root_s"]

    def share(*layers) -> float:
        return sum(totals.get(layer, {"self_s": 0.0})["self_s"] for layer in layers) / root_s

    def perf(name: str) -> tuple:
        return counters.get(f"perf_{name}_hits", 0), counters.get(f"perf_{name}_misses", 0)

    waits = ledger.order_waits[start["order_waits"]:end["order_waits"]]
    decided = counters["replica_decided"]
    metrics = {
        "sim.events_per_op": counters["events_dispatched"] / ops,
        "sim.timers_cancelled_per_op": counters["timers_cancelled"] / ops,
        "sim.self_share": share("sim"),
        "sim.run_wall_s": root_s,
        "net.msgs_per_op": calls("Network.send") / ops,
        "net.bytes_per_op": hook("wire_bytes") / ops,
        "net.self_share": share("net"),
        "wire.encodes_per_op": calls("Codec.encode", "Codec.encode_into") / ops,
        "wire.decodes_per_op": calls("Codec.decode", "Codec.decode_from") / ops,
        "wire.encode_memo_hit_ratio": _ratio(*perf("codec_encode")),
        "wire.decode_share_hit_ratio": _ratio(*perf("decode_share")),
        "wire.decode_errors": errors("Codec.decode", "Codec.decode_from"),
        "wire.self_share": share("wire"),
        "crypto.macs_per_op": calls("Authenticator.mac") / ops,
        "crypto.mac_verifies_per_op": calls("Authenticator.verify") / ops,
        "crypto.digests_per_op": calls("digest") / ops,
        "crypto.signs_per_op": calls("Signer.sign") / ops,
        "crypto.sig_verifies_per_op": calls("Verifier.verify") / ops,
        "crypto.mac_memo_hit_ratio": _ratio(*perf("mac")),
        "crypto.digest_cache_hit_ratio": _ratio(*perf("digest")),
        "crypto.verify_failures": falsy("Authenticator.verify", "Verifier.verify"),
        "crypto.self_share": share("crypto"),
        "bftsmart.channel.seals_per_op": calls(
            "SecureChannel.seal", "SecureChannel.multicast"
        )
        / ops,
        "bftsmart.channel.opens_per_op": calls("SecureChannel.open") / ops,
        "bftsmart.channel.rejected": falsy("SecureChannel.open"),
        "bftsmart.channel.self_share": share("bftsmart.channel"),
        "bftsmart.replica.ops_per_instance": counters["replica_executed"] / decided
        if decided
        else 0.0,
        "bftsmart.replica.order_wait_ms_p50": percentile(waits, 50) * 1e3 if waits else 0.0,
        "bftsmart.replica.self_share": share("bftsmart.replica"),
        "bftsmart.client.retransmissions": counters["client_retransmissions"],
        "bftsmart.client.invoke_failures": counters["client_failures"],
        "bftsmart.client.self_share": share("bftsmart.client"),
        "bftsmart.leaderchange.regencies": counters["regency"],
        "bftsmart.leaderchange.self_share": share("bftsmart.leaderchange"),
        "bftsmart.statetransfer.installs": counters["statetransfer_installs"],
        "bftsmart.statetransfer.bytes": counters["statetransfer_bytes"],
        "bftsmart.statetransfer.self_share": share("bftsmart.statetransfer"),
        "core.adapter.executes_per_op": calls("ScadaService.execute") / ops,
        "core.adapter.self_share": share("core.adapter"),
        "core.proxies.self_share": share("core.proxies"),
        "core.logical_timeouts": counters["logical_timeouts"],
        "neoscada.master.executes_per_op": calls("ScadaMaster.execute") / ops,
        "neoscada.events_per_op": calls("EventStorage.append") / ops,
        "neoscada.storage_stall_s_per_s": hook("storage_stall_s") / window,
        "neoscada.self_share": share("neoscada"),
        "storage.wal_appends_per_op": calls("WriteAheadLog.append") / ops,
        "storage.fsyncs_per_op": calls("SimDisk.fsync") / ops,
        "storage.bytes_written_per_op": counters["storage_bytes_written"] / ops,
        "storage.wal_entries_replayed": hook("wal_entries_replayed"),
        "storage.self_share": share("storage"),
        "trace.spans": len(ledger.span_name),
    }

    checks = []

    def reconcile(name: str, wrapped, program) -> None:
        checks.append(
            {
                "name": f"reconcile {name}",
                "ok": wrapped == program,
                "detail": f"wrappers {wrapped} vs program {program}",
            }
        )

    reconcile(
        "events dispatched",
        calls("Event._dispatch", "ScheduledCall._dispatch"),
        counters["events_dispatched"],
    )
    reconcile("network sends", calls("Network.send"), counters["net_sent"])
    reconcile(
        "service executions",
        calls("EchoService.execute", "ScadaService.execute"),
        counters["replica_executed"],
    )
    reconcile("channel rejections", falsy("SecureChannel.open"), counters["channel_rejected"])
    for name, hook_key in (
        ("mac", "mac_eligible"),
        ("digest", "digest_eligible"),
        ("codec_encode", "encode_cached_eligible"),
        ("decode_share", "decode_share_eligible"),
    ):
        if f"perf_{name}_hits" in counters:
            reconcile(f"{name} cache lookups", hook(hook_key), sum(perf(name)))
    reconcile("WAL appends", calls("WriteAheadLog.append"), counters["storage_appends"])
    reconcile("fsyncs", calls("SimDisk.fsync"), counters["storage_fsyncs"])

    online = sum(entry["self_s"] for entry in totals.values())
    checks.append(
        {
            "name": "layer self times add up to the Simulator.run wall",
            "ok": abs(online - root_s) <= 1e-6,
            "detail": f"sum of self times {online!r} vs run wall {root_s!r}",
        }
    )
    by_layer, span_root = ledger.span_self_by_layer()
    worst = max(
        abs(by_layer.get(layer, 0.0) - entry["self_s"]) for layer, entry in totals.items()
    )
    checks.append(
        {
            "name": "stored spans reproduce the online self times",
            "ok": worst <= 1e-6 and abs(span_root - root_s) <= 1e-6,
            "detail": f"largest layer difference {worst!r} s; span root {span_root!r} s",
        }
    )
    return metrics, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="stop at the workload's first event and record only set-up time",
    )
    args = parser.parse_args(argv)

    ledger = None
    if args.trace:
        import tracer

        ledger = tracer.Ledger()
        tracer.install(ledger)

    perf = workloads.perf_switches()
    switches = None if perf is None else perf.enabled_map()
    try:
        result = workloads.WORKLOADS[args.workload](args.seed, ledger, args.setup_only)
    except workloads.SetupOnly as done:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"ready_at": done.ready_at}, fh)
        return 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ready_at": result["ready_at"],
        "window_wall_s": result["window_wall_s"],
        "window_host_s": result["window_host_s"],
        "window_sim_s": result["window_sim_s"],
        "completions_in_window": result["completions_in_window"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": threading.active_count(),
        "sim": simulated_metrics(result),
        "counters": window_delta(result),
        "checks": result["checks"],
        "provenance": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "simulator_class": result["simulator_class"],
            "perf_switches": switches,
            "perf_kernel": getattr(perf, "kernel", None),
            "seed": args.seed,
            "params_hash": workloads.params_hash(args.workload),
            "params": workloads.PARAMS[args.workload],
        },
    }
    samples = record["sim"]["sim_latency_samples"]
    record["checks"].append(
        {
            "name": "the window leaves 10 latency samples beyond p99",
            "ok": samples >= 1000,
            "detail": f"{samples} samples",
        }
    )
    if ledger is not None:
        metrics, checks = per_layer(result, ledger)
        record["per_layer"] = metrics
        record["checks"] += checks
        record["missing_wrappers"] = ledger.missing
        if args.spans:
            ledger.write_spans(args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
