"""Benchmark of the BFT SCADA simulator: host cost and simulated service.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload bft_micro --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each run starts fresh single-threaded interpreters (``child.py``), one
after another, until ``--seconds`` of wall time have passed (and at least
``MIN_REPS`` of them). Every child builds the deployment from ``src``,
runs one fixed simulated window of the workload and checks the outputs.
Host metrics are the median over the children; simulated metrics and
the program's counters must be identical in every child. With
``--trace 1`` one more child runs with the layer wrappers of
``tracer.py`` installed and the per-layer ledger is reported instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Records and the
traced run's spans are written to ``.perfbench/`` in the checkout. The
exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (needs HERE on sys.path)

#: Unscaled host times, printed beside the bounded metrics.
RAW = {
    "raw_wall_s_per_sim_s": "s/s",
    "raw_wall_us_per_op": "us",
}


def metric_specs() -> tuple:
    """``(end_to_end, per_layer)`` lists of ``(name, unit)``, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return (
        [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        [(m["name"], m["unit"]) for m in spec["per_layer"]],
    )


#: At least this many untraced children per run, however long they take.
MIN_REPS = 3
#: Set-up time is short and noisy, so children that stop at the first
#: simulated event top its samples up to this many per run.
SETUP_SAMPLES = 11
#: Wall budget of one child before the watchdog kills it.
CHILD_BUDGET_S = 100.0
#: No child starts once this much of the run has passed.
RUN_LIMIT_S = 150.0


class RunFailed(Exception):
    """A child crashed, hung or wrote no record."""


def source_digest() -> str:
    """SHA-256 over every file under ``src/`` (what the children import)."""
    hasher = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(directory, name)
            hasher.update(os.path.relpath(path, src).encode("utf-8"))
            with open(path, "rb") as fh:
                hasher.update(fh.read())
    return hasher.hexdigest()[:16]


def commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def spawn(
    workload: str, seed: int, trace: int, budget: float, setup_only: bool = False
) -> dict:
    """Run one child to completion (or kill it) and return its record."""
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"{workload}-child.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--trace",
        str(trace),
        "--out",
        out,
    ]
    if trace:
        cmd += ["--spans", os.path.join(OUT_DIR, f"{workload}-spans.bin")]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        _stdout, stderr = proc.communicate(timeout=max(budget, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed(f"killed by the watchdog after {budget:.0f} s")
    if proc.returncode != 0:
        tail = " | ".join(stderr.strip().splitlines()[-3:])
        raise RunFailed(f"child exited with {proc.returncode}: {tail}")
    try:
        with open(out, "r", encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, ValueError) as exc:
        raise RunFailed(f"child wrote no record: {exc}") from exc
    record["setup_s"] = record["ready_at"] - spawned
    return record


def fingerprint(record: dict) -> str:
    """Everything seed-determined in a record, as one comparable string."""
    return json.dumps(
        {"sim": record["sim"], "counters": record["counters"]}, sort_keys=True
    )


def host_metrics(record: dict) -> dict:
    ops = record["completions_in_window"]
    sim_s = record["window_sim_s"]
    return {
        "host_s_per_sim_s": record["window_host_s"] / sim_s,
        "host_us_per_op": record["window_host_s"] * 1e6 / ops,
        "setup_s": record["setup_s"],
        "peak_rss_mb": record["peak_rss_mb"],
        "raw_wall_s_per_sim_s": record["window_wall_s"] / sim_s,
        "raw_wall_us_per_op": record["window_wall_s"] * 1e6 / ops,
    }


def measure(workload: str, seed: int, seconds: float, trace: int, end_to_end) -> dict:
    """One benchmark run; returns the summary (see ``report``)."""
    started = time.monotonic()
    reps: list = []
    problems: list = []
    try:
        while True:
            elapsed = time.monotonic() - started
            budget = min(CHILD_BUDGET_S, RUN_LIMIT_S + 20.0 - elapsed)
            reps.append(spawn(workload, seed, 0, budget))
            elapsed = time.monotonic() - started
            if len(reps) >= MIN_REPS and elapsed >= seconds:
                break
            if elapsed + elapsed / len(reps) > RUN_LIMIT_S:
                break
        setups = [record["setup_s"] for record in reps]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(workload, seed, 0, CHILD_BUDGET_S, setup_only=True)["setup_s"])
        traced = None
        if trace:
            elapsed = time.monotonic() - started
            traced = spawn(workload, seed, 1, min(CHILD_BUDGET_S, 175.0 - elapsed))
    except RunFailed as exc:
        return {
            "workload": workload,
            "seed": seed,
            "trace": trace,
            "failure": str(exc),
            "failed_ratio": 1.0,
        }

    for index, record in enumerate(reps + ([traced] if traced else [])):
        label = "traced run" if record.get("trace") else f"run {index + 1}"
        for check in record["checks"]:
            if not check["ok"]:
                problems.append(f"{label}: {check['name']} ({check['detail']})")
        if record["threads"] != 1:
            problems.append(f"{label}: {record['threads']} threads at exit")
    first = fingerprint(reps[0])
    for index, record in enumerate(reps[1:], start=2):
        if fingerprint(record) != first:
            problems.append(f"run {index}: simulated numbers differ from run 1")
    if traced is not None and fingerprint(traced) != first:
        problems.append("traced run: simulated numbers differ from the untraced runs")

    host = [host_metrics(record) for record in reps]
    medians = {name: statistics.median(h[name] for h in host) for name in host[0]}
    medians["setup_s"] = statistics.median(setups)
    metrics = {
        name: medians[name] if name in medians else reps[0]["sim"][name]
        for name, _unit in end_to_end
    }
    summary = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "reps": len(reps),
        "elapsed_s": time.monotonic() - started,
        "end_to_end": metrics,
        "raw": {name: medians[name] for name in RAW},
        "host_runs": host,
        "setup_samples": setups,
        "sim": reps[0]["sim"],
        "counters": reps[0]["counters"],
        "problems": problems,
        "provenance": dict(
            reps[0]["provenance"],
            commit=commit(),
            source_digest=source_digest(),
        ),
    }
    if traced is not None:
        layer = dict(traced["per_layer"])
        layer["trace.overhead_ratio"] = traced["window_host_s"] / statistics.median(
            record["window_host_s"] for record in reps
        )
        summary["per_layer"] = layer
        summary["missing_wrappers"] = traced["missing_wrappers"]
        summary["reconciliation"] = [
            check for check in traced["checks"] if check["name"].startswith("reconcile")
            or "self time" in check["name"]
        ]
    return summary


def result_line(summary: dict, specs: tuple) -> dict:
    """The last line of standard output for one run."""
    if "failure" in summary:
        # The reason and failed_ratio 1.0 are in the report and the record.
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    attempted = max(summary["sim"]["attempted"], 1)
    correct = not summary["problems"]
    failed = summary["sim"]["failed"] if correct else attempted
    end_to_end, per_layer = specs
    if summary["trace"]:
        values, names = summary["per_layer"], per_layer
    else:
        values, names = summary["end_to_end"], end_to_end
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }


def report(summary: dict, specs: tuple) -> None:
    """Human-readable lines (everything before the JSON line)."""
    print(f"== {summary['workload']}  seed {summary['seed']}  trace {summary['trace']}")
    if "failure" in summary:
        print(f"   FAILED: {summary['failure']} -> failed_ratio 1.0")
        return
    prov = summary["provenance"]
    print(
        f"   {summary['reps']} untraced runs in {summary['elapsed_s']:.1f} s; "
        f"commit {prov['commit']}  src {prov['source_digest']}  "
        f"python {prov['python']}  {prov['simulator_class']}  "
        f"params {prov['params_hash']}"
    )
    end_to_end, per_layer = specs
    units = dict(end_to_end)
    for name, value in summary["end_to_end"].items():
        print(f"   {name:<28} {value:>14.6g} {units[name]}")
    for name, value in summary["raw"].items():
        print(f"   {name:<28} {value:>14.6g} {RAW[name]}")
    sim = summary["sim"]
    print(f"   {'sim_latency_samples':<28} {sim['sim_latency_samples']:>14d} count")
    print(f"   {'failed_ratio':<28} {sim['failed_ratio']:>14.6g} fraction")
    for key in sorted(set(sim) - set(units) - {"sim_latency_samples", "failed_ratio"}):
        value = sim[key]
        print(f"   {key:<28} {value!s:>14}")
    if "per_layer" in summary:
        for name, unit in per_layer:
            print(f"   {name:<36} {summary['per_layer'][name]:>14.6g} {unit}")
        for check in summary["reconciliation"]:
            flag = "ok " if check["ok"] else "BAD"
            print(f"   [{flag}] {check['name']}: {check['detail']}")
        if summary["missing_wrappers"]:
            print(f"   wrappers not installed: {summary['missing_wrappers']}")
    for problem in summary["problems"]:
        print(f"   CHECK FAILED: {problem}")


def save(summary: dict) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{summary['workload']}-seed{summary['seed']}-trace{summary['trace']}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if "REPRO_KERNEL" in os.environ:
        print(
            "refusing to record: REPRO_KERNEL is set; the benchmark measures "
            "the shipped default kernel",
            file=sys.stderr,
        )
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    specs = metric_specs()

    if args.workload == "all":
        names, traces = sorted(workloads.WORKLOADS), (0, 1)
    else:
        names, traces = [args.workload], (args.trace,)
    lines = []
    for name in names:
        seed = args.seed if args.seed is not None else workloads.DEFAULT_SEEDS[name]
        for trace in traces:
            summary = measure(name, seed, args.seconds, trace, specs[0])
            save(summary)
            report(summary, specs)
            lines.append((name, result_line(summary, specs)))
    if len(lines) == 1:
        line = lines[0][1]
    else:
        line = {
            "correct": all(entry["correct"] for _, entry in lines),
            "attempted": sum(entry["attempted"] for _, entry in lines),
            "failed": sum(entry["failed"] for _, entry in lines),
            "metrics": {
                f"{name}/{metric}": value
                for name, entry in lines
                for metric, value in entry["metrics"].items()
            },
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
