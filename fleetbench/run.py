"""Fleet benchmark: one workload, its end-to-end or per-layer metrics.

Run from the repository root::

    python3 fleetbench/run.py --workload export-block --seed 7 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` alternates untraced and traced calls (see
``layertrace.py``), reports the per-layer metrics with the tracing
overhead, and checks the trace's counters against the outputs.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``README.md`` beside this
file defines every workload and metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

import layertrace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: An armed fault plan reroutes ``pool_map`` through a different
#: dispatcher, so the benchmark refuses to run with any of these set.
FAULT_ENV = ("REPRO_FAULT_PLAN", "REPRO_FAULT_PLAN_JSON", "REPRO_FAULT_STATE")

#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUPS = 3

#: Timed calls per phase, however short ``--seconds`` is.
MIN_REPS = 5

#: Per-layer metrics, in the order ``BENCHMARK.json`` lists them.
LAYER_METRICS = (
    "core.generate_s",
    "core.generate_calls",
    "engine.reduce.update_s",
    "engine.reduce.merge_s",
    "engine.reduce.update_calls",
    "engine.streaming.row_digest_s",
    "engine.streaming.row_digest_calls",
    "engine.csvfmt.encode_s",
    "engine.csvfmt.encode_bytes",
    "stats.state.to_state_s",
    "stats.state.to_state_calls",
    "stats.state.from_state_s",
    "engine.writer.export_s",
    "engine.writer.self_s",
    "engine.writer.bytes_written",
    "engine.writer.segments",
    "engine.writer.verify_s",
    "engine.pool.map_s",
    "engine.pool.dispatch_s",
    "engine.pool.jobs",
    "engine.pool.maps",
    "engine.distributed.frames_sent",
    "engine.distributed.frames_recv",
    "engine.distributed.frame_bytes",
    "engine.distributed.send_s",
    "engine.distributed.recv_wait_s",
    "engine.distributed.leases",
    "engine.distributed.requeued_leases",
    "engine.distributed.stolen_leases",
    "engine.distributed.lease_p50_ms",
    "engine.distributed.lease_max_ms",
    "engine.retry.calls",
    "engine.retry.retries",
    "trace.untraced_hosts_per_s",
    "trace.traced_hosts_per_s",
    "trace.overhead_pct",
)


def _unit(name: str) -> str:
    for suffix, unit in (
        ("hosts_per_s", "hosts/s"),
        ("mb_per_s", "MB/s"),
        ("_ms", "ms"),
        ("_s", "s"),
        ("_bytes", "bytes"),
        ("bytes_written", "bytes"),
        ("_mb", "MiB"),
        ("_pct", "%"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


class ReconcileError(RuntimeError):
    """The trace's counters disagree with the outputs they describe."""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0


@dataclass
class Rep:
    """One checked timed call."""

    seconds: float
    verify_seconds: float
    verify_bytes: int
    peak_rss_mib: float
    layers: "dict | None" = None
    expected: "dict | None" = None


# -- processes -----------------------------------------------------------------


def process_tree() -> "list[int]":
    """This process and its live descendants (zombies excluded)."""
    children: "dict[int, list[int]]" = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="ascii") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if fields[0] != "Z":
            children.setdefault(int(fields[1]), []).append(int(entry))
    tree = [os.getpid()]
    for pid in tree:
        tree.extend(children.get(pid, ()))
    return tree


def reset_peak_rss(pids) -> None:
    """Restart each process's resident high-water mark from its current RSS."""
    for pid in pids:
        try:
            with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as handle:
                handle.write("5")
        except OSError:  # the process ended
            pass


def peak_rss_mib(pids) -> float:
    """Sum of the processes' resident high-water marks, MiB."""
    total_kib = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
        except OSError:
            pass
    return total_kib / 1024


def stop_children() -> "list[int]":
    """Shut the pools down; kill and reap any child left after that."""
    from repro.engine import shutdown_pools

    shutdown_pools()
    leftovers = process_tree()[1:]
    for pid in leftovers:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in leftovers:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:  # not a direct child; init reaps it
            pass
    return leftovers


# -- one timed call ------------------------------------------------------------


def pool_counts() -> "tuple[int, int]":
    from repro.engine import pool_stats

    stats = pool_stats().values()
    return (
        sum(entry["jobs_dispatched"] for entry in stats),
        sum(entry["maps_run"] for entry in stats),
    )


def lease_metrics(result) -> "dict[str, float]":
    metrics = getattr(result, "metrics", None) or {}
    seconds = sorted(event["seconds"] for event in metrics.get("leases", ()))
    return {
        "engine.distributed.leases": metrics.get("leases_total", 0),
        "engine.distributed.requeued_leases": metrics.get("requeued_leases", 0),
        "engine.distributed.stolen_leases": metrics.get("stolen_leases", 0),
        "engine.distributed.lease_p50_ms": (
            statistics.median(seconds) * 1e3 if seconds else 0.0
        ),
        "engine.distributed.lease_max_ms": seconds[-1] * 1e3 if seconds else 0.0,
    }


def run_rep(workload, tally: Tally, spool: "str | None" = None) -> "Rep | None":
    """Time one call of ``workload`` and check its output.

    With ``spool`` the layer wrappers record the call.  Returns ``None``
    (and counts a failure) when the call raised or its output is wrong.
    """
    from repro.engine import FleetManifest, verify_manifest
    from repro.faults import plan_is_active

    out_dir = workload.fresh_dir("out")
    tally.attempted += 1
    try:
        workload.before_call(out_dir)
        if plan_is_active():
            raise RuntimeError("a fault plan is armed at the start of the timed phase")
        tree = process_tree()
        reset_peak_rss(tree)
        pool_before = pool_counts()
        layertrace.RECORDER.enabled = spool is not None
        start = time.perf_counter_ns()
        try:
            result = workload.call(out_dir)
        finally:
            end = time.perf_counter_ns()
            layertrace.RECORDER.enabled = False
        peak = peak_rss_mib(set(tree) | set(process_tree()))
        problems = workload.check(result)
        target = workload.verify_target(out_dir)
        verify_start = time.perf_counter()
        report = verify_manifest(target)
        verify_seconds = time.perf_counter() - verify_start
        problems.extend(report.problems)
        verify_bytes = sum(s.bytes for s in FleetManifest.load(target).segments)
        rep = Rep((end - start) / 1e9, verify_seconds, verify_bytes, peak)
        if spool is not None:
            # A coordinator reader thread can end its last recv_frame after
            # its call returned; such spans belong to the earlier call.
            spans = [span for span in layertrace.RECORDER.take() if span[1] >= start]
            rep.layers = layertrace.span_metrics(
                spans,
                layertrace.collect(spool),
                (start, end) if workload.writer_call else None,
            )
            written = workload.written_segments(result)
            jobs, maps = pool_counts()
            rep.layers.update(
                {
                    "engine.writer.bytes_written": sum(s.bytes for s in written),
                    "engine.writer.segments": len(written),
                    "engine.writer.verify_s": verify_seconds,
                    "engine.pool.jobs": jobs - pool_before[0],
                    "engine.pool.maps": maps - pool_before[1],
                    **lease_metrics(result),
                }
            )
            rep.expected = workload.expected_counts(result)
    except Exception:
        traceback.print_exc()
        tally.failed += 1
        return None
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if problems:
        for problem in problems:
            print(f"{workload.name}: FAIL: {problem}", file=sys.stderr)
        tally.failed += 1
        return None
    return rep


def timed_reps(
    workload, tally: Tally, seconds: float, spools=(None,)
) -> "list[list[Rep]]":
    """Checked calls for ``seconds``, cycling through ``spools``.

    A spool directory traces its calls, ``None`` does not; one list of
    reps comes back per entry, each at least :data:`MIN_REPS` long unless
    a call failed.
    """
    runs: "list[list[Rep]]" = [[] for _ in spools]
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or (
        min(map(len, runs)) < MIN_REPS and not tally.failed
    ):
        for reps, spool in zip(runs, spools):
            rep = run_rep(workload, tally, spool)
            if rep is not None:
                reps.append(rep)
    if not all(runs):
        raise RuntimeError(f"{workload.name}: every timed call failed")
    return runs


def reconcile(workload, rep: Rep) -> None:
    mismatches = [
        f"{name} = {rep.layers[name]}, expected {expected}"
        for name, expected in rep.expected.items()
        if rep.layers[name] != expected
    ]
    if mismatches:
        raise ReconcileError(
            f"{workload.name}: the trace missed or invented calls: "
            + "; ".join(mismatches)
        )


# -- the two kinds of run ------------------------------------------------------


def hosts_per_s(workload, reps: "list[Rep]") -> float:
    return workload.size / statistics.median(rep.seconds for rep in reps)


def end_to_end(workload, seconds: float, tally: Tally) -> "dict[str, float]":
    setups = []
    for _ in range(SETUPS):
        workload.clear_setup()
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    run_rep(workload, tally)  # warm-up: caches fill, summary pins its digest
    (reps,) = timed_reps(workload, tally, seconds)
    return {
        "hosts_per_s": hosts_per_s(workload, reps),
        "setup_s": statistics.median(setups),
        "verify_mb_per_s": statistics.median(
            rep.verify_bytes / rep.verify_seconds / 1e6 for rep in reps
        ),
        "peak_rss_mb": statistics.median(rep.peak_rss_mib for rep in reps),
    }


def per_layer(workload, seconds: float, tally: Tally, spool: str) -> "dict[str, float]":
    # Installed before set-up spawns the pool, so workers fork wrapped.
    # Untraced calls then run with the recorder off, which leaves one
    # attribute check per wrapped call, and alternate with traced calls
    # so that drift on the machine hits both sides alike.
    layertrace.install(spool)
    workload.setup()
    run_rep(workload, tally)
    untraced, traced = timed_reps(workload, tally, seconds, (None, spool))
    for rep in traced:
        reconcile(workload, rep)
    # median_low keeps each value one that was measured, so counts stay whole.
    metrics = {
        name: statistics.median_low(rep.layers[name] for rep in traced)
        for name in LAYER_METRICS
        if not name.startswith("trace.")
    }
    untraced_rate = hosts_per_s(workload, untraced)
    traced_rate = hosts_per_s(workload, traced)
    metrics["trace.untraced_hosts_per_s"] = untraced_rate
    metrics["trace.traced_hosts_per_s"] = traced_rate
    metrics["trace.overhead_pct"] = (untraced_rate / traced_rate - 1.0) * 100.0
    return metrics


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("summary", "export-block", "export-distributed", "crash-resume"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    armed = [name for name in FAULT_ENV if os.environ.get(name)]
    if armed:
        print(
            f"fleetbench: refusing to run with {', '.join(armed)} set: an armed "
            "fault plan routes pool_map through a different dispatcher",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SRC)
    try:
        import numpy
        import repro
    except ImportError as error:
        print(f"fleetbench: cannot import the library from {SRC}: {error}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        print(f"fleetbench: repro was imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from repro.engine import resolve_start_method
    from workloads import WORKLOADS

    scratch = os.path.join(ROOT, ".fleetbench_tmp", f"run-{os.getpid()}")
    os.makedirs(scratch)
    os.environ["TMPDIR"] = scratch  # nothing the run writes leaves the checkout
    tempfile.tempdir = scratch
    workload = WORKLOADS[args.workload](args.seed, scratch)
    print(
        json.dumps(
            {
                "workload": workload.name,
                "size": workload.size,
                "seed": args.seed,
                "trace": args.trace,
                "start_method": resolve_start_method(),
                "cpu_count": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
            }
        )
    )
    tally = Tally()
    try:
        if args.trace:
            spool = os.path.join(scratch, "spool")
            os.makedirs(spool)
            metrics = per_layer(workload, args.seconds, tally, spool)
        else:
            metrics = end_to_end(workload, args.seconds, tally)
    except ReconcileError as error:
        print(f"fleetbench: {error}", file=sys.stderr)
        return 1
    finally:
        leftovers = stop_children()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:  # another run still uses it
            pass
    if leftovers:
        print(f"fleetbench: killed leftover processes {leftovers}", file=sys.stderr)
        tally.failed += 1

    for name, value in metrics.items():
        print(f"{workload.name:>18}  {name:<36} {value:>16.6g} {_unit(name)}")
    error_rate = tally.failed / tally.attempted
    print(
        f"{workload.name:>18}  {'error_rate':<36} {error_rate:>16.6g} "
        f"({tally.failed} of {tally.attempted} calls)"
    )
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": _unit(name)}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
