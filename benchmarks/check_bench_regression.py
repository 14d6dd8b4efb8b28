"""Gate tracked benchmark timings against a committed baseline.

Compares the timing entries of a freshly produced benchmark JSON
(``BENCH_engine_scale.json`` / ``BENCH_hotpaths.json``) against the
committed reference under ``benchmarks/baselines/`` and fails (exit 1)
when any tracked timing is more than ``--threshold`` (default 30 %)
slower than the baseline.  Faster is always fine — CI runners are a
different machine class than the box that recorded the baseline, so the
gate is deliberately one-sided and generous; it exists to catch the
"someone re-introduced a per-row Python loop" class of regression, not
2 % noise.

Escape hatch: set ``REPRO_BENCH_ALLOW_REGRESSION=1`` (e.g. for a PR that
knowingly trades speed for a feature, pending a baseline refresh) and the
comparison still prints but never fails the job.

Every run prints a one-line delta summary (the CI job log greps well)::

    bench delta vs baseline: csv_encode.encode_seconds 0.71x, ... worst +4%

Usage::

    python benchmarks/check_bench_regression.py CURRENT.json BASELINE.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys

#: Timing keys are tracked when they end with this suffix; everything
#: else in the JSON (counts, rates, digests) is context.
TRACKED_SUFFIX = "seconds"

#: Ratio keys (``sharded_speedup``, ``warm_pool_speedup``,
#: ``columnar_speedup``, ...) are tracked too, with the inequality
#: flipped: a *lower* ratio than baseline is the regression.  Baseline
#: ratios below 1.0 are skipped — they record a regime where the
#: optimisation cannot win (e.g. multi-process speedups on a 1-vCPU
#: runner), and gating on them would only measure scheduler noise.
SPEEDUP_SUFFIX = "speedup"

#: Reference-implementation timings the hot-path bench keeps purely as
#: the "before" yardstick (the frozen pre-optimisation loop, np.savetxt,
#: write-then-rehash, the step-by-step block composition).  Product code
#: does not control them — a slower interpreter or runner would fail CI
#: while telling the maintainer nothing — so the gate never tracks them.
REFERENCE_KEYS = (
    "loop_seconds",
    "savetxt_seconds",
    "write_then_rehash_seconds",
    "reference_seconds",
)

#: Timings below this are pure scheduler noise at CI sizes; never gate
#: on them.  Raised deliberately: the committed baselines come from a
#: different machine class than CI runners, so sub-50ms entries would
#: trip on neighbour noise alone.
MIN_TRACKED_SECONDS = 0.05

ENV_ESCAPE_HATCH = "REPRO_BENCH_ALLOW_REGRESSION"


def flatten_timings(payload, prefix: str = "") -> "dict[str, float]":
    """``{dotted.path: seconds}`` for every tracked timing in a bench JSON."""
    out: "dict[str, float]" = {}
    if isinstance(payload, dict):
        for key, value in payload.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            if (
                isinstance(value, (int, float))
                and not isinstance(value, bool)
                and str(key).endswith(TRACKED_SUFFIX)
                and str(key) not in REFERENCE_KEYS
            ):
                out[path] = float(value)
            else:
                out.update(flatten_timings(value, path))
    return out


def flatten_speedups(payload, prefix: str = "") -> "dict[str, float]":
    """``{dotted.path: ratio}`` for every speedup ratio in a bench JSON."""
    out: "dict[str, float]" = {}
    if isinstance(payload, dict):
        for key, value in payload.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            if (
                isinstance(value, (int, float))
                and not isinstance(value, bool)
                and str(key).endswith(SPEEDUP_SUFFIX)
            ):
                out[path] = float(value)
            else:
                out.update(flatten_speedups(value, path))
    return out


def compare(
    current: dict, baseline: dict, threshold: float
) -> "tuple[list[str], list[str]]":
    """(per-timing delta strings, regression descriptions) of a comparison."""
    current_timings = flatten_timings(current)
    baseline_timings = flatten_timings(baseline)
    deltas: "list[str]" = []
    regressions: "list[str]" = []
    for path, base in sorted(baseline_timings.items()):
        now = current_timings.get(path)
        if now is None:
            # A vanished tracked timing must not silently disable the
            # gate for that path (a renamed bench section would otherwise
            # go green forever) — fail until the baseline is refreshed.
            deltas.append(f"{path} missing")
            regressions.append(
                f"{path}: tracked in the baseline but absent from the current "
                "run; refresh benchmarks/baselines/ if the section was "
                "renamed or removed"
            )
            continue
        if base <= 0:
            continue
        ratio = now / base
        deltas.append(f"{path} {ratio:.2f}x")
        if ratio > 1.0 + threshold and now >= MIN_TRACKED_SECONDS:
            regressions.append(
                f"{path}: {now:.3f}s is {ratio:.2f}x the baseline {base:.3f}s "
                f"(limit {1.0 + threshold:.2f}x)"
            )
    current_speedups = flatten_speedups(current)
    for path, base in sorted(flatten_speedups(baseline).items()):
        if base < 1.0:
            continue  # optimisation can't win in the baseline regime
        now = current_speedups.get(path)
        if now is None:
            deltas.append(f"{path} missing")
            regressions.append(
                f"{path}: tracked in the baseline but absent from the current "
                "run; refresh benchmarks/baselines/ if the section was "
                "renamed or removed"
            )
            continue
        deltas.append(f"{path} {now:.2f}x (base {base:.2f}x)")
        if now < base / (1.0 + threshold):
            regressions.append(
                f"{path}: {now:.2f}x is below the baseline {base:.2f}x "
                f"(limit {base / (1.0 + threshold):.2f}x)"
            )
    return deltas, regressions


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="freshly produced benchmark JSON")
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.30,
        help="tolerated slowdown fraction before failing (default 0.30)",
    )
    args = parser.parse_args(argv)
    if args.threshold < 0:
        parser.error("--threshold must be non-negative")

    with open(args.current, "r", encoding="utf-8") as handle:
        current = json.load(handle)
    with open(args.baseline, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)

    deltas, regressions = compare(current, baseline, args.threshold)
    worst = max(
        (float(d.rsplit(" ", 1)[1][:-1]) for d in deltas if d.endswith("x")),
        default=1.0,
    )
    name = str(current.get("benchmark", os.path.basename(args.current)))
    print(
        f"bench delta vs baseline [{name}]: " + ", ".join(deltas)
        + f" — worst {(worst - 1.0) * 100:+.0f}%"
    )
    if regressions:
        for problem in regressions:
            print(f"REGRESSION: {problem}")
        if os.environ.get(ENV_ESCAPE_HATCH) == "1":
            print(f"{ENV_ESCAPE_HATCH}=1 set; not failing the run")
            return 0
        return 1
    print("no tracked timing regressed beyond the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
