"""Execution engine for the validation probe registry (``fleet validate``).

:func:`run_validation` selects the registry's probes for a tier, streams
each referenced scenario **once** through
:func:`~repro.engine.sharding.generate_sharded` with the union of the
probes' declared reducer factories (the :class:`ValidationRun` memoises
per ``(scenario, shards)``, so six probes over the paper scenario cost one
pass), evaluates every probe's checks, inverts the verdict for
known-false controls, and returns a :class:`ValidationReport` that
renders both human-readable lines and the machine-readable JSON artifact
the scheduled CI job uploads.

Probes never see raw host arrays: a :class:`ProbeContext` exposes only
streamed reductions (moments, correlation, quantile sketches), streamed
KS selections over sketch quantile grids, and fleet/statistics digests —
the same surfaces production consumers use.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.engine.distributed import export_fleet_distributed
from repro.engine.reduce import (
    VALIDATION_PROFILE_NAMES,
    validation_profile_factories,
)
from repro.engine.sharding import generate_sharded
from repro.stats.kstest import select_distribution_streamed
from repro.timeutil import parse_date, year_fraction
from repro.validation import probes as _probes

#: Canonical configuration: the probe goldens and bands are pinned at this
#: seed and date (the paper's September-2010 reference point; the seed is
#: the repo-wide golden seed).  Overriding ``--size``/``--seed``/``--date``
#: still runs every probe, but golden-digest checks report themselves
#: skipped — bands and controls stay armed.
CANONICAL_SEED = 20110611
CANONICAL_DATE = "2010-09-01"

#: Canonical fleet size per tier: the fast tier is the per-push CI gate
#: (seconds), the full tier the scheduled million-host job.
TIER_SIZES: "dict[str, int]" = {"fast": 50_000, "full": 1_000_000}

def _ensure_scenarios_registered() -> None:
    """Import :mod:`repro.scenarios` for its registration side effects.

    It registers its validation scenarios and probes on import, but itself
    imports this package — so the probe registry is completed lazily at
    the two entry points (:class:`ValidationRun` and
    :func:`select_probes`) instead of at module import.
    """
    import repro.scenarios  # noqa: F401  (registration side effects)


class ValidationRun:
    """Memoised streamed passes shared by every probe of one invocation.

    All fleet access funnels through here: ``stats`` caches one
    :class:`~repro.engine.sharding.FleetStatistics` per
    ``(scenario, shards)``, ``ks_selection`` one family selection per
    ``(scenario, label)``, ``distributed_fleet_digest`` one distributed
    export per scenario.  Everything is lazy — a filtered run only pays
    for the scenarios its probes actually touch.
    """

    def __init__(
        self,
        tier: str = "fast",
        *,
        size: "int | None" = None,
        seed: "int | None" = None,
        date: "str | None" = None,
        probes: "list[_probes.Probe] | None" = None,
        start_method: "str | None" = None,
        distributed_workers: int = 2,
    ):
        _ensure_scenarios_registered()
        if tier not in TIER_SIZES:
            raise ValueError(f"unknown tier {tier!r}; known: {sorted(TIER_SIZES)}")
        self.tier = tier
        self.size = TIER_SIZES[tier] if size is None else int(size)
        if self.size < 2:
            raise ValueError("validation needs a fleet of at least 2 hosts")
        self.seed = CANONICAL_SEED if seed is None else int(seed)
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        self.date = CANONICAL_DATE if date is None else str(date)
        self.when = year_fraction(parse_date(self.date))
        self.start_method = start_method
        self.distributed_workers = distributed_workers
        self.probes = (
            list(_probes.iter_probes(tier)) if probes is None else list(probes)
        )
        self._generators: dict = {}
        self._factories: dict = {}
        self._stats: dict = {}
        self._statistics_digests: dict = {}
        self._ks: dict = {}
        self._distributed: dict = {}

    @property
    def canonical(self) -> bool:
        """Whether this run matches the tier's golden-pinned configuration."""
        return (
            self.size == TIER_SIZES[self.tier]
            and self.seed == CANONICAL_SEED
            and self.date == CANONICAL_DATE
        )

    # -- streamed passes ---------------------------------------------------

    def scenario(self, key: str) -> _probes.Scenario:
        try:
            return _probes.SCENARIOS[key]
        except KeyError:
            raise ValueError(
                f"unknown scenario {key!r}; known: {sorted(_probes.SCENARIOS)}"
            ) from None

    def generator(self, scenario_key: str):
        if scenario_key not in self._generators:
            self._generators[scenario_key] = self.scenario(scenario_key).make_generator()
        return self._generators[scenario_key]

    def factories(self, scenario_key: str) -> dict:
        """Union of the scenario's probes' declared reducer factories.

        Pre-seeded with the scenario's own profile (the canonical
        validation profile unless the scenario overrides it) so the
        statistics digest is well-defined regardless of probe filtering;
        a name collision with a *different* factory is a registry bug and
        raises.
        """
        if scenario_key not in self._factories:
            scenario = self.scenario(scenario_key)
            base = (
                validation_profile_factories()
                if scenario.profile is None
                else scenario.profile()
            )
            union = dict(base)
            for probe in self.probes:
                if probe.scenario != scenario_key:
                    continue
                for name, factory in probe.factories.items():
                    if union.setdefault(name, factory) is not factory:
                        raise ValueError(
                            f"probe {probe.name!r} redefines reducer {name!r} "
                            f"with a different factory"
                        )
            self._factories[scenario_key] = union
        return self._factories[scenario_key]

    def stats(self, scenario_key: str, shards: int = 1):
        """The memoised streamed pass for ``(scenario, shards)``."""
        key = (scenario_key, shards)
        if key not in self._stats:
            scenario = self.scenario(scenario_key)
            self._stats[key] = generate_sharded(
                self.generator(scenario_key),
                self.when,
                self.size,
                self.seed + scenario.seed_offset,
                shards=shards,
                digest=True,
                reducers=self.factories(scenario_key),
                start_method=self.start_method,
            )
        return self._stats[key]

    def fleet_digest(self, scenario_key: str, shards: int = 1) -> str:
        return self.stats(scenario_key, shards=shards).digest

    def statistics_digest(self, scenario_key: str) -> str:
        """sha256 over the canonical-profile reducer states (shards=1).

        Canonical JSON (sorted keys, no whitespace) of the
        :data:`~repro.engine.reduce.VALIDATION_PROFILE_NAMES` member
        states only, so registering probes with extra reducers cannot
        move the pinned digest.
        """
        if scenario_key not in self._statistics_digests:
            reducers = self.stats(scenario_key, shards=1).reducers
            payload = {
                name: reducers.get(name).to_state()
                for name in VALIDATION_PROFILE_NAMES
            }
            blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            self._statistics_digests[scenario_key] = hashlib.sha256(
                blob.encode("utf-8")
            ).hexdigest()
        return self._statistics_digests[scenario_key]

    def ks_selection(self, scenario_key: str, label: str):
        """Memoised streamed family selection for one resource column.

        The RNG driving the KS subsampling is seeded from ``(run seed,
        crc32(label))`` so selections are deterministic per run yet
        independent across columns.
        """
        key = (scenario_key, label)
        if key not in self._ks:
            sketch = self.stats(scenario_key, shards=1).quantiles.sketch(label)
            rng = np.random.default_rng(
                (self.seed, zlib.crc32(label.encode("utf-8")))
            )
            self._ks[key] = select_distribution_streamed(sketch, rng)
        return self._ks[key]

    def _distributed_run(self, scenario_key: str) -> "tuple[str, dict]":
        """One memoised distributed export per scenario.

        The run uses ``distributed_workers`` pool slots, so the digest
        probe and the metrics probe share one export of the coordinator's
        lease scheduling, journal and metrics.  Pool slots open no socket:
        the throwaway per-run token is passed but never checked, and no
        frame crosses a socket, so the authenticated transport is not
        exercised here.
        """
        if scenario_key not in self._distributed:
            scenario = self.scenario(scenario_key)
            token = f"validate-{self.seed}-{scenario_key}"
            with tempfile.TemporaryDirectory(prefix="repro-validate-") as out_dir:
                result = export_fleet_distributed(
                    self.generator(scenario_key),
                    self.when,
                    self.size,
                    self.seed + scenario.seed_offset,
                    out_dir,
                    workers=self.distributed_workers,
                    reducers=(
                        None if scenario.profile is None else scenario.profile()
                    ),
                    start_method=self.start_method,
                    token=token,
                )
            self._distributed[scenario_key] = (
                result.manifest.fleet_sha256,
                result.metrics,
            )
        return self._distributed[scenario_key]

    def distributed_fleet_digest(self, scenario_key: str) -> str:
        """Fleet digest reported by the distributed backend."""
        return self._distributed_run(scenario_key)[0]

    def distributed_metrics(self, scenario_key: str) -> dict:
        """Metrics document of the memoised distributed export."""
        return self._distributed_run(scenario_key)[1]


@dataclass(frozen=True)
class ProbeContext:
    """The streamed-statistics surface a probe's check function sees."""

    run: ValidationRun
    probe: _probes.Probe

    @property
    def stats(self):
        """Shards=1 streamed pass of this probe's scenario."""
        return self.run.stats(self.probe.scenario, shards=1)

    def fleet_digest(self, shards: int = 1) -> str:
        return self.run.fleet_digest(self.probe.scenario, shards=shards)

    def statistics_digest(self) -> str:
        return self.run.statistics_digest(self.probe.scenario)

    def ks_selection(self, label: str):
        return self.run.ks_selection(self.probe.scenario, label)

    def distributed_fleet_digest(self) -> str:
        return self.run.distributed_fleet_digest(self.probe.scenario)

    def distributed_metrics(self) -> dict:
        return self.run.distributed_metrics(self.probe.scenario)

    def reference_fleet_digest(self) -> str:
        """The paper scenario's digest at this run's (size, seed, date)."""
        return self.run.fleet_digest("paper", shards=1)

    def reference_statistics_digest(self) -> str:
        return self.run.statistics_digest("paper")

    def golden_fleet_digest(self) -> "str | None":
        """The pinned digest, or None when this run is not canonical."""
        if not self.run.canonical or self.probe.scenario != "paper":
            return None
        return _probes.GOLDEN_FLEET_DIGESTS.get(self.run.tier)

    def golden_statistics_digest(self) -> "str | None":
        if not self.run.canonical or self.probe.scenario != "paper":
            return None
        return _probes.GOLDEN_STATISTICS_DIGESTS.get(self.run.tier)


@dataclass(frozen=True)
class ProbeResult:
    """Verdict of one probe: raw check outcome plus the control inversion."""

    name: str
    family: str
    tier: str
    scenario: str
    expect: str
    control_of: "str | None"
    passed: bool
    checks_ok: bool
    checks: "list[_probes.CheckResult]"
    elapsed_seconds: float
    error: "str | None" = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "family": self.family,
            "tier": self.tier,
            "scenario": self.scenario,
            "expect": self.expect,
            "control_of": self.control_of,
            "passed": bool(self.passed),
            "checks_ok": bool(self.checks_ok),
            "checks": [check.to_dict() for check in self.checks],
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "error": self.error,
        }


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of one ``fleet validate`` invocation."""

    tier: str
    size: int
    seed: int
    date: str
    canonical: bool
    ok: bool
    elapsed_seconds: float
    results: "list[ProbeResult]" = field(default_factory=list)

    def counts(self) -> dict:
        return {
            "probes": len(self.results),
            "passed": sum(1 for r in self.results if r.passed),
            "failed": sum(1 for r in self.results if not r.passed),
            "controls": sum(1 for r in self.results if r.family == "control"),
        }

    def to_dict(self) -> dict:
        return {
            "report": "fleet-validate",
            "version": 1,
            "tier": self.tier,
            "size": self.size,
            "seed": self.seed,
            "date": self.date,
            "canonical": self.canonical,
            "ok": bool(self.ok),
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "counts": self.counts(),
            "probes": [result.to_dict() for result in self.results],
        }

    def format_lines(self) -> "list[str]":
        """Human-readable per-probe verdict lines plus a summary."""
        lines = [
            f"fleet validate · tier={self.tier} size={self.size} "
            f"seed={self.seed} date={self.date}"
            + (" (canonical)" if self.canonical else " (non-canonical: "
               "golden digest pins skipped)")
        ]
        width = max((len(r.name) for r in self.results), default=0)
        for result in self.results:
            verdict = "PASS" if result.passed else "FAIL"
            note = ""
            if result.family == "control":
                note = (
                    "  (control tripped as designed)"
                    if result.passed
                    else "  (control FAILED TO TRIP: probe has lost its teeth)"
                )
            lines.append(
                f"  {verdict}  {result.name:<{width}}  {result.family:<10}"
                f"  {result.elapsed_seconds:6.2f}s{note}"
            )
            if result.error is not None:
                lines.append(f"        error: {result.error}")
            if not result.passed and result.expect == "pass":
                for check in result.checks:
                    if not check.ok:
                        observed = check.observed
                        if isinstance(observed, float):
                            observed = f"{observed:.6g}"
                        lines.append(
                            f"        {check.label}: observed {observed}, "
                            f"expected {check.expected}"
                        )
        counts = self.counts()
        lines.append(
            f"summary: {counts['passed']}/{counts['probes']} probes passed "
            f"({counts['controls']} controls) in {self.elapsed_seconds:.2f}s"
        )
        return lines


def select_probes(
    tier: str, names: "list[str] | None" = None
) -> "list[_probes.Probe]":
    """The registry's probes for ``tier``, optionally filtered by name.

    Raises :class:`ValueError` for an unknown tier or a name that is not
    registered at that tier (full-tier probe names are invalid under
    ``tier="fast"`` — the message lists what is available).
    """
    _ensure_scenarios_registered()
    available = list(_probes.iter_probes(tier))
    if names is None:
        return available
    by_name = {probe.name: probe for probe in available}
    unknown = sorted(set(names) - set(by_name))
    if unknown:
        raise ValueError(
            f"unknown probe(s) for tier {tier!r}: {', '.join(unknown)}; "
            f"available: {', '.join(sorted(by_name))}"
        )
    seen: set = set()
    selected = []
    for name in names:
        if name not in seen:
            seen.add(name)
            selected.append(by_name[name])
    return selected


def run_validation(
    tier: str = "fast",
    *,
    size: "int | None" = None,
    seed: "int | None" = None,
    date: "str | None" = None,
    probes: "list[str] | None" = None,
    start_method: "str | None" = None,
    distributed_workers: int = 2,
) -> ValidationReport:
    """Run the validation probe suite and return its report.

    ``probes`` filters by registered name (order-preserving, deduplicated);
    the defaults pin the canonical configuration for ``tier``.  A probe
    whose check raises records the error and fails — controls included: an
    erroring control proves nothing about its target's teeth.
    """
    selected = select_probes(tier, probes)
    run = ValidationRun(
        tier,
        size=size,
        seed=seed,
        date=date,
        probes=selected,
        start_method=start_method,
        distributed_workers=distributed_workers,
    )
    results: "list[ProbeResult]" = []
    start = time.perf_counter()
    for probe in selected:
        probe_start = time.perf_counter()
        error = None
        try:
            checks = list(probe.check(ProbeContext(run, probe)))
            checks_ok = all(check.ok for check in checks)
        except Exception as exc:  # noqa: BLE001 - probe verdicts must not abort the run
            checks = []
            checks_ok = False
            error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            passed = False
        elif probe.expect == "fail":
            passed = not checks_ok
        else:
            passed = checks_ok
        results.append(
            ProbeResult(
                name=probe.name,
                family=probe.family,
                tier=probe.tier,
                scenario=probe.scenario,
                expect=probe.expect,
                control_of=probe.control_of,
                passed=passed,
                checks_ok=checks_ok,
                checks=checks,
                elapsed_seconds=time.perf_counter() - probe_start,
                error=error,
            )
        )
    elapsed = time.perf_counter() - start
    return ValidationReport(
        tier=tier,
        size=run.size,
        seed=run.seed,
        date=run.date,
        canonical=run.canonical,
        ok=all(result.passed for result in results),
        elapsed_seconds=elapsed,
        results=results,
    )
