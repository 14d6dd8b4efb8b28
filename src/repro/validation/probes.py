"""The statistical validation probe registry (``fleet validate``).

Byte-identity goldens (manifests, payload sha256) guard *plumbing*; the
probes here guard *model fidelity at scale*: a streamed fleet of any size
must keep reproducing the paper's core claims — the correlated resource
structure of Heien/Kondo/Anderson's end-host models — and a deliberately
broken model must be *caught*.  Every probe is a declarative record
(:class:`Probe`: name, reducer-factory set, assertion, tolerance band,
tier) evaluated by :mod:`repro.validation.runner` over fleets streamed
through the existing :class:`~repro.engine.reduce.Reducer` /
:func:`~repro.engine.sharding.generate_sharded` contract — never batch
arrays — so probes exercise the exact path production statistics use.

Three probe families ship:

* **paper pins** (``family="paper_pin"``) — correlation-matrix signs and
  magnitudes (Table III/VIII), moment and quantile-sketch pins (Fig 12 /
  Table IV), and marginal distribution-family fits through the paper's
  subsampled-KS machinery (§V-F/V-G: disk is log-normal, speeds are
  normal).
* **known-false controls** (``family="control"``, ``expect="fail"``) —
  fleets generated from deliberately perturbed parameters (decoupled
  correlation matrix, collapsed core chain, doubled speed law, shifted
  seed), plus deliberately false family claims, each of which **must**
  trip its target probe's assertion.  A control that stops failing means
  the probe lost its teeth; the registry meta-test
  (``tests/validation/test_probe_controls.py``) enforces that every
  non-control probe keeps at least one.
* **determinism hashes** (``family="determinism"``) — seed → digest pins:
  the fleet content digest must be identical across shard counts and the
  distributed backend, and the streamed reducer-state digest of the
  canonical configuration is pinned to a golden value, so a refactor
  cannot silently move the fleet while the statistical bands stay green.

**Tolerance methodology.**  Every numeric band in :data:`PIN_BANDS` is
resampling-derived, not hand-tuned: band = across-seed mean ±
:data:`~repro.validation.tolerances.BAND_SIGMA` × across-seed standard
deviation of the metric over independently seeded fleets at the fast-tier
size, rounded outward (see :mod:`repro.validation.tolerances`, which
re-derives and audits the table).  The full tier reuses the fast-tier
bands — seed noise only shrinks with size, so the fast-tier band is the
binding one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator

import numpy as np

from repro.core.generator import CorrelatedHostGenerator
from repro.core.laws import ExponentialLaw
from repro.core.parameters import ModelParameters
from repro.core.ratios import RatioChain
from repro.engine.reduce import ReducerFactory, validation_profile_factories

#: Probe execution tiers: ``fast`` runs on every CI push (≤ 50 k hosts,
#: seconds); ``full`` additionally runs the million-host probes on the
#: scheduled job.  A probe's ``tier`` is the *cheapest* tier that runs it;
#: the full tier runs every registered probe.
TIERS: tuple[str, ...] = ("fast", "full")

#: Probe families (see module docstring).
FAMILIES: tuple[str, ...] = ("paper_pin", "determinism", "control")


@dataclass(frozen=True)
class Band:
    """A closed tolerance interval ``[lo, hi]`` for one pinned metric."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)) or self.lo > self.hi:
            raise ValueError(f"invalid band [{self.lo}, {self.hi}]")

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the band (NaN never does)."""
        return bool(self.lo <= value <= self.hi)

    def describe(self) -> str:
        """Human-readable form used in check records."""
        return f"[{self.lo:g}, {self.hi:g}]"


@dataclass(frozen=True)
class CheckResult:
    """One assertion inside a probe: what was observed vs what was expected."""

    label: str
    observed: Any
    expected: str
    ok: bool

    def to_dict(self) -> dict:
        observed = self.observed
        if isinstance(observed, float) and not np.isfinite(observed):
            observed = None  # JSON-safe: NaN/±inf do not round-trip
        return {
            "label": self.label,
            "observed": observed,
            "expected": self.expected,
            "ok": bool(self.ok),
        }


@dataclass(frozen=True)
class Probe:
    """One declarative validation probe.

    ``check`` receives a :class:`~repro.validation.runner.ProbeContext`
    bound to this probe's scenario and returns its
    :class:`CheckResult` list; the probe passes when every check holds —
    unless ``expect="fail"`` (a known-false control), in which case the
    probe passes exactly when at least one check *breaks*, proving the
    target assertion still has teeth.  ``factories`` declares the reducer
    profile the probe's streamed pass needs; the runner unions the
    factories of every probe sharing a scenario into one pass, so probes
    stay declarative while fleets are streamed once.
    """

    name: str
    family: str
    tier: str
    scenario: str
    check: Callable[..., "list[CheckResult]"]
    factories: "dict[str, ReducerFactory]" = field(
        default_factory=validation_profile_factories
    )
    expect: str = "pass"
    control_of: "str | None" = None
    description: str = ""


@dataclass(frozen=True)
class Scenario:
    """A named fleet configuration probes stream over.

    ``make_generator`` builds the scenario's generator: a correlated-host
    generator over the paper reference parameters or a deliberate
    perturbation of them (controls), or a scenario-registry generator
    (:mod:`repro.scenarios`) streaming a non-host column set through the
    same probe machinery.  ``profile`` optionally overrides the
    reducer-factory set the runner streams with (required whenever the
    generator's columns are not the host resources); ``seed_offset``
    shifts the run seed so reseeded controls share one entry point with
    everything else.
    """

    key: str
    make_generator: "Callable[[], Any]"
    seed_offset: int = 0
    description: str = ""
    profile: "Callable[[], dict[str, ReducerFactory]] | None" = None


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def _decoupled_generator() -> CorrelatedHostGenerator:
    """Identity correlation: kills the (mem/core, Whet, Dhry) coupling."""
    return CorrelatedHostGenerator(
        ModelParameters.paper_reference().with_correlation(np.eye(3))
    )


def _single_core_generator() -> CorrelatedHostGenerator:
    """Collapse the core chain so (nearly) every host has one core.

    A huge constant 1:2 ratio starves every multi-core class, so the core
    column degenerates and the cores↔memory coupling (and the core-count
    mean) leaves the paper's regime entirely.
    """
    base = ModelParameters.paper_reference()
    chain = base.core_chain
    collapsed = RatioChain(
        class_values=chain.class_values,
        ratio_laws=(ExponentialLaw(1e9, 0.0),) + tuple(chain.ratio_laws[1:]),
    )
    return CorrelatedHostGenerator(replace(base, core_chain=collapsed))


def _speed_doubled_generator() -> CorrelatedHostGenerator:
    """Double the Dhrystone mean law: moment and quantile pins must trip."""
    base = ModelParameters.paper_reference()
    law = base.dhrystone_mean
    return CorrelatedHostGenerator(
        replace(base, dhrystone_mean=ExponentialLaw(2.0 * law.a, law.b, r=law.r))
    )


#: Registered fleet scenarios, keyed by :attr:`Scenario.key`.  Extended
#: only by :func:`register_scenario` (the scenario registry adds its
#: entries on import of :mod:`repro.scenarios`).
SCENARIOS: "dict[str, Scenario]" = {
    scenario.key: scenario
    for scenario in (
        Scenario(
            "paper",
            CorrelatedHostGenerator,
            description="the paper's Table X reference parameters",
        ),
        Scenario(
            "decoupled",
            _decoupled_generator,
            description="identity (mem/core, Whet, Dhry) correlation matrix",
        ),
        Scenario(
            "single_core",
            _single_core_generator,
            description="core chain collapsed to single-core hosts",
        ),
        Scenario(
            "speed_doubled",
            _speed_doubled_generator,
            description="Dhrystone mean trend law doubled",
        ),
        Scenario(
            "reseeded",
            CorrelatedHostGenerator,
            seed_offset=1,
            description="paper parameters under a shifted seed",
        ),
    )
}


# ---------------------------------------------------------------------------
# Pinned metrics and their resampling-derived bands
# ---------------------------------------------------------------------------


def _corr_metric(a: str, b: str):
    def metric(stats) -> float:
        return float(stats.correlation.matrix().get(a, b))

    return metric


def _mean_metric(label: str):
    def metric(stats) -> float:
        return float(stats.moments.means()[label])

    return metric


def _std_metric(label: str):
    def metric(stats) -> float:
        return float(stats.moments.stds()[label])

    return metric


def _median_metric(label: str):
    def metric(stats) -> float:
        return float(stats.quantiles.medians()[label])

    return metric


#: Metric extractors over a streamed :class:`FleetStatistics`, keyed by the
#: pin name used in :data:`PIN_BANDS` and the probe check records.
METRICS: "dict[str, Callable[..., float]]" = {
    # Table VIII coupled pairs
    "corr/cores:memory_mb": _corr_metric("cores", "memory_mb"),
    "corr/whetstone:dhrystone": _corr_metric("whetstone", "dhrystone"),
    "corr/mem_per_core:whetstone": _corr_metric("mem_per_core", "whetstone"),
    "corr/mem_per_core:dhrystone": _corr_metric("mem_per_core", "dhrystone"),
    # Table III independent pairs (must stay within seed noise of zero)
    "corr/cores:whetstone": _corr_metric("cores", "whetstone"),
    "corr/cores:disk_gb": _corr_metric("cores", "disk_gb"),
    "corr/disk_gb:memory_mb": _corr_metric("disk_gb", "memory_mb"),
    # Fig 12 moments
    "mean/cores": _mean_metric("cores"),
    "mean/memory_mb": _mean_metric("memory_mb"),
    "mean/dhrystone": _mean_metric("dhrystone"),
    "mean/whetstone": _mean_metric("whetstone"),
    "mean/disk_gb": _mean_metric("disk_gb"),
    "std/cores": _std_metric("cores"),
    "std/memory_mb": _std_metric("memory_mb"),
    "std/dhrystone": _std_metric("dhrystone"),
    "std/whetstone": _std_metric("whetstone"),
    "std/disk_gb": _std_metric("disk_gb"),
    # Streamed sketch medians (Table IV-style distributional middles)
    "median/cores": _median_metric("cores"),
    "median/memory_mb": _median_metric("memory_mb"),
    "median/dhrystone": _median_metric("dhrystone"),
    "median/whetstone": _median_metric("whetstone"),
    "median/disk_gb": _median_metric("disk_gb"),
}

#: Resampling-derived tolerance bands: across-seed mean ± 8σ over 16
#: independently seeded 50 k-host fleets at the paper's reference date,
#: rounded outward (re-derive with ``python -m repro.validation.tolerances``;
#: the derivation must stay inside these bands or the table is stale).
PIN_BANDS: "dict[str, Band]" = {
    "corr/cores:memory_mb": Band(0.766, 0.835),
    "corr/whetstone:dhrystone": Band(0.616, 0.657),
    "corr/mem_per_core:whetstone": Band(0.204, 0.266),
    "corr/mem_per_core:dhrystone": Band(0.250, 0.322),
    "corr/cores:whetstone": Band(-0.034, 0.034),
    "corr/cores:disk_gb": Band(-0.034, 0.034),
    "corr/disk_gb:memory_mb": Band(-0.034, 0.034),
    "mean/cores": Band(2.373, 2.512),
    "mean/memory_mb": Band(2762.0, 2966.0),
    "mean/dhrystone": Band(4544.0, 4701.0),
    "mean/whetstone": Band(2000.0, 2046.0),
    "mean/disk_gb": Band(102.9, 118.7),
    "std/cores": Band(1.70, 2.03),
    "std/memory_mb": Band(2360.0, 3090.0),
    "std/dhrystone": Band(2400.0, 2525.0),
    "std/whetstone": Band(706.0, 745.0),
    "std/disk_gb": Band(121.0, 244.0),
    # The two discrete-class medians are seed-exact (across-seed σ = 0):
    # their bands are pure sketch-interpolation allowances (±1 %).
    "median/cores": Band(1.98, 2.02),
    "median/memory_mb": Band(2027.0, 2069.0),
    "median/dhrystone": Band(4470.0, 4710.0),
    "median/whetstone": Band(1997.0, 2047.0),
    "median/disk_gb": Band(54.4, 61.2),
}

#: The four coupled Table VIII magnitudes.
CORRELATION_MAGNITUDE_PINS: tuple[str, ...] = (
    "corr/cores:memory_mb",
    "corr/whetstone:dhrystone",
    "corr/mem_per_core:whetstone",
    "corr/mem_per_core:dhrystone",
)

#: The Table III independent pairs (pinned near zero).
CORRELATION_ZERO_PINS: tuple[str, ...] = (
    "corr/cores:whetstone",
    "corr/cores:disk_gb",
    "corr/disk_gb:memory_mb",
)

MOMENT_PINS: tuple[str, ...] = tuple(
    key for key in PIN_BANDS if key.startswith(("mean/", "std/"))
)

QUANTILE_PINS: tuple[str, ...] = tuple(
    key for key in PIN_BANDS if key.startswith("median/")
)


# ---------------------------------------------------------------------------
# Check functions (each receives a runner ProbeContext)
# ---------------------------------------------------------------------------


def _band_checks(ctx, keys: "tuple[str, ...]") -> "list[CheckResult]":
    stats = ctx.stats
    checks = []
    for key in keys:
        band = PIN_BANDS[key]
        observed = METRICS[key](stats)
        checks.append(CheckResult(key, observed, band.describe(), band.contains(observed)))
    return checks


def check_correlation_structure(ctx) -> "list[CheckResult]":
    """Sign/zero pattern of the Table III/VIII matrix."""
    stats = ctx.stats
    checks = []
    for key in CORRELATION_MAGNITUDE_PINS:
        observed = METRICS[key](stats)
        checks.append(CheckResult(f"{key} sign", observed, "> 0", observed > 0.0))
    checks.extend(_band_checks(ctx, CORRELATION_ZERO_PINS))
    return checks


def check_correlation_magnitudes(ctx) -> "list[CheckResult]":
    """Banded Table VIII magnitudes of the four coupled pairs."""
    return _band_checks(ctx, CORRELATION_MAGNITUDE_PINS)


def check_moments(ctx) -> "list[CheckResult]":
    """Banded Fig 12 means and standard deviations."""
    return _band_checks(ctx, MOMENT_PINS)


def check_quantiles(ctx) -> "list[CheckResult]":
    """Banded streamed sketch medians, plus decile monotonicity."""
    checks = _band_checks(ctx, QUANTILE_PINS)
    deciles = ctx.stats.quantiles.result()
    medians = ctx.stats.quantiles.medians()
    for label, row in deciles.items():
        values = [row[p] for p in sorted(row)]
        ordered = values == sorted(values) and values[0] <= medians[label] <= values[-1]
        checks.append(
            CheckResult(
                f"deciles/{label} monotone around median",
                round(float(medians[label]), 6),
                "p10 <= ... <= median <= ... <= p90",
                ordered,
            )
        )
    return checks


def check_disk_family(ctx) -> "list[CheckResult]":
    """§V-G: available disk is log-normal (and decisively not normal)."""
    selection = ctx.ks_selection("disk_gb")
    p_lognormal = selection.p_values.get("lognormal", 0.0)
    p_normal = selection.p_values.get("normal", 0.0)
    return [
        CheckResult("ks/disk_gb winner", selection.best_name, "lognormal",
                    selection.best_name == "lognormal"),
        CheckResult("ks/disk_gb p(lognormal)", p_lognormal, ">= 0.2",
                    p_lognormal >= 0.2),
        CheckResult("ks/disk_gb p(normal)", p_normal, "<= 0.05",
                    p_normal <= 0.05),
    ]


def check_speed_family(ctx) -> "list[CheckResult]":
    """§V-F: Whetstone is well-described by a normal, not by heavy tails.

    Winner-take-all is deliberately avoided: the marginal over memory
    classes sits between normal and Weibull (their average p-values cross
    within seed noise), so the pin asserts the *p-value structure* — the
    normal family fits well and the heavy-tailed families are rejected —
    which is the paper's actual claim.
    """
    selection = ctx.ks_selection("whetstone")
    p_normal = selection.p_values.get("normal", 0.0)
    p_exponential = selection.p_values.get("exponential", 0.0)
    p_pareto = selection.p_values.get("pareto", 0.0)
    return [
        CheckResult("ks/whetstone p(normal)", p_normal, ">= 0.3", p_normal >= 0.3),
        CheckResult("ks/whetstone p(exponential)", p_exponential, "<= 0.05",
                    p_exponential <= 0.05),
        CheckResult("ks/whetstone p(pareto)", p_pareto, "<= 0.05",
                    p_pareto <= 0.05),
    ]


def check_disk_family_false_claim(ctx) -> "list[CheckResult]":
    """Known-false claim: 'disk is normal'.  Must break on the real fleet."""
    selection = ctx.ks_selection("disk_gb")
    p_normal = selection.p_values.get("normal", 0.0)
    return [
        CheckResult("ks/disk_gb winner", selection.best_name, "normal",
                    selection.best_name == "normal"),
        CheckResult("ks/disk_gb p(normal)", p_normal, ">= 0.2", p_normal >= 0.2),
    ]


def check_speed_family_false_claim(ctx) -> "list[CheckResult]":
    """Known-false claim: 'Whetstone is exponential'.  Must break."""
    selection = ctx.ks_selection("whetstone")
    p_exponential = selection.p_values.get("exponential", 0.0)
    return [
        CheckResult("ks/whetstone p(exponential)", p_exponential, ">= 0.3",
                    p_exponential >= 0.3),
    ]


def check_fleet_digest(ctx) -> "list[CheckResult]":
    """Seed → fleet digest: shard-count invariant, golden-pinned."""
    single = ctx.fleet_digest(shards=1)
    sharded = ctx.fleet_digest(shards=2)
    checks = [
        CheckResult("fleet digest shards=2", sharded, f"shards=1 digest {single}",
                    sharded == single),
    ]
    golden = ctx.golden_fleet_digest()
    if golden is None:
        checks.append(
            CheckResult("fleet digest golden", single,
                        "skipped: non-canonical size/seed/date", True)
        )
    else:
        checks.append(
            CheckResult("fleet digest golden", single, golden, single == golden)
        )
    return checks


def check_statistics_digest(ctx) -> "list[CheckResult]":
    """Seed → streamed reducer-state digest of the canonical profile."""
    digest = ctx.statistics_digest()
    golden = ctx.golden_statistics_digest()
    if golden is None:
        return [
            CheckResult("statistics digest golden", digest,
                        "skipped: non-canonical size/seed/date", True)
        ]
    return [CheckResult("statistics digest golden", digest, golden, digest == golden)]


def check_fleet_digest_matches_paper(ctx) -> "list[CheckResult]":
    """Control body: this scenario's digest must equal the paper fleet's.

    True only for the paper scenario itself; under the reseeded scenario
    the digest must differ, tripping the control at *any* size/seed (no
    golden needed, so ``--size`` overrides keep the control armed).
    """
    digest = ctx.fleet_digest(shards=1)
    reference = ctx.reference_fleet_digest()
    return [
        CheckResult("fleet digest == paper-scenario digest", digest, reference,
                    digest == reference)
    ]


def check_statistics_digest_matches_paper(ctx) -> "list[CheckResult]":
    """Control body: reducer-state digest must equal the paper fleet's."""
    digest = ctx.statistics_digest()
    reference = ctx.reference_statistics_digest()
    return [
        CheckResult("statistics digest == paper-scenario digest", digest,
                    reference, digest == reference)
    ]


def check_distributed_digest(ctx) -> "list[CheckResult]":
    """The distributed backend reproduces the streamed fleet bit-for-bit."""
    distributed = ctx.distributed_fleet_digest()
    single = ctx.fleet_digest(shards=1)
    checks = [
        CheckResult("distributed fleet digest", distributed,
                    f"streamed shards=1 digest {single}", distributed == single),
    ]
    golden = ctx.golden_fleet_digest()
    if golden is None:
        checks.append(
            CheckResult("distributed digest golden", distributed,
                        "skipped: non-canonical size/seed/date", True)
        )
    else:
        checks.append(
            CheckResult("distributed digest golden", distributed, golden,
                        distributed == golden)
        )
    return checks


def check_distributed_digest_matches_paper(ctx) -> "list[CheckResult]":
    """Control body: distributed digest must equal the paper fleet's."""
    distributed = ctx.distributed_fleet_digest()
    reference = ctx.reference_fleet_digest()
    return [
        CheckResult("distributed digest == paper-scenario digest", distributed,
                    reference, distributed == reference)
    ]


def check_distributed_hardened(ctx) -> "list[CheckResult]":
    """The distributed run's digest plus a consistent metrics document.

    The run behind ``ctx.distributed_metrics()`` is the same memoised
    pool-slot export the digest probe uses, so this costs no extra fleet
    pass — it checks that the observability document the coordinator
    emits is internally consistent: every lease carries a timing, each
    worker's heartbeat-gap histogram sums to its frame count, and the
    requeue/steal/drain counters exist.  Pool slots open no socket, so
    the run's token is never checked and every histogram sums 0 frames:
    the authenticated socket transport is not covered here.
    """
    digest = ctx.distributed_fleet_digest()
    single = ctx.fleet_digest(shards=1)
    metrics = ctx.distributed_metrics()
    leases = metrics.get("leases", [])
    workers = metrics.get("workers", {})
    timings_ok = bool(leases) and all(
        isinstance(event.get("seconds"), float) and event["seconds"] >= 0
        for event in leases
    )
    histograms_ok = bool(workers) and all(
        sum(entry["heartbeat_gap_histogram"]) == entry["frames"]
        for entry in workers.values()
    )
    counters_ok = all(
        isinstance(metrics.get(name), int) and metrics[name] >= 0
        for name in ("requeued_leases", "stolen_leases", "drained_workers")
    )
    return [
        CheckResult("distributed digest", digest,
                    f"streamed shards=1 digest {single}", digest == single),
        CheckResult("metrics envelope kind", metrics.get("kind"),
                    "FleetDistributedMetrics",
                    metrics.get("kind") == "FleetDistributedMetrics"),
        CheckResult("per-lease timings recorded", len(leases),
                    f"{metrics.get('leases_total')} events, seconds >= 0",
                    timings_ok and len(leases) == metrics.get("leases_total")),
        CheckResult("heartbeat-gap histograms cover every frame",
                    {name: sum(entry["heartbeat_gap_histogram"])
                     for name, entry in workers.items()},
                    {name: entry["frames"] for name, entry in workers.items()},
                    histograms_ok),
        CheckResult("requeue/steal/drain counters present", counters_ok,
                    "non-negative integers", counters_ok),
    ]


# ---------------------------------------------------------------------------
# Golden digests (canonical configurations only)
# ---------------------------------------------------------------------------

#: Pinned fleet content digests (``combine_block_digests``) of the paper
#: scenario at each tier's canonical (size, seed, date).  Like the golden
#: manifest corpus: an intentional generator/RNG-contract change must move
#: these in the same commit and call the format change out in CHANGES.md.
GOLDEN_FLEET_DIGESTS: "dict[str, str]" = {
    "fast": "6e664c156fd6e42bf3f95d3b45d2d499944bd05e183b7cdc6a6c97932a68f18e",
    "full": "258019ebb5b39aa9aaa14352cd5334363ee268906d0c7ba446b9f7267d623e93",
}

#: Pinned sha256 over the canonical-profile reducer states (sorted member
#: names, canonical JSON) of the shards=1 streamed pass.  Guards the whole
#: statistics pipeline — accumulator maths, sketch compression, state
#: serialization — not just the generated bytes.
GOLDEN_STATISTICS_DIGESTS: "dict[str, str]" = {
    "fast": "4e960febc24cb5de7a5be7a20cda2f7735eb78341252502ce47c751d8a887c5a",
    "full": "36b9a0dc1079478b54db8c0f543a9750735fba733502a7995e5e00349c558cea",
}


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

#: Every registered probe, keyed by name.  Mutated only by
#: :func:`register_probe`.
PROBES: "dict[str, Probe]" = {}


def register_scenario(scenario: Scenario) -> Scenario:
    """Validate and register one fleet scenario (returns it, for chaining).

    Raises :class:`ValueError` on an empty or duplicate key.
    """
    if not scenario.key:
        raise ValueError("scenario key must be non-empty")
    if scenario.key in SCENARIOS:
        raise ValueError(f"duplicate scenario key {scenario.key!r}")
    SCENARIOS[scenario.key] = scenario
    return scenario


def register_probe(probe: Probe) -> Probe:
    """Validate and register one probe (returns it, for chaining).

    Raises :class:`ValueError` on a duplicate name, an unknown tier,
    family or scenario, a control without a registered target, or a
    non-control carrying ``expect="fail"``.
    """
    if probe.name in PROBES:
        raise ValueError(f"duplicate probe name {probe.name!r}")
    if probe.tier not in TIERS:
        raise ValueError(f"probe {probe.name!r}: unknown tier {probe.tier!r}")
    if probe.family not in FAMILIES:
        raise ValueError(f"probe {probe.name!r}: unknown family {probe.family!r}")
    if probe.scenario not in SCENARIOS:
        raise ValueError(
            f"probe {probe.name!r}: unknown scenario {probe.scenario!r}; "
            f"known: {sorted(SCENARIOS)}"
        )
    if probe.expect not in ("pass", "fail"):
        raise ValueError(f"probe {probe.name!r}: expect must be 'pass' or 'fail'")
    if (probe.family == "control") != (probe.expect == "fail"):
        raise ValueError(
            f"probe {probe.name!r}: controls (and only controls) expect failure"
        )
    if probe.family == "control":
        if probe.control_of is None:
            raise ValueError(f"control {probe.name!r} must name its target probe")
        if probe.control_of not in PROBES:
            raise ValueError(
                f"control {probe.name!r} targets unregistered probe "
                f"{probe.control_of!r}; register the target first"
            )
    elif probe.control_of is not None:
        raise ValueError(f"probe {probe.name!r}: only controls set control_of")
    PROBES[probe.name] = probe
    return probe


def iter_probes(tier: str = "full") -> "Iterator[Probe]":
    """Probes that run at ``tier`` (the full tier runs everything)."""
    if tier not in TIERS:
        raise ValueError(f"unknown tier {tier!r}; known tiers: {TIERS}")
    for probe in PROBES.values():
        if tier == "full" or probe.tier == "fast":
            yield probe


def _register_builtin_probes() -> None:
    # --- paper pins --------------------------------------------------------
    register_probe(Probe(
        name="pin/correlation-structure",
        family="paper_pin",
        tier="fast",
        scenario="paper",
        check=check_correlation_structure,
        description="Table III/VIII sign pattern: coupled pairs positive, "
                    "independent pairs within seed noise of zero",
    ))
    register_probe(Probe(
        name="pin/correlation-magnitudes",
        family="paper_pin",
        tier="fast",
        scenario="paper",
        check=check_correlation_magnitudes,
        description="Table VIII coupled-pair magnitudes inside their "
                    "resampling-derived bands",
    ))
    register_probe(Probe(
        name="pin/moments",
        family="paper_pin",
        tier="fast",
        scenario="paper",
        check=check_moments,
        description="Fig 12 means and standard deviations of the five "
                    "primary resources",
    ))
    register_probe(Probe(
        name="pin/quantiles",
        family="paper_pin",
        tier="fast",
        scenario="paper",
        check=check_quantiles,
        description="streamed QuantileSketch medians (and decile "
                    "monotonicity) of the five primary resources",
    ))
    register_probe(Probe(
        name="pin/disk-family",
        family="paper_pin",
        tier="fast",
        scenario="paper",
        check=check_disk_family,
        description="§V-G subsampled-KS selection: available disk is "
                    "log-normal",
    ))
    register_probe(Probe(
        name="pin/speed-family",
        family="paper_pin",
        tier="fast",
        scenario="paper",
        check=check_speed_family,
        description="§V-F subsampled-KS p-value structure: Whetstone fits "
                    "a normal, heavy tails rejected",
    ))

    # --- determinism hashes ------------------------------------------------
    register_probe(Probe(
        name="determinism/fleet-digest",
        family="determinism",
        tier="fast",
        scenario="paper",
        check=check_fleet_digest,
        description="fleet content digest invariant across shard counts and "
                    "pinned to the canonical golden",
    ))
    register_probe(Probe(
        name="determinism/statistics-digest",
        family="determinism",
        tier="fast",
        scenario="paper",
        check=check_statistics_digest,
        description="sha256 over the canonical-profile reducer states of the "
                    "streamed pass, pinned to the canonical golden",
    ))
    register_probe(Probe(
        name="determinism/distributed-digest",
        family="determinism",
        tier="full",
        scenario="paper",
        check=check_distributed_digest,
        description="the distributed backend's fleet digest equals the "
                    "streamed one (and the canonical golden)",
    ))
    register_probe(Probe(
        name="determinism/distributed-hardened",
        family="determinism",
        tier="full",
        scenario="paper",
        check=check_distributed_hardened,
        description="the distributed backend (two pool slots, no socket) "
                    "keeps the digest and emits an internally consistent "
                    "metrics document",
    ))

    # --- known-false controls ---------------------------------------------
    register_probe(Probe(
        name="control/decoupled-structure",
        family="control",
        tier="fast",
        scenario="decoupled",
        check=check_correlation_structure,
        expect="fail",
        control_of="pin/correlation-structure",
        description="identity coupling must break the sign pattern",
    ))
    register_probe(Probe(
        name="control/decoupled-magnitudes",
        family="control",
        tier="fast",
        scenario="decoupled",
        check=check_correlation_magnitudes,
        expect="fail",
        control_of="pin/correlation-magnitudes",
        description="identity coupling must leave the Table VIII bands",
    ))
    register_probe(Probe(
        name="control/single-core-moments",
        family="control",
        tier="fast",
        scenario="single_core",
        check=check_moments,
        expect="fail",
        control_of="pin/moments",
        description="a collapsed core chain must leave the moment bands",
    ))
    register_probe(Probe(
        name="control/speed-doubled-moments",
        family="control",
        tier="fast",
        scenario="speed_doubled",
        check=check_moments,
        expect="fail",
        control_of="pin/moments",
        description="a doubled Dhrystone law must leave the moment bands",
    ))
    register_probe(Probe(
        name="control/speed-doubled-quantiles",
        family="control",
        tier="fast",
        scenario="speed_doubled",
        check=check_quantiles,
        expect="fail",
        control_of="pin/quantiles",
        description="a doubled Dhrystone law must leave the median bands",
    ))
    register_probe(Probe(
        name="control/disk-family-false-claim",
        family="control",
        tier="fast",
        scenario="paper",
        check=check_disk_family_false_claim,
        expect="fail",
        control_of="pin/disk-family",
        description="the claim 'disk is normal' must be rejected",
    ))
    register_probe(Probe(
        name="control/speed-family-false-claim",
        family="control",
        tier="fast",
        scenario="paper",
        check=check_speed_family_false_claim,
        expect="fail",
        control_of="pin/speed-family",
        description="the claim 'Whetstone is exponential' must be rejected",
    ))
    register_probe(Probe(
        name="control/reseeded-fleet-digest",
        family="control",
        tier="fast",
        scenario="reseeded",
        check=check_fleet_digest_matches_paper,
        expect="fail",
        control_of="determinism/fleet-digest",
        description="a shifted seed must change the fleet digest",
    ))
    register_probe(Probe(
        name="control/reseeded-statistics-digest",
        family="control",
        tier="fast",
        scenario="reseeded",
        check=check_statistics_digest_matches_paper,
        expect="fail",
        control_of="determinism/statistics-digest",
        description="a shifted seed must change the statistics digest",
    ))
    register_probe(Probe(
        name="control/reseeded-distributed-digest",
        family="control",
        tier="full",
        scenario="reseeded",
        check=check_distributed_digest_matches_paper,
        expect="fail",
        control_of="determinism/distributed-digest",
        description="a shifted seed must change the distributed digest",
    ))
    register_probe(Probe(
        name="control/reseeded-hardened-digest",
        family="control",
        tier="full",
        scenario="reseeded",
        check=check_distributed_digest_matches_paper,
        expect="fail",
        control_of="determinism/distributed-hardened",
        description="a shifted seed must change the distributed digest too",
    ))


_register_builtin_probes()
