"""Day-one validation probes and controls for the scenario registry.

Every registered scenario ships with a fast-tier statistical probe — mean
bands over its streamed moment reducer plus a structural correlation-sign
claim — and one known-false control streaming a deliberately perturbed
twin generator through the *same* check, so the registry meta-test
(``tests/validation/test_probe_controls.py``) keeps the scenario pins
honest alongside the host-fleet ones.

Bands follow the house methodology (:mod:`repro.validation.tolerances`):
across-seed envelope of the metric over independently seeded fast-tier
(50 k-row) streams, widened ~4× and rounded outward.  Each control's
perturbation moves its banded means far outside (flipped Beta fractions
shift the availability mean 0.64 → 0.36; doubled lifetime decay shifts
mean lifetime 178 d → 117 d; doubled Dhrystone shifts every Table IX
utility by its ``2^γ`` factor; a near-symmetric link mix collapses the
asymmetry mean 8 → 2).
"""

from __future__ import annotations

from repro.scenarios.allocation import (
    AllocationScenarioGenerator,
    AllocationScenarioParameters,
)
from repro.scenarios.availability import (
    AvailabilityScenarioGenerator,
    AvailabilityScenarioParameters,
)
from repro.scenarios.bandwidth import (
    BandwidthScenarioGenerator,
    BandwidthScenarioParameters,
)
from repro.scenarios.lifetimes import (
    LifetimeScenarioGenerator,
    LifetimeScenarioParameters,
)
from repro.registry import get_scenario_spec
from repro.validation.probes import (
    Band,
    CheckResult,
    Probe,
    Scenario,
    register_probe,
    register_scenario,
)

#: Mean bands per scenario column (across-seed envelope, widened, rounded
#: outward; derived at the canonical fast-tier size/seed/date).
SCENARIO_MEAN_BANDS: "dict[str, dict[str, Band]]" = {
    "availability": {
        "fraction": Band(0.627, 0.651),
        "on_hours": Band(9.2, 10.8),
        "duty_cycle": Band(0.544, 0.576),
    },
    "lifetimes": {
        "lifetime_days": Band(164.0, 192.0),
        "survival_one_year": Band(0.134, 0.141),
    },
    "allocation": {
        "utility_seti": Band(294.0, 305.0),
        "utility_folding": Band(123.0, 128.5),
        "utility_climate": Band(327.0, 338.0),
        "utility_p2p": Band(169.0, 177.5),
    },
    "bandwidth": {
        "down_mbps": Band(7.7, 8.3),
        "up_mbps": Band(1.33, 1.63),
        "asymmetry": Band(7.7, 8.3),
    },
}

#: Correlation-sign claims per scenario: ``(label_a, label_b, positive)``.
SCENARIO_SIGN_PINS: "dict[str, tuple[tuple[str, str, bool], ...]]" = {
    "availability": (("fraction", "duty_cycle", True),),
    "lifetimes": (
        ("creation_year", "lifetime_days", False),
        ("quality", "lifetime_days", False),
    ),
    "allocation": (("utility_seti", "utility_folding", True),),
    "bandwidth": (("down_mbps", "up_mbps", True),),
}


def _scenario_checks(ctx, spec_key: str) -> "list[CheckResult]":
    """Mean bands plus correlation-sign claims over the streamed pass."""
    stats = ctx.stats
    means = stats.moments.means()
    checks = []
    for label, band in SCENARIO_MEAN_BANDS[spec_key].items():
        observed = float(means[label])
        checks.append(
            CheckResult(
                f"mean/{label}", observed, band.describe(), band.contains(observed)
            )
        )
    matrix = stats.correlation.matrix()
    for a, b, positive in SCENARIO_SIGN_PINS[spec_key]:
        observed = float(matrix.get(a, b))
        expected = "> 0" if positive else "< 0"
        ok = observed > 0.0 if positive else observed < 0.0
        checks.append(CheckResult(f"corr/{a}:{b} sign", observed, expected, ok))
    return checks


def check_availability_scenario(ctx) -> "list[CheckResult]":
    """Availability churn: Beta-fraction mean, ON-interval mean, duty cycle."""
    return _scenario_checks(ctx, "availability")


def check_lifetimes_scenario(ctx) -> "list[CheckResult]":
    """Lifetime cohorts: pooled Weibull mean, one-year survival, decay signs."""
    return _scenario_checks(ctx, "lifetimes")


def check_allocation_scenario(ctx) -> "list[CheckResult]":
    """Allocation utilities: Table IX per-application means and coupling."""
    return _scenario_checks(ctx, "allocation")


def check_bandwidth_scenario(ctx) -> "list[CheckResult]":
    """Bandwidth links: down/up/asymmetry means, coupling, asymmetry floor."""
    checks = _scenario_checks(ctx, "bandwidth")
    deciles = ctx.stats.quantiles.result()["asymmetry"]
    p_low = float(deciles[min(deciles)])
    checks.append(
        CheckResult("decile/asymmetry p10", p_low, ">= 1", p_low >= 1.0)
    )
    return checks


# -- perturbed twin generators (the known-false controls) --------------------


def _availability_flipped_generator() -> AvailabilityScenarioGenerator:
    """Swapped Beta parameters: mean availability drops 0.64 → 0.36."""
    return AvailabilityScenarioGenerator(
        AvailabilityScenarioParameters(fraction_alpha=0.36, fraction_beta=0.64)
    )


def _lifetimes_fast_decay_generator() -> LifetimeScenarioGenerator:
    """Doubled creation-date decay: mean lifetime collapses well below band."""
    return LifetimeScenarioGenerator(
        LifetimeScenarioParameters(decay_per_year=0.36)
    )


def _allocation_speed_doubled_generator() -> AllocationScenarioGenerator:
    """Doubled Dhrystone: every utility mean shifts by its 2^γ factor."""
    return AllocationScenarioGenerator(
        AllocationScenarioParameters(dhrystone_multiplier=2.0)
    )


def _bandwidth_symmetric_generator() -> BandwidthScenarioGenerator:
    """Near-symmetric links: the asymmetry mean collapses 8 → 2."""
    return BandwidthScenarioGenerator(
        BandwidthScenarioParameters(asymmetry_mean=2.0)
    )


_CONTROL_GENERATORS = {
    "availability_flipped": _availability_flipped_generator,
    "lifetimes_fast_decay": _lifetimes_fast_decay_generator,
    "allocation_speed_doubled": _allocation_speed_doubled_generator,
    "bandwidth_symmetric": _bandwidth_symmetric_generator,
}

_CONTROL_DESCRIPTIONS = {
    "availability_flipped": "Beta fraction parameters swapped (mean 0.36)",
    "lifetimes_fast_decay": "lifetime decay per creation year doubled",
    "allocation_speed_doubled": "Dhrystone speeds doubled before utilities",
    "bandwidth_symmetric": "asymmetry mean collapsed from 8 to 2",
}


def _register_scenario_probes() -> None:
    scenario_checks = {
        "availability": check_availability_scenario,
        "lifetimes": check_lifetimes_scenario,
        "allocation": check_allocation_scenario,
        "bandwidth": check_bandwidth_scenario,
    }
    controls = {
        "availability": "availability_flipped",
        "lifetimes": "lifetimes_fast_decay",
        "allocation": "allocation_speed_doubled",
        "bandwidth": "bandwidth_symmetric",
    }
    for key, check in scenario_checks.items():
        spec = get_scenario_spec(key)
        register_scenario(
            Scenario(
                key=key,
                make_generator=spec.make_generator,
                profile=spec.profile,
                seed_offset=spec.seed_offset,
                description=spec.description,
            )
        )
        control_key = controls[key]
        register_scenario(
            Scenario(
                key=control_key,
                make_generator=_CONTROL_GENERATORS[control_key],
                profile=spec.profile,
                description=_CONTROL_DESCRIPTIONS[control_key],
            )
        )
        register_probe(
            Probe(
                name=f"scenario/{key}",
                family="paper_pin",
                tier="fast",
                scenario=key,
                check=check,
                factories=spec.profile(),
                description=f"streamed {key} scenario means and correlation "
                f"signs inside their derived bands",
            )
        )
        register_probe(
            Probe(
                name=f"control/{control_key.replace('_', '-')}",
                family="control",
                tier="fast",
                scenario=control_key,
                check=check,
                factories=spec.profile(),
                expect="fail",
                control_of=f"scenario/{key}",
                description=f"{_CONTROL_DESCRIPTIONS[control_key]} must leave "
                f"the {key} bands",
            )
        )


_register_scenario_probes()
