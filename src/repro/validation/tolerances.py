"""Tolerance-band derivation and audit for the validation probes.

**Methodology.**  Every numeric band in
:data:`~repro.validation.probes.PIN_BANDS` is *resampling-derived*, not a
hand-tuned epsilon: stream the paper scenario once per seed over a panel
of independent seeds at the fast-tier size, extract each pinned metric
via :data:`~repro.validation.probes.METRICS`, and set

    band  =  across-seed mean  ±  :data:`BAND_SIGMA` × across-seed std,

rounded outward.  :data:`BAND_SIGMA` = 8 makes a false alarm on an intact
model astronomically unlikely (metric distributions over seeds are close
to normal, and the verified perturbation controls move metrics by tens to
hundreds of σ) while still catching drifts far smaller than any modelling
decision would introduce.  The full tier reuses the fast-tier bands: seed
noise shrinks with fleet size, so the fast-tier band is the binding one.

**Audit.**  ``python -m repro.validation.tolerances`` re-derives the
bands on a fresh seed panel and verifies every registered band still
covers the derived mean ± :data:`AUDIT_SIGMA` × std.  The audit
multiplier is deliberately smaller than the derivation multiplier: the
across-seed σ is itself an estimate, so a fresh panel's 8σ band can
legitimately poke outside the registered one without the table being
stale.  A non-zero exit means the registered table no longer reflects the
model and must be re-derived (``--size``/``--seeds``/``--seed-base``
control the panel).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from repro.engine.reduce import validation_profile_factories
from repro.engine.sharding import generate_sharded
from repro.timeutil import parse_date, year_fraction
from repro.validation import probes as _probes
from repro.validation.runner import CANONICAL_DATE, TIER_SIZES

#: Derivation multiplier: registered band = mean ± BAND_SIGMA × std.
BAND_SIGMA = 8.0

#: Audit multiplier: a registered band must cover mean ± AUDIT_SIGMA × std
#: of any fresh seed panel (< BAND_SIGMA to absorb σ-estimation noise).
AUDIT_SIGMA = 6.0

#: Default derivation panel: 16 seeds disjoint from the canonical seed.
DEFAULT_SEED_BASE = 1000
DEFAULT_SEED_COUNT = 16


@dataclass(frozen=True)
class DerivedBand:
    """Across-seed statistics of one pinned metric."""

    metric: str
    mean: float
    std: float

    def band(self, sigma: float = BAND_SIGMA) -> _probes.Band:
        return _probes.Band(self.mean - sigma * self.std,
                            self.mean + sigma * self.std)


def derive_bands(
    size: "int | None" = None,
    seeds: "list[int] | None" = None,
    date: str = CANONICAL_DATE,
    metrics: "list[str] | None" = None,
) -> "dict[str, DerivedBand]":
    """Across-seed mean/std of each pinned metric on fresh paper fleets.

    Streams one shards=1 pass per seed through the canonical validation
    profile — the identical path the probes measure through.
    """
    if size is None:
        size = TIER_SIZES["fast"]
    if seeds is None:
        seeds = list(range(DEFAULT_SEED_BASE, DEFAULT_SEED_BASE + DEFAULT_SEED_COUNT))
    if len(seeds) < 2:
        raise ValueError("need at least two seeds to estimate across-seed spread")
    keys = list(_probes.PIN_BANDS) if metrics is None else list(metrics)
    generator = _probes.SCENARIOS["paper"].make_generator()
    when = year_fraction(parse_date(date))
    samples: "dict[str, list[float]]" = {key: [] for key in keys}
    for seed in seeds:
        stats = generate_sharded(
            generator, when, size, seed, shards=1,
            reducers=validation_profile_factories(),
        )
        for key in keys:
            samples[key].append(_probes.METRICS[key](stats))
    return {
        key: DerivedBand(
            key,
            float(np.mean(values)),
            float(np.std(values, ddof=1)),
        )
        for key, values in samples.items()
    }


def audit_bands(
    derived: "dict[str, DerivedBand]",
    registered: "dict[str, _probes.Band] | None" = None,
    sigma: float = AUDIT_SIGMA,
) -> "list[tuple[DerivedBand, _probes.Band, bool]]":
    """Check each registered band covers the derived ± ``sigma``·std band."""
    if registered is None:
        registered = _probes.PIN_BANDS
    rows = []
    for key, band in registered.items():
        if key not in derived:
            continue
        derived_band = derived[key].band(sigma)
        covered = band.lo <= derived_band.lo and derived_band.hi <= band.hi
        rows.append((derived[key], band, covered))
    return rows


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.validation.tolerances",
        description="re-derive the probe tolerance bands on a fresh seed "
                    "panel and audit the registered PIN_BANDS table",
    )
    parser.add_argument("--size", type=int, default=None,
                        help=f"fleet size per seed (default: fast tier, "
                             f"{TIER_SIZES['fast']})")
    parser.add_argument("--seeds", type=int, default=DEFAULT_SEED_COUNT,
                        help="number of seeds in the panel")
    parser.add_argument("--seed-base", type=int, default=DEFAULT_SEED_BASE,
                        help="first seed of the panel")
    parser.add_argument("--date", default=CANONICAL_DATE,
                        help="fleet date (YYYY-MM-DD)")
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("--seeds must be at least 2")

    seeds = list(range(args.seed_base, args.seed_base + args.seeds))
    derived = derive_bands(size=args.size, seeds=seeds, date=args.date)
    rows = audit_bands(derived)

    width = max(len(row[0].metric) for row in rows)
    print(f"tolerance audit · {len(seeds)} seeds × "
          f"{args.size or TIER_SIZES['fast']} hosts · derive ±{BAND_SIGMA:g}σ, "
          f"audit ±{AUDIT_SIGMA:g}σ")
    print(f"{'metric':<{width}}  {'mean':>12}  {'std':>10}  "
          f"{'derived ±' + format(AUDIT_SIGMA, 'g') + 'σ':>24}  "
          f"{'registered':>22}  ok")
    stale = 0
    for derived_band, registered_band, covered in rows:
        if not covered:
            stale += 1
        audit = derived_band.band(AUDIT_SIGMA)
        print(
            f"{derived_band.metric:<{width}}  {derived_band.mean:>12.5g}  "
            f"{derived_band.std:>10.4g}  {audit.describe():>24}  "
            f"{registered_band.describe():>22}  {'ok' if covered else 'STALE'}"
        )
    if stale:
        print(f"{stale} registered band(s) no longer cover the derived "
              f"bands; re-derive PIN_BANDS")
        return 1
    print("all registered bands cover the derived bands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
