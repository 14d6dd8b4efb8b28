"""The correlated host generator — the Fig 11 creation flow.

Given :class:`~repro.core.parameters.ModelParameters` and a target date, a
host is created by:

1. sampling the core count from the ratio-chain distribution (uniform draw),
2. drawing a 3-vector of correlated standard normals (Cholesky of the
   (mem/core, Whetstone, Dhrystone) correlation matrix),
3. pushing the memory component through Φ to a uniform that selects the
   per-core-memory class; total memory = per-core memory × cores,
4. renormalising the two speed components to the predicted benchmark
   mean/variance at that date,
5. sampling available disk from the independent log-normal.

The generated population reproduces the empirical correlations of Table VIII
— cores/memory ≈ 0.7, Whetstone/Dhrystone ≈ 0.5 — without ever explicitly
coupling the core-count draw to anything else.

Steps 1 and 3 select classes from the cumulative probability tables of the
core and per-core-memory ratio chains
(:meth:`~repro.core.ratios.RatioChain.cumulative`).  Those tables depend on
the date only, so the generator resolves both once per date and reuses them
for every block drawn at that date; the steps, their draw order and the
hosts they produce are the same as resolving them per block.
"""

from __future__ import annotations

import datetime as _dt

import numpy as np

from repro.core.correlation import CorrelatedNormalSampler
from repro.core.cores import CoreCountModel
from repro.core.disk import DiskModel
from repro.core.memory import PerCoreMemoryModel
from repro.core.parameters import ModelParameters
from repro.core.speed import SpeedModel
from repro.hosts.host import Host
from repro.hosts.population import HOST_SCHEMA, HostPopulation


#: Default per-core-memory truncation (§V-E's simplified six-value set).
DEFAULT_PERCORE_MAX_MB = 2048.0


class CorrelatedHostGenerator:
    """Generates realistic Internet end hosts for a chosen date.

    ``percore_max_mb`` truncates the per-core-memory chain; the paper's
    generator uses the six canonical values up to 2048 MB (the Table V
    2G:4G law describes the data but is not sampled from — this choice
    reproduces the paper's Fig 12 σ_gen = 2741 MB and the 6.8 GB 2014 mean,
    see DESIGN.md).  Pass ``None`` to keep the full chain.  Registered as
    the ``hosts`` scenario (:mod:`repro.registry`).
    """

    wire_name = "CorrelatedHostGenerator"
    schema = HOST_SCHEMA

    def __init__(
        self,
        parameters: "ModelParameters | None" = None,
        percore_max_mb: "float | None" = DEFAULT_PERCORE_MAX_MB,
    ):
        self._params = parameters if parameters is not None else ModelParameters.paper_reference()
        self._percore_max_mb = percore_max_mb
        percore_chain = self._params.percore_memory_chain
        if percore_max_mb is not None:
            percore_chain = percore_chain.truncated(percore_max_mb)
        self._cores = CoreCountModel(self._params.core_chain)
        self._memory = PerCoreMemoryModel(percore_chain)
        self._speed = SpeedModel(
            self._params.dhrystone_mean,
            self._params.dhrystone_variance,
            self._params.whetstone_mean,
            self._params.whetstone_variance,
        )
        self._disk = DiskModel(self._params.disk_mean, self._params.disk_variance)
        self._correlated = CorrelatedNormalSampler(self._params.correlation)
        # (when, (core table, per-core-memory table)) of the last date, kept
        # as one tuple so a concurrent caller never pairs one date's key
        # with another date's tables.
        self._date_tables: "tuple | None" = None

    @property
    def name(self) -> str:
        """Display name used in experiment outputs."""
        return "correlated"

    @property
    def parameters(self) -> ModelParameters:
        """The parameter set driving this generator."""
        return self._params

    @property
    def percore_max_mb(self) -> "float | None":
        """The per-core-memory truncation (``None``: the full chain)."""
        return self._percore_max_mb

    @property
    def core_model(self) -> CoreCountModel:
        """The core-count component model."""
        return self._cores

    @property
    def memory_model(self) -> PerCoreMemoryModel:
        """The per-core-memory component model."""
        return self._memory

    @property
    def speed_model(self) -> SpeedModel:
        """The benchmark-speed component model."""
        return self._speed

    @property
    def disk_model(self) -> DiskModel:
        """The available-disk component model."""
        return self._disk

    def generate(
        self, when: "_dt.date | float", size: int, rng: np.random.Generator
    ) -> HostPopulation:
        """Generate ``size`` hosts as of the given date.

        ``when`` may be a :class:`datetime.date` or a calendar-year float
        (e.g. ``2010.667`` for September 2010).
        """
        if size < 0:
            raise ValueError("size must be non-negative")
        core_chain, memory_chain = self._cores.chain, self._memory.chain
        core_table, memory_table = self._tables_at(when)

        # Step 1: core count, independent uniform draw (Fig 11 left branch).
        cores = core_chain.select_classes(core_table, rng.random(size))

        # Step 2: correlated normals for (mem/core, whetstone, dhrystone).
        correlated = self._correlated.sample(size, rng)
        z_mem, z_whet, z_dhry = correlated[:, 0], correlated[:, 1], correlated[:, 2]

        # Step 3: per-core memory from the Φ-uniform of the memory component.
        u_mem = CorrelatedNormalSampler.normals_to_uniforms(z_mem)
        memory_mb = memory_chain.select_classes(memory_table, u_mem) * cores

        # Step 4: speeds renormalised to the predicted moments.
        whetstone, dhrystone = self._speed.from_normals(when, z_whet, z_dhry)

        # Step 5: independent log-normal available disk.
        disk_gb = self._disk.sample(when, size, rng)

        return HostPopulation(
            cores=cores,
            memory_mb=memory_mb,
            dhrystone=dhrystone,
            whetstone=whetstone,
            disk_gb=disk_gb,
        )

    def _tables_at(self, when: "_dt.date | float") -> tuple:
        """The core and per-core-memory cumulative tables at ``when``."""
        memo = self._date_tables
        if memo is None or memo[0] != when:
            memo = (
                when,
                (self._cores.chain.cumulative(when), self._memory.chain.cumulative(when)),
            )
            self._date_tables = memo
        return memo[1]

    def generate_host(
        self, when: "_dt.date | float", rng: np.random.Generator
    ) -> Host:
        """Generate a single host record as of the given date."""
        population = self.generate(when, 1, rng)
        return population.to_hosts()[0]
