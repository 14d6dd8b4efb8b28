"""One block type: a host population is the host-schema ``ColumnBlock``."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.hosts.population import HOST_SCHEMA, RESOURCE_LABELS, HostPopulation
from repro.table import ColumnBlock, TableSchema

_SRC = os.path.abspath(os.path.join(os.path.dirname(repro.__file__), os.pardir))


class _Hosts(HostPopulation):
    """A caller's subclass: blocks derived from it must keep its class."""


@pytest.fixture
def hosts() -> _Hosts:
    return _Hosts(
        cores=np.array([1.0, 2.0, 4.0, 8.0]),
        memory_mb=np.array([512.0, 2048.0, 4096.0, 16384.0]),
        dhrystone=np.array([2000.0, 4000.0, 6000.0, 8000.0]),
        whetstone=np.array([1000.0, 2000.0, 3000.0, 4000.0]),
        disk_gb=np.array([10.0, 50.0, 200.0, 900.0]),
    )


class TestHostPopulationIsAColumnBlock:
    def test_schema_is_the_host_schema(self, hosts):
        assert isinstance(hosts, ColumnBlock)
        assert hosts.schema is HOST_SCHEMA
        assert tuple(hosts) == hosts.keys() == RESOURCE_LABELS
        assert hosts.to_matrix().shape == (4, HOST_SCHEMA.width)

    def test_derived_blocks_keep_the_callers_class(self, hosts):
        derived = [
            hosts.slice(1, 3),
            _Hosts.concatenate([hosts, hosts]),
            hosts.subset(np.array([True, False, True, True])),
            hosts.sample(3, np.random.default_rng(0)),
        ]
        assert [len(block) for block in derived] == [2, 8, 3, 3]
        for block in derived:
            assert type(block) is _Hosts
            assert block.schema is HOST_SCHEMA
            assert "mem_per_core" in block
        assert type(HostPopulation.concatenate([hosts])) is HostPopulation

    def test_slices_concatenate_back_to_the_same_rows(self, hosts):
        joined = HostPopulation.concatenate([hosts.slice(0, 1), hosts.slice(1, 4)])
        assert joined.to_matrix().tobytes() == hosts.to_matrix().tobytes()
        assert np.shares_memory(hosts.slice(1, 3).cores, hosts.cores)

    def test_mem_per_core_through_every_accessor(self, hosts):
        expected = hosts.memory_mb / hosts.cores
        np.testing.assert_array_equal(hosts.column("mem_per_core"), expected)
        np.testing.assert_array_equal(hosts["mem_per_core"], expected)
        assert "mem_per_core" in hosts and "gpu" not in hosts
        with pytest.raises(KeyError, match="unknown resource"):
            hosts["gpu"]

    def test_attributes_are_the_block_columns(self, hosts):
        for label in RESOURCE_LABELS:
            assert getattr(hosts, label) is hosts[label]
        with pytest.raises(AttributeError):
            hosts.cores = np.zeros(4)

    def test_blocks_of_other_schemas_do_not_concatenate(self, hosts):
        other = ColumnBlock({"x": np.ones(2)}, TableSchema(("x",), "%.1f", "x\n"))
        with pytest.raises(ValueError, match="different schemas"):
            ColumnBlock.concatenate([hosts, other])


class TestScenarioBlock:
    SCHEMA = TableSchema(("a", "b"), "%.1f,%.2f", "a,b\n")

    def test_slice_and_concatenate_stay_plain_blocks(self):
        block = ColumnBlock({"a": [1, 2, 3], "b": [4, 5, 6]}, self.SCHEMA)
        pieces = [block.slice(0, 1), block.slice(1, 3)]
        joined = ColumnBlock.concatenate(pieces)
        assert all(type(piece) is ColumnBlock for piece in [*pieces, joined])
        np.testing.assert_array_equal(joined["b"], [4.0, 5.0, 6.0])

    @pytest.mark.parametrize(
        "columns, match",
        [
            ({"a": np.ones(2)}, "do not match schema labels"),
            ({"a": np.ones((2, 1)), "b": np.ones(2)}, "one-dimensional"),
            ({"a": np.ones(2), "b": np.ones(3)}, "rows"),
        ],
    )
    def test_validation(self, columns, match):
        with pytest.raises(ValueError, match=match):
            ColumnBlock(columns, self.SCHEMA)


@pytest.mark.parametrize("module", ["repro", "repro.hosts.population"])
def test_importing_the_block_types_loads_no_engine_module(module):
    """The block types import only numpy-level modules, never the engine."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        f"import sys, {module}\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.engine')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        check=True,
    )
    assert result.stdout.strip() == "[]"
