"""The light generator registry: host identity, rebuilds, and what a host
export or a host peer job leaves unimported."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.core.generator import DEFAULT_PERCORE_MAX_MB, CorrelatedHostGenerator
from repro.registry import generator_params, get_scenario_spec, wire_builder

_SRC = os.path.abspath(os.path.join(os.path.dirname(repro.__file__), os.pardir))

#: Print the heavy modules a run loaded: networkx, the validation suite and
#: the scenario families.
_HEAVY = (
    "import sys\n"
    "print(sorted(m for m in sys.modules if m == 'networkx'"
    " or m.startswith(('repro.validation', 'repro.scenarios'))))\n"
)


def _loaded_after(code: str, tmp_path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", code + _HEAVY], capture_output=True, text=True,
        env=env, cwd=str(tmp_path), check=True, timeout=120,
    )
    return result.stdout.strip().splitlines()[-1]


class TestHostRunsStayLight:
    def test_fleet_export_loads_no_scenario_family(self, tmp_path):
        code = (
            "from repro.cli import main\n"
            "assert main(['fleet', 'export', '--size', '5000', '--out-dir', 'D']) == 0\n"
        )
        assert _loaded_after(code, tmp_path) == "[]"
        assert (tmp_path / "D" / "manifest.json").exists()

    def test_peer_host_job_loads_no_scenario_family(self, tmp_path):
        """A serve_worker peer rebuilds the host generator by its wire name,
        as every peer does, for a coordinator in the same process."""
        code = (
            "import queue, threading\n"
            "from repro.core.generator import CorrelatedHostGenerator\n"
            "from repro.engine import export_fleet_distributed, serve_worker\n"
            "ports = queue.Queue()\n"
            "peer = threading.Thread(target=serve_worker,"
            " kwargs={'port': 0, 'on_bound': ports.put}, daemon=True)\n"
            "peer.start()\n"
            "export_fleet_distributed(CorrelatedHostGenerator(), 2010.667, 5000, 7,"
            " 'D', workers=0, connect=[('127.0.0.1', ports.get(timeout=30))])\n"
            "peer.join(timeout=30)\n"
            "assert not peer.is_alive()\n"
        )
        assert _loaded_after(code, tmp_path) == "[]"


class TestHostIdentity:
    def test_default_cap_identity_is_the_parameter_json(self, paper_generator):
        assert generator_params(paper_generator) == paper_generator.parameters.to_json()

    @pytest.mark.parametrize("cap", [None, 1024.0, 4096.0])
    def test_other_caps_are_named_and_rebuilt(self, paper_params, cap):
        generator = CorrelatedHostGenerator(paper_params, percore_max_mb=cap)
        identity = generator_params(generator)
        assert identity != paper_params.to_json()
        assert json.loads(identity)["percore_max_mb"] == cap
        rebuilt = wire_builder(generator.wire_name)(identity)
        assert rebuilt.percore_max_mb == cap
        assert rebuilt.parameters.to_json() == paper_params.to_json()
        assert generator_params(rebuilt) == identity

    def test_default_identity_rebuilds_the_default_cap(self, paper_params):
        rebuilt = wire_builder("CorrelatedHostGenerator")(paper_params.to_json())
        assert rebuilt.percore_max_mb == DEFAULT_PERCORE_MAX_MB


class TestLookups:
    def test_hosts_is_a_registered_scenario(self):
        spec = get_scenario_spec("hosts")
        assert spec.make_generator is CorrelatedHostGenerator
        assert spec.schema is CorrelatedHostGenerator.schema
        assert sorted(spec.profile()) == ["correlation", "moments"]

    def test_unknown_wire_name_has_no_builder(self):
        assert wire_builder("NoSuchFamily") is None

    def test_scenario_families_register_on_a_missed_lookup(self):
        builder = wire_builder("AvailabilityScenarioGenerator")
        generator = builder(get_scenario_spec("availability").make_generator().parameters.to_json())
        assert generator.wire_name == "AvailabilityScenarioGenerator"
