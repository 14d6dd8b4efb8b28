"""FaultPlan/FaultSpec validation, shorthand parsing and JSON round-trips."""

from __future__ import annotations

import errno

import pytest

from repro.faults import (
    FAULT_KINDS,
    SITE_CATALOG,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    get_site,
    iter_sites,
    parse_fault_spec,
    plan_from_cli_arg,
)


class TestCatalog:
    def test_issue_floor_sites_and_kinds(self):
        # The PR's acceptance floor: >= 10 registered sites spanning
        # >= 8 distinct fault kinds.
        assert len(SITE_CATALOG) >= 10
        kinds = {kind for site in iter_sites() for kind in site.kinds}
        assert len(kinds) >= 8
        assert kinds <= set(FAULT_KINDS)

    def test_every_site_kind_is_registered(self):
        for site in iter_sites():
            assert site.kinds, site.name
            for kind in site.kinds:
                assert kind in FAULT_KINDS, (site.name, kind)

    def test_get_site_names_catalogue_on_miss(self):
        with pytest.raises(ValueError, match="registered sites"):
            get_site("writer.no.such.site")


class TestFaultSpec:
    def test_defaults(self):
        spec = FaultSpec(site="writer.block.write", kind="io-error")
        assert spec.after == 1
        assert spec.count == 1
        assert spec.probability is None
        assert not spec.once
        assert spec.errno_value() == errno.ENOSPC

    def test_rejects_unknown_site(self):
        with pytest.raises(FaultPlanError, match="unknown fault site"):
            FaultSpec(site="writer.bogus", kind="raise")

    def test_rejects_unsupported_kind_for_site(self):
        # The heartbeat site cannot tear a file.
        with pytest.raises(FaultPlanError, match="does not support"):
            FaultSpec(site="distributed.heartbeat", kind="torn-write")

    @pytest.mark.parametrize("after", [0, -1, 1.5, "3"])
    def test_rejects_bad_after(self, after):
        with pytest.raises(FaultPlanError, match="after"):
            FaultSpec(site="writer.block.done", kind="raise", after=after)

    @pytest.mark.parametrize("probability", [0.0, 1.5, -0.1])
    def test_rejects_bad_probability(self, probability):
        with pytest.raises(FaultPlanError, match="probability"):
            FaultSpec(
                site="writer.block.done", kind="raise", probability=probability
            )

    def test_rejects_unknown_errno_name(self):
        with pytest.raises(FaultPlanError, match="errno"):
            FaultSpec(site="writer.block.write", kind="io-error", errno="EBOGUS")

    def test_errno_only_checked_for_io_kinds(self):
        # A sigkill spec never raises OSError, so a junk errno is inert.
        FaultSpec(site="writer.block.done", kind="sigkill", errno="EBOGUS")

    @pytest.mark.parametrize("fraction", [0.0, 1.0, 2.5])
    def test_rejects_bad_fraction(self, fraction):
        with pytest.raises(FaultPlanError, match="fraction"):
            FaultSpec(
                site="writer.block.write", kind="torn-write", fraction=fraction
            )


class TestFaultPlan:
    def test_requires_at_least_one_fault(self):
        with pytest.raises(FaultPlanError, match="at least one"):
            FaultPlan(seed=1, faults=())

    def test_rejects_negative_seed(self):
        spec = FaultSpec(site="writer.block.done", kind="raise")
        with pytest.raises(FaultPlanError, match="seed"):
            FaultPlan(seed=-1, faults=(spec,))

    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=20110611,
            name="round-trip",
            faults=(
                FaultSpec(site="writer.block.write", kind="torn-write", after=3),
                FaultSpec(
                    site="distributed.connect.dial",
                    kind="dial-refuse",
                    count=2,
                    probability=0.5,
                ),
            ),
        )
        restored = FaultPlan.from_json(plan.to_json())
        assert restored == plan

    def test_save_load_round_trip(self, tmp_path):
        plan = FaultPlan(
            seed=5,
            faults=(FaultSpec(site="writer.manifest.write", kind="io-error"),),
        )
        path = tmp_path / "plan.json"
        plan.save(str(path))
        assert FaultPlan.load(str(path)) == plan

    def test_load_missing_file_is_plan_error(self, tmp_path):
        with pytest.raises(FaultPlanError, match="cannot read"):
            FaultPlan.load(str(tmp_path / "absent.json"))

    @pytest.mark.parametrize(
        "text, match",
        [
            ("not json", "not valid JSON"),
            ("[]", "JSON object"),
            ('{"kind": "Other", "faults": []}', "kind must be"),
            ('{"version": 99, "faults": []}', "version"),
            ('{"faults": [], "surprise": 1}', "unknown top-level"),
            ('{"faults": [{"site": "writer.block.done"}]}', "missing 'kind'"),
            ('{"faults": [{"kind": "raise"}]}', "missing 'site'"),
            (
                '{"faults": [{"site": "writer.block.done", "kind": "raise",'
                ' "when": 3}]}',
                "unknown keys",
            ),
        ],
    )
    def test_from_json_is_strict(self, text, match):
        with pytest.raises(FaultPlanError, match=match):
            FaultPlan.from_json(text)


class TestShorthand:
    def test_site_alone_arms_default_kind(self):
        spec = parse_fault_spec("writer.block.done")
        assert spec.kind == get_site("writer.block.done").kinds[0]
        assert spec.after == 1

    def test_full_option_set(self):
        spec = parse_fault_spec(
            "writer.block.write:kind=io-error,errno=EIO,after=2,count=3,"
            "probability=0.25,once=true"
        )
        assert spec.kind == "io-error"
        assert spec.errno_value() == errno.EIO
        assert (spec.after, spec.count, spec.probability) == (2, 3, 0.25)
        assert spec.once

    @pytest.mark.parametrize(
        "text, match",
        [
            ("writer.bogus:after=1", "unknown fault site"),
            ("writer.block.done:after", "key=value"),
            ("writer.block.done:when=3", "unknown fault-spec option"),
            ("writer.block.done:after=x", "must be an integer"),
            ("writer.block.done:probability=x", "must be a number"),
            ("writer.block.done:once=maybe", "0/1/true/false"),
            ("writer.block.done:site=other", "unknown fault-spec option"),
        ],
    )
    def test_malformed_shorthand(self, text, match):
        with pytest.raises(FaultPlanError, match=match):
            parse_fault_spec(text)

    def test_plan_from_cli_arg_splits_specs(self):
        plan = plan_from_cli_arg(
            "writer.block.done:after=3;distributed.heartbeat", seed=9
        )
        assert plan.seed == 9
        assert [spec.site for spec in plan.faults] == [
            "writer.block.done",
            "distributed.heartbeat",
        ]

    def test_plan_from_cli_arg_loads_files(self, tmp_path):
        plan = FaultPlan(
            seed=2, faults=(FaultSpec(site="pool.task", kind="raise"),)
        )
        path = tmp_path / "p.json"
        plan.save(str(path))
        assert plan_from_cli_arg(str(path)) == plan

    def test_missing_json_path_is_plan_error(self):
        # A .json suffix always means "plan file", even if absent —
        # never silently parsed as shorthand.
        with pytest.raises(FaultPlanError, match="cannot read"):
            plan_from_cli_arg("no/such/plan.json")
