"""Unit tests for ScenarioSpec: validation, building, hashing, round-trips."""

import json
import subprocess
import sys

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import ScenarioSpec, canonical_json, problem_fingerprint


def make_spec(**overrides):
    params = dict(
        name="t-layered",
        family="layered",
        family_params={"num_layers": 3, "layer_width": 2, "edge_probability": 0.5},
        seed=5,
        tightness=0.4,
    )
    params.update(overrides)
    return ScenarioSpec(**params)


class TestValidation:
    def test_unknown_family(self):
        with pytest.raises(ConfigurationError, match="unknown DAG family"):
            make_spec(family="nope", family_params={})

    def test_unknown_platform(self):
        with pytest.raises(ConfigurationError, match="unknown platform"):
            make_spec(platform="nope")

    def test_unknown_chemistry(self):
        with pytest.raises(ConfigurationError, match="unknown battery chemistry"):
            make_spec(chemistry="nope")

    def test_tightness_bounds(self):
        with pytest.raises(ConfigurationError, match="tightness"):
            make_spec(tightness=1.5)

    def test_empty_name(self):
        with pytest.raises(ConfigurationError, match="name"):
            make_spec(name="")

    def test_params_accept_mapping_and_pairs(self):
        from_mapping = make_spec()
        from_pairs = make_spec(
            family_params=(
                ("edge_probability", 0.5),
                ("layer_width", 2),
                ("num_layers", 3),
            )
        )
        assert from_mapping == from_pairs
        assert isinstance(from_mapping.family_params, tuple)


class TestBuilding:
    def test_build_graph_is_deterministic(self):
        a, b = make_spec().build_graph(), make_spec().build_graph()
        assert a.to_dict() == b.to_dict()

    def test_build_problem_respects_tightness(self):
        problem = make_spec(tightness=0.0).build_problem()
        assert problem.deadline == pytest.approx(problem.graph.min_makespan())
        assert problem.name == "t-layered"

    def test_seed_changes_graph(self):
        a = make_spec(seed=5).build_graph()
        b = make_spec(seed=6).build_graph()
        assert a.to_dict() != b.to_dict()

    def test_chemistry_reaches_problem_battery(self):
        problem = make_spec(
            chemistry="peukert", chemistry_params={"exponent": 1.3}
        ).build_problem()
        assert problem.battery.chemistry == "peukert"
        model = problem.model()
        assert type(model).__name__ == "PeukertModel"
        assert model.exponent == pytest.approx(1.3)

    @pytest.mark.parametrize("platform", ["voltage-scaling", "dvs", "fpga"])
    def test_platforms_produce_uniform_monotone_tasks(self, platform):
        graph = make_spec(platform=platform).build_graph()
        assert graph.uniform_design_point_count() >= 2
        assert all(task.is_power_monotone() for task in graph)


class TestPlatformParams:
    def test_voltage_scaling_ranges_are_honoured(self):
        graph = make_spec(
            family="chain", family_params={"num_tasks": 3},
            platform_params={"duration_range": [5.0, 6.0],
                             "current_range": [100.0, 110.0]},
        ).build_graph()
        fastest = graph.task("T1").ordered_design_points()[0]
        assert 5.0 <= fastest.execution_time <= 6.0
        assert 100.0 <= fastest.current <= 110.0

    @pytest.mark.parametrize(
        "platform, params",
        [
            ("voltage-scaling", {"duratoin_range": [1.0, 2.0]}),
            ("dvs", {"voltage": [1.8]}),
            ("fpga", {"parallelism": [2.0]}),
        ],
    )
    def test_unknown_platform_params_rejected(self, platform, params):
        with pytest.raises(ConfigurationError, match="platform parameter"):
            make_spec(platform=platform, platform_params=params).build_graph()

    def test_factors_and_num_design_points_conflict(self):
        with pytest.raises(ConfigurationError, match="not both"):
            make_spec(
                platform_params={"factors": [1.0, 0.5], "num_design_points": 3}
            ).build_graph()


class TestPaperFamilies:
    """g2/g3 carry published design points: platform/seed must be rejected,
    not silently dropped (the spec would describe a different experiment
    than the one that runs)."""

    def test_platform_rejected(self):
        with pytest.raises(ConfigurationError, match="published"):
            ScenarioSpec(name="x", family="g3", platform="dvs")

    def test_platform_params_rejected(self):
        with pytest.raises(ConfigurationError, match="published"):
            ScenarioSpec(
                name="x", family="g2",
                platform_params={"num_design_points": 3},
            )

    def test_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="seed has no effect"):
            ScenarioSpec(name="x", family="g3", seed=7)

    def test_defaults_accepted_and_replicable(self):
        spec = ScenarioSpec(name="x", family="g3", family_params={"copies": 2})
        assert spec.build_graph().num_tasks == 30


class TestIdentity:
    def test_round_trip(self):
        spec = make_spec(
            chemistry="kibam",
            chemistry_params={"c": 0.5, "k": 0.1},
            platform="dvs",
            platform_params={"voltages": [1.8, 1.2]},
        )
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.content_hash() == spec.content_hash()

    def test_round_trip_survives_json(self):
        spec = make_spec(platform="fpga", platform_params={"base_time_range": [2.0, 9.0]})
        rebuilt = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec

    def test_name_is_not_part_of_content_hash(self):
        assert make_spec().content_hash() == make_spec(name="other").content_hash()

    def test_name_is_not_part_of_problem_fingerprint(self):
        # The fingerprint must match content_hash's contract: identically
        # parameterized specs fingerprint identically whatever they are called.
        assert problem_fingerprint(
            make_spec().build_problem()
        ) == problem_fingerprint(make_spec(name="other").build_problem())

    def test_semantic_fields_change_content_hash(self):
        base = make_spec().content_hash()
        assert make_spec(seed=6).content_hash() != base
        assert make_spec(tightness=0.6).content_hash() != base
        assert make_spec(chemistry="ideal").content_hash() != base
        assert make_spec(platform="fpga").content_hash() != base

    def test_with_tightness(self):
        tier = make_spec().with_tightness(0.9)
        assert tier.tightness == 0.9
        assert tier.name == "t-layered@0.90"

    def test_specs_are_hashable(self):
        assert len({make_spec(), make_spec(), make_spec(seed=6)}) == 2


class TestCanonicalJson:
    def test_keys_sorted_and_infinities_tagged(self):
        data = {"b": [1.0, float("inf")], "a": {"z": 1, "y": (2, -float("inf"))}}
        assert canonical_json(data) == '{"a":{"y":[2,"-inf"],"z":1},"b":[1.0,"inf"]}'

    def test_mixed_type_keys_sort_as_strings(self):
        assert canonical_json({"T1": 0, 3: 2}) == '{"3":2,"T1":0}'
        assert canonical_json({"T1": 0, 3: 2}) == canonical_json({"3": 2, "T1": 0})

    def test_keys_colliding_as_strings_rejected(self):
        with pytest.raises(ConfigurationError, match="collide"):
            canonical_json({3: 0, "3": 1})


class TestCrossProcessDeterminism:
    """Same spec -> identical problem content hash in a different process."""

    def test_problem_fingerprint_matches_subprocess(self):
        spec = make_spec(platform="dvs", chemistry="kibam")
        local = problem_fingerprint(spec.build_problem())
        script = (
            "import json, sys\n"
            "from repro.scenarios import ScenarioSpec, problem_fingerprint\n"
            "spec = ScenarioSpec.from_dict(json.loads(sys.argv[1]))\n"
            "print(problem_fingerprint(spec.build_problem()))\n"
        )
        output = subprocess.run(
            [sys.executable, "-c", script, json.dumps(spec.to_dict())],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        assert output == local

    def test_content_hash_matches_subprocess(self):
        spec = make_spec()
        script = (
            "import json, sys\n"
            "from repro.scenarios import ScenarioSpec\n"
            "spec = ScenarioSpec.from_dict(json.loads(sys.argv[1]))\n"
            "print(spec.content_hash())\n"
        )
        output = subprocess.run(
            [sys.executable, "-c", script, json.dumps(spec.to_dict())],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        assert output == spec.content_hash()


class TestStochasticTier:
    def test_defaults_are_deterministic(self):
        spec = make_spec()
        assert not spec.has_perturbation
        assert spec.perturbation().is_null

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="jitter"):
            make_spec(jitter=-0.1)
        with pytest.raises(ConfigurationError, match="jitter model"):
            make_spec(jitter=0.1, jitter_model="cauchy")
        with pytest.raises(ConfigurationError, match="failure_rate"):
            make_spec(failure_rate=1.0)
        # Mirrors PerturbationModel's rule: the spec must fail at
        # construction, not when the first simulation job runs.
        with pytest.raises(ConfigurationError, match="uniform jitter"):
            make_spec(jitter=1.5, jitter_model="uniform")
        make_spec(jitter=1.5)  # lognormal jitter has no upper bound

    def test_perturbation_builder(self):
        spec = make_spec(jitter=0.2, jitter_model="uniform", failure_rate=0.05)
        assert spec.has_perturbation
        model = spec.perturbation()
        assert model.jitter == 0.2
        assert model.jitter_model == "uniform"
        assert model.failure_rate == 0.05

    def test_round_trip(self):
        spec = make_spec(jitter=0.2, failure_rate=0.05)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_content_hash_stable_for_deterministic_specs(self):
        # Adding the (all-default) stochastic fields must not move the
        # hashes of pre-existing deterministic scenarios: this value was
        # pinned before the stochastic tier existed.
        from repro.scenarios import default_registry

        assert default_registry().get("g3").content_hash() == "343b3ec8d083c10c"

    def test_perturbation_enters_content_hash(self):
        base = make_spec()
        assert make_spec(jitter=0.1).content_hash() != base.content_hash()
        assert make_spec(failure_rate=0.1).content_hash() != base.content_hash()
        assert (
            make_spec(jitter=0.1).content_hash()
            != make_spec(jitter=0.1, jitter_model="uniform").content_hash()
        )

    def test_perturbation_does_not_change_offline_problem(self):
        base = make_spec()
        jittered = make_spec(jitter=0.25, failure_rate=0.1)
        assert problem_fingerprint(base.build_problem()) == problem_fingerprint(
            jittered.build_problem()
        )


class TestInformationModeTier:
    def test_defaults_are_exact(self):
        spec = make_spec()
        assert spec.imode == "exact"
        assert not spec.has_information_mode
        assert spec.information_mode().is_exact

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="information mode"):
            make_spec(imode="psychic")
        with pytest.raises(ConfigurationError, match="rel_error"):
            make_spec(imode="noisy")
        with pytest.raises(ConfigurationError, match="rel_error"):
            make_spec(imode="noisy", imode_rel_error=-0.1)
        # Noise parameters are meaningless outside noisy mode and must
        # not silently vanish from the identity.
        with pytest.raises(ConfigurationError):
            make_spec(imode="blind", imode_rel_error=0.2)
        with pytest.raises(ConfigurationError):
            make_spec(imode="mean", imode_seed=3)
        with pytest.raises(ConfigurationError):
            make_spec(imode_seed=3)

    def test_information_mode_builder(self):
        from repro.sim import InformationMode

        blind = make_spec(imode="blind")
        assert blind.has_information_mode
        assert blind.information_mode() == InformationMode.blind()
        noisy = make_spec(imode="noisy", imode_rel_error=0.3, imode_seed=101)
        assert noisy.information_mode() == InformationMode.noisy(0.3, seed=101)

    def test_round_trip(self):
        for spec in (
            make_spec(imode="blind"),
            make_spec(imode="mean", jitter=0.2),
            make_spec(imode="noisy", imode_rel_error=0.3, imode_seed=101),
        ):
            assert ScenarioSpec.from_dict(spec.to_dict()) == spec
            assert (
                ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
                == spec
            )

    def test_exact_spec_serializes_without_imode_keys(self):
        # The wire format of every pre-imode spec is unchanged: the keys
        # appear only when an information mode is actually set.
        payload = make_spec().to_dict()
        assert "imode" not in payload
        assert "imode_rel_error" not in payload
        assert "imode_seed" not in payload


class TestOptimizeTier:
    def test_defaults_are_unoptimized(self):
        spec = make_spec()
        assert spec.optimize == ""
        assert not spec.has_optimize
        assert spec.optimization() is None

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="unknown optimize pass"):
            make_spec(optimize="inline")
        with pytest.raises(ConfigurationError, match="duplicate"):
            make_spec(optimize="fuse+fuse")

    def test_optimization_builder(self):
        spec = make_spec(
            family="chain", family_params={"num_tasks": 5}, optimize="cull+fuse"
        )
        assert spec.has_optimize
        optimized = spec.optimization()
        assert optimized.passes == ("cull", "fuse")
        assert optimized.graph.num_tasks == 1  # the whole chain fuses

    def test_build_problem_uses_the_rewritten_graph(self):
        plain = make_spec(family="chain", family_params={"num_tasks": 5})
        fused = make_spec(
            family="chain", family_params={"num_tasks": 5}, optimize="fuse"
        )
        assert plain.build_problem().graph.num_tasks == 5
        assert fused.build_problem().graph.num_tasks == 1
        # The fused problem's deadline tier is computed on the same
        # makespan range, so feasibility is unchanged.
        assert fused.build_problem().deadline == pytest.approx(
            plain.build_problem().deadline
        )

    @pytest.mark.parametrize("optimize", ["", "cull+fuse"])
    def test_build_problem_builds_the_graph_once(self, monkeypatch, optimize):
        spec = make_spec(
            family="chain", family_params={"num_tasks": 25}, optimize=optimize
        )
        expected = spec.build_problem()
        build_graph = ScenarioSpec.build_graph
        calls = []

        def counting_build_graph(self):
            calls.append(self.name)
            return build_graph(self)

        monkeypatch.setattr(ScenarioSpec, "build_graph", counting_build_graph)
        problem = spec.build_problem()
        assert calls == [spec.name]
        assert problem_fingerprint(problem) == problem_fingerprint(expected)

    def test_round_trip(self):
        for spec in (make_spec(optimize="fuse"), make_spec(optimize="cull+fuse")):
            assert ScenarioSpec.from_dict(spec.to_dict()) == spec
            assert (
                ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
                == spec
            )

    def test_unoptimized_spec_serializes_without_optimize_key(self):
        assert "optimize" not in make_spec().to_dict()
        assert make_spec(optimize="fuse").to_dict()["optimize"] == "fuse"

    def test_optimize_enters_content_hash_only_when_set(self):
        base = make_spec()
        assert make_spec(optimize="fuse").content_hash() != base.content_hash()
        assert (
            make_spec(optimize="fuse").content_hash()
            != make_spec(optimize="cull+fuse").content_hash()
        )

    def test_pre_existing_hashes_unchanged(self):
        # The optimize field must not move any pre-existing identity:
        # this value was pinned before the optimize tier existed.
        from repro.scenarios import default_registry

        assert default_registry().get("g3").content_hash() == "343b3ec8d083c10c"

    def test_summary_mentions_passes(self):
        assert "optimize" in make_spec(optimize="fuse").summary()
        assert "optimize" not in make_spec().summary()
        assert "imode" in make_spec(imode="blind").to_dict()

    def test_exact_content_hash_unchanged(self):
        # imode="exact" is the default spelled out: same identity, and
        # the pre-imode pinned hashes stay valid.
        assert make_spec(imode="exact").content_hash() == make_spec().content_hash()
        from repro.scenarios import default_registry

        assert default_registry().get("g3").content_hash() == "343b3ec8d083c10c"

    def test_belief_modes_enter_content_hash(self):
        base = make_spec().content_hash()
        blind = make_spec(imode="blind").content_hash()
        mean = make_spec(imode="mean").content_hash()
        noisy = make_spec(
            imode="noisy", imode_rel_error=0.3, imode_seed=101
        ).content_hash()
        assert len({base, blind, mean, noisy}) == 4
        assert (
            make_spec(imode="noisy", imode_rel_error=0.4, imode_seed=101).content_hash()
            != noisy
        )
        assert (
            make_spec(imode="noisy", imode_rel_error=0.3, imode_seed=102).content_hash()
            != noisy
        )

    def test_imode_does_not_change_offline_problem(self):
        # Beliefs are a runtime overlay; the offline problem (graph,
        # deadline, battery) is identical whatever the policy believes.
        assert problem_fingerprint(
            make_spec(imode="blind").build_problem()
        ) == problem_fingerprint(make_spec().build_problem())

    def test_summary_labels_belief_modes_only(self):
        assert "imode" not in make_spec().summary()
        assert "imode blind" in make_spec(imode="blind").summary()
        assert "imode noisy(0.3,101)" in make_spec(
            imode="noisy", imode_rel_error=0.3, imode_seed=101
        ).summary()
