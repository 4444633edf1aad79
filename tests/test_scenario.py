"""The Scenario fluent builder (`repro.scenario`).

The load-bearing contract: a Scenario is *sugar only*.  `build()` must
produce an ExperimentConfig equal (and hence cache-key identical) to one
constructed directly, and every fluent call returns a new Scenario,
leaving the receiver untouched.
"""

import pytest

from repro.bench.experiment import ExperimentConfig
from repro.bench.runner import config_key, result_digest
from repro.kernel.config import KernelConfig
from repro.prism.mode import StackMode
from repro.scenario import Scenario, run_scenarios
from repro.sim.units import MS

FAST = dict(duration_ns=30 * MS, warmup_ns=10 * MS)


class TestBuildEquivalence:
    def test_fluent_build_equals_direct_config(self):
        fluent = (Scenario(mode="prism-sync", network="overlay", seed=3)
                  .foreground("pingpong", rate_pps=2_000, payload_len=200)
                  .background(rate_pps=50_000, burst=16)
                  .timing(**FAST)
                  .build())
        direct = ExperimentConfig(mode=StackMode.PRISM_SYNC,
                                  network="overlay", seed=3,
                                  fg_kind="pingpong", fg_rate_pps=2_000.0,
                                  fg_payload_len=200,
                                  bg_rate_pps=50_000.0, bg_burst=16,
                                  **FAST)
        assert fluent == direct
        assert config_key(fluent) == config_key(direct)

    def test_defaults_match_config_defaults(self):
        assert Scenario().build() == ExperimentConfig()

    def test_mode_accepts_enum_and_string(self):
        assert (Scenario(mode=StackMode.PRISM_BATCH).build()
                == Scenario(mode="prism-batch").build())
        assert (Scenario().mode("prism-sync").build().mode
                is StackMode.PRISM_SYNC)

    def test_kernel_and_costs_overrides(self):
        config = (Scenario()
                  .kernel(napi_weight=16)
                  .costs(hardirq_ns=5_000)
                  .build())
        assert config.kernel_config.napi_weight == 16
        assert config.costs.hardirq_ns == 5_000

    def test_kernel_overrides_compose(self):
        config = (Scenario()
                  .kernel(napi_weight=16)
                  .kernel(gro_enabled=False)
                  .build())
        assert config.kernel_config.napi_weight == 16
        assert config.kernel_config.gro_enabled is False

    def test_seed_shorthand(self):
        assert Scenario().seed(9).build() == Scenario().timing(seed=9).build()


class TestImmutability:
    def test_fluent_calls_fork(self):
        base = Scenario().foreground("pingpong", rate_pps=1_000)
        loaded = base.background(rate_pps=300_000)
        assert base.build().bg_rate_pps == 0
        assert loaded.build().bg_rate_pps == 300_000.0

    def test_equality_and_hash_follow_config(self):
        a = Scenario(seed=2).background(rate_pps=1_000)
        b = Scenario(seed=2).background(rate_pps=1_000)
        assert a == b and hash(a) == hash(b)
        assert a != a.seed(3)


class TestValidation:
    def test_unknown_network_rejected(self):
        with pytest.raises(ValueError, match="network"):
            Scenario(network="bridge")

    def test_unknown_foreground_kind_rejected(self):
        with pytest.raises(ValueError, match="foreground kind"):
            Scenario().foreground("bulk")

    @pytest.mark.parametrize("knob", [{"rate_pps": 2_000},
                                      {"payload_len": 64}])
    def test_app_foreground_takes_no_rate_or_payload(self, knob):
        assert Scenario().foreground("web").build().fg_kind == "web"
        with pytest.raises(ValueError, match="request pattern"):
            Scenario().foreground("memcached", **knob)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            Scenario(mode="prism-turbo")

    def test_unknown_kernel_knob_rejected(self):
        with pytest.raises(TypeError):
            Scenario().kernel(napi_wieght=16)

    def test_unknown_cost_knob_rejected(self):
        with pytest.raises(TypeError):
            Scenario().costs(wakeup=1)

    def test_removed_rps_knob_rejected(self):
        """Receive packet steering is gone: its knob is refused, not
        accepted and ignored."""
        with pytest.raises(TypeError):
            Scenario().kernel(rps_enabled=True)


class TestExecution:
    def test_run_matches_run_experiment(self):
        from repro.bench.experiment import run_experiment

        scenario = (Scenario(seed=5)
                    .foreground("pingpong", rate_pps=2_000)
                    .timing(**FAST))
        assert (result_digest(scenario.run())
                == result_digest(run_experiment(scenario.build())))

    def test_run_scenarios_accepts_mixed_inputs(self):
        scenario = Scenario(seed=5).foreground(
            "pingpong", rate_pps=2_000).timing(**FAST)
        raw = scenario.build()
        results = run_scenarios([scenario, raw])
        assert [r.config for r in results] == [raw, raw]
        assert result_digest(results[0]) == result_digest(results[1])

    def test_label_delegates_to_config(self):
        scenario = Scenario(mode="prism-sync")
        assert scenario.label() == scenario.build().label()
