import cmath
import json
import math

import numpy as np
import pytest

import gridse
from gridse import (
    Formulation,
    InputError,
    MeasurementKind,
    assemble_problem,
    measurements_to_dict,
    objective,
    polar_to_rect_variance,
    sample_true_state,
    state_from_dict,
    state_to_dict,
    synthesize,
    truth_to_dict,
)
from gridse.functions import evaluate_value
from gridse.synthesis import ZERO_NOISE_VARIANCE, load_scenario, scenario_from_dict

from conftest import (
    DC_NOISE,
    FIXTURES,
    LEGACY_NOISE,
    PMU_NOISE,
    dc_plan,
    legacy_plan,
    linear_rect_plan,
    make_scenario,
    oracle_value,
    simultaneous_polar_plan,
    simultaneous_rect_plan,
)

K = MeasurementKind


class TestSampleTrueState:
    def test_collapsed_ranges_give_flat_state(self, net3):
        spec = make_scenario(net3, legacy_plan(net3), v_range=(1.0, 1.0),
                             t_range=(0.0, 0.0))
        x = sample_true_state(spec)
        assert np.array_equal(x.magnitudes, np.ones(3))
        assert np.array_equal(x.angles, np.zeros(3))

    def test_same_seed_same_state(self, net3):
        spec = make_scenario(net3, legacy_plan(net3), seed=77)
        a = sample_true_state(spec)
        b = sample_true_state(spec)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self, net3):
        spec = make_scenario(net3, legacy_plan(net3), seed=77)
        a = sample_true_state(spec)
        b = sample_true_state(spec.with_seed(78))
        assert not np.array_equal(a.values, b.values)

    def test_samples_respect_ranges(self, net3):
        spec = make_scenario(net3, legacy_plan(net3), v_range=(0.97, 1.03),
                             t_range=(-0.1, 0.1))
        lo_v = hi_v = None
        for seed in range(2000):
            x = sample_true_state(spec.with_seed(seed))
            v = x.magnitudes
            t = np.delete(x.angles, spec.network.slack_bus - 1)
            assert v.min() >= 0.97 and v.max() <= 1.03
            assert t.min() >= -0.1 and t.max() <= 0.1
            lo_v = v.min() if lo_v is None else min(lo_v, v.min())
            hi_v = v.max() if hi_v is None else max(hi_v, v.max())
        # the sampler actually explores the declared box
        assert lo_v < 0.975 and hi_v > 1.025

    def test_slack_angle_pinned(self, net3):
        spec = make_scenario(net3, legacy_plan(net3), seed=5)
        x = sample_true_state(spec)
        assert x.angles[net3.slack_bus - 1] == net3.slack_angle


class TestSynthesize:
    def test_zero_noise_objective_is_exactly_zero(self, net3):
        spec = make_scenario(net3, legacy_plan(net3), noise={}, seed=8)
        x_true = sample_true_state(spec)
        mset = synthesize(spec, x_true)
        problem = assemble_problem(net3, mset, Formulation.CONVENTIONAL)
        assert objective(problem, x_true) == 0.0
        assert all(m.variance == ZERO_NOISE_VARIANCE for m in mset)

    def test_same_seed_identical_bytes(self, net3):
        spec = make_scenario(net3, legacy_plan(net3), noise=LEGACY_NOISE, seed=9)
        x = sample_true_state(spec)
        a = json.dumps(measurements_to_dict(synthesize(spec, x)))
        b = json.dumps(measurements_to_dict(synthesize(spec, x)))
        assert a == b

    def test_row_order_follows_placements(self, net3):
        spec = make_scenario(net3, legacy_plan(net3), seed=10)
        mset = synthesize(spec, sample_true_state(spec))
        assert [(m.kind, m.at) for m in mset] == list(spec.placements)

    def test_noise_statistics_single_row(self, net3):
        # law of large numbers on one fixed P_flow measurement
        spec = make_scenario(net3, [(K.P_FLOW, (1, 2))],
                             noise={K.P_FLOW: 0.01}, seed=0)
        x_true = sample_true_state(spec)
        truth = evaluate_value(net3, x_true, K.P_FLOW, (1, 2))
        draws = np.array([
            synthesize(spec.with_seed(k), x_true)[0].value
            for k in range(100_000)
        ])
        n = draws.size
        assert abs(draws.mean() - truth) <= 3 * 0.01 / math.sqrt(n)
        assert abs(draws.var() - 1e-4) <= 0.05 * 1e-4

    def test_rect_pairs_share_one_polar_draw(self, net3):
        spec = make_scenario(
            net3, [(K.V_RE, (2,)), (K.V_IM, (2,))],
            noise={K.V_MAG_PMU: 0.01, K.V_ANG_PMU: 0.02}, seed=123)
        x_true = sample_true_state(spec)
        mset = synthesize(spec, x_true)
        z = complex(mset[0].value, mset[1].value)
        # invert the conversion: the polar draw must sit near the truth
        assert abs(abs(z) - x_true.magnitudes[1]) < 5 * 0.01
        # covariance recorded via second-order propagation at the draw
        v_re, v_im, cov = polar_to_rect_variance(
            abs(z), 0.01 ** 2, math.atan2(z.imag, z.real), 0.02 ** 2)
        assert mset[0].variance == pytest.approx(v_re, rel=1e-12)
        assert mset[1].variance == pytest.approx(v_im, rel=1e-12)
        assert mset.correlations[0].rows == (0, 1)
        assert mset.correlations[0].cov == pytest.approx(cov, rel=1e-12)

    def test_current_pairs_supported(self, net3):
        spec = make_scenario(
            net3, [(K.I_RE, (1, 3)), (K.I_IM, (1, 3))],
            noise={K.I_MAG_PMU: 0.005, K.I_ANG_PMU: 0.005}, seed=3)
        x_true = sample_true_state(spec)
        mset = synthesize(spec, x_true)
        z = complex(mset[0].value, mset[1].value)
        assert abs(abs(z) - evaluate_value(net3, x_true, K.I_MAG, (1, 3))) < 5 * 0.005

    def test_pair_order_can_be_interleaved(self, net3):
        spec = make_scenario(
            net3,
            [(K.V_IM, (1,)), (K.V_RE, (2,)), (K.V_RE, (1,)), (K.V_IM, (2,))],
            noise={}, seed=4)
        x_true = sample_true_state(spec)
        mset = synthesize(spec, x_true)
        pairs = {tuple(sorted(c.rows)) for c in mset.correlations}
        assert pairs == {(0, 2), (1, 3)}


def expected_measurements(spec, x):
    """z per placement from conftest.oracle_value plus the synthesizer's
    noise draws, replayed from the same stream in placement order."""
    rng = np.random.default_rng([spec.seed, 1])
    polar_of = {K.V_RE: (K.V_MAG_PMU, K.V_ANG_PMU), K.V_IM: (K.V_MAG_PMU, K.V_ANG_PMU),
                K.I_RE: (K.I_MAG_PMU, K.I_ANG_PMU), K.I_IM: (K.I_MAG_PMU, K.I_ANG_PMU)}
    partner = {K.V_RE: K.V_IM, K.V_IM: K.V_RE, K.I_RE: K.I_IM, K.I_IM: K.I_RE}
    waiting = {}
    out = []
    for kind, at in spec.placements:
        if kind not in polar_of:
            value = oracle_value(spec.network, x, kind, at)
            sigma = spec.noise.get(kind, 0.0)
            if sigma > 0.0:
                value += sigma * rng.standard_normal()
            out.append(value)
        elif waiting.get((kind, at)):
            out.append(waiting[(kind, at)].pop(0))
        else:
            mag_kind, ang_kind = polar_of[kind]
            dm, da = rng.standard_normal(2)
            z = cmath.rect(oracle_value(spec.network, x, mag_kind, at) + spec.noise[mag_kind] * dm,
                           oracle_value(spec.network, x, ang_kind, at) + spec.noise[ang_kind] * da)
            mine, other = (z.real, z.imag) if kind in (K.V_RE, K.I_RE) else (z.imag, z.real)
            out.append(mine)
            waiting.setdefault((partner[kind], at), []).append(other)
    return out


class TestSynthesizeAgainstOracle:
    def test_values_are_oracle_plus_the_same_noise_draws(self, net14):
        placements = (simultaneous_polar_plan(net14) + simultaneous_rect_plan(net14)
                      + dc_plan(net14))
        order = np.random.default_rng(50).permutation(len(placements))
        spec = make_scenario(net14, [placements[k] for k in order],
                             noise={**LEGACY_NOISE, **PMU_NOISE, **DC_NOISE}, seed=51)
        x = sample_true_state(spec)
        mset = synthesize(spec, x)
        want = expected_measurements(spec, x)
        for m, value in zip(mset, want):
            assert abs(math.remainder(m.value - value, 2 * math.pi)) <= 1e-12, m

    @pytest.mark.parametrize("plan, builds", [
        (legacy_plan, 1), (linear_rect_plan, 0), (dc_plan, 0)])
    def test_admittance_built_only_for_injection_rows(self, monkeypatch,
                                                      plan, builds):
        calls = []
        build = gridse.network.assemble_admittance
        monkeypatch.setattr(gridse.network, "assemble_admittance",
                            lambda net: calls.append(net) or build(net))
        net = gridse.load_network(FIXTURES / "net3.json")
        spec = make_scenario(net, plan(net))
        synthesize(spec, sample_true_state(spec))
        assert len(calls) == builds


class TestScenarioValidation:
    def test_unpaired_rect_placement_rejected(self, net3):
        with pytest.raises(InputError, match="partner"):
            make_scenario(net3, [(K.V_RE, (1,))])

    def test_noise_key_for_rect_kind_rejected(self, net3):
        with pytest.raises(InputError, match="polar"):
            make_scenario(net3, [(K.V_RE, (1,)), (K.V_IM, (1,))],
                          noise={K.V_RE: 0.01})

    def test_invalid_placement_rejected(self, net3):
        with pytest.raises(InputError, match="no branch"):
            make_scenario(net3, [(K.P_FLOW, (1, 9))])

    def test_empty_voltage_range_rejected(self, net3):
        with pytest.raises(InputError, match="positive"):
            make_scenario(net3, legacy_plan(net3), v_range=(0.0, 1.0))

    def test_negative_stddev_rejected(self, net3):
        with pytest.raises(Exception, match=">= 0"):
            make_scenario(net3, legacy_plan(net3), noise={K.P_FLOW: -0.1})


class TestScenarioFile:
    def scenario_doc(self):
        return {
            "network": "net3.json",
            "seed": 11,
            "true_state": {"v_range": [0.95, 1.05], "theta_range": [-0.2, 0.2]},
            "noise": {"P_flow": 0.01},
            "placements": [
                {"kind": "P_flow", "at": [1, 2]},
                {"kind": "V_mag", "at": [1]},
            ],
        }

    def test_load_resolves_network_relative_to_spec(self, tmp_path):
        doc = self.scenario_doc()
        doc["network"] = str(FIXTURES / "net3.json")
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        spec = load_scenario(path)
        assert spec.network.n_buses == 3
        assert spec.seed == 11
        assert spec.noise[K.P_FLOW] == 0.01

    def test_unknown_scenario_key_rejected(self):
        doc = self.scenario_doc()
        doc["extra"] = 1
        with pytest.raises(InputError, match="unknown scenario keys"):
            scenario_from_dict(doc, base_dir=str(FIXTURES))

    def test_unknown_placement_kind_rejected(self):
        doc = self.scenario_doc()
        doc["placements"][0]["kind"] = "bogus"
        with pytest.raises(InputError, match="unknown kind"):
            scenario_from_dict(doc, base_dir=str(FIXTURES))


class TestTruthDocument:
    def test_round_trip_state(self, net3):
        spec = make_scenario(net3, legacy_plan(net3), seed=13)
        x = sample_true_state(spec)
        doc = truth_to_dict(spec, x)
        assert doc["rng"] == "numpy-pcg64"
        assert doc["seed"] == 13
        back = state_from_dict(doc["state"])
        assert np.array_equal(back.values, x.values)
        assert back.slack_bus == x.slack_bus

    def test_rect_state_round_trip(self, net3):
        from gridse import to_rectangular
        spec = make_scenario(net3, legacy_plan(net3), seed=14)
        x = to_rectangular(sample_true_state(spec))
        back = state_from_dict(state_to_dict(x))
        assert np.array_equal(back.values, x.values)
