"""Monte Carlo engine tests: sampling laws, determinism, SINR assembly."""

import math
from dataclasses import replace

import numpy as np
import pytest

from mmwcluster.analytical import gamma_cdf_bound_coefficient
from mmwcluster.config import default_config
from mmwcluster.errors import UsageError
from mmwcluster.model import AssociationModel, serving_distance_pdf
from mmwcluster.montecarlo import (
    IidExponential,
    LosBall,
    SinrOptions,
    estimate_coverage,
    estimate_coverage_many,
    laplace_oracle,
    sample_realization,
    simulate_sinr,
    _fading,
    _gain_draw,
    _gain_law,
    _los_flags,
)
from mmwcluster._quadrature import CumulativeQuadrature


@pytest.fixture(scope="module")
def cfg():
    return default_config()


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=seed))


class TestSampleRealization:
    def test_single_active_device_has_no_intra_interferers(self, cfg):
        lone = cfg.with_mean_active(1.0)
        real = sample_realization(lone, AssociationModel.UNIFORM, IidExponential(), _rng(3))
        assert real.intra_indices.size == 0
        real.check_invariants(lone)

    def test_invariants_across_models(self, cfg):
        for i, model in enumerate(AssociationModel):
            real = sample_realization(cfg, model, IidExponential(), _rng(10 + i))
            real.check_invariants(cfg)
            assert real.field_counts.max(initial=0) <= cfg.cluster_tx_count

    def test_closest_serving_is_minimum_distance(self, cfg):
        real = sample_realization(cfg, AssociationModel.CLOSEST, IidExponential(), _rng(4))
        d = real.candidate_distances()
        assert real.serving_index == int(np.argmin(d))

    def test_closest_los_serving_is_minimum_unblocked(self, cfg):
        for seed in range(20, 26):
            real = sample_realization(cfg, AssociationModel.CLOSEST_LOS,
                                      IidExponential(), _rng(seed))
            if real.association_failed:
                continue
            d = real.candidate_distances()
            assert real.candidate_los[real.serving_index]
            unblocked = d[real.candidate_los]
            assert d[real.serving_index] == pytest.approx(unblocked.min())

    def test_window_guard(self, cfg):
        tiny = replace(cfg, region_half_width=50.0)
        with pytest.raises(UsageError):
            sample_realization(tiny, AssociationModel.UNIFORM, IidExponential(), _rng(1))

    def test_los_ball_threshold(self, cfg):
        radius = math.log(2.0) / cfg.channel.blockage_rate
        real = sample_realization(cfg, AssociationModel.UNIFORM, LosBall(radius), _rng(7))
        d = real.field_distances()
        assert np.array_equal(real.field_los, d <= radius)


class TestServingDistanceLaw:
    """Kolmogorov-Smirnov agreement between sampled serving distances and the
    analytical densities, conditioning on a fixed cluster-center distance."""

    @staticmethod
    def _empirical_serving(cfg, model, v, n, seed):
        rng = _rng(seed)
        m = cfg.cluster_tx_count
        offsets = rng.normal(0.0, cfg.scatter_std, (n, m, 2))
        d = np.hypot(offsets[..., 0] + v, offsets[..., 1])
        if model is AssociationModel.UNIFORM:
            return d[:, 0]
        if model is AssociationModel.CLOSEST:
            return d.min(axis=1)
        flag = rng.random((n, m)) < np.exp(-cfg.channel.blockage_rate * d)
        masked = np.where(flag, d, np.inf)
        r = masked.min(axis=1)
        return r[np.isfinite(r)]

    @pytest.mark.parametrize("model", [AssociationModel.UNIFORM,
                                       AssociationModel.CLOSEST,
                                       AssociationModel.CLOSEST_LOS])
    def test_ks_distance(self, cfg, model):
        v = cfg.scatter_std
        n = 100_000
        samples = np.sort(self._empirical_serving(cfg, model, v, n, 99))
        cdf = CumulativeQuadrature(
            lambda r: serving_distance_pdf(model, r, v, cfg),
            v + 14 * cfg.scatter_std, segments=800, order=8)
        model_cdf = cdf.value(samples)
        if model is AssociationModel.CLOSEST_LOS:
            model_cdf = model_cdf / cdf.total  # condition on association success
        emp_hi = np.arange(1, samples.size + 1) / samples.size
        emp_lo = np.arange(0, samples.size) / samples.size
        ks = max(np.abs(emp_hi - model_cdf).max(), np.abs(emp_lo - model_cdf).max())
        assert ks < 0.01


class TestSimulateSinr:
    def test_no_interference_noise_only(self, cfg):
        lone = cfg.with_mean_active(1.0)
        real = sample_realization(lone, AssociationModel.UNIFORM, IidExponential(), _rng(5))
        options = SinrOptions(include_inter=False)
        got = simulate_sinr(real, lone, options)
        d = max(real.candidate_distances()[real.serving_index], 1.0)
        ch = lone.channel
        if real.candidate_los[real.serving_index]:
            loss = ch.intercept_los * d ** (-ch.alpha_los)
            fading = real.candidate_fading_los[real.serving_index]
        else:
            loss = ch.intercept_nlos * d ** (-ch.alpha_nlos)
            fading = real.candidate_fading_nlos[real.serving_index]
        expected = lone.gain_table().boresight_gain * fading * loss / lone.noise_power
        assert got == pytest.approx(expected, rel=1e-12)

    def test_empty_denominator_rejected(self, cfg):
        real = sample_realization(cfg, AssociationModel.UNIFORM, IidExponential(), _rng(6))
        with pytest.raises(UsageError):
            simulate_sinr(real, cfg, SinrOptions(include_intra=False,
                                                 include_inter=False,
                                                 include_noise=False))

    def test_filters_reduce_interference(self, cfg):
        real = sample_realization(cfg, AssociationModel.UNIFORM, IidExponential(), _rng(8))
        full = simulate_sinr(real, cfg)
        los_only = simulate_sinr(real, cfg, SinrOptions(include_nlos_interference=False))
        nlos_only = simulate_sinr(real, cfg, SinrOptions(include_los_interference=False))
        assert los_only >= full
        assert nlos_only >= full


class TestSingleWorldIsBlockTrial:
    """A world sampled from the Philox key ``seed << 64`` is trial 0 of block 0
    of the estimators, so one-trial estimates must agree with it exactly."""

    OPTIONS = (SinrOptions(), SinrOptions(include_inter=False),
               SinrOptions(include_intra=False, include_noise=False),
               SinrOptions(include_los_interference=False), SinrOptions(force_los=True))

    @pytest.mark.parametrize("model", list(AssociationModel), ids=lambda m: m.value)
    @pytest.mark.parametrize("ball", [False, True], ids=["iid", "losball"])
    def test_one_trial_estimate_matches_simulate_sinr(self, cfg, model, ball):
        gamma = 100.0
        blockage = LosBall(math.log(2.0) / cfg.channel.blockage_rate) if ball \
            else IidExponential()
        covered = []
        for seed in range(30):
            for options in self.OPTIONS:
                if options.force_los and model is AssociationModel.CLOSEST_LOS:
                    continue  # simulate_sinr keeps the sampled association
                est = estimate_coverage(cfg, model, gamma, 1, seed, blockage, options)
                real = sample_realization(cfg, model, blockage, _rng(seed << 64))
                covered.append(simulate_sinr(real, cfg, options) > gamma)
                assert est.p_hat == float(covered[-1]), (seed, options)
        assert 0 < sum(covered) < len(covered)


class TestEstimateCoverage:
    def test_zero_threshold_always_covered(self, cfg):
        est = estimate_coverage(cfg, AssociationModel.UNIFORM, 0.0, 2000, 17)
        assert est.p_hat == 1.0

    def test_deterministic_repeat(self, cfg):
        a = estimate_coverage(cfg, AssociationModel.CLOSEST, 100.0, 3000, 23)
        b = estimate_coverage(cfg, AssociationModel.CLOSEST, 100.0, 3000, 23)
        assert a == b

    def test_half_width_formula(self, cfg):
        est = estimate_coverage(cfg, AssociationModel.UNIFORM, 100.0, 5000, 29)
        expected = 1.96 * math.sqrt(est.p_hat * (1 - est.p_hat) / est.n_trials)
        assert est.half_width_95 == pytest.approx(expected, rel=1e-12)

    def test_many_matches_single(self, cfg):
        # cases that share a blockage law (and so its link flags, field sums
        # and, per model, association) with others and cases that do not
        ball = LosBall(30.0)
        cases = [(AssociationModel.UNIFORM, SinrOptions(), IidExponential()),
                 (AssociationModel.CLOSEST, SinrOptions(), IidExponential()),
                 (AssociationModel.CLOSEST_LOS, SinrOptions(), ball),
                 (AssociationModel.CLOSEST_LOS, SinrOptions(force_los=True), IidExponential()),
                 (AssociationModel.CLOSEST_LOS, SinrOptions(include_inter=False),
                  IidExponential()),
                 (AssociationModel.CLOSEST, SinrOptions(include_intra=False, force_los=True),
                  ball),
                 (AssociationModel.UNIFORM, SinrOptions(include_inter=False), ball)]
        many = estimate_coverage_many(cfg, 100.0, cases, 3000, 31)
        for (model, options, blockage), est in zip(cases, many):
            assert est == estimate_coverage(cfg, model, 100.0, 3000, 31,
                                            blockage=blockage, options=options)

    def test_model_ordering_with_shared_worlds(self, cfg):
        sigma20 = replace(cfg, scatter_std=20.0)
        cases = [(m, SinrOptions(), IidExponential()) for m in AssociationModel]
        uni, clo, clos_los = estimate_coverage_many(sigma20, 100.0, cases, 8000, 37)
        assert clos_los.p_hat >= clo.p_hat - 3 * clo.half_width_95 / 1.96
        assert clo.p_hat >= uni.p_hat - 3 * uni.half_width_95 / 1.96

    def test_window_doubling_is_noise_level(self, cfg):
        base = estimate_coverage(cfg, AssociationModel.UNIFORM, 100.0, 8000, 41)
        wide = estimate_coverage(replace(cfg, region_half_width=1000.0),
                                 AssociationModel.UNIFORM, 100.0, 8000, 41)
        assert abs(base.p_hat - wide.p_hat) < base.half_width_95

    def test_antenna_scale_invariance_for_special_case(self, cfg):
        options = SinrOptions(include_inter=False, include_noise=False, force_los=True)
        ests = [estimate_coverage(replace(cfg, antenna_elements=na),
                                  AssociationModel.UNIFORM, 100.0, 5000, 43,
                                  options=options) for na in (10, 40)]
        se = math.hypot(ests[0].half_width_95, ests[1].half_width_95) / 1.96
        assert abs(ests[0].p_hat - ests[1].p_hat) <= max(3 * se, 1e-12)


class TestFadingAndGainDraws:
    """The engine's own draws of a link's fading, gain outcome and blockage."""

    def test_fading_unit_mean(self, cfg):
        rng = _rng(51)
        for shape in (cfg.channel.nakagami_los, cfg.channel.nakagami_nlos):
            draws = _fading(rng, shape, 1_000_000)
            assert abs(draws.mean() - 1.0) < 0.01

    def test_gain_frequencies(self, cfg):
        table = cfg.gain_table()
        rng = _rng(53)
        u = rng.random(1_000_000)
        # outcome indices for gains: the two mixed outcomes share one gain
        _, cum = _gain_law(table)
        idx = _gain_draw(u, cum, np.arange(cum.size))
        for i, b in enumerate(table.probabilities):
            freq = np.mean(idx == i)
            se = math.sqrt(b * (1 - b) / u.size)
            assert abs(freq - b) <= 3.9 * se

    def test_los_fraction_matches_exponential(self, cfg):
        rng = _rng(57)
        n = 200_000
        rate = cfg.channel.blockage_rate
        for d in (5.0, 20.0, 50.0):
            p = math.exp(-rate * d)
            emp = float(_los_flags(d, rng.random(n), IidExponential(), rate, False).mean())
            assert abs(emp - p) <= 3.9 * math.sqrt(p * (1 - p) / n)


class TestLaplaceOracle:
    def test_zero_argument_exact_one(self, cfg):
        est = laplace_oracle(cfg, AssociationModel.UNIFORM, "intra", 0.0, 1,
                             2000, 61, v=cfg.scatter_std)
        assert est.value == 1.0
        assert est.std_error == 0.0

    def test_no_interferers_exact_one(self, cfg):
        lone = cfg.with_mean_active(1.0)
        est = laplace_oracle(lone, AssociationModel.UNIFORM, "intra", 1e6, 1,
                             2000, 63, v=cfg.scatter_std)
        assert est.value == 1.0

    def test_requires_conditioning(self, cfg):
        with pytest.raises(UsageError):
            laplace_oracle(cfg, AssociationModel.UNIFORM, "intra", 1.0, 1, 100, 1)
        with pytest.raises(UsageError):
            laplace_oracle(cfg, AssociationModel.CLOSEST, "intra", 1.0, 1, 100, 1,
                           v=5.0)

    # recorded before the rejection sampler's two loops became one: the
    # conditioned oracle must keep every draw, in the same order
    RECORDED_INTRA = [
        (AssociationModel.UNIFORM, IidExponential(),
         [0.7881187194301346, 0.6663526240330756, 0.5430451286865121]),
        (AssociationModel.CLOSEST, IidExponential(),
         [0.8243819431224162, 0.7114565006458755, 0.5848796847116825]),
        (AssociationModel.CLOSEST_LOS, IidExponential(),
         [0.8220868943426604, 0.7023474391804567, 0.5727434404150012]),
        (AssociationModel.UNIFORM, LosBall(20.0),
         [0.7239304395904784, 0.5752104598606149, 0.4336234740510096]),
        (AssociationModel.CLOSEST, LosBall(20.0),
         [0.7596429287734618, 0.6158259271043897, 0.4641179779110519]),
        (AssociationModel.CLOSEST_LOS, LosBall(20.0),
         [0.7452625204563591, 0.5987729763880287, 0.45122434097624264]),
    ]

    @pytest.mark.parametrize("model, blockage, values", RECORDED_INTRA)
    def test_intra_values_unchanged(self, cfg, model, blockage, values):
        c = replace(cfg, scatter_std=10.0, mean_active=3.0)
        ch = c.channel
        s_ref = 10.0 ** (c.gamma_th_db / 10.0) * gamma_cdf_bound_coefficient(ch.nakagami_los) \
            * c.scatter_std ** ch.alpha_los / (ch.intercept_los * c.gain_table().boresight_gain)
        est = laplace_oracle(c, model, "intra", [0.3 * s_ref, s_ref, 3.0 * s_ref], 1, 3000, 7,
                             v=8.0, r_serving=4.0, blockage=blockage)
        assert est.value.tolist() == values

    def test_array_arguments_share_realizations(self, cfg):
        est = laplace_oracle(cfg, AssociationModel.UNIFORM, "intra",
                             np.array([0.0, 1e7, 2e7]), np.array([1, 1, 1]),
                             2000, 67, v=cfg.scatter_std)
        assert est.value.shape == (3,)
        assert est.value[0] == 1.0
        assert np.all(np.diff(est.value) <= 0.0)  # non-increasing in the argument
