"""Model-layer tests: gains, blockage, path loss, distance densities."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from mmwcluster.config import default_config
from mmwcluster.errors import DegenerateSupportError
from mmwcluster.model import (
    AntennaPattern,
    AssociationModel,
    GainTable,
    build_gain_table,
    cluster_center_distance_pdf,
    default_noise_power,
    free_space_intercept,
    interferer_distance_pdf,
    los_association_probability,
    los_probability,
    path_loss,
    serving_distance_pdf,
    serving_distance_pdf_approx,
)
from mmwcluster.special import marcum_q1, rayleigh_pdf, rician_pdf


@pytest.fixture(scope="module")
def cfg():
    return default_config()


class TestLosProbability:
    def test_zero_distance(self, cfg):
        assert los_probability(0.0, cfg.channel) == 1.0

    def test_average_los_distance_calibration(self, cfg):
        # default blockage rate comes from a 30 m average unblocked distance
        assert cfg.channel.blockage_rate == pytest.approx(math.sqrt(2.0) / 30.0, rel=1e-12)
        assert los_probability(30.0, cfg.channel) == pytest.approx(math.exp(-math.sqrt(2.0)),
                                                                   rel=1e-12)

    def test_reciprocal_rate(self, cfg):
        d = 1.0 / cfg.channel.blockage_rate
        assert los_probability(d, cfg.channel) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_rejects_negative(self, cfg):
        with pytest.raises(ValueError):
            los_probability(-1.0, cfg.channel)


class TestPathLoss:
    def test_reference_distance_returns_intercept(self, cfg):
        assert path_loss(1.0, True, cfg.channel) == cfg.channel.intercept_los
        assert cfg.channel.intercept_los == cfg.channel.intercept_nlos

    def test_inverse_square(self, cfg):
        ch = replace(cfg.channel, intercept_los=1.0)
        assert path_loss(10.0, True, ch) == pytest.approx(0.01, rel=1e-12)

    def test_los_dominates_nlos_beyond_reference(self, cfg):
        for d in (2.0, 10.0, 100.0):
            assert path_loss(d, True, cfg.channel) >= path_loss(d, False, cfg.channel)

    def test_zero_distance_rejected(self, cfg):
        with pytest.raises(ValueError):
            path_loss(0.0, True, cfg.channel)

    def test_free_space_intercept(self):
        c = 299_792_458.0
        f = 28e9
        assert free_space_intercept(f) == pytest.approx((c / (4 * math.pi * f)) ** 2)


class TestGainTable:
    def test_quarter_beamwidth_probabilities(self):
        pat = AntennaPattern(main_lobe_gain=10.0, side_lobe_gain=1.0,
                             beamwidth_rad=math.pi / 2)
        table = build_gain_table(pat, pat, 1)
        assert table.probabilities == pytest.approx((1 / 16, 3 / 16, 3 / 16, 9 / 16))

    def test_default_patterns(self, cfg):
        table = build_gain_table(cfg.tx_pattern, cfg.rx_pattern, 1)
        # tx 10 dB main / -10 dB side / 30deg; rx 10 dB / 0 dB / 90deg
        np.testing.assert_allclose(table.gains, (100.0, 1.0, 10.0, 0.1), rtol=1e-12)
        np.testing.assert_allclose(table.probabilities,
                                   (1 / 48, 11 / 48, 3 / 48, 33 / 48), rtol=1e-12)
        assert table.boresight_gain == pytest.approx(100.0)

    def test_probabilities_sum_to_one_exactly(self, cfg):
        for bw_t in (0.1, 1.0, 3.0):
            for bw_r in (0.2, 2.0, 6.0):
                table = build_gain_table(
                    AntennaPattern(5.0, 0.5, bw_t), AntennaPattern(7.0, 1.0, bw_r), 3)
                p1, p2, p3, p4 = table.probabilities
                assert 1.0 - p1 - p2 - p3 - p4 == 0.0
                assert math.fsum(table.probabilities) == pytest.approx(1.0, abs=1e-15)

    def test_array_scaling_is_quadratic(self, cfg):
        t1 = build_gain_table(cfg.tx_pattern, cfg.rx_pattern, 1)
        t8 = build_gain_table(cfg.tx_pattern, cfg.rx_pattern, 8)
        np.testing.assert_allclose(np.asarray(t8.gains), 64.0 * np.asarray(t1.gains),
                                   rtol=1e-12)
        assert t8.mean_gain == pytest.approx(64.0 * t1.mean_gain, rel=1e-12)
        assert t8.boresight_gain == pytest.approx(64.0 * t1.boresight_gain, rel=1e-12)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            GainTable(gains=(1.0, 1.0, 1.0, -1.0),
                      probabilities=(0.25, 0.25, 0.25, 0.25), boresight_gain=1.0)
        with pytest.raises(ValueError):
            AntennaPattern(main_lobe_gain=0.5, side_lobe_gain=1.0, beamwidth_rad=1.0)


class TestNoisePower:
    def test_default_link_budget(self):
        # 100 MHz, NF 10 dB, 23 dBm transmit power
        assert default_noise_power(100e6) == pytest.approx(10 ** (-10.7), rel=1e-12)

    def test_linearity_in_bandwidth(self):
        assert default_noise_power(200e6) == pytest.approx(2 * default_noise_power(100e6),
                                                           rel=1e-12)

    def test_zero_noise_allowed_in_config(self, cfg):
        sir_cfg = replace(cfg, noise_power=0.0)
        assert sir_cfg.noise_power == 0.0


class TestServingDistancePdf:
    def test_uniform_zero_center_is_rayleigh(self, cfg):
        rs = np.linspace(0.0, 50.0, 40)
        np.testing.assert_allclose(
            serving_distance_pdf(AssociationModel.UNIFORM, rs, 0.0, cfg),
            rayleigh_pdf(rs, cfg.scatter_std**2), rtol=1e-12)

    def test_closest_single_candidate_is_rician(self, cfg):
        one = replace(cfg, cluster_tx_count=1, mean_active=1.0)
        rs = np.linspace(0.0, 60.0, 30)
        np.testing.assert_allclose(
            serving_distance_pdf(AssociationModel.CLOSEST, rs, 12.0, one),
            rician_pdf(rs, 12.0, cfg.scatter_std**2), rtol=1e-12)

    @pytest.mark.parametrize("model", [AssociationModel.UNIFORM, AssociationModel.CLOSEST])
    @pytest.mark.parametrize("v_mult", [0.2, 1.0, 2.5])
    def test_unit_mass(self, cfg, model, v_mult):
        v = v_mult * cfg.scatter_std
        mass, _ = quad(lambda r: serving_distance_pdf(model, r, v, cfg),
                       0.0, v + 16 * cfg.scatter_std, limit=400)
        assert mass == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("v_mult", [0.2, 1.0, 2.5])
    def test_closest_los_mass_is_association_probability(self, cfg, v_mult):
        v = v_mult * cfg.scatter_std
        mass, _ = quad(lambda r: serving_distance_pdf(AssociationModel.CLOSEST_LOS, r, v, cfg),
                       0.0, v + 16 * cfg.scatter_std, limit=400)
        assert mass == pytest.approx(los_association_probability(v, cfg), abs=1e-6)

    def test_closest_bounded_by_scaled_uniform(self, cfg):
        v = cfg.scatter_std
        rs = np.linspace(0.01, 5 * cfg.scatter_std, 200)
        closest = serving_distance_pdf(AssociationModel.CLOSEST, rs, v, cfg)
        uniform = serving_distance_pdf(AssociationModel.UNIFORM, rs, v, cfg)
        assert np.all(closest <= cfg.cluster_tx_count * uniform + 1e-12)

    def test_closest_stochastically_dominates_uniform(self, cfg):
        # nearer serving device: the closest-model CDF sits above the uniform one
        v = cfg.scatter_std
        for x in (0.5, 1.0, 2.0, 4.0):
            hi = x * cfg.scatter_std
            c_u, _ = quad(lambda r: serving_distance_pdf(AssociationModel.UNIFORM, r, v, cfg),
                          0.0, hi, limit=200)
            c_c, _ = quad(lambda r: serving_distance_pdf(AssociationModel.CLOSEST, r, v, cfg),
                          0.0, hi, limit=200)
            assert c_c >= c_u - 1e-12

    def test_rejects_negative(self, cfg):
        with pytest.raises(ValueError):
            serving_distance_pdf(AssociationModel.UNIFORM, -1.0, 5.0, cfg)
        with pytest.raises(ValueError):
            serving_distance_pdf(AssociationModel.UNIFORM, 1.0, -5.0, cfg)


class TestInterfererDistancePdf:
    def test_closest_no_truncation_at_zero_serving(self, cfg):
        ss = np.linspace(0.0, 60.0, 25)
        np.testing.assert_allclose(
            interferer_distance_pdf(AssociationModel.CLOSEST, ss, 10.0, 0.0, cfg),
            rician_pdf(ss, 10.0, cfg.scatter_std**2), rtol=1e-10)

    def test_truncated_density_renormalizes(self, cfg):
        v, r1 = 10.0, 7.0
        mass, _ = quad(lambda s: interferer_distance_pdf(AssociationModel.CLOSEST,
                                                         s, v, r1, cfg),
                       r1, v + 16 * cfg.scatter_std, limit=400)
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_zero_below_serving_distance(self, cfg):
        assert interferer_distance_pdf(AssociationModel.CLOSEST, 3.0, 10.0, 5.0, cfg) == 0.0

    def test_uniform_matches_serving_density(self, cfg):
        ss = np.linspace(0.0, 80.0, 30)
        np.testing.assert_allclose(
            interferer_distance_pdf(AssociationModel.UNIFORM, ss, 15.0, 4.0, cfg),
            serving_distance_pdf(AssociationModel.UNIFORM, ss, 15.0, cfg), rtol=1e-12)

    def test_closest_los_nlos_component_untruncated(self, cfg):
        ss = np.linspace(0.0, 60.0, 25)
        np.testing.assert_allclose(
            interferer_distance_pdf(AssociationModel.CLOSEST_LOS, ss, 10.0, 5.0, cfg,
                                    interferer_is_los=False),
            rician_pdf(ss, 10.0, cfg.scatter_std**2), rtol=1e-12)

    def test_degenerate_tail_raises(self, cfg):
        with pytest.raises(DegenerateSupportError):
            interferer_distance_pdf(AssociationModel.CLOSEST, 1000.0, 0.0,
                                    400.0 * cfg.scatter_std, cfg)

    def test_degenerate_element_raises(self, cfg):
        # only the second (v, r_serving) pair has no support left
        with pytest.raises(DegenerateSupportError):
            interferer_distance_pdf(AssociationModel.CLOSEST, np.array([20.0, 5000.0]),
                                    np.array([10.0, 0.0]),
                                    np.array([5.0, 400.0 * cfg.scatter_std]), cfg)

    @pytest.mark.parametrize("model, is_los", [(AssociationModel.UNIFORM, True),
                                               (AssociationModel.CLOSEST, True),
                                               (AssociationModel.CLOSEST_LOS, True),
                                               (AssociationModel.CLOSEST_LOS, False)])
    def test_broadcast_matches_scalar_calls(self, cfg, model, is_los):
        ss = np.linspace(0.0, 80.0, 9)[:, None, None]
        vs = np.array([0.0, 10.0, 35.0])[:, None]
        rs = np.array([0.0, 4.0, 20.0, 50.0])
        got = interferer_distance_pdf(model, ss, vs, rs, cfg, interferer_is_los=is_los)
        want = np.vectorize(lambda s, v, r: interferer_distance_pdf(
            model, s, v, r, cfg, interferer_is_los=is_los))(ss, vs, rs)
        # the untruncated laws do not read r_serving, so need not span its axis
        np.testing.assert_allclose(np.broadcast_to(got, want.shape), want,
                                   rtol=1e-15, atol=0.0)


class TestApproximateServingPdf:
    def test_uniform_mode(self, cfg):
        rs = np.linspace(0.01, 8 * cfg.scatter_std, 4000)
        pdf = serving_distance_pdf_approx(AssociationModel.UNIFORM, rs, cfg)
        assert rs[np.argmax(pdf)] == pytest.approx(cfg.scatter_std * math.sqrt(2.0),
                                                   abs=0.05)

    @pytest.mark.parametrize("model", [AssociationModel.UNIFORM, AssociationModel.CLOSEST])
    def test_unit_mass(self, cfg, model):
        mass, _ = quad(lambda r: serving_distance_pdf_approx(model, r, cfg),
                       0.0, 20 * cfg.scatter_std, limit=400)
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_closest_los_mass(self, cfg):
        p, _ = quad(lambda t: math.exp(-cfg.channel.blockage_rate * t)
                    * rayleigh_pdf(t, 2 * cfg.scatter_std**2),
                    0.0, 20 * cfg.scatter_std, limit=400)
        expected = 1.0 - (1.0 - p) ** cfg.cluster_tx_count
        mass, _ = quad(lambda r: serving_distance_pdf_approx(AssociationModel.CLOSEST_LOS,
                                                             r, cfg),
                       0.0, 20 * cfg.scatter_std, limit=400)
        assert mass == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("avg_los_distance", [5.0, 30.0])
    def test_closest_los_pointwise(self, cfg, avg_los_distance):
        c = replace(cfg, channel=replace(cfg.channel,
                                         blockage_rate=math.sqrt(2.0) / avg_los_distance))
        rate, var2, m = c.channel.blockage_rate, 2 * c.scatter_std**2, c.cluster_tx_count
        for r in (0.0, 0.5, 3.0, 10.0, 25.0, 60.0):
            p, p_err = quad(lambda t: math.exp(-rate * t) * rayleigh_pdf(t, var2), 0.0, r,
                            epsabs=0.0, epsrel=1e-13)
            assert p_err <= 1e-12 * max(p, 1e-300)
            expected = m * (1.0 - p) ** (m - 1) * math.exp(-rate * r) * rayleigh_pdf(r, var2)
            got = serving_distance_pdf_approx(AssociationModel.CLOSEST_LOS, r, c)
            assert got == pytest.approx(expected, rel=1e-11, abs=0.0), r


class TestClusterCenterPdf:
    def test_zero_at_origin(self, cfg):
        assert cluster_center_distance_pdf(0.0, cfg) == 0.0

    def test_unit_mass(self, cfg):
        mass, _ = quad(lambda v: cluster_center_distance_pdf(v, cfg),
                       0.0, 20 * cfg.scatter_std, limit=200)
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_mode_at_scatter_std(self, cfg):
        vs = np.linspace(0.01, 5 * cfg.scatter_std, 4000)
        pdf = cluster_center_distance_pdf(vs, cfg)
        assert vs[np.argmax(pdf)] == pytest.approx(cfg.scatter_std, abs=0.02)


class TestConfigInvariants:
    def test_mean_active_bounded_by_cluster_size(self, cfg):
        with pytest.raises(ValueError):
            replace(cfg, mean_active=cfg.cluster_tx_count + 1.0)

    def test_marcum_consistency_with_truncation_normalizer(self, cfg):
        # the truncated density normalizer equals the rician tail mass
        v, r1 = 14.0, 9.0
        sigma = cfg.scatter_std
        tail, _ = quad(lambda s: rician_pdf(s, v, sigma**2), r1, v + 16 * sigma, limit=300)
        assert marcum_q1(v / sigma, r1 / sigma) == pytest.approx(tail, abs=1e-8)
