"""Analytical-engine tests: kernels, Laplace transforms, coverage bounds."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from mmwcluster import analytical
from mmwcluster.analytical import (
    CoverageFlags,
    ase,
    ase_from_coverage,
    coverage,
    coverage_lower_bound,
    gamma_cdf_bound_coefficient,
    kernel_los,
    kernel_nlos,
    laplace_inter,
    laplace_intra,
    lower_bound_constants,
    optimize_mean_active,
)
from mmwcluster.config import apply_override, config_with_carrier, default_config
from mmwcluster.errors import DegenerateSupportError, UsageError
from mmwcluster.model import AssociationModel
from mmwcluster.special import marcum_q1, rician_pdf


@pytest.fixture(scope="module")
def cfg():
    return default_config()


def reference_laplace_argument(cfg, n_mult=1.0):
    """Laplace argument at the configured threshold and a sigma-scale serving
    distance; the natural magnitude the coverage integrals probe."""
    ch = cfg.channel
    eta = gamma_cdf_bound_coefficient(ch.nakagami_los)
    gamma = 10.0 ** (cfg.gamma_th_db / 10.0)
    return n_mult * gamma * eta * cfg.scatter_std ** ch.alpha_los \
        / (ch.intercept_los * cfg.gain_table().boresight_gain)


class TestEta:
    def test_values(self):
        assert gamma_cdf_bound_coefficient(1) == pytest.approx(1.0)
        assert gamma_cdf_bound_coefficient(2) == pytest.approx(2.0 / math.sqrt(2.0))
        assert gamma_cdf_bound_coefficient(3) == pytest.approx(3.0 / 6.0 ** (1 / 3))


class TestKernels:
    def test_zero_laplace_argument(self, cfg):
        table = cfg.gain_table()
        assert kernel_los(0.0, 5.0, 1, table, cfg.channel) == 0.0
        assert kernel_nlos(0.0, 5.0, 1, table, cfg.channel) == 0.0

    def test_los_kernel_vanishes_far_out(self, cfg):
        table = cfg.gain_table()
        s = reference_laplace_argument(cfg)
        assert kernel_los(s, 2000.0, 1, table, cfg.channel) < 1e-12

    def test_nlos_kernel_vanishes_near_origin(self, cfg):
        table = cfg.gain_table()
        s = reference_laplace_argument(cfg)
        assert kernel_nlos(s, 1e-9, 1, table, cfg.channel) < 1e-9

    def test_los_kernel_monotone_decreasing_in_distance(self, cfg):
        table = cfg.gain_table()
        s = reference_laplace_argument(cfg)
        rs = np.linspace(0.5, 300.0, 400)
        vals = kernel_los(s, rs, 1, table, cfg.channel)
        assert np.all(np.diff(vals) <= 1e-12)

    def test_kernels_bounded_by_partition(self, cfg):
        table = cfg.gain_table()
        for s in (0.1, 1.0, 100.0) :
            s_val = s * reference_laplace_argument(cfg)
            for n in (1, 2, 3):
                rs = np.linspace(0.2, 200.0, 100)
                total = kernel_los(s_val, rs, n, table, cfg.channel) \
                    + kernel_nlos(s_val, rs, n, table, cfg.channel)
                assert np.all(total <= 1.0 + 1e-12)
                assert np.all(total >= 0.0)


class TestLaplaceIntra:
    def test_single_active_device_gives_one(self, cfg):
        lone = cfg.with_mean_active(1.0)
        for model in AssociationModel:
            val = laplace_intra(model, 1, reference_laplace_argument(cfg),
                                cfg.scatter_std, r_serving=2.0, cfg=lone)
            assert val == 1.0

    def test_zero_argument_gives_one(self, cfg):
        assert laplace_intra(AssociationModel.UNIFORM, 1, 0.0, cfg.scatter_std,
                             cfg=cfg) == 1.0

    @pytest.mark.parametrize("n,s_mult", [(1, 1.0), (2, 1.0), (1, 0.2), (3, 2.5)])
    def test_uniform_matches_adaptive_quadrature(self, cfg, n, s_mult):
        v = cfg.scatter_std
        sigma = cfg.scatter_std
        s = s_mult * reference_laplace_argument(cfg)
        table = cfg.gain_table()
        mine = laplace_intra(AssociationModel.UNIFORM, n, s, v, cfg=cfg)
        inner, _ = quad(lambda r: (kernel_los(s, r, n, table, cfg.channel)
                                   + kernel_nlos(s, r, n, table, cfg.channel))
                        * rician_pdf(r, v, sigma**2), 0.0, v + 14 * sigma, limit=400)
        ref = math.exp(-(cfg.mean_active - 1.0) * inner)
        assert mine == pytest.approx(ref, rel=1e-9)

    def test_closest_matches_adaptive_quadrature(self, cfg):
        v, r1 = cfg.scatter_std, 0.4 * cfg.scatter_std
        sigma = cfg.scatter_std
        s = reference_laplace_argument(cfg)
        table = cfg.gain_table()
        mine = laplace_intra(AssociationModel.CLOSEST, 1, s, v, r_serving=r1, cfg=cfg)
        inner, _ = quad(lambda r: (kernel_los(s, r, 1, table, cfg.channel)
                                   + kernel_nlos(s, r, 1, table, cfg.channel))
                        * rician_pdf(r, v, sigma**2), r1, v + 14 * sigma, limit=400)
        ref = math.exp(-(cfg.mean_active - 1.0) * inner
                       / marcum_q1(v / sigma, r1 / sigma))
        assert mine == pytest.approx(ref, rel=1e-7)

    def test_closest_los_matches_adaptive_quadrature(self, cfg):
        v, rl = cfg.scatter_std, 0.4 * cfg.scatter_std
        sigma = cfg.scatter_std
        s = reference_laplace_argument(cfg)
        table = cfg.gain_table()
        mine = laplace_intra(AssociationModel.CLOSEST_LOS, 1, s, v, r_serving=rl, cfg=cfg)
        trunc, _ = quad(lambda r: kernel_los(s, r, 1, table, cfg.channel)
                        * rician_pdf(r, v, sigma**2), rl, v + 14 * sigma, limit=400)
        full, _ = quad(lambda r: kernel_nlos(s, r, 1, table, cfg.channel)
                       * rician_pdf(r, v, sigma**2), 0.0, v + 14 * sigma, limit=400)
        ref = math.exp(-(cfg.mean_active - 1.0)
                       * (trunc / marcum_q1(v / sigma, rl / sigma) + full))
        assert mine == pytest.approx(ref, rel=1e-7)

    def test_non_increasing_in_argument(self, cfg):
        v = cfg.scatter_std
        s0 = reference_laplace_argument(cfg)
        vals = [laplace_intra(AssociationModel.UNIFORM, 1, m * s0, v, cfg=cfg)
                for m in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(0.0 < x <= 1.0 for x in vals)
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_special_case_flag_restricted_to_uniform(self, cfg):
        with pytest.raises(UsageError):
            laplace_intra(AssociationModel.CLOSEST, 1, 1.0, 5.0, r_serving=1.0,
                          flags=CoverageFlags(use_assumption2=True), cfg=cfg)

    def test_missing_serving_distance_rejected(self, cfg):
        with pytest.raises(UsageError):
            laplace_intra(AssociationModel.CLOSEST, 1, 1.0, 5.0, cfg=cfg)

    @pytest.mark.parametrize("model", [AssociationModel.CLOSEST,
                                       AssociationModel.CLOSEST_LOS])
    def test_serving_distance_beyond_support_raises(self, cfg, model):
        # Q1(0, 400) underflows to 0: the truncated law has no support left
        with pytest.raises(DegenerateSupportError):
            laplace_intra(model, 1, 1e-3, 0.0, r_serving=4000.0, cfg=cfg)

    # laplace_intra(model, 1, s_ref, v, r_serving) at the defaults for
    # (v, r_serving) in ((0, 4), (10, 20), (35, 50)); pinned values of the
    # truncated and untruncated interferer laws and their panel rules
    RECORDED = [
        (AssociationModel.CLOSEST,
         [0.4385482271838546, 0.8306448002750989, 0.98066064218844]),
        (AssociationModel.CLOSEST_LOS,
         [0.4331903273958729, 0.8037627507925657, 0.9788247822560406]),
    ]

    @pytest.mark.parametrize("model, values", RECORDED)
    def test_truncated_laws_unchanged(self, cfg, model, values):
        s_ref = reference_laplace_argument(cfg)
        got = [laplace_intra(model, 1, s_ref, v, r_serving=r, cfg=cfg)
               for v, r in ((0.0, 4.0), (10.0, 20.0), (35.0, 50.0))]
        assert got == pytest.approx(values, rel=1e-12, abs=0.0)


class TestLaplaceInter:
    def test_zero_argument(self, cfg):
        assert laplace_inter(1, 0.0, cfg) == 1.0

    def test_vanishing_density_gives_one(self, cfg):
        sparse = replace(cfg, parent_density=1e-15)
        val = laplace_inter(1, reference_laplace_argument(cfg), sparse)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_matches_nested_adaptive_quadrature(self, cfg):
        s = reference_laplace_argument(cfg)
        table = cfg.gain_table()
        sigma = cfg.scatter_std

        def inner(v):
            val, _ = quad(lambda w: (kernel_los(s, w, 1, table, cfg.channel)
                                     + kernel_nlos(s, w, 1, table, cfg.channel))
                          * rician_pdf(w, v, sigma**2),
                          max(0.0, v - 14 * sigma), v + 14 * sigma, limit=200)
            return val

        outer, _ = quad(lambda v: (1.0 - math.exp(-cfg.mean_active * inner(v))) * v,
                        0.0, 4000.0, limit=300)
        ref = math.exp(-2.0 * math.pi * cfg.parent_density * outer)
        assert laplace_inter(1, s, cfg) == pytest.approx(ref, rel=2e-5)

    def test_non_increasing_in_argument(self, cfg):
        s0 = reference_laplace_argument(cfg)
        vals = [laplace_inter(1, m * s0, cfg) for m in (0.0, 0.3, 1.0, 3.0, 10.0)]
        assert all(0.0 < x <= 1.0 for x in vals)
        assert all(a >= b - 1e-10 for a, b in zip(vals, vals[1:]))


class TestInterTable:
    """One inter-cluster table per geometry serves every load."""

    # laplace_inter(n, m * s_ref) at (scatter, load) for (n, m) in
    # ((1, 0.3), (1, 1.0), (2, 1.5)); reference values of the direct transform
    RECORDED = [
        (10.0, 1.0, [0.9658111785530132, 0.9399555065902105, 0.9053209076693307]),
        (10.0, 5.0, [0.8556871158087869, 0.7692902455194705, 0.6720846299976796]),
        (10.0, 40.0, [0.4939134827703653, 0.3543999537809758, 0.24284476849096792]),
        (20.0, 1.0, [0.9333873981831741, 0.8909206866256767, 0.839686035240941]),
        (20.0, 5.0, [0.7311212010761852, 0.6069152652628337, 0.4877154681679904]),
        (20.0, 40.0, [0.24165970844053605, 0.1452881278950427, 0.08534678759353777]),
    ]

    @pytest.mark.parametrize("sigma, load, values", RECORDED)
    def test_laplace_inter_unchanged(self, cfg, sigma, load, values):
        c = replace(cfg, scatter_std=sigma, mean_active=load)
        s_ref = reference_laplace_argument(c)
        got = [laplace_inter(n, m * s_ref, c) for n, m in ((1, 0.3), (1, 1.0), (2, 1.5))]
        assert got == pytest.approx(values, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("sigma", [10.0, 20.0])
    def test_table_matches_direct_transform_at_every_load(self, cfg, sigma):
        geometry = replace(cfg, scatter_std=sigma)
        table = analytical._inter_table(analytical._inter_table_key(geometry))
        # spans the table, with most points between its grid nodes
        t = np.exp(np.linspace(table._log_t[0], table._log_t[-1], 97))
        for load in (1.0, 2.5, float(cfg.cluster_tx_count)):
            direct = analytical._inter_exponent(geometry.with_mean_active(load), t)
            # 3e-5 is the relative tolerance of the outer tail rule
            assert table.exponent(t, load) == pytest.approx(direct, rel=3e-5, abs=0.0)

    def test_load_scan_builds_one_table(self, cfg):
        analytical._inter_table.cache_clear()
        optimize_mean_active(AssociationModel.UNIFORM, 100.0,
                             CoverageFlags(use_assumption1=True), cfg)
        assert analytical._inter_table.cache_info().misses == 1


class TestApproxBoundProperties:
    """Invariants of the approx bound over randomized configurations."""

    @settings(max_examples=15, deadline=None)
    @given(sigma=st.floats(5.0, 40.0), density_km2=st.floats(20.0, 600.0),
           tx_count=st.integers(2, 60), main_db=st.floats(0.0, 25.0),
           side_db=st.floats(-25.0, 0.0), gamma_db=st.floats(-5.0, 35.0),
           step_db=st.floats(0.5, 10.0), load_frac=st.floats(0.0, 1.0),
           load_step=st.floats(0.5, 10.0))
    def test_in_unit_interval_and_non_increasing(self, sigma, density_km2, tx_count,
                                                 main_db, side_db, gamma_db, step_db,
                                                 load_frac, load_step):
        c = default_config()
        for key, value in (("mean_active", 1.0), ("cluster_tx_count", tx_count),
                           ("scatter_std", sigma), ("parent_density_per_km2", density_km2),
                           ("tx_main_lobe_db", main_db), ("tx_side_lobe_db", side_db)):
            c = apply_override(c, key, value)
        flags = CoverageFlags(use_assumption1=True)
        load = 1.0 + load_frac * (tx_count - 1)
        heavier = min(float(tx_count), load + load_step)
        gamma, stricter = 10.0 ** (gamma_db / 10.0), 10.0 ** ((gamma_db + step_db) / 10.0)

        def bound(g, s):
            # unclamped, so that the [0, 1] check is not vacuous
            return analytical._coverage_raw(AssociationModel.UNIFORM, g, flags,
                                            c.with_mean_active(s))

        base = bound(gamma, load)
        assert -1e-9 <= base <= 1.0 + 1e-9
        assert bound(stricter, load) <= base + 1e-9, "must not increase with threshold"
        assert bound(gamma, heavier) <= base + 1e-9, "must not increase with load"


class TestCoverage:
    # coverage at 0 dB, scatter 20 m, load 5 (exact, approx, assumption 2);
    # pinned values of the whole bound, so that a changed quadrature constant,
    # panel rule or distance law shows
    RECORDED = [
        (AssociationModel.UNIFORM, CoverageFlags(), 0.33542381274043925),
        (AssociationModel.CLOSEST, CoverageFlags(), 0.938962882596011),
        (AssociationModel.CLOSEST_LOS, CoverageFlags(), 0.9898378392396764),
        (AssociationModel.UNIFORM, CoverageFlags(use_assumption1=True), 0.339069902107471),
        (AssociationModel.CLOSEST, CoverageFlags(use_assumption1=True), 0.9587565214479028),
        (AssociationModel.CLOSEST_LOS, CoverageFlags(use_assumption1=True),
         0.9917598537315659),
        (AssociationModel.UNIFORM, CoverageFlags(use_assumption2=True), 0.9219671025716968),
    ]

    @pytest.mark.parametrize("model, flags, value", RECORDED)
    def test_bound_unchanged(self, cfg, model, flags, value):
        c = replace(cfg, scatter_std=20.0, mean_active=5.0)
        assert coverage(model, 1.0, flags, c) == pytest.approx(value, rel=1e-12, abs=0.0)

    def test_tiny_threshold_gives_one(self, cfg):
        assert coverage(AssociationModel.UNIFORM, 1e-12, cfg=cfg) == pytest.approx(1.0,
                                                                                   abs=1e-6)

    def test_exact_uniform_matches_scalar_composition(self, cfg):
        # interference-free small case: integrate the integrand composed from
        # the public scalar pieces and compare with the tensor evaluator
        quiet = replace(cfg, parent_density=1e-15, noise_power=0.0,
                        scatter_std=10.0, mean_active=3.0)
        gamma = 10.0 ** (quiet.gamma_th_db / 10.0)
        ch = quiet.channel
        table = quiet.gain_table()
        sigma = quiet.scatter_std
        eta_l = gamma_cdf_bound_coefficient(ch.nakagami_los)
        eta_n = gamma_cdf_bound_coefficient(ch.nakagami_nlos)

        def integrand(r, v):
            total = 0.0
            for n in range(1, ch.nakagami_los + 1):
                s = gamma * eta_l * r ** ch.alpha_los / (ch.intercept_los * table.boresight_gain)
                total += (-1) ** (n + 1) * math.comb(ch.nakagami_los, n) \
                    * math.exp(-ch.blockage_rate * r) \
                    * laplace_intra(AssociationModel.UNIFORM, n, s, v, cfg=quiet)
            for n in range(1, ch.nakagami_nlos + 1):
                s = gamma * eta_n * r ** ch.alpha_nlos / (ch.intercept_nlos * table.boresight_gain)
                total += (-1) ** (n + 1) * math.comb(ch.nakagami_nlos, n) \
                    * (1.0 - math.exp(-ch.blockage_rate * r)) \
                    * laplace_intra(AssociationModel.UNIFORM, n, s, v, cfg=quiet)
            return total * rician_pdf(r, v, sigma**2)

        from mmwcluster._quadrature import panel_rule
        v_nodes, v_wts = panel_rule(np.linspace(0.0, 8 * sigma, 25), 6)
        ref = 0.0
        for v, wv in zip(v_nodes, v_wts):
            r_nodes, r_wts = panel_rule(np.linspace(0.0, v + 8 * sigma, 25), 6)
            inner = sum(integrand(r, v) * wr for r, wr in zip(r_nodes[1:], r_wts[1:]))
            ref += inner * rician_pdf(v, 0.0, sigma**2) * wv
        mine = coverage(AssociationModel.UNIFORM, gamma, cfg=quiet)
        assert mine == pytest.approx(ref, rel=2e-3)

    def test_assumption1_matches_scalar_composition(self, cfg):
        from mmwcluster.model import serving_distance_pdf_approx
        gamma = 10.0 ** (cfg.gamma_th_db / 10.0)
        ch = cfg.channel
        table = cfg.gain_table()
        eta_l = gamma_cdf_bound_coefficient(ch.nakagami_los)
        eta_n = gamma_cdf_bound_coefficient(ch.nakagami_nlos)
        flags = CoverageFlags(use_assumption1=True)

        def integrand(r):
            total = 0.0
            for shape, eta, alpha, icept, is_los in (
                    (ch.nakagami_los, eta_l, ch.alpha_los, ch.intercept_los, True),
                    (ch.nakagami_nlos, eta_n, ch.alpha_nlos, ch.intercept_nlos, False)):
                for n in range(1, shape + 1):
                    s = gamma * eta * r ** alpha / (icept * table.boresight_gain)
                    w = math.exp(-ch.blockage_rate * r) if is_los \
                        else 1.0 - math.exp(-ch.blockage_rate * r)
                    total += (-1) ** (n + 1) * math.comb(shape, n) * w \
                        * math.exp(-n * s * cfg.noise_power) \
                        * laplace_intra(AssociationModel.UNIFORM, n, s, 0.0,
                                        flags=flags, cfg=cfg) \
                        * laplace_inter(n, s, cfg)
            return total * serving_distance_pdf_approx(AssociationModel.UNIFORM, r, cfg)

        ref, ref_err = quad(integrand, 0.0, 17 * cfg.scatter_std,
                            epsabs=0.0, epsrel=5e-5, limit=100)
        assert ref_err < 5e-5 * ref  # the reference itself converged
        mine = coverage(AssociationModel.UNIFORM, gamma, flags, cfg)
        assert mine == pytest.approx(ref, rel=2e-4)

    def test_non_increasing_in_threshold(self, cfg):
        flags = CoverageFlags(use_assumption1=True)
        vals = [coverage(AssociationModel.UNIFORM, 10 ** (g / 10), flags, cfg)
                for g in (0.0, 10.0, 20.0, 30.0)]
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_special_case_restricted_to_uniform(self, cfg):
        with pytest.raises(UsageError):
            coverage(AssociationModel.CLOSEST, 10.0,
                     CoverageFlags(use_assumption2=True), cfg)

    def test_rejects_large_fading_shape(self, cfg):
        bad = replace(cfg, channel=replace(cfg.channel, nakagami_los=12))
        with pytest.raises(UsageError):
            coverage(AssociationModel.UNIFORM, 10.0, CoverageFlags(), bad)

    def test_special_case_antenna_scale_invariance(self, cfg):
        # with intra-only unblocked interference the array size cancels exactly
        flags = CoverageFlags(use_assumption1=True, use_assumption2=True)
        gamma = 10.0 ** (cfg.gamma_th_db / 10.0)
        vals = [coverage(AssociationModel.UNIFORM, gamma, flags,
                         replace(cfg, antenna_elements=na)) for na in (1, 10, 40)]
        assert max(vals) - min(vals) < 1e-9

    def test_blockage_limits_select_single_branch(self, cfg):
        table = cfg.gain_table()
        s = reference_laplace_argument(cfg)
        rs = np.linspace(0.5, 100.0, 50)
        # everything blocked: unblocked kernel carries no weight anywhere
        all_blocked = replace(cfg.channel, blockage_rate=100.0)
        assert np.all(kernel_los(s, rs, 1, table, all_blocked) < 1e-15)
        # nothing blocked: blocked kernel carries no weight on any relevant range
        all_clear = replace(cfg.channel, blockage_rate=1e-9)
        assert np.all(kernel_nlos(s, rs, 1, table, all_clear) < 1e-6)

    def test_all_clear_limit_matches_los_only_composition(self, cfg):
        # near-zero blockage rate: the blocked branch contributes nothing and
        # coverage reduces to the unblocked alternating sum alone
        from mmwcluster.model import serving_distance_pdf_approx
        clear = replace(cfg, channel=replace(cfg.channel, blockage_rate=1e-12))
        gamma = 10.0 ** (cfg.gamma_th_db / 10.0)
        ch = clear.channel
        table = clear.gain_table()
        eta_l = gamma_cdf_bound_coefficient(ch.nakagami_los)
        flags = CoverageFlags(use_assumption1=True)

        def integrand(r):
            total = 0.0
            for n in range(1, ch.nakagami_los + 1):
                s = gamma * eta_l * r ** ch.alpha_los / (ch.intercept_los * table.boresight_gain)
                total += (-1) ** (n + 1) * math.comb(ch.nakagami_los, n) \
                    * math.exp(-n * s * clear.noise_power) \
                    * laplace_intra(AssociationModel.UNIFORM, n, s, 0.0,
                                    flags=flags, cfg=clear) \
                    * laplace_inter(n, s, clear)
            return total * serving_distance_pdf_approx(AssociationModel.UNIFORM, r, clear)

        ref, ref_err = quad(integrand, 0.0, 17 * clear.scatter_std,
                            epsabs=0.0, epsrel=5e-4, limit=100)
        assert ref_err < 5e-4 * ref  # the reference itself converged
        mine = coverage(AssociationModel.UNIFORM, gamma, flags, clear)
        assert mine == pytest.approx(ref, rel=2e-3)


class TestLowerBound:
    def test_no_interference_saturates(self, cfg):
        cfg60 = config_with_carrier(cfg, 60e9).with_mean_active(1.0)
        assert coverage_lower_bound(100.0, cfg60) == pytest.approx(1.0, abs=1e-12)

    def test_psi_matches_defining_integral(self, cfg):
        # psi = int_0^inf (1 - (1+y)^-N) y^(-c-1) dy, c = 2/alpha; on [0, 1] the
        # substitution y = u^(alpha/(alpha-2)) removes the singularity at 0
        cfg60 = config_with_carrier(cfg, 60e9)
        for alpha in (2.25, 3.0, 4.0):
            for n_l in (1, 3, 10):
                ch = replace(cfg60.channel, alpha_los=alpha,
                             alpha_nlos=max(alpha, cfg60.channel.alpha_nlos),
                             nakagami_los=n_l)
                c = 2.0 / alpha
                p = alpha / (alpha - 2.0)
                low, low_err = quad(
                    lambda u: -p * np.expm1(-n_l * np.log1p(u ** p)) * u ** (-c * p - 1.0),
                    0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=200)
                high, high_err = quad(
                    lambda y: -np.expm1(-n_l * np.log1p(y)) * y ** (-c - 1.0),
                    1.0, np.inf, epsabs=0.0, epsrel=1e-12, limit=200)
                ref = low + high
                assert low_err + high_err < 1e-11 * ref
                psi = lower_bound_constants(replace(cfg60, channel=ch)).psi
                assert psi == pytest.approx(ref, rel=1e-10), (alpha, n_l)

    def test_xi_is_gain_moment(self, cfg):
        cfg60 = config_with_carrier(cfg, 60e9)
        gains, probs = cfg60.gain_table().as_arrays()
        expected = float(np.sum(probs * gains ** (2.0 / cfg60.channel.alpha_los)))
        assert lower_bound_constants(cfg60).xi == pytest.approx(expected, rel=1e-12)

    def test_rejects_alpha_at_two(self, cfg):
        with pytest.raises(UsageError):
            coverage_lower_bound(100.0, cfg)  # default carrier has alpha_los = 2

    def test_non_decreasing_in_boresight_gain(self, cfg):
        cfg60 = config_with_carrier(cfg, 60e9).with_mean_active(10.0)
        vals = [coverage_lower_bound(100.0, replace(cfg60, boresight_gain=g))
                for g in (1e4, 1e5, 1e6)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_below_special_case_upper_bound(self, cfg):
        cfg60 = replace(config_with_carrier(cfg, 60e9), scatter_std=10.0,
                        mean_active=10.0)
        flags = CoverageFlags(use_assumption1=True, use_assumption2=True)
        for gdb in (0.0, 10.0, 20.0, 30.0, 40.0):
            gamma = 10.0 ** (gdb / 10.0)
            lb = coverage_lower_bound(gamma, cfg60)
            ub = coverage(AssociationModel.UNIFORM, gamma, flags, cfg60)
            assert lb <= ub + 1e-9
            assert 0.0 <= lb <= 1.0


class TestAse:
    def test_zero_threshold_zero_ase(self, cfg):
        assert ase_from_coverage(cfg, 0.0, 1.0) == 0.0

    def test_arithmetic(self, cfg):
        two = cfg.with_mean_active(2.0)
        gamma = 100.0
        expected = 2.0 * 1.5e-4 * math.log2(101.0)
        assert ase_from_coverage(two, gamma, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_ase_uses_coverage(self, cfg):
        flags = CoverageFlags(use_assumption1=True)
        gamma = 10.0 ** (cfg.gamma_th_db / 10.0)
        cov = coverage(AssociationModel.UNIFORM, gamma, flags, cfg)
        val = ase(AssociationModel.UNIFORM, gamma, flags, cfg)
        assert val == pytest.approx(ase_from_coverage(cfg, gamma, cov), rel=1e-12)


class TestOptimizeMeanActive:
    def test_constant_coverage_pushes_to_cluster_size(self, cfg):
        small = replace(cfg, cluster_tx_count=12, mean_active=5.0)
        s_opt, _ = optimize_mean_active(AssociationModel.UNIFORM, 100.0,
                                        cfg=small, coverage_fn=lambda c: 0.5)
        assert s_opt == small.cluster_tx_count

    def test_zero_coverage_ties_break_small(self, cfg):
        small = replace(cfg, cluster_tx_count=12, mean_active=5.0)
        s_opt, best = optimize_mean_active(AssociationModel.UNIFORM, 100.0,
                                           cfg=small, coverage_fn=lambda c: 0.0)
        assert s_opt == 1
        assert best == 0.0
