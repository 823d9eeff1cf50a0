"""Analytical-engine tests: kernels, Laplace transforms, coverage bounds."""

import math
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from mmwcluster import analytical
from mmwcluster._quadrature import relative_template
from mmwcluster.analytical import (
    CoverageFlags,
    ase,
    ase_from_coverage,
    coverage,
    coverage_grid,
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
from mmwcluster.model import (
    AssociationModel,
    interferer_distance_pdf,
    serving_distance_pdf_approx,
)
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

    @pytest.mark.parametrize("kernel", [kernel_los, kernel_nlos])
    @pytest.mark.parametrize("s, r, message", [
        (math.nan, 5.0, "s must be finite"),
        (math.inf, 5.0, "s must be finite"),
        (1.0, math.nan, "r must be finite and > 0"),
        (1.0, [5.0, math.inf], "r must be finite and > 0"),
    ])
    def test_rejects_non_finite_arguments(self, cfg, kernel, s, r, message):
        with pytest.raises(ValueError, match=message):
            kernel(s, r, 1, cfg.gain_table(), cfg.channel)

    def test_rejects_large_fading_shape(self, cfg):
        bad = replace(cfg, channel=replace(cfg.channel, nakagami_los=11))
        with pytest.raises(UsageError):
            kernel_los(1.0, 5.0, 1, bad.gain_table(), bad.channel)
        with pytest.raises(UsageError):
            laplace_inter(1, 1.0, bad)
        with pytest.raises(UsageError):
            laplace_intra(AssociationModel.UNIFORM, 1, 1.0, 5.0, cfg=bad)


class TestLinkMean:
    """The kernel of one gain outcome, 1 - (1 + y)^(-N), against exact rational
    arithmetic on the float y, rounded once."""

    # y^N overflows at the top values for every N > 1
    YS = np.concatenate([[0.0], np.geomspace(1e-20, 1e20, 401),
                         [1e200, 1e300, np.finfo(float).max]])

    @pytest.mark.parametrize("shape", range(1, 11))
    def test_matches_exact_rational(self, shape):
        ys = self.YS
        out, y, q = np.empty(ys.shape), np.empty(ys.shape), np.empty(ys.shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # a single outcome of gain N and probability 1 makes y exactly ys
            analytical._link_mean(ys, np.array([float(shape)]), np.array([1.0]), shape,
                                  out, y, q)
        ref = np.array([float(1 - 1 / (1 + Fraction(v)) ** shape) for v in ys])
        assert not np.any(np.isnan(out))
        assert out[0] == ref[0] == 0.0
        # Horner's last add and multiply, 1 + q and the divide round once each,
        # by at most eps / 2 relative apiece at small y
        assert np.max(np.abs(out[1:] - ref[1:]) / ref[1:]) <= 2.0 * np.finfo(float).eps


def _allocating_kernel(t, w, cfg, include_los=True, include_nlos=True,
                       blockage_weights=True):
    """(Q + Z)(t, w) as plain allocating numpy expressions, in the operation
    and operand order of the engine's in-place kernel."""
    ch = cfg.channel
    gains, probs = cfg.gain_table().as_arrays()

    def link_mean(ell, shape):
        # 1 - (1 + y)^(-N) = q / (1 + q), q = (1 + y)^N - 1 by Horner's rule
        acc = 0.0
        for a_i, b_i in zip(gains, probs):
            y = np.minimum(t * ell * (a_i / shape), 2.0 ** (1000.0 / shape) - 1.0)
            q = y
            for k in range(shape - 1, 0, -1):
                q = (q + math.comb(shape, k)) * y
            acc = acc + q / (q + 1.0) * b_i
        return acc

    p_los = np.exp(-ch.blockage_rate * w)
    out = 0.0
    if include_los:
        bra = link_mean(ch.intercept_los * w ** (-ch.alpha_los), ch.nakagami_los)
        out = out + (bra * p_los if blockage_weights else bra)
    if include_nlos:
        bra = link_mean(ch.intercept_nlos * w ** (-ch.alpha_nlos), ch.nakagami_nlos)
        out = out + (bra * (1.0 - p_los) if blockage_weights else bra)
    return out


def _allocating_intra_exponent(model, t, v, r, flags, cfg, w_rule):
    """J of ``analytical._intra_exponent`` as one einsum over the whole
    freshly built kernel tensor of each distance law."""
    sigma = cfg.scatter_std
    t_w = np.asarray(t, dtype=float)[..., None]
    weighted = not flags.use_assumption2
    u, wt = relative_template(*w_rule)

    def integral(w, pdf, **branch):
        return np.einsum("...w,...w->...", _allocating_kernel(t_w, w, cfg, **branch), pdf)

    if flags.use_assumption1:
        hi = (analytical._TAIL_SIGMAS + 5.0) * sigma
        w = u * hi
        pdf = serving_distance_pdf_approx(AssociationModel.UNIFORM, w, cfg) * wt * hi
        return integral(w, pdf, include_nlos=weighted, blockage_weights=weighted)
    v_w = np.asarray(v, dtype=float)[..., None]
    hi = v_w + analytical._TAIL_SIGMAS * sigma
    w = hi * u
    if model is AssociationModel.UNIFORM:
        pdf = interferer_distance_pdf(model, w, v_w, None, cfg) * (hi * wt)
        return integral(w, pdf, include_nlos=weighted, blockage_weights=weighted)
    r_w = np.asarray(r, dtype=float)[..., None]
    u2, wt2 = relative_template(analytical._W2_FRACS, analytical._W2_ORDER)
    span = np.maximum(hi - r_w, sigma * 1e-9)
    w2 = r_w + span * u2
    pdf2 = interferer_distance_pdf(model, w2, v_w, r_w, cfg) * span * wt2
    if model is AssociationModel.CLOSEST:
        return integral(w2, pdf2)
    pdf = interferer_distance_pdf(model, w, v_w, None, cfg, interferer_is_los=False) * (hi * wt)
    return integral(w2, pdf2, include_nlos=False) + integral(w, pdf, include_los=False)


class TestKernelWorkspace:
    """The kernel runs in place in a reused workspace and the intra-cluster
    integral one branch at a time; every number must equal, bit for bit,
    the allocating evaluation over the whole tensor."""

    CASES = [
        (AssociationModel.UNIFORM, CoverageFlags()),
        (AssociationModel.CLOSEST, CoverageFlags()),
        (AssociationModel.CLOSEST_LOS, CoverageFlags()),
        (AssociationModel.CLOSEST, CoverageFlags(use_assumption1=True)),
        (AssociationModel.UNIFORM, CoverageFlags(use_assumption2=True)),
    ]

    @pytest.mark.parametrize("model, flags", CASES)
    def test_coverage_chunk_exponent_bit_identical(self, cfg, model, flags):
        # one v-chunk of the exact bound: t over (branch, v node, r node)
        c = replace(cfg, scatter_std=10.0, mean_active=3.0)
        sigma = c.scatter_std
        if flags.use_assumption1:
            v = np.zeros((1, 1))
            r_hi = (analytical._TAIL_SIGMAS + 5.0) * sigma
            w_rule = (analytical._R_FRACS, analytical._R_ORDER)
        else:
            v = np.array([[0.3], [4.0], [11.0], [26.0]])
            r_hi = v + analytical._TAIL_SIGMAS * sigma
            w_rule = (analytical._W_FRACS, analytical._W_ORDER)
        u_r, _ = relative_template(analytical._R_FRACS, analytical._R_ORDER)
        r = r_hi * u_r
        _, t_coefs, alphas, _ = analytical._branches(
            10.0, c, not flags.use_assumption2 and model is not AssociationModel.CLOSEST_LOS)
        t = t_coefs * r ** alphas
        mine = analytical._intra_exponent(
            analytical._intra_laws(model, v, r, flags, c, w_rule), t, c, analytical._Workspace())
        ref = _allocating_intra_exponent(model, t, v, r, flags, c, w_rule)
        assert mine.shape == ref.shape == t.shape
        assert np.array_equal(mine, ref)

    @pytest.mark.parametrize("model", list(AssociationModel))
    def test_scalar_exponent_bit_identical(self, cfg, model):
        # the laplace_intra path: scalar t, v and serving distance
        w_rule = (analytical._R_FRACS, analytical._R_ORDER)
        for t in (1e-3, 0.3, 7.0):
            laws = analytical._intra_laws(model, 9.0, 3.0, CoverageFlags(), cfg, w_rule)
            mine = analytical._intra_exponent(laws, t, cfg, analytical._Workspace())
            ref = _allocating_intra_exponent(model, t, 9.0, 3.0, CoverageFlags(), cfg, w_rule)
            assert mine == ref

    def test_public_kernels_bit_identical(self, cfg):
        table = cfg.gain_table()
        rs = np.linspace(0.5, 80.0, 37)
        s = np.array([[0.1], [3.0]])
        assert np.array_equal(kernel_los(s, rs, 2, table, cfg.channel),
                              _allocating_kernel(2 * s, rs, cfg, include_nlos=False))
        assert np.array_equal(kernel_nlos(s, rs, 2, table, cfg.channel),
                              _allocating_kernel(2 * s, rs, cfg, include_los=False))
        assert kernel_los(0.7, 4.0, 1, table, cfg.channel) \
            == _allocating_kernel(0.7, 4.0, cfg, include_nlos=False)

    @pytest.mark.parametrize("model", list(AssociationModel))
    def test_exact_coverage_memory_peak(self, cfg, model):
        # one exact call traces 3.1 / 4.4 / 5.4 MB (uniform / closest /
        # closest_los; 4.0 MB for closest_los once its LOS-weighted serving
        # CDFs are cached); the bound leaves room for that but not for whole
        # kernel tensors allocated per v-chunk (11-15 MB), nor for the
        # distance laws of two v-chunks alive at once
        c = replace(cfg, scatter_std=10.0, mean_active=3.0)
        analytical._geometry_table(c)
        tracemalloc.start()
        try:
            coverage(model, 10.0, cfg=c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6e6


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
            assert table.exponent(t, table._fit(load)) == pytest.approx(direct, rel=3e-5, abs=0.0)

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
            return analytical._coverage_raw(AssociationModel.UNIFORM, (g,), flags, c, (s,))[0][0]

        base = bound(gamma, load)
        assert -1e-9 <= base <= 1.0 + 1e-9
        assert bound(stricter, load) <= base + 1e-9, "must not increase with threshold"
        assert bound(gamma, heavier) <= base + 1e-9, "must not increase with load"


class TestCoverage:
    # coverage at 0 dB, scatter 20 m, load 5 (exact, approx, assumption 2);
    # pinned values of the whole bound, so that a changed quadrature constant,
    # panel rule or distance law shows
    RECORDED = [
        (AssociationModel.UNIFORM, CoverageFlags(), 0.3354238126274668),
        (AssociationModel.CLOSEST, CoverageFlags(), 0.9389628825392727),
        (AssociationModel.CLOSEST_LOS, CoverageFlags(), 0.9898378392241644),
        (AssociationModel.UNIFORM, CoverageFlags(use_assumption1=True), 0.3390699019923585),
        (AssociationModel.CLOSEST, CoverageFlags(use_assumption1=True), 0.9587565214182381),
        (AssociationModel.CLOSEST_LOS, CoverageFlags(use_assumption1=True),
         0.9917598537197911),
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


class TestCoverageGrid:
    """One pass over the v-chunks evaluates a whole threshold-by-load grid;
    every cell must equal, bit for bit, the lone coverage call."""

    CASES = [(model, CoverageFlags(use_assumption1=a1))
             for model in AssociationModel for a1 in (False, True)] \
        + [(AssociationModel.UNIFORM, CoverageFlags(use_assumption2=True))]

    @pytest.mark.parametrize("model, flags", CASES)
    def test_grid_equals_lone_calls(self, cfg, model, flags):
        c = replace(cfg, scatter_std=10.0, mean_active=3.0)
        gammas, loads = (1.0, 10.0, 100.0), (1.0, 2.5, 6.0)
        grid = coverage_grid(model, gammas, loads, flags, c)
        assert grid == [[coverage(model, g, flags, c.with_mean_active(s)) for s in loads]
                        for g in gammas]

    def test_thresholds_share_the_distance_laws(self, cfg, monkeypatch):
        # a 5-threshold exact nearest-model grid builds the truncated
        # interferer law once per v-chunk, not once per chunk and threshold
        calls = []
        law = analytical.interferer_distance_pdf

        def counted(*args, **kwargs):
            calls.append(args[0])
            return law(*args, **kwargs)

        monkeypatch.setattr(analytical, "interferer_distance_pdf", counted)
        c = replace(cfg, scatter_std=10.0, mean_active=3.0)
        coverage_grid(AssociationModel.CLOSEST, (1.0, 3.0, 10.0, 30.0, 100.0), (3.0,),
                      CoverageFlags(), c)
        v_nodes = (len(analytical._V_EDGE_SIGMAS) - 1) * analytical._V_ORDER
        assert len(calls) == math.ceil(v_nodes / analytical._V_CHUNK)


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

    SCAN_CASES = [(model, CoverageFlags(use_assumption1=a1))
                  for model in AssociationModel for a1 in (False, True)] \
        + [(AssociationModel.UNIFORM, CoverageFlags(use_assumption2=True))]

    @pytest.mark.parametrize("model, flags", SCAN_CASES)
    def test_scan_equals_per_load_coverage(self, cfg, model, flags):
        # the one-pass scan gives, bit for bit, the scan of lone coverage calls
        small = replace(cfg, cluster_tx_count=8, mean_active=1.0)
        for gamma in (1.0, 100.0):
            per_load = optimize_mean_active(
                model, gamma, flags, small,
                coverage_fn=lambda c: coverage(model, gamma, flags, c))
            assert optimize_mean_active(model, gamma, flags, small) == per_load

    def test_scan_evaluates_intra_exponent_once(self, cfg, monkeypatch):
        calls = []
        intra = analytical._intra_exponent

        def counted(*args):
            calls.append(args)
            return intra(*args)

        monkeypatch.setattr(analytical, "_intra_exponent", counted)
        small = replace(cfg, cluster_tx_count=12, mean_active=1.0)
        optimize_mean_active(AssociationModel.UNIFORM, 100.0,
                             CoverageFlags(use_assumption1=True), small)
        assert len(calls) == 1

    def test_scan_fits_each_load_once(self, cfg, monkeypatch):
        # loads outside the v-chunks: a chunk-outer order would refit every
        # load per chunk once the loads outnumber the 64 cached fits
        fits = []
        fit_load = analytical._InterTable._fit_load

        def counted(table, load):
            fits.append(load)
            return fit_load(table, load)

        monkeypatch.setattr(analytical._InterTable, "_fit_load", counted)
        analytical._inter_table.cache_clear()
        large = replace(cfg, cluster_tx_count=70, mean_active=1.0)
        optimize_mean_active(AssociationModel.UNIFORM, 100.0, CoverageFlags(), large)
        assert sorted(fits) == [float(s) for s in range(1, 71)]
