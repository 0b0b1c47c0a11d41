import math
import threading
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import chdtrc, gammaln
from scipy.stats import chi2 as chi2_dist
from scipy.stats import ks_2samp, kstest

from resodyn import (
    EnsembleConfig,
    TruncationWarning,
    compare_histogram,
    large_m_limit_pf,
    phi_goe,
    phi_goe_cdf,
    phi_pf,
    phi_pf_cdf,
    picket_fence_spectrum,
    sample_couplings,
    sample_goe,
    sample_velocities_direct,
    sample_velocities_representation,
    substream,
    velocity_cdf,
    velocity_pdf,
    weak_coupling_width_velocity,
)
from resodyn import statistics
from resodyn.statistics import (
    SINGULAR_Y,
    _goe_tridiagonal,
    _window_offsets,
    singular_points,
)


def pf_config(m=1, realizations=200, window=25, seed=7, route="direct", n=250):
    return EnsembleConfig(
        n_levels=n, n_channels=m, realizations=realizations, central_window=window,
        seed=seed, model="picket-fence", route=route,
    )


def goe_representation_config(realizations=30, seed=17):
    """Large enough (N=120) for the GOE representation route to use threads."""
    return EnsembleConfig(
        n_levels=120, n_channels=2, realizations=realizations, central_window=25,
        seed=seed, model="goe", route="representation",
    )


def goe_direct_config(realizations=40, seed=5):
    return EnsembleConfig(
        n_levels=120, n_channels=2, realizations=realizations, central_window=25,
        seed=seed, model="goe", route="direct",
    )


def _replay_direct_realization(cfg, r):
    """Realization r of the direct route from its substream, level by level
    through the reference formula: (H if GOE,) then A, then x."""
    n, m, gamma_bar = cfg.n_levels, cfg.n_channels, statistics.WEAK_COUPLING_GAMMA
    gen = substream(cfg.seed, r)
    if cfg.is_rigid:
        levels, basis = picket_fence_spectrum(n), np.eye(n)
    else:
        levels, basis = np.linalg.eigh(sample_goe(n, gen))
    a = math.sqrt(gamma_bar) * gen.standard_normal((n, m))
    x = gen.standard_normal((n, n))
    pert = (x + x.T) / math.sqrt(2.0)
    scale = n / (2.0 * math.pi) / (gamma_bar * math.sqrt(float(np.sum(pert * pert))))
    idx = np.sort(np.argsort(np.abs(levels), kind="stable")[:cfg.central_window])
    return np.array(
        [scale * weak_coupling_width_velocity(levels, basis, a, pert, k) for k in idx]
    )


class TestEnsembles:
    def test_goe_sample_is_symmetric(self, rng):
        h = sample_goe(40, rng)
        np.testing.assert_array_equal(h, h.T)

    def test_goe_center_density_matches_normalization(self, rng):
        # with unit central spacing, |E| < w should hold ~2w levels
        n, w, hits = 250, 10.0, 0
        for _ in range(100):
            levels = np.linalg.eigvalsh(sample_goe(n, rng))
            hits += np.count_nonzero(np.abs(levels) < w)
        assert abs(hits / 100 / (2 * w) - 1.0) <= 0.05

    # the 20 gaps between the 21 levels around index (250 - 1) // 2: gaps
    # picked by a fixed energy window are biased short, since the ones
    # straddling its edges are the size-biased long ones
    CENTRAL = slice(114, 135)

    def test_goe_center_spacing(self, rng):
        gaps = [
            np.diff(np.linalg.eigvalsh(sample_goe(250, rng))[self.CENTRAL])
            for _ in range(100)
        ]
        assert abs(np.mean(gaps) - 1.0) <= 0.02

    def test_tridiagonal_center_spacing(self):
        # same normalization as the dense matrix: the mean central gap is 1
        gaps = [
            np.diff(eigvalsh_tridiagonal(
                *_goe_tridiagonal(250, substream(31, r)))[self.CENTRAL])
            for r in range(100)
        ]
        assert abs(np.mean(gaps) - 1.0) <= 0.02

    def test_tridiagonal_spacings_match_dense_goe(self, rng):
        # central nearest-neighbour spacings of the tridiagonal model and of
        # the dense matrix follow one law
        tri = np.concatenate([
            np.diff(eigvalsh_tridiagonal(
                *_goe_tridiagonal(250, substream(32, r)))[self.CENTRAL])
            for r in range(300)
        ])
        dense = np.concatenate([
            np.diff(np.linalg.eigvalsh(sample_goe(250, rng))[self.CENTRAL])
            for _ in range(300)
        ])
        assert ks_2samp(tri, dense).pvalue >= 0.01

    def test_picket_fence_small(self):
        np.testing.assert_array_equal(picket_fence_spectrum(3), [-1.0, 0.0, 1.0])

    def test_picket_fence_zero_level_convention(self):
        odd = picket_fence_spectrum(251)
        even = picket_fence_spectrum(250)
        assert np.count_nonzero(odd == 0.0) == 1
        assert np.count_nonzero(even == 0.0) == 0
        np.testing.assert_allclose(np.diff(even), 1.0, rtol=0, atol=0)

    def test_couplings_are_scaled_normals(self):
        got = sample_couplings(300, 3, 0.37, np.random.default_rng(4))
        expected = math.sqrt(0.37) * np.random.default_rng(4).standard_normal((300, 3))
        assert np.all(got == expected)

    def test_coupling_variance_and_widths(self, rng):
        gamma_bar = 0.7
        a = sample_couplings(250000, 4, gamma_bar, rng)
        se = gamma_bar * math.sqrt(2.0 / a.size)
        assert abs(a.var() - gamma_bar) <= 3 * se
        widths = (a**2).sum(axis=1)
        width_se = gamma_bar * math.sqrt(8.0 / a.shape[0])
        assert abs(widths.mean() - 4 * gamma_bar) <= 3 * width_se

    def test_rescaled_widths_are_porter_thomas(self, rng):
        m, gamma_bar = 3, 0.2
        a = sample_couplings(100000, m, gamma_bar, rng)
        kappa = (a**2).sum(axis=1) / gamma_bar
        assert kstest(kappa, chi2_dist(df=m).cdf).pvalue >= 0.01


class TestKernels:
    def test_spot_values_exact(self):
        assert phi_goe(0.0) == 2.0 / 3.0
        assert phi_pf(0.0) == math.pi / 4.0

    def test_normalization(self):
        for kernel in (phi_goe, phi_pf):
            val, _ = integrate.quad(kernel, -np.inf, np.inf, epsabs=1e-13, epsrel=1e-12)
            assert abs(val - 1.0) <= 1e-10

    def test_cdfs_match_quadrature(self):
        for kernel, cdf in ((phi_goe, phi_goe_cdf), (phi_pf, phi_pf_cdf)):
            for y in (-2.0, -0.3, 0.0, 1.7):
                val, _ = integrate.quad(kernel, -np.inf, y, epsabs=1e-13, epsrel=1e-12)
                assert abs(val - cdf(y)) <= 1e-10

    def test_goe_tail_is_cubic(self):
        y = np.geomspace(50, 500, 9)
        np.testing.assert_allclose(phi_goe(y) * 6 * y**3, 1.0, rtol=2e-3)

    def test_pf_kernel_huge_argument_is_finite(self):
        # cosh(pi y) overflows beyond y ~ 700/pi; the stable form keeps
        # returning finite values down to the true underflow of the density
        assert phi_pf(223.0) > 0.0
        assert phi_pf(1e6) == 0.0

    def test_goe_kernel_huge_argument_is_finite(self):
        # (1 + y^2)^(5/2) overflows beyond y ~ 1e61 and y^2 beyond 1e154;
        # the stable form follows the |y|^-3 tail down to its underflow
        assert phi_goe(1e100) == pytest.approx(1.0 / 6e300, rel=1e-14)
        assert phi_goe(1e200) == 0.0
        assert phi_goe(-1e200) == 0.0
        assert velocity_pdf(1e200, 2, "goe") == 0.0

    def test_pf_fourier_transform(self):
        def rigidity_product(w):
            return w / math.sinh(w) if w != 0.0 else 1.0

        for y in (-3.0, 0.0, 0.7, 4.5):
            val, _ = integrate.quad(rigidity_product, 0, 60, weight="cos", wvar=y,
                                    epsabs=1e-13, epsrel=1e-12, limit=400)
            assert abs(val / math.pi - phi_pf(y)) <= 1e-8


class TestVelocityDistribution:
    @pytest.mark.parametrize("model", ["pf", "goe"])
    @pytest.mark.parametrize("m", [2, 5, 10])
    def test_normalization(self, m, model):
        half, _ = integrate.quad(lambda y: velocity_pdf(y, m, model), 0, np.inf,
                                 epsabs=1e-10, epsrel=1e-9, limit=300)
        assert abs(2 * half - 1.0) <= 1e-6

    @pytest.mark.parametrize("m", [1, 2, 5, 10])
    def test_rigid_second_moment(self, m):
        half, _ = integrate.quad(lambda y: y * y * velocity_pdf(y, m, "pf"), 0, np.inf,
                                 epsabs=1e-10, epsrel=1e-9, limit=300)
        assert abs(2 * half - m / 3.0) <= 1e-6

    def test_single_channel_singularity_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            velocity_pdf(0.0, 1, "pf")
        velocity_pdf(0.0, 2, "pf")  # regular for two channels

    def test_goe_tail_exponent(self):
        ys = np.geomspace(50, 500, 9)
        for m in (2, 10):
            slope = np.polyfit(np.log(ys), np.log(velocity_pdf(ys, m, "goe")), 1)[0]
            assert abs(slope + 3.0) <= 0.05

    def test_symmetry(self):
        for model in ("pf", "goe"):
            ys = np.array([0.3, 1.1, 4.0])
            np.testing.assert_allclose(
                velocity_pdf(ys, 5, model), velocity_pdf(-ys, 5, model), rtol=1e-9
            )

    def test_cdf_limits_and_monotonicity(self):
        grid = np.linspace(-15, 15, 31)
        vals = velocity_cdf(grid, 2, "pf")
        assert np.all(np.diff(vals) > 0)
        assert vals[0] <= 1e-6 and abs(vals[-1] - 1.0) <= 1e-6
        assert abs(velocity_cdf(0.0, 2, "pf") - 0.5) <= 1e-10
        # cdf integrates the density: spot-check at an interior point
        half, _ = integrate.quad(lambda y: velocity_pdf(y, 2, "pf"), 0.0, 1.3,
                                 epsabs=1e-12, epsrel=1e-10)
        assert abs(velocity_cdf(1.3, 2, "pf") - (0.5 + half)) <= 1e-9


def adaptive_mixture(y, m, kernel, weight_power, epsabs, epsrel):
    """Independent adaptive evaluation of the chi-square mixtures of
    velocity_pdf (weight_power m-2) and velocity_cdf (m-1) by scipy quad.

    The integral over t (kappa = t^2) is split at the kernel's switch
    t = |y|, and also at t = 1 for 0 < |y| < 1: without that cut the 1/t
    integrand of the single-channel density over the ten decades above
    |y| = 1e-10 misses the requested tolerance by up to a factor of nine.
    """
    log_norm = -0.5 * m * math.log(2.0) - gammaln(0.5 * m)

    def integrand(t):
        if t <= 0.0:
            return 0.0
        log_w = weight_power * math.log(t) - 0.5 * t * t + log_norm
        return 2.0 * math.exp(log_w) * kernel(y / t)

    split = abs(y)
    if 0.0 < split < 1.0:
        cuts = [0.0, split, 1.0, np.inf]
    elif 0.0 < split < 10.0:
        cuts = [0.0, split, np.inf]
    else:
        cuts = [0.0, np.inf]
    return sum(
        integrate.quad(integrand, a, b, epsabs=epsabs, epsrel=epsrel, limit=200)[0]
        for a, b in zip(cuts[:-1], cuts[1:])
    )


class TestMixtureRuleOracle:
    """The fixed trapezoid rule of velocity_pdf/velocity_cdf against the
    adaptive reference, from the singular edge out to the far tails."""

    @pytest.mark.parametrize("model", ["pf", "goe"])
    @pytest.mark.parametrize("m", [1, 2, 5, 10])
    def test_matches_adaptive_quadrature(self, m, model):
        kernel, kernel_cdf = {"pf": (phi_pf, phi_pf_cdf), "goe": (phi_goe, phi_goe_cdf)}[model]
        half = [1e-10] if m == 1 else []
        half += [0.01, 1.0, 10.0, 50.0, 500.0]
        ys = np.array(([] if m == 1 else [0.0]) + half + [-y for y in half])
        pdf = velocity_pdf(ys, m, model)
        cdf = velocity_cdf(ys, m, model)
        for y, p, c in zip(ys, pdf, cdf):
            ref = adaptive_mixture(y, m, kernel, m - 2, epsabs=0.0, epsrel=1e-10)
            assert abs(p - ref) <= 1e-10 * ref, (y, p, ref)
            ref_cdf = adaptive_mixture(y, m, kernel_cdf, m - 1, epsabs=1e-14, epsrel=1e-12)
            assert abs(c - ref_cdf) <= 1e-12, (y, c, ref_cdf)

    @pytest.mark.parametrize("model", ["pf", "goe"])
    def test_lgamma_normalization_matches_gammaln(self, model, monkeypatch):
        # the rule takes log Gamma(m/2) from math.lgamma, which keeps scipy
        # off the import; scipy's gammaln gives the same curve to the bit at
        # M=2 and to the last bits elsewhere
        ys = np.array([-50.0, -1.0, -0.01, 0.01, 0.3, 1.0, 10.0, 70.0, 500.0])
        ms = (1, 2, 5, 10, 4999)
        ours = {m: (velocity_pdf(ys, m, model), velocity_cdf(ys, m, model)) for m in ms}
        monkeypatch.setattr(math, "lgamma", lambda x: float(gammaln(x)))
        for m in ms:
            pdf, cdf = velocity_pdf(ys, m, model), velocity_cdf(ys, m, model)
            if m == 2:
                assert np.array_equal(ours[m][0], pdf) and np.array_equal(ours[m][1], cdf)
            else:
                np.testing.assert_allclose(ours[m][0], pdf, rtol=1e-14, atol=0.0)
                np.testing.assert_allclose(ours[m][1], cdf, rtol=1e-14, atol=0.0)

    def test_scalar_in_float_out(self):
        grid = velocity_pdf(np.array([0.3, 2.0]), 2, "goe")
        assert isinstance(velocity_pdf(2.0, 2, "goe"), float)
        assert velocity_pdf(2.0, 2, "goe") == pytest.approx(grid[1], rel=1e-14)
        assert isinstance(velocity_cdf(0.3, 2, "goe"), float)

    def test_singular_threshold(self):
        ys = np.array([-SINGULAR_Y / 2, 0.0, SINGULAR_Y, 1.0])
        np.testing.assert_array_equal(singular_points(ys, 1), [True, True, False, False])
        assert not singular_points(ys, 2).any()
        with pytest.raises(ValueError, match="singular"):
            velocity_pdf(1e-11, 1, "pf")
        assert velocity_pdf(SINGULAR_Y, 1, "pf") > 0.0

    def test_huge_channel_count_refused(self):
        assert statistics.MAX_CHANNELS == 5000
        assert velocity_cdf(0.0, 5000, "pf") == pytest.approx(0.5, abs=1e-11)
        assert velocity_pdf(1.0, 5000, "goe") > 0.0
        for m in (5001, 10000):
            for fn in (velocity_pdf, velocity_cdf):
                with pytest.raises(ValueError, match="too large"):
                    fn(1.0, m, "pf")


class TestLargeChannelLimit:
    def test_single_channel_is_the_kernel(self):
        y = np.linspace(-3, 3, 13)
        np.testing.assert_array_equal(large_m_limit_pf(y, 1), phi_pf(y))

    def test_normalization(self):
        for m in (2, 10, 50):
            val, _ = integrate.quad(lambda y: large_m_limit_pf(y, m), -np.inf, np.inf,
                                    epsabs=1e-13, epsrel=1e-12)
            assert abs(val - 1.0) <= 1e-10

    def test_sup_distance_decreases(self):
        grid = np.linspace(0.05, 8, 160)
        last = None
        for m in (2, 5, 10, 50):
            scaled = grid * math.sqrt(m)
            dist = math.sqrt(m) * np.abs(
                velocity_pdf(scaled, m, "pf") - large_m_limit_pf(scaled, m)
            ).max()
            if last is not None:
                assert dist < last
            last = dist


class TestRepresentationRoute:
    def test_reproduces_documented_stream_layout(self):
        # one realization = (kappa, z, v) from the keyed substream; the
        # sample is sqrt(kappa)/pi * sum z v / (E_ref - E_m)
        cfg = pf_config(m=3, realizations=5, window=25, seed=123, route="representation")
        got = sample_velocities_representation(cfg).values
        offsets = _window_offsets(25)
        for r in range(5):
            gen = substream(123, r)
            kappa = gen.chisquare(3)
            z = gen.standard_normal(24)
            v = gen.standard_normal(24)
            expected = math.sqrt(kappa) / math.pi * np.sum(z * v / (-offsets))
            assert got[r] == expected

    def test_reproduces_documented_goe_stream_layout(self):
        # GOE realization = (kappa, diagonal, off-diagonal, z, v); the
        # reference is the level of index (n - 1) // 2 of the tridiagonal
        # beta = 1 spectrum
        n, window = 40, 9
        cfg = EnsembleConfig(
            n_levels=n, n_channels=2, realizations=5, central_window=window,
            seed=321, model="goe", route="representation",
        )
        with pytest.warns(TruncationWarning):
            got = sample_velocities_representation(cfg).values
        sigma = math.sqrt(n) / math.pi
        ref = (n - 1) // 2
        for r in range(5):
            gen = substream(321, r)
            kappa = gen.chisquare(2)
            d = sigma * math.sqrt(2.0) * gen.standard_normal(n)
            e = sigma * np.sqrt(gen.chisquare(np.arange(n - 1, 0, -1)))
            z = gen.standard_normal(window - 1)
            v = gen.standard_normal(window - 1)
            levels = eigvalsh_tridiagonal(d, e, lapack_driver="sterf", check_finite=False)
            denom = levels[ref] - levels[ref + _window_offsets(window)]
            expected = math.sqrt(kappa) / math.pi * float(np.sum(z * v / denom))
            assert got[r] == expected

    def test_goe_reference_gaps_are_not_size_biased(self):
        # the gaps next to the fixed-index reference have mean 1;
        # the level nearest zero would sit next to gaps about 10% wider
        n = 250
        ref = (n - 1) // 2
        sterf = statistics._gil_free_sterf()
        gaps = np.empty(4000)
        for r in range(gaps.size):
            levels = sterf(*_goe_tridiagonal(n, substream(2024, r)))
            gaps[r] = 0.5 * (levels[ref + 1] - levels[ref - 1])
        se = gaps.std() / math.sqrt(gaps.size)
        assert abs(gaps.mean() - 1.0) <= 3 * se

    def test_truncated_variance(self):
        cfg = pf_config(m=1, realizations=20000, window=25, seed=7, route="representation")
        samples = sample_velocities_representation(cfg)
        moment, se = samples.second_moment()
        target = (1.0 - samples.truncation_deficit) / 3.0
        assert abs(moment - target) <= 3 * se
        assert 0.04 <= samples.truncation_deficit <= 0.06

    def test_mean_is_zero_and_skewness_vanishes(self):
        # the distribution is symmetric, so the first and third moments are
        # zero; error bars use the empirical moment scatter (the Gaussian
        # sqrt(6/n) skewness bar is far too tight for leptokurtic samples)
        cfg = pf_config(m=2, realizations=20000, window=25, seed=11, route="representation")
        samples = sample_velocities_representation(cfg)
        y = samples.values
        root_n = math.sqrt(samples.n_samples)
        assert abs(y.mean()) <= 3 * y.std() / root_n
        assert abs((y**3).mean()) <= 3 * (y**3).std() / root_n

    def test_small_window_warns_with_deficit_estimate(self):
        cfg = pf_config(m=1, realizations=10, window=11, seed=1, route="representation")
        with pytest.warns(TruncationWarning, match="variance deficit"):
            samples = sample_velocities_representation(cfg)
        assert samples.truncation_deficit > 0.05

    def test_goe_spectrum_route(self):
        cfg = EnsembleConfig(
            n_levels=60, n_channels=2, realizations=300, central_window=9,
            seed=5, model="goe", route="representation",
        )
        with pytest.warns(TruncationWarning):
            samples = sample_velocities_representation(cfg)
        assert samples.n_samples == 300
        assert np.isfinite(samples.values).all()

    @pytest.mark.parametrize("n", [30, 31])
    def test_goe_window_may_span_the_spectrum(self, n):
        cfg = EnsembleConfig(
            n_levels=n, n_channels=1, realizations=20, central_window=n,
            seed=4, model="goe", route="representation",
        )
        samples = sample_velocities_representation(cfg)
        assert samples.n_samples == 20
        assert np.isfinite(samples.values).all()

    def test_route_mismatch_rejected(self):
        with pytest.raises(ValueError, match="route"):
            sample_velocities_representation(pf_config(route="direct"))

    @pytest.mark.parametrize("model", ["goe", "pf"])
    def test_workers_do_not_change_the_samples(self, model, monkeypatch):
        cfg = replace(goe_representation_config(), model=model)
        runs = {w: sample_velocities_representation(cfg, workers=w) for w in (1, 2, 3)}
        # the same route with scipy's own tridiagonal solver
        monkeypatch.setattr(
            statistics, "_gil_free_sterf",
            lambda: partial(eigvalsh_tridiagonal, lapack_driver="sterf", check_finite=False),
        )
        reference = sample_velocities_representation(cfg)
        for run in runs.values():
            assert run.values.tobytes() == reference.values.tobytes()
        threaded = runs[3].runtime
        if model == "goe":
            assert (threaded["workers"], threaded["reason"]) == (3, None)
        else:  # no GIL-free work to overlap
            assert (threaded["workers"], threaded["reason"]) == (
                1, "realization too small for threads")

    def test_serial_without_the_gil_free_sterf(self, monkeypatch):
        cfg = goe_representation_config()
        threaded = sample_velocities_representation(cfg, workers=2)

        def unavailable():
            raise ImportError("no cython_lapack")

        monkeypatch.setattr(statistics, "_gil_free_sterf", unavailable)
        callers = set()
        draw = statistics.substream

        def spy(*args):
            callers.add(threading.get_ident())
            return draw(*args)

        monkeypatch.setattr(statistics, "substream", spy)
        fallback = sample_velocities_representation(cfg, workers=2)
        assert callers == {threading.get_ident()}
        assert fallback.values.tobytes() == threaded.values.tobytes()
        assert fallback.runtime["workers"] == 1
        assert fallback.runtime["reason"] == "no GIL-free LAPACK sterf: no cython_lapack"


@pytest.fixture
def fresh_sterf():
    """The cached ctypes sterf binding, rebuilt for the test and after it."""
    statistics._gil_free_sterf.cache_clear()
    yield
    statistics._gil_free_sterf.cache_clear()


class TestGilFreeSterf:
    def test_matches_scipy_dsterf_bit_for_bit(self):
        from scipy.linalg.lapack import dsterf

        sterf = statistics._gil_free_sterf()
        rng = np.random.default_rng(2025)
        for n in (2, 3, 17, 250):
            for _ in range(25):
                d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
                expected, info = dsterf(d, e)
                assert info == 0
                assert sterf(d.copy(), e.copy()).tobytes() == expected.tobytes()

    def test_failure_raises(self):
        # dsterf reports a NaN input as a failure to converge (info > 0)
        with pytest.raises(np.linalg.LinAlgError, match="info=2"):
            statistics._gil_free_sterf()(np.array([np.nan, 1.0, 2.0]), np.array([1.0, np.nan]))

    @pytest.mark.parametrize("diag, off", [
        (np.ones(3), np.ones(3)),  # off too long
        (np.ones(3, dtype=np.float32), np.ones(2, dtype=np.float32)),
        (np.ones(6)[::2], np.ones(2)),  # not contiguous
        (np.ones((3, 1)), np.ones(2)),
    ])
    def test_unsafe_buffers_refused(self, diag, off):
        with pytest.raises(ValueError, match="sterf needs"):
            statistics._gil_free_sterf()(diag, off)

    def test_wrong_signature_is_not_bound(self, fresh_sterf, monkeypatch):
        from scipy.linalg.cython_lapack import __pyx_capi__ as capi

        # single precision: the same call shape on floats
        monkeypatch.setitem(capi, "dsterf", capi["ssterf"])
        with pytest.raises(TypeError, match="unexpected dsterf signature"):
            statistics._gil_free_sterf()
        _, reason = statistics._sterf_solver()
        assert reason.startswith("no GIL-free LAPACK sterf: unexpected dsterf signature")


class TestThreadThreshold:
    @pytest.mark.parametrize("route", ["direct", "representation"])
    def test_small_realizations_run_serially(self, route):
        # pf _sample_direct at N=12 took twice as long on two threads
        cfg = pf_config(m=2, realizations=30, window=4, n=12, route=route)
        sample = (sample_velocities_direct if route == "direct"
                  else sample_velocities_representation)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            serial, asked = sample(cfg, workers=1), sample(cfg, workers=2)
        assert serial.values.tobytes() == asked.values.tobytes()
        assert (serial.runtime["workers"], serial.runtime["reason"]) == (1, None)
        assert (asked.runtime["workers"], asked.runtime["reason"]) == (
            1, "realization too small for threads")

    def test_every_route_and_model_has_a_threshold(self):
        assert set(statistics._MIN_THREADED_LEVELS) == {
            (route, kind) for route in ("direct", "representation")
            for kind in ("goe", "picket-fence")
        }


class TestDirectRoute:
    def test_same_seed_is_bit_identical(self):
        a = sample_velocities_direct(pf_config(seed=42))
        b = sample_velocities_direct(pf_config(seed=42))
        np.testing.assert_array_equal(a.values, b.values)

    def test_reproduces_documented_pf_stream_layout(self):
        # picket-fence realization = (A, x) from the keyed substream, with
        # W = (x + x.T) / sqrt(2) and the velocity rescaled by sqrt(Tr W^2)
        n, m, window, seed = 250, 2, 25, 31
        got = sample_velocities_direct(pf_config(m=m, realizations=1, seed=seed)).values
        gamma_bar = statistics.WEAK_COUPLING_GAMMA
        levels = picket_fence_spectrum(n)
        idx = np.sort(np.argsort(np.abs(levels), kind="stable")[:window])
        with np.errstate(divide="ignore"):
            inv = 1.0 / (levels[idx, None] - levels[None, :])
        inv[np.arange(window), idx] = 0.0
        gen = substream(seed, 0)
        a = math.sqrt(gamma_bar) * gen.standard_normal((n, m))
        x = gen.standard_normal((n, n))
        pert = (x + x.T) / math.sqrt(2.0)
        tr_sq = float(np.sum(pert * pert))
        gdot = 2.0 * np.sum((a[idx] @ a.T) * pert[idx] * inv, axis=1)
        expected = gdot * (n / (2.0 * math.pi) / (gamma_bar * math.sqrt(tr_sq)))
        assert got.shape == expected.shape and np.all(got == expected)

    def test_goe_stream_matches_the_weak_coupling_formula(self):
        # GOE realization = (H, A, x) from the keyed substream; each level's
        # velocity is the reference formula, rescaled as the sampler does
        n, m, window, seed = 120, 2, 15, 3
        cfg = EnsembleConfig(
            n_levels=n, n_channels=m, realizations=2, central_window=window,
            seed=seed, model="goe", route="direct",
        )
        samples = sample_velocities_direct(cfg)
        np.testing.assert_array_equal(samples.counts, [window, window])
        expected = np.concatenate(
            [_replay_direct_realization(cfg, r) for r in range(cfg.realizations)]
        )
        # relative to the largest velocity: single sums cancel to far below it
        err = np.abs(samples.values - expected).max() / np.abs(expected).max()
        assert err <= 1e-12, err

    def test_workers_do_not_change_the_stream(self):
        serial = sample_velocities_direct(pf_config(seed=9), workers=1)
        threaded = sample_velocities_direct(pf_config(seed=9), workers=4)
        np.testing.assert_array_equal(serial.values, threaded.values)

    def test_goe_workers_do_not_change_the_stream(self):
        # eigh and the matrix products run in BLAS, whose last bits depend
        # on its thread count; one BLAS thread per worker keeps them fixed
        serial = sample_velocities_direct(goe_direct_config(), workers=1)
        threaded = sample_velocities_direct(goe_direct_config(), workers=2)
        np.testing.assert_array_equal(serial.values, threaded.values)

    def test_perturbation_scale_invariance(self):
        # y divides by the realization's own Tr V^2, so rescaling the drawn
        # perturbation must cancel exactly; replay the stream and check
        from resodyn.statistics import WEAK_COUPLING_GAMMA

        cfg = pf_config(m=2, realizations=1, window=25, seed=77)
        got = sample_velocities_direct(cfg).values
        n, window = cfg.n_levels, cfg.central_window
        gen = substream(77, 0)
        gamma_bar = WEAK_COUPLING_GAMMA
        amplitudes = math.sqrt(gamma_bar) * gen.standard_normal((n, 2))
        x = gen.standard_normal((n, n))
        pert = (x + x.T) / math.sqrt(2.0)
        levels = picket_fence_spectrum(n)
        idx = np.sort(np.argsort(np.abs(levels), kind="stable")[:window])
        with np.errstate(divide="ignore"):
            inv = 1.0 / (levels[idx, None] - levels[None, :])
        inv[np.arange(window), idx] = 0.0
        for c in (1.0, 17.3):
            scaled = c * pert
            gdot = 2.0 * np.sum((amplitudes[idx] @ amplitudes.T) * scaled[idx] * inv, axis=1)
            y = gdot * (n / (2 * math.pi)) / (gamma_bar * math.sqrt((scaled**2).sum()))
            np.testing.assert_allclose(y, got, rtol=1e-13)

    def test_width_factor_decouples_from_spectral_factor(self):
        # weak-coupling assumption: kappa_n and the spectral factor of y_n
        # are statistically independent
        from resodyn.statistics import WEAK_COUPLING_GAMMA

        cfg = pf_config(m=1, realizations=2000, window=25, seed=13)
        samples = sample_velocities_direct(cfg)
        n, window = cfg.n_levels, cfg.central_window
        levels = picket_fence_spectrum(n)
        idx = np.sort(np.argsort(np.abs(levels), kind="stable")[:window])
        kappas = np.empty(samples.n_samples)
        for r in range(cfg.realizations):
            gen = substream(13, r)
            amplitudes = math.sqrt(WEAK_COUPLING_GAMMA) * gen.standard_normal((n, 1))
            kappas[r * window:(r + 1) * window] = (
                (amplitudes[idx] ** 2).sum(axis=1) / WEAK_COUPLING_GAMMA
            )
        spectral = samples.values / (np.sqrt(kappas) / math.pi)
        corr = np.corrcoef(kappas, spectral)[0, 1]
        assert abs(corr) < 0.02

    def test_goe_model_runs(self):
        cfg = EnsembleConfig(
            n_levels=120, n_channels=2, realizations=100, central_window=15,
            seed=3, model="goe", route="direct",
        )
        samples = sample_velocities_direct(cfg)
        assert samples.n_samples + samples.skipped_levels == 100 * 15
        assert np.isfinite(samples.values).all()

    def test_routes_agree(self):
        # both samplers target the same distribution; the comparison is run
        # at the resolution the windowed representation supports (its
        # documented truncation deficit is a known small systematic)
        from scipy.stats import ks_2samp

        direct = sample_velocities_direct(pf_config(m=2, realizations=200, seed=7))
        rep = sample_velocities_representation(
            pf_config(m=2, realizations=4000, seed=8, route="representation")
        )
        assert ks_2samp(direct.values, rep.values).pvalue >= 0.01

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("model", ["picket-fence", "goe"], ids=["pf", "goe"])
    def test_shared_draw_matches_single_channel_calls(self, model, workers, monkeypatch):
        # N=40 is below the size where threads pay; run them anyway
        for key in statistics._MIN_THREADED_LEVELS:
            monkeypatch.setitem(statistics._MIN_THREADED_LEVELS, key, 2)
        cfg = EnsembleConfig(
            n_levels=40, n_channels=1, realizations=30, central_window=9,
            seed=23, model=model, route="direct",
        )
        shared = statistics._sample_direct(cfg, (1, 2, 5, 10), workers=workers)
        assert list(shared) == [1, 2, 5, 10]
        for m, got in shared.items():
            single = sample_velocities_direct(replace(cfg, n_channels=m), workers=workers)
            assert got.config == single.config == replace(cfg, n_channels=m)
            assert got.values.tobytes() == single.values.tobytes()
            np.testing.assert_array_equal(got.counts, single.counts)
            assert got.skipped_levels == single.skipped_levels
            assert got.runtime == single.runtime
            # and both follow the documented stream layout, replayed apart
            # from the sampler: A from the first n*M normals, x the next n^2
            expected = _replay_direct_realization(replace(cfg, n_channels=m), 0)
            first = got.values[: got.counts[0]]
            assert np.abs(first - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_consecutive_normals_equal_one_draw(self):
        # the shared draw rests on this: a then b normals from a substream
        # are one draw of a + b normals, split at a
        for a, b in ((40, 1600), (400, 1600), (7, 3)):
            gen = substream(5, 11)
            parts = np.concatenate((gen.standard_normal(a), gen.standard_normal(b)))
            whole = substream(5, 11).standard_normal(a + b)
            assert parts.tobytes() == whole.tobytes()

    def test_config_validation(self):
        with pytest.raises(ValueError, match="central_window"):
            pf_config(window=300)
        with pytest.raises(ValueError, match="route"):
            EnsembleConfig(
                n_levels=10, n_channels=1, realizations=1, central_window=5,
                seed=0, model="picket-fence", route="bogus",
            )
        alias = EnsembleConfig(
            n_levels=10, n_channels=1, realizations=1, central_window=5,
            seed=0, model="picket-fence", route="direct-matrix",
        )
        assert alias.route == "direct"


@pytest.mark.parametrize("build", [
    lambda model: EnsembleConfig(n_levels=10, n_channels=1, realizations=1,
                                 central_window=5, seed=0, model=model),
    lambda model: velocity_pdf(0.5, 2, model),
    lambda model: velocity_cdf(0.5, 2, model),
], ids=["config", "pdf", "cdf"])
def test_model_vocabulary(build):
    # "goe" and "picket-fence", alias "pf"; anything else is refused by name
    with pytest.raises(ValueError, match="unknown spectrum model 'bogus'"):
        build("bogus")
    assert build("pf") == build("picket-fence")


class TestCompareHistogram:
    @staticmethod
    def _kernel_samples(rng, n):
        # closed-form inverse CDF of the rigid-spectrum kernel
        return 2.0 / math.pi * np.arctanh(2.0 * rng.uniform(size=n) - 1.0)

    def test_self_consistent_p_values_are_uniform(self, rng):
        p_values = []
        for _ in range(100):
            samples = self._kernel_samples(rng, 2000)
            report = compare_histogram(samples, phi_pf, cdf=phi_pf_cdf)
            p_values.append(report.p_value)
        assert kstest(p_values, "uniform").pvalue >= 1e-3
        assert max(p_values) > 0.5 and min(p_values) < 0.5

    def test_shifted_samples_are_rejected(self, rng):
        samples = self._kernel_samples(rng, 20000) + 1.0
        report = compare_histogram(samples, phi_pf, cdf=phi_pf_cdf)
        assert report.p_value < 1e-6

    def test_corrupted_kernel_is_rejected(self, rng):
        # negative control: a wrong normalization constant must be detected
        def corrupted_pdf(y):
            return (math.pi / 3.0) * np.exp(-math.pi * np.abs(y)) / (
                1.0 + np.exp(-math.pi * np.abs(y))
            ) ** 2

        def corrupted_cdf(y):
            return np.clip(0.5 * (1.0 + (4.0 / 3.0) * np.tanh(0.5 * math.pi * np.asarray(y))), 0, 1)

        samples = self._kernel_samples(rng, 20000)
        report = compare_histogram(samples, corrupted_pdf, cdf=corrupted_cdf)
        assert report.p_value < 1e-6

    def test_too_few_samples_rejected(self, rng):
        with pytest.raises(ValueError, match="1000"):
            compare_histogram(self._kernel_samples(rng, 500), phi_pf, cdf=phi_pf_cdf)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_samples_rejected(self, rng, bad):
        # an infinite bracket would leave the bisection's midpoints NaN
        samples = self._kernel_samples(rng, 2000)
        samples[5] = bad
        with pytest.raises(ValueError, match="finite"):
            compare_histogram(samples, phi_pf, cdf=phi_pf_cdf)

    @pytest.mark.parametrize("model, config", [
        ("pf", pf_config(m=2, realizations=60)),
        ("goe", goe_direct_config(realizations=60)),
    ])
    def test_p_value_is_scipy_stats_chi2_sf(self, model, config):
        samples = sample_velocities_direct(config)
        report = compare_histogram(
            samples, lambda y: velocity_pdf(y, 2, model), cdf=lambda y: velocity_cdf(y, 2, model)
        )
        assert report.p_value == float(chi2_dist.sf(report.statistic, report.dof))

    @pytest.mark.parametrize("m", [1, 2, 5, 10])
    @pytest.mark.parametrize("model", ["pf", "goe"])
    def test_bisection_edges_match_brentq(self, model, m):
        from scipy.optimize import brentq

        samples = sample_velocities_representation(EnsembleConfig(
            n_levels=50, n_channels=m, realizations=2000, central_window=25,
            seed=40 + m, model=model, route="representation",
        ))
        cdf = partial(velocity_cdf, m=m, model=model)
        report = compare_histogram(samples, partial(velocity_pdf, m=m, model=model), cdf=cdf,
                                   singular=partial(singular_points, m=m))
        # the search the bisection replaced: one brentq per edge
        k = report.n_bins
        span = float(np.abs(samples.values).max())
        reference = []
        for i in range(1, k):
            lo, hi = -1.1 * span - 1.0, 1.1 * span + 1.0
            while cdf(lo) >= i / k:
                lo = lo - (hi - lo)
            while cdf(hi) <= i / k:
                hi = hi + (hi - lo)
            reference.append(brentq(lambda y: cdf(y) - i / k, lo, hi, xtol=1e-12))
        reference = np.array(reference)
        eps = np.finfo(float).eps
        assert (np.abs(report.chi_edges - reference) <= 2e-12 + 8 * eps * np.abs(reference)).all()
        observed = np.bincount(np.searchsorted(reference, samples.values), minlength=k)
        np.testing.assert_array_equal(report.observed, observed)
        statistic = float(np.sum((observed - report.expected) ** 2) / report.expected)
        assert report.p_value == float(chdtrc(k - 1, statistic))

    def test_singular_centers_are_masked(self):
        # the middle one of the 61 bins over a symmetric range is centered
        # exactly at 0, where the single-channel density diverges
        samples = sample_velocities_representation(
            pf_config(m=1, realizations=2000, n=50, route="representation"))
        pdf = partial(velocity_pdf, m=1, model="pf")
        cdf = partial(velocity_cdf, m=1, model="pf")
        with pytest.raises(ValueError, match="singular"):
            compare_histogram(samples, pdf, cdf=cdf)
        report = compare_histogram(samples, pdf, cdf=cdf, singular=partial(singular_points, m=1))
        centers = report.density_table()[:, 2]
        assert centers[30] == 0.0

        def per_point(y):
            try:
                return pdf(y)
            except ValueError:
                return np.nan

        reference = np.array([per_point(y) for y in centers])
        np.testing.assert_array_equal(np.isnan(report.density_pdf), np.isnan(reference))
        finite = np.isfinite(reference)
        np.testing.assert_allclose(report.density_pdf[finite], reference[finite],
                                   rtol=4 * np.finfo(float).eps, atol=0)
        assert report.sup_norm == float(
            np.abs(report.density_values[finite] - report.density_pdf[finite]).max())

    def test_density_table_layout(self, rng):
        samples = self._kernel_samples(rng, 5000)
        report = compare_histogram(samples, phi_pf, cdf=phi_pf_cdf)
        table = report.density_table()
        assert table.shape == (61, 6)
        widths = table[:, 1] - table[:, 0]
        np.testing.assert_allclose(widths, widths[0], rtol=1e-9)


@pytest.fixture
def blas():
    """numpy's BLAS thread control, set to 2 threads for the test."""
    control = statistics._blas_thread_control()
    if control is None:
        pytest.skip("numpy's BLAS thread count cannot be controlled here")
    original = control.get()
    control.set(2)  # not the pinned count, so a missed restore shows
    yield control
    control.set(original)


class TestBlasPinning:
    def test_pinned_while_sampling_and_restored(self, blas, monkeypatch):
        seen = []

        def spy(n, rng):
            seen.append(blas.get())
            return sample_goe(n, rng)

        monkeypatch.setattr(statistics, "sample_goe", spy)
        before = blas.get()
        samples = sample_velocities_direct(goe_direct_config(realizations=4), workers=2)
        assert seen == [1] * 4
        assert blas.get() == before
        assert samples.runtime == {
            "workers": 2, "reason": None, "blas": blas.vendor, "blas_threads": 1,
        }

    @pytest.mark.parametrize("workers", [1, 2])
    def test_restored_when_a_realization_raises(self, blas, monkeypatch, workers):
        def failing(*args, **kwargs):
            raise RuntimeError("realization failed")

        monkeypatch.setattr(statistics, "sample_goe", failing)
        before = blas.get()
        with pytest.raises(RuntimeError, match="realization failed"):
            sample_velocities_direct(goe_direct_config(realizations=4), workers=workers)
        assert blas.get() == before

    def test_serial_without_blas_control(self, monkeypatch):
        pinned = sample_velocities_direct(goe_direct_config(), workers=2)
        monkeypatch.setattr(statistics, "_blas_thread_control", lambda: None)
        callers = set()
        draw = statistics.substream

        def spy(*args):
            callers.add(threading.get_ident())
            return draw(*args)

        monkeypatch.setattr(statistics, "substream", spy)
        fallback = sample_velocities_direct(goe_direct_config(), workers=2)
        assert callers == {threading.get_ident()}
        assert fallback.runtime == {
            "workers": 1, "reason": "BLAS thread control unavailable",
            "blas": "unknown", "blas_threads": None,
        }
        # at the default BLAS thread count only the last bits may differ
        np.testing.assert_allclose(fallback.values, pinned.values, rtol=1e-8, atol=1e-9)
