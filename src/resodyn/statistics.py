"""Statistics of parametric width velocities in weakly open chaotic systems.

Two Monte-Carlo routes produce samples of the rescaled width velocity y:

* a *representation* route that draws the ingredients of the weak-coupling
  velocity directly (a chi-square width factor, a model spectrum -- for GOE
  the eigenvalues of the tridiagonal beta = 1 model -- and two sets of
  independent normals), and
* a *direct-matrix* route that builds full random realizations (spectrum,
  decay amplitudes, random symmetric perturbation), evaluates the
  weak-coupling velocity formula level by level, and rescales.

The analytic side provides the Porter-Thomas width distribution, the
spectral kernels for rigid (picket-fence) and GOE level sequences, their
convolution into the velocity distribution, its large-channel-count limit,
and a chi-square goodness-of-fit report for sample/curve comparison.

Both routes draw every realization from its own counter-based RNG substream
keyed by (seed, realization index).  The direct route may spread its
realizations over threads; it runs them with numpy's OpenBLAS pinned to one
thread, because BLAS results depend in the last bits on the BLAS thread
count, so its results are bit-identical for any number of workers and on
any host.  The representation route is GIL-bound and always runs serially.
"""

from __future__ import annotations

import concurrent.futures
import ctypes
import functools
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from scipy.special import chdtrc, gammaln

from .errors import TruncationWarning

__all__ = [
    "SpectrumModel",
    "EnsembleConfig",
    "VelocitySampleSet",
    "FitReport",
    "sample_goe",
    "picket_fence_spectrum",
    "sample_couplings",
    "phi_goe",
    "phi_pf",
    "phi_goe_cdf",
    "phi_pf_cdf",
    "singular_points",
    "velocity_pdf",
    "velocity_cdf",
    "large_m_limit_pf",
    "sample_velocities_representation",
    "sample_velocities_direct",
    "compare_histogram",
    "substream",
]

# internal mean partial width for the direct route, in units of the level
# spacing; the rescaled velocity is exactly independent of this choice
WEAK_COUPLING_GAMMA = 1e-3
DEGENERACY_SKIP_TOL = 1e-8
TRUNCATION_WARN_LEVEL = 0.05

_MAX_SEED = 2**64


def substream(seed: int, index: int) -> np.random.Generator:
    """Counter-based RNG substream for one realization of an ensemble run."""
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SpectrumModel:
    """Closed-system spectrum model: GOE or equidistant (picket-fence) levels.

    `spacing` is the mean level spacing at the band center; the GOE entry
    variances are normalized so that the semicircle's central spacing equals
    it exactly (sigma^2 = N * spacing^2 / pi^2 off-diagonal).
    """

    kind: str
    spacing: float = 1.0

    def __post_init__(self):
        kind = {"pf": "picket-fence"}.get(self.kind, self.kind)
        if kind not in ("goe", "picket-fence"):
            raise ValueError(f"unknown spectrum model {self.kind!r}")
        if not self.spacing > 0:
            raise ValueError("spacing must be positive")
        object.__setattr__(self, "kind", kind)

    @classmethod
    def goe(cls, spacing: float = 1.0) -> "SpectrumModel":
        return cls(kind="goe", spacing=spacing)

    @classmethod
    def picket_fence(cls, spacing: float = 1.0) -> "SpectrumModel":
        return cls(kind="picket-fence", spacing=spacing)

    @property
    def is_rigid(self) -> bool:
        return self.kind == "picket-fence"


@dataclass(frozen=True)
class EnsembleConfig:
    """Configuration of a velocity-sampling run."""

    n_levels: int
    n_channels: int
    realizations: int
    central_window: int
    seed: int
    model: SpectrumModel
    route: str = "direct"

    def __post_init__(self):
        route = {"direct-matrix": "direct"}.get(self.route, self.route)
        if route not in ("direct", "representation"):
            raise ValueError(f"unknown route {self.route!r}")
        object.__setattr__(self, "route", route)
        if self.n_levels < 2:
            raise ValueError("need at least two levels")
        if self.n_channels < 1:
            raise ValueError("need at least one channel")
        if self.realizations < 1:
            raise ValueError("need at least one realization")
        if not 2 <= self.central_window <= self.n_levels:
            raise ValueError("central_window must lie in [2, n_levels]")
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError("seed must be an unsigned 64-bit integer")

    def as_dict(self) -> dict:
        return {
            "n_levels": self.n_levels,
            "n_channels": self.n_channels,
            "realizations": self.realizations,
            "central_window": self.central_window,
            "seed": self.seed,
            "model": self.model.kind,
            "spacing": self.model.spacing,
            "route": self.route,
        }


@dataclass(frozen=True)
class VelocitySampleSet:
    """Rescaled width-velocity samples with their provenance.

    `counts[r]` is the number of samples contributed by realization r
    (window size minus any degeneracy skips for the direct route, one for
    the representation route).  `truncation_deficit` is the picket-fence
    estimate of the relative variance lost to the window truncation of the
    representation-route sum, whatever the model: for GOE spectra the
    variance of y diverges (the |y|^-3 tail), so no GOE share exists.
    `runtime` says how the samples were produced: ``workers`` used,
    ``reason`` (why the route ran on one worker, else None), ``blas``
    (vendor and version, or "unknown") and ``blas_threads`` (the BLAS
    thread count while sampling, None if unknown).
    """

    values: np.ndarray
    config: EnsembleConfig
    counts: np.ndarray
    truncation_deficit: float = 0.0
    skipped_levels: int = 0
    runtime: dict = field(default_factory=dict)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        c = np.asarray(self.counts, dtype=int)
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)

    @property
    def n_samples(self) -> int:
        return self.values.size

    def second_moment(self) -> tuple[float, float]:
        """Sample second moment of y and its standard error.

        Realizations are independent, so the error bar comes from the
        scatter of per-realization batch means, which is robust to the
        within-realization correlations of the direct route.
        """
        sq = self.values**2
        edges = np.concatenate(([0], np.cumsum(self.counts)))
        nonempty = self.counts > 0
        batch = np.add.reduceat(sq, edges[:-1][nonempty]) / self.counts[nonempty]
        n_batch = batch.size
        if n_batch < 2:
            return float(sq.mean()), float("inf")
        weights = self.counts[nonempty] / self.counts[nonempty].sum()
        moment = float(np.sum(weights * batch))
        se = float(np.sqrt(np.sum(weights**2 * (batch - moment) ** 2)))
        return moment, se


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


def sample_goe(n: int, rng: np.random.Generator, spacing: float = 1.0) -> np.ndarray:
    """Draw a real symmetric GOE matrix with central level spacing `spacing`.

    Off-diagonal entries are N(0, sigma^2) and diagonal entries
    N(0, 2 sigma^2) with sigma^2 = n * spacing^2 / pi^2, which puts the
    semicircle's mean spacing at the band center exactly at `spacing`.
    """
    if n < 2:
        raise ValueError("need at least a 2x2 matrix")
    sigma = math.sqrt(n) * spacing / math.pi
    x = rng.standard_normal((n, n))
    return (x + x.T) * (sigma / math.sqrt(2.0))


def _goe_tridiagonal_levels(
    n: int, rng: np.random.Generator, spacing: float, eigvalsh_tridiagonal
) -> np.ndarray:
    """Ascending GOE eigenvalues with the entry variances of :func:`sample_goe`,
    drawn from the tridiagonal beta = 1 model (Dumitriu & Edelman, J. Math.
    Phys. 43, 5830, 2002): diagonal N(0, 2 sigma^2), off-diagonal sigma times
    chi variables with n-1, ..., 1 degrees of freedom.  Same eigenvalue law
    as the dense matrix, at O(n) draws and an O(n^2) solve.  The solver is
    ``scipy.linalg.eigvalsh_tridiagonal``, passed in by the caller, which
    imports it once per run rather than once per realization.
    """
    sigma = math.sqrt(n) * spacing / math.pi
    diag = (sigma * math.sqrt(2.0)) * rng.standard_normal(n)
    off = sigma * np.sqrt(rng.chisquare(np.arange(n - 1, 0, -1)))
    return eigvalsh_tridiagonal(diag, off, lapack_driver="sterf", check_finite=False)


def picket_fence_spectrum(n: int, spacing: float = 1.0) -> np.ndarray:
    """Equidistant levels symmetric about zero: ``(k - (n+1)/2) * spacing``.

    Odd n places one level exactly at zero; even n has none (the two central
    levels sit at +-spacing/2).
    """
    if n < 2:
        raise ValueError("need at least two levels")
    k = np.arange(1, n + 1, dtype=float)
    return (k - 0.5 * (n + 1)) * spacing


def sample_couplings(
    n: int, m: int, gamma_bar: float, rng: np.random.Generator
) -> np.ndarray:
    """I.i.d. zero-mean normal decay amplitudes with entry variance `gamma_bar`.

    The resulting widths ``Gamma_n = sum_c A_nc^2`` are `gamma_bar` times a
    chi-square variable with `m` degrees of freedom (Porter-Thomas).
    """
    if gamma_bar <= 0:
        raise ValueError("gamma_bar must be positive")
    a = rng.standard_normal((n, m))
    a *= math.sqrt(gamma_bar)
    return a


# ---------------------------------------------------------------------------
# analytic distributions
# ---------------------------------------------------------------------------


def phi_goe(y):
    """Spectral kernel of the velocity distribution for GOE level sequences:
    ``(4 + y^2) / (6 (1 + y^2)^(5/2))``.  Even, normalized, |y|^-3 tail.

    Evaluated as ``(s^(3/2) + 3 s^(5/2)) / 6`` with ``s = 1 / (1 + y^2)``,
    which is the same function in a form that does not overflow for huge |y|.
    """
    y = np.asarray(y, dtype=float)
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + y * y)
    out = s * np.sqrt(s) * (1.0 + 3.0 * s) / 6.0
    return out if out.ndim else float(out)


def phi_pf(y):
    """Spectral kernel for an equidistant spectrum: ``pi / (2 (1 + cosh(pi y)))``.

    Evaluated as ``pi e^(-pi|y|) / (1 + e^(-pi|y|))^2``, which is the same
    function in a form that neither overflows nor loses precision for any
    representable y.
    """
    y = np.asarray(y, dtype=float)
    e = np.exp(-math.pi * np.abs(y))
    out = math.pi * e / (1.0 + e) ** 2
    return out if out.ndim else float(out)


def phi_goe_cdf(y):
    """Cumulative form of :func:`phi_goe`: ``1/2 + y (2/3 + y^2/2) / (1+y^2)^(3/2)``."""
    y = np.clip(np.asarray(y, dtype=float), -1e100, 1e100)
    out = 0.5 + y * (2.0 / 3.0 + 0.5 * y**2) / (1.0 + y**2) ** 1.5
    return out if out.ndim else float(out)


def phi_pf_cdf(y):
    """Cumulative form of :func:`phi_pf`: ``(1 + tanh(pi y / 2)) / 2``."""
    y = np.asarray(y, dtype=float)
    out = 0.5 * (1.0 + np.tanh(0.5 * math.pi * y))
    return out if out.ndim else float(out)


def _kernel(model) -> tuple:
    if isinstance(model, SpectrumModel):
        kind = model.kind
    else:
        kind = {"pf": "picket-fence"}.get(str(model), str(model))
    if kind == "goe":
        return phi_goe, phi_goe_cdf
    if kind == "picket-fence":
        return phi_pf, phi_pf_cdf
    raise ValueError(f"unknown spectrum model {model!r}")


# Rule for the chi-square mixtures below.  The substitution kappa = t^2 turns
# them into integrals over t > 0 of a chi weight t^p exp(-t^2/2) times a
# kernel of y/t, and t = log(1 + e^u) maps t to the whole u axis:
# * for t << 1 the map is t ~ e^u, so the kernel's switch at t ~ |y| is
#   resolved equally well for every small |y|;
# * for t >> 1 it is t ~ u, so the weight's peak at t ~ sqrt(m) and the
#   rigid kernel's saddle at t ~ (pi |y|)^(1/3), both about one unit of t
#   wide, are resolved for every m and y.
# The integrand is analytic in a strip around the real u axis and decays at
# both ends, where the uniform trapezoid rule converges geometrically in
# 1/step (Trefethen & Weideman, SIAM Rev. 56, 385, 2014).  Against an
# adaptive reference it is good to 1e-13 at step 0.3 but only to 4e-10 at
# step 0.4; step 1/8 (exact in binary) keeps a wide margin.  The lower end
# t = e^-45 lies 22 e-folds below the smallest accepted |y| = SINGULAR_Y,
# beyond which even the single-channel density's integrand has decayed.
# The weight underflows to zero before the upper end t = 100 for every m
# up to MAX_CHANNELS; larger m are refused.
MAX_CHANNELS = 5000
_RULE_STEP = 0.125
_RULE_U = np.arange(-45.0, 100.0 + _RULE_STEP / 2, _RULE_STEP)
_RULE_T = np.logaddexp(0.0, _RULE_U)
# log of t^p exp(-t^2/2) dt/du at p = 0, with dt/du = e^u / (1 + e^u)
_RULE_LOG_BASE = _RULE_U - _RULE_T - 0.5 * _RULE_T**2
_RULE_LOG_T = np.log(_RULE_T)
# the (y x node) kernel matrix is built this many bytes at a time, which
# keeps it and its temporaries in cache and the peak memory flat
_BLOCK_BYTES = 2**16

# the single-channel density grows like log(1/|y|) towards y = 0; closer to
# zero than this a point is singular and rejected, not approximated
SINGULAR_Y = 1e-10


def singular_points(y, m: int) -> np.ndarray:
    """Mask of the points where the m-channel velocity density is singular:
    ``|y| < SINGULAR_Y`` for a single channel, none otherwise."""
    return (np.abs(np.asarray(y, dtype=float)) < SINGULAR_Y) & (m == 1)


def _mixture(y, m: int, kernel, weight_power: int):
    if m < 1:
        raise ValueError("channel count m must be >= 1")
    if m > MAX_CHANNELS:
        raise ValueError(f"channel count m={m} is too large; at most {MAX_CHANNELS}")
    # node weights step * 2 t^p exp(-t^2/2) dt/du / (2^(m/2) Gamma(m/2));
    # p = weight_power = m-2 carries the extra 1/sqrt(kappa) of the density
    # mixture, m-1 is the plain chi-square weight of the cumulative mixture
    log_norm = math.log(2.0 * _RULE_STEP) - 0.5 * m * math.log(2.0) - gammaln(0.5 * m)
    w = np.exp(weight_power * _RULE_LOG_T + _RULE_LOG_BASE + log_norm)
    if w[-1] > 0.0:
        raise ValueError(f"channel count m={m} is too large for the mixture rule")
    keep = w > 0.0
    t, w = _RULE_T[keep], w[keep]
    ys = np.asarray(y, dtype=float).ravel()
    out = np.empty(ys.size)
    rows = max(1, _BLOCK_BYTES // (8 * t.size))
    with np.errstate(over="ignore"):
        for start in range(0, ys.size, rows):
            out[start:start + rows] = kernel(ys[start:start + rows, None] / t) @ w
    return out.reshape(np.shape(y)) if np.ndim(y) else float(out[0])


def velocity_pdf(y, m: int, model):
    """Velocity distribution: chi-square width mixture of the spectral kernel.

    ``P_m(y) = integral_0^inf dk k^(-1/2) PT_m(k) phi(y / sqrt(k))``,
    evaluated for all y at once with one fixed trapezoid rule after the
    substitution k = t^2.  For a single channel the density has an
    integrable divergence at y = 0; points with ``|y| < SINGULAR_Y`` are
    rejected as singular rather than approximated.  Channel counts above
    :data:`MAX_CHANNELS` are refused.
    """
    phi, _ = _kernel(model)
    if singular_points(y, m).any():
        raise ValueError("singular point: the single-channel density diverges at y=0")
    return _mixture(y, m, phi, weight_power=m - 2)


def velocity_cdf(y, m: int, model):
    """Cumulative velocity distribution: the same chi-square mixture of the
    kernel's cdf, evaluated with the same fixed rule."""
    _, kernel_cdf = _kernel(model)
    return _mixture(y, m, kernel_cdf, weight_power=m - 1)


def large_m_limit_pf(y, m: int):
    """Many-channel limit of the rigid-spectrum velocity distribution:
    ``phi_pf(y / sqrt(m)) / sqrt(m)``."""
    if m < 1:
        raise ValueError("channel count m must be >= 1")
    root = math.sqrt(m)
    out = phi_pf(np.asarray(y, dtype=float) / root) / root
    return out if np.ndim(y) else float(out)


# ---------------------------------------------------------------------------
# Monte-Carlo sampling
# ---------------------------------------------------------------------------


def _window_offsets(window: int) -> np.ndarray:
    """Neighbor offsets (in units of levels) for a window of `window` levels
    centered on the reference; any odd neighbor goes to the positive side."""
    neg = (window - 1) // 2
    pos = window - 1 - neg
    return np.concatenate((np.arange(-neg, 0), np.arange(1, pos + 1)))


def _pf_truncation_deficit(offsets: np.ndarray) -> float:
    total = math.pi**2 / 3.0
    kept = float(np.sum(1.0 / offsets.astype(float) ** 2))
    return max(0.0, 1.0 - kept / total)


@dataclass(frozen=True)
class _BlasThreads:
    vendor: str
    get: Callable[[], int]
    set: Callable[[int], None]


# exported names of OpenBLAS as (prefix, suffix): numpy 2's scipy-openblas
# build renames the plain OpenBLAS symbols
_OPENBLAS_NAMES = (("scipy_openblas", "64_"), ("openblas", ""))


@functools.cache
def _blas_thread_control() -> _BlasThreads | None:
    """Thread-count getter and setter of the OpenBLAS that numpy links, or
    None when they cannot be found.

    Looked up once, on first use, through the handle of numpy's own
    extension module: symbol lookup on a handle also searches the libraries
    it links, so no library path is guessed.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    try:
        lib = ctypes.CDLL(umath.__file__)
    except OSError:
        return None
    for prefix, suffix in _OPENBLAS_NAMES:
        try:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}")
            config = getattr(lib, f"{prefix}_get_config{suffix}")
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        config.argtypes, config.restype = [], ctypes.c_char_p
        # the config string starts with "OpenBLAS <version>"
        vendor = " ".join(config().decode().split()[:2])
        return _BlasThreads(vendor, get, set_)
    return None


def _runtime(
    blas: _BlasThreads | None, workers: int, reason: str | None, blas_threads: int | None
) -> dict:
    return {
        "workers": workers,
        "reason": reason,
        "blas": blas.vendor if blas is not None else "unknown",
        "blas_threads": blas_threads,
    }


def _run_realizations(task, realizations: int, workers: int) -> list:
    if workers <= 1:
        return [task(r) for r in range(realizations)]
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, range(realizations)))


def sample_velocities_representation(config: EnsembleConfig) -> VelocitySampleSet:
    """Sample rescaled width velocities from their weak-coupling representation.

    Each realization draws a chi-square width factor kappa, a model spectrum,
    and independent standard normals z_m, v_m, and returns

        y = (sqrt(kappa) / pi) * spacing * sum_m z_m v_m / (E_ref - E_m)

    with the sum truncated to the `central_window` levels around the
    reference.  For the picket fence the reference sits at zero.  For GOE
    the spectrum comes from the tridiagonal beta = 1 model and the reference
    is the level of fixed index (n_levels - 1) // 2: the level nearest zero
    would sit next to a size-biased gap (the inspection paradox).  A
    substream draws kappa, then (GOE only) the n_levels diagonal and
    n_levels - 1 off-diagonal entries, then z, then v.  The picket-fence
    estimate of the relative variance lost to the truncation is recorded
    (and warned about when it exceeds 5%).

    The realizations run serially: `sterf` and the small draws hold the
    GIL, so threads would only add switching.
    """
    from scipy.linalg import eigvalsh_tridiagonal  # keeps it off the CLI import

    if config.route != "representation":
        raise ValueError(f"config.route is {config.route!r}, expected 'representation'")
    model = config.model
    window = config.central_window
    offsets = _window_offsets(window)
    deficit = _pf_truncation_deficit(offsets)
    if deficit > TRUNCATION_WARN_LEVEL:
        warnings.warn(
            f"window of {window} levels truncates the velocity sum; estimated "
            f"relative variance deficit {deficit:.1%} (picket-fence estimate)",
            TruncationWarning,
            stacklevel=2,
        )
    pf_denominators = -offsets.astype(float) * model.spacing
    ref = (config.n_levels - 1) // 2
    neighbours = ref + offsets

    def one(r: int) -> float:
        rng = substream(config.seed, r)
        kappa = rng.chisquare(config.n_channels)
        if model.is_rigid:
            denom = pf_denominators
        else:
            levels = _goe_tridiagonal_levels(
                config.n_levels, rng, model.spacing, eigvalsh_tridiagonal
            )
            denom = levels[ref] - levels[neighbours]
        z = rng.standard_normal(window - 1)
        v = rng.standard_normal(window - 1)
        return (
            math.sqrt(kappa) / math.pi * model.spacing * float(np.sum(z * v / denom))
        )

    values = np.array([one(r) for r in range(config.realizations)])
    blas = _blas_thread_control()
    return VelocitySampleSet(
        values=values,
        config=config,
        counts=np.ones(config.realizations, dtype=int),
        truncation_deficit=deficit,
        runtime=_runtime(
            blas, 1, "representation route is serial",
            blas.get() if blas is not None else None,
        ),
    )


def _reference_levels(levels: np.ndarray, window: int) -> np.ndarray:
    """Ascending indices of the `window` levels nearest zero (ties to the
    lower index): the reference levels of a direct-route realization."""
    return np.sort(np.argsort(np.abs(levels), kind="stable")[:window])


def sample_velocities_direct(
    config: EnsembleConfig, *, workers: int = 1
) -> VelocitySampleSet:
    """Sample rescaled width velocities from full random-matrix realizations.

    Each realization builds the closed-system spectrum (picket fence or
    GOE), Gaussian decay amplitudes A, and a GOE-distributed symmetric
    perturbation W, evaluates the weak-coupling width velocity for the
    `central_window` levels nearest zero, and rescales each velocity by

        n_levels * spacing / (2 pi)  /  (gamma_bar * sqrt(Tr W^2)).

    The first factor makes the rescaled velocity dimensionless against the
    local density of states, so that the samples follow the same
    distribution as the representation route; dividing by the realization's
    own Tr W^2 makes the result exactly invariant under rescaling of the
    perturbation, and the choice of gamma_bar (internally 1e-3 spacing)
    cancels identically.  Levels with a neighbor closer than 1e-8 spacing
    are skipped and counted.

    After the GOE matrix (if any), a realization's substream gives the
    n_levels * n_channels normals of A, row by row, and then the
    n_levels^2 normals of the matrix x with W = (x + x.T) / sqrt(2).
    This is the one-channel-count case of :func:`_sample_direct`, through
    which ``verify.rigid_samples`` draws its four sets (M = 1, 2, 5, 10)
    in one pass: each realization draws one block of normals, and set M
    takes its first n_levels * M as A and the next n_levels^2 as x, the
    layout the sets always had, so they are correlated across M as
    before.

    The realizations run on `workers` threads with numpy's OpenBLAS pinned
    to one thread, whatever `workers` is, and the previous BLAS thread count
    is restored afterwards.  The GIL is released in `eigh`, the matrix
    products and the normal draws, so one BLAS thread per realization lets
    the workers overlap; pinning serial runs too keeps the bytes independent
    of `workers` and of the host's core count.  If the BLAS thread count
    cannot be controlled, the realizations run serially.  The count is
    process-wide, so calls from several threads at once are not supported.
    """
    return _sample_direct(config, (config.n_channels,), workers=workers)[config.n_channels]


def _sample_direct(
    config: EnsembleConfig, channels: tuple[int, ...], *, workers: int
) -> dict[int, VelocitySampleSet]:
    """Direct-route sample sets for each channel count M in `channels`,
    from one pass over the realizations; ``config.n_channels`` is ignored.

    Each realization draws one block of n_levels * max(channels) +
    n_levels^2 normals after its GOE matrix (if any).  Set M takes the
    first n_levels * M of them as A and the next n_levels^2 as x: the
    stream :func:`sample_velocities_direct` draws for M, since consecutive
    draws from one generator equal one draw of their total length.  So
    each set is byte-identical to its own single-M call (``config`` is
    ``replace(config, n_channels=M)``), and the sets are correlated across
    M as the substreams they share make them.
    """
    if config.route != "direct":
        raise ValueError(f"config.route is {config.route!r}, expected 'direct'")
    configs = {m: replace(config, n_channels=m) for m in channels}
    model = config.model
    n, window = config.n_levels, config.central_window
    gamma_bar = WEAK_COUPLING_GAMMA * model.spacing
    rescale_num = n * model.spacing / (2.0 * math.pi)
    skip_tol = DEGENERACY_SKIP_TOL * model.spacing
    block_size = n * max(configs) + n * n

    if model.is_rigid:
        pf_levels = picket_fence_spectrum(n, model.spacing)
        pf_idx = _reference_levels(pf_levels, window)
        with np.errstate(divide="ignore"):
            pf_inv = 1.0 / (pf_levels[pf_idx, None] - pf_levels[None, :])
        pf_inv[np.arange(window), pf_idx] = 0.0

    def one(r: int):
        rng = substream(config.seed, r)
        if model.is_rigid:
            levels, idx, inv = pf_levels, pf_idx, pf_inv
            basis = None
        else:
            levels, basis = np.linalg.eigh(sample_goe(n, rng, model.spacing))
            idx = _reference_levels(levels, window)
            diff = levels[idx, None] - levels[None, :]
            diff[np.arange(window), idx] = np.inf
            keep_rows = np.abs(diff).min(axis=1) >= skip_tol
            inv = np.zeros_like(diff)
            np.divide(1.0, diff, out=inv, where=np.isfinite(diff))
            idx, inv = idx[keep_rows], inv[keep_rows]
        block = rng.standard_normal(block_size)
        ys = {}
        for m in configs:
            amplitudes = block[: n * m].reshape(n, m) * math.sqrt(gamma_bar)
            x = block[n * m : n * m + n * n].reshape(n, n)
            pert = np.add(x, x.T)
            pert /= math.sqrt(2.0)
            if basis is None:
                b_rows = amplitudes[idx] @ amplitudes.T
                w_rows = pert[idx]
            else:
                rotated = basis.T @ amplitudes
                b_rows = rotated[idx] @ rotated.T
                w_rows = (basis[:, idx].T @ pert) @ basis
            # Tr pert^2 = sum(pert * pert), squared in place once w_rows is taken
            tr_sq = float(np.sum(np.multiply(pert, pert, out=pert)))
            gdot = 2.0 * np.sum(b_rows * w_rows * inv, axis=1)
            ys[m] = gdot * (rescale_num / (gamma_bar * math.sqrt(tr_sq)))
        return ys, window - idx.size

    blas = _blas_thread_control()
    if blas is None:
        results = _run_realizations(one, config.realizations, 1)
        runtime = _runtime(None, 1, "BLAS thread control unavailable", None)
    else:
        previous = blas.get()
        blas.set(1)
        try:
            results = _run_realizations(one, config.realizations, workers)
        finally:
            blas.set(previous)
        runtime = _runtime(blas, max(1, workers), None, 1)
    skipped = int(sum(s for _, s in results))
    counts = np.array([window - s for _, s in results], dtype=int)
    return {
        m: VelocitySampleSet(
            values=np.concatenate([ys[m] for ys, _ in results]),
            config=cfg, counts=counts, skipped_levels=skipped, runtime=dict(runtime),
        )
        for m, cfg in configs.items()
    }


# ---------------------------------------------------------------------------
# goodness of fit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitReport:
    """Chi-square and sup-norm comparison of samples against a density."""

    statistic: float
    dof: int
    p_value: float
    sup_norm: float
    n_samples: int
    n_bins: int
    chi_edges: np.ndarray
    observed: np.ndarray
    expected: float
    density_edges: np.ndarray
    density_counts: np.ndarray
    density_values: np.ndarray
    density_pdf: np.ndarray

    density_columns = ("bin_left", "bin_right", "bin_center", "count", "density", "pdf")

    def density_table(self) -> np.ndarray:
        centers = 0.5 * (self.density_edges[:-1] + self.density_edges[1:])
        return np.column_stack(
            [
                self.density_edges[:-1],
                self.density_edges[1:],
                centers,
                self.density_counts,
                self.density_values,
                self.density_pdf,
            ]
        )


# the quantile edges are bracketed to within _XTOL + _RTOL |x|, the stopping
# rule of scipy.optimize.brentq at xtol=1e-12 and its default rtol
_XTOL = 1e-12
_RTOL = 4.0 * np.finfo(float).eps


def _quantiles(cdf, qs: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Points where the increasing `cdf` crosses each level in `qs`.

    One bisection runs for all levels at once, so each step is a single
    vectorized `cdf` call.  It stops when every bracket is narrower than
    ``_XTOL + _RTOL |midpoint|`` and returns the midpoints, which are then
    within half that of the crossing.
    """
    # expand the bracket until it encloses every level
    for _ in range(200):
        if cdf(lo) < qs.min():
            break
        lo = lo - (hi - lo)
    else:
        raise ValueError(f"no point below the cdf level {qs.min()}")
    for _ in range(200):
        if cdf(hi) > qs.max():
            break
        hi = hi + (hi - lo)
    else:
        raise ValueError(f"no point above the cdf level {qs.max()}")
    a, b = np.full(qs.shape, lo), np.full(qs.shape, hi)
    while True:
        mid = 0.5 * (a + b)
        if (b - a < _XTOL + _RTOL * np.abs(mid)).all():
            return mid
        below = cdf(mid) < qs
        a = np.where(below, mid, a)
        b = np.where(below, b, mid)


def compare_histogram(samples, pdf, *, cdf, singular=None) -> FitReport:
    """Goodness-of-fit report of velocity samples against an analytic density.

    The chi-square statistic uses 40 equal-probability bins (edges are
    quantiles of `cdf`); at the 1000 samples required at least, each bin
    expects 25.  The p-value is the chi-square survival function from
    ``scipy.special`` (``chdtrc``, which ``scipy.stats.chi2.sf`` calls) at
    39 degrees of freedom, so the fit does not import ``scipy.stats``.  The
    sup-norm compares a density binned into 61 equal-width bins over the
    central 99% of the samples against the pdf at the bin centers; the same
    binning is exposed for plotting.

    `pdf` and `cdf` must be vectorized over y.  `singular(y)`, if given,
    masks the points where `pdf` is singular (:func:`singular_points` for
    :func:`velocity_pdf`): their bin centers get a NaN density and stay out
    of the sup-norm.
    """
    values = samples.values if isinstance(samples, VelocitySampleSet) else np.asarray(samples, dtype=float)
    n = values.size
    if n < 1000:
        raise ValueError(f"need at least 1000 samples for a stable fit, got {n}")
    if not np.isfinite(values).all():
        raise ValueError("samples must be finite")

    k = 40
    span = float(np.abs(values).max())
    lo, hi = -1.1 * span - 1.0, 1.1 * span + 1.0
    edges = _quantiles(cdf, np.arange(1, k) / k, lo, hi)
    observed = np.bincount(np.searchsorted(edges, values), minlength=k).astype(float)
    expected = n / k
    statistic = float(np.sum((observed - expected) ** 2) / expected)
    dof = k - 1
    p_value = float(chdtrc(dof, statistic))

    a = float(np.quantile(np.abs(values), 0.995))
    density_counts, density_edges = np.histogram(values, bins=61, range=(-a, a))
    density_values = density_counts / (n * np.diff(density_edges))
    centers = 0.5 * (density_edges[:-1] + density_edges[1:])
    masked = np.zeros(centers.shape, bool) if singular is None else singular(centers)
    density_pdf = np.full(centers.shape, np.nan)
    density_pdf[~masked] = pdf(centers[~masked])
    finite = np.isfinite(density_pdf)
    sup_norm = float(np.abs(density_values[finite] - density_pdf[finite]).max())

    return FitReport(
        statistic=statistic,
        dof=dof,
        p_value=p_value,
        sup_norm=sup_norm,
        n_samples=n,
        n_bins=k,
        chi_edges=edges,
        observed=observed,
        expected=expected,
        density_edges=density_edges,
        density_counts=density_counts.astype(float),
        density_values=density_values,
        density_pdf=density_pdf,
    )
