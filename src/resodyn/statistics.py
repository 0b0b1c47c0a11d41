"""Statistics of parametric width velocities in weakly open chaotic systems.

Two Monte-Carlo routes produce samples of the rescaled width velocity y:

* a *representation* route that draws the ingredients of the weak-coupling
  velocity directly (a chi-square width factor, a model spectrum -- for GOE
  the eigenvalues of the tridiagonal beta = 1 model -- and two sets of
  independent normals), and
* a *direct-matrix* route that draws random realizations (spectrum,
  decay amplitudes, random symmetric perturbation), evaluates the
  weak-coupling velocity formula level by level, and rescales.  For GOE it
  draws the spectrum from the tridiagonal model and only the rows of the
  perturbation that the formula reads, in the eigenbasis, which has the
  same law as drawing the dense matrices and rotating them.

Both spectrum models, ``"goe"`` and ``"picket-fence"`` (alias ``"pf"``),
have unit mean level spacing at the band center, so y is dimensionless.

The analytic side provides the spectral kernels for rigid (picket-fence)
and GOE level sequences, their mixture over the chi-square (Porter-Thomas)
width factor into the velocity distribution, its large-channel-count
limit, and a chi-square goodness-of-fit report for sample/curve comparison.

Both routes draw every realization from its own counter-based RNG substream
keyed by (seed, realization index), so their results are bit-identical for
any number of workers and on any host.  Both may spread their realizations
over threads, where a realization is large enough for that to pay.  Both
GOE routes solve their tridiagonal spectra on the workers with the LAPACK
``sterf`` of the OpenBLAS that numpy links, called through ctypes, which
releases the GIL for the call; where numpy links no OpenBLAS they run
serially through scipy's ``dsterf``, with the same bytes.  The
picket-fence representation route has no GIL-free work and runs serially.
"""

from __future__ import annotations

import collections
import concurrent.futures
import ctypes
import functools
import math
import os
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import TruncationWarning

__all__ = [
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


# every accepted name of a spectrum model, to its canonical name
_MODELS = {"goe": "goe", "picket-fence": "picket-fence", "pf": "picket-fence"}


def _model_name(model: str) -> str:
    if model not in _MODELS:
        raise ValueError(f"unknown spectrum model {model!r}")
    return _MODELS[model]


@dataclass(frozen=True)
class EnsembleConfig:
    """Configuration of a velocity-sampling run; `model` is stored as its
    canonical name, ``"goe"`` or ``"picket-fence"``."""

    n_levels: int
    n_channels: int
    realizations: int
    central_window: int
    seed: int
    model: str
    route: str = "direct"

    def __post_init__(self):
        object.__setattr__(self, "model", _model_name(self.model))
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

    @property
    def is_rigid(self) -> bool:
        """Whether the spectrum is the rigid picket fence."""
        return self.model == "picket-fence"

    def as_dict(self) -> dict:
        return {
            "n_levels": self.n_levels,
            "n_channels": self.n_channels,
            "realizations": self.realizations,
            "central_window": self.central_window,
            "seed": self.seed,
            "model": self.model,
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
    `runtime` says how the samples were produced: ``workers`` used, and
    ``reason``, why fewer workers ran than were requested (else None).
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


def sample_goe(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a real symmetric GOE matrix with unit central level spacing.

    Off-diagonal entries are N(0, sigma^2) and diagonal entries
    N(0, 2 sigma^2) with sigma^2 = n / pi^2, which puts the semicircle's
    mean spacing at the band center exactly at 1.
    """
    if n < 2:
        raise ValueError("need at least a 2x2 matrix")
    sigma = math.sqrt(n) / math.pi
    x = rng.standard_normal((n, n))
    return (x + x.T) * (sigma / math.sqrt(2.0))


def _goe_tridiagonal(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of a symmetric tridiagonal matrix whose
    eigenvalues are those of a GOE matrix with the entry variances of
    :func:`sample_goe`: the tridiagonal beta = 1 model (Dumitriu & Edelman,
    J. Math. Phys. 43, 5830, 2002), diagonal N(0, 2 sigma^2), off-diagonal
    sigma times chi variables with n-1, ..., 1 degrees of freedom.  Same
    eigenvalue law as the dense matrix, at O(n) draws and an O(n^2) solve
    (LAPACK ``sterf``).
    """
    sigma = math.sqrt(n) / math.pi
    diag = (sigma * math.sqrt(2.0)) * rng.standard_normal(n)
    off = sigma * np.sqrt(rng.chisquare(np.arange(n - 1, 0, -1)))
    return diag, off


def picket_fence_spectrum(n: int) -> np.ndarray:
    """Unit-spaced levels symmetric about zero: ``k - (n+1)/2``, k = 1..n.

    Odd n places one level exactly at zero; even n has none (the two central
    levels sit at +-1/2).
    """
    if n < 2:
        raise ValueError("need at least two levels")
    k = np.arange(1, n + 1, dtype=float)
    return k - 0.5 * (n + 1)


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


# the spectral kernel and its cdf of each model, by canonical name
_KERNELS = {"goe": (phi_goe, phi_goe_cdf), "picket-fence": (phi_pf, phi_pf_cdf)}


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
    # mixture, m-1 is the plain chi-square weight of the cumulative mixture;
    # log Gamma(m/2) comes from math.lgamma, so the curves need no scipy
    log_norm = math.log(2.0 * _RULE_STEP) - 0.5 * m * math.log(2.0) - math.lgamma(0.5 * m)
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
    phi, _ = _KERNELS[_model_name(model)]
    if singular_points(y, m).any():
        raise ValueError("singular point: the single-channel density diverges at y=0")
    return _mixture(y, m, phi, weight_power=m - 2)


def velocity_cdf(y, m: int, model):
    """Cumulative velocity distribution: the same chi-square mixture of the
    kernel's cdf, evaluated with the same fixed rule."""
    _, kernel_cdf = _KERNELS[_model_name(model)]
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


# exported names of OpenBLAS, as the (prefix, suffix) of its own functions
# and the name of LAPACK dsterf: numpy 2's scipy-openblas build renames them
_OPENBLAS_NAMES = (("scipy_openblas", "64_", "scipy_dsterf_64_"), ("openblas", "", "dsterf_"))

# why the GOE routes run serially
_NO_OPENBLAS = "numpy's OpenBLAS not found"


@functools.cache
def _openblas() -> Callable[[np.ndarray, np.ndarray], np.ndarray] | None:
    """The LAPACK ``dsterf`` of the OpenBLAS that numpy links, as
    ``sterf(diag, off)``; None when it cannot be found.

    Looked up once, on first use, through the handle of numpy's own
    extension module: symbol lookup on a handle also searches the libraries
    it links, so no library path is guessed.  ``sterf`` takes writable
    C-contiguous float64 arrays of the diagonal and the off-diagonal,
    overwrites both, and returns the diagonal array holding the ascending
    eigenvalues.  ctypes releases the GIL for the call, so spectra can be
    solved on threads.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    try:
        lib = ctypes.CDLL(umath.__file__)
    except OSError:
        return None
    for prefix, suffix, dsterf in _OPENBLAS_NAMES:
        try:
            config = getattr(lib, f"{prefix}_get_config{suffix}")
            call = getattr(lib, dsterf)
        except AttributeError:
            continue
        config.argtypes, config.restype = [], ctypes.c_char_p
        # "OpenBLAS <version> <build options>"; a USE64BITINT build takes
        # 64-bit LAPACK integers
        build = config().decode().split()
        lapack_int = ctypes.c_int64 if "USE64BITINT" in build else ctypes.c_int
        int_p = ctypes.POINTER(lapack_int)
        call.argtypes, call.restype = [int_p, ctypes.c_void_p, ctypes.c_void_p, int_p], None

        def sterf(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
            # LAPACK reads n doubles from diag and n - 1 from off, in place
            for a in (diag, off):
                if a.dtype != np.float64 or a.ndim != 1 or not a.flags.c_contiguous \
                        or not a.flags.writeable:
                    raise ValueError("sterf needs writable contiguous 1-D float64 arrays")
            if not 0 < diag.size == off.size + 1:
                raise ValueError(f"sterf needs n >= 1 diagonal and n - 1 off-diagonal "
                                 f"entries, got {diag.size} and {off.size}")
            n, info = lapack_int(diag.size), lapack_int(0)
            call(ctypes.byref(n), diag.ctypes.data, off.ctypes.data, ctypes.byref(info))
            if info.value:
                raise np.linalg.LinAlgError(f"sterf failed with info={info.value}")
            return diag

        return sterf
    return None


def _usable_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# smallest n_levels at which two workers beat one, by (route, model): below
# it a realization's GIL-free work is too short to pay for the threads.
# Measured on 2 cores (see CHANGES.md); the picket-fence representation
# route has no GIL-free work at all
_MIN_THREADED_LEVELS = {
    ("direct", "goe"): 100,
    ("direct", "picket-fence"): 128,
    ("representation", "goe"): 80,
    ("representation", "picket-fence"): math.inf,
}
# realizations a solve pipeline keeps in flight per worker
_AHEAD = 4


def _run_realizations(task, config: EnsembleConfig, workers: int) -> tuple[list, dict]:
    """The results of every realization of `config`, in order, and the
    run's ``runtime``: the workers used, and why fewer than `workers`.

    A picket-fence ``task(r)`` is the result of realization r, and the
    tasks run on the workers.  A GOE realization takes three steps:
    ``task(r)`` returns ``(finish, (diag, off))``, the spectrum of that
    tridiagonal matrix is solved with ``sterf``, and ``finish(levels)`` is
    the result.  `task` and `finish` then run in the calling thread, in
    order, while the workers solve a few realizations ahead: the GIL-bound
    steps overlap the GIL-free ones instead of contending with them.
    ``sterf`` is that of numpy's OpenBLAS, which releases the GIL
    (:func:`_openblas`); without it the spectra are solved serially through
    :func:`_scipy_sterf`, with the same bytes.  Realizations too small for
    threads to pay (:data:`_MIN_THREADED_LEVELS`) run serially as well.
    """
    requested, solve, reason = max(1, workers), None, None
    if not config.is_rigid:
        solve = _openblas()
        if solve is None:
            solve, reason = _scipy_sterf, _NO_OPENBLAS
    if reason is None and config.n_levels < _MIN_THREADED_LEVELS[config.route, config.model]:
        reason = "realization too small for threads"
    workers = 1 if reason else requested
    runtime = {"workers": workers, "reason": reason if workers < requested else None}
    realizations = range(config.realizations)
    if workers == 1:
        if solve is None:
            return [task(r) for r in realizations], runtime
        return [finish(solve(*args)) for finish, args in map(task, realizations)], runtime
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        if solve is None:
            return list(pool.map(task, realizations)), runtime
        results, pending = [], collections.deque()
        for r in realizations:
            finish, args = task(r)
            pending.append((finish, pool.submit(solve, *args)))
            if len(pending) > _AHEAD * workers:
                finish, solved = pending.popleft()
                results.append(finish(solved.result()))
        results.extend(finish(solved.result()) for finish, solved in pending)
        return results, runtime


def _scipy_sterf(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """LAPACK ``dsterf`` through scipy's own wrapper, which holds the GIL."""
    from scipy.linalg.lapack import dsterf  # only where numpy has no OpenBLAS

    levels, info = dsterf(diag, off)
    if info:
        raise np.linalg.LinAlgError(f"sterf failed with info={info}")
    return levels


def sample_velocities_representation(
    config: EnsembleConfig, *, workers: int = 1
) -> VelocitySampleSet:
    """Sample rescaled width velocities from their weak-coupling representation.

    Each realization draws a chi-square width factor kappa, a model spectrum,
    and independent standard normals z_m, v_m, and returns

        y = (sqrt(kappa) / pi) * sum_m z_m v_m / (E_ref - E_m)

    with the sum truncated to the `central_window` levels around the
    reference.  For the picket fence the reference sits at zero.  For GOE
    the spectrum comes from the tridiagonal beta = 1 model and the reference
    is the level of fixed index (n_levels - 1) // 2: the level nearest zero
    would sit next to a size-biased gap (the inspection paradox).  A
    substream draws kappa, then (GOE only) the n_levels diagonal and
    n_levels - 1 off-diagonal entries, then z, then v.  The picket-fence
    estimate of the relative variance lost to the truncation is recorded
    (and warned about when it exceeds 5%).

    GOE realizations use `workers` threads where they are large enough for
    that to pay (:data:`_MIN_THREADED_LEVELS`).  The calling thread draws
    each realization and the workers solve its spectrum, most of a
    realization's time, with the LAPACK ``dsterf`` of numpy's OpenBLAS,
    called through ctypes with the GIL released (:func:`_openblas`).  It is
    the routine that ``eigvalsh_tridiagonal(..., lapack_driver="sterf")``
    calls, and each realization has its own substream, so the bytes do not
    depend on `workers`.  Where numpy links no OpenBLAS, the route runs
    serially through ``scipy.linalg.lapack.dsterf`` with the same bytes, as
    the GOE direct route does (:func:`_run_realizations`).  Picket-fence
    realizations hold the GIL throughout and always run serially.
    """
    if config.route != "representation":
        raise ValueError(f"config.route is {config.route!r}, expected 'representation'")
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
    pf_denominators = -offsets.astype(float)
    ref = (config.n_levels - 1) // 2
    neighbours = ref + offsets

    def velocity(rng, kappa: float, denom: np.ndarray) -> float:
        z = rng.standard_normal(window - 1)
        v = rng.standard_normal(window - 1)
        return math.sqrt(kappa) / math.pi * float(np.sum(z * v / denom))

    def one_pf(r: int) -> float:
        rng = substream(config.seed, r)
        return velocity(rng, rng.chisquare(config.n_channels), pf_denominators)

    def one_goe(r: int):
        rng = substream(config.seed, r)
        kappa = rng.chisquare(config.n_channels)
        tridiagonal = _goe_tridiagonal(config.n_levels, rng)
        return (
            lambda levels: velocity(rng, kappa, levels[ref] - levels[neighbours]),
            tridiagonal,
        )

    values, runtime = _run_realizations(one_pf if config.is_rigid else one_goe, config, workers)
    return VelocitySampleSet(
        values=np.array(values),
        config=config,
        counts=np.ones(config.realizations, dtype=int),
        truncation_deficit=deficit,
        runtime=runtime,
    )


def _reference_levels(levels: np.ndarray, window: int) -> np.ndarray:
    """Ascending indices of the `window` levels nearest zero (ties to the
    lower index): the reference levels of a direct-route realization."""
    return np.sort(np.argsort(np.abs(levels), kind="stable")[:window])


def _perturbation_rows(x_rows: np.ndarray, idx: np.ndarray, rest: float):
    """The rows `idx` of an n x n perturbation W = (x + x.T) / sqrt(2), x a
    matrix of standard normals, and Tr W^2, without the rest of W.

    `x_rows` are the rows `idx` (distinct indices) of x, and `rest` is a
    chi-square variable with (n - w)(n - w + 1) / 2 degrees of freedom,
    w = len(idx).  The idx x idx block b of the rows becomes
    (b + b.T) / sqrt(2), which gives it W's law: diagonal N(0, 2),
    off-diagonal N(0, 1), symmetric.  The other row entries are W's, each
    with a mirror image outside the rows, so each counts twice in Tr W^2.
    The entries outside the rows are independent of them, and their share
    of Tr W^2 is twice `rest` in law: (n - w) of them are N(0, 2) on the
    diagonal and the others N(0, 1) in mirror pairs.
    """
    block = x_rows[:, idx]
    block = (block + block.T) / math.sqrt(2.0)
    rows = x_rows.copy()
    rows[:, idx] = block
    tr_sq = 2.0 * (float(np.sum(rows * rows)) + rest) - float(np.sum(block * block))
    return rows, tr_sq


def sample_velocities_direct(
    config: EnsembleConfig, *, workers: int = 1
) -> VelocitySampleSet:
    """Sample rescaled width velocities from random-matrix realizations.

    Each realization draws the closed-system spectrum (picket fence or
    GOE), Gaussian decay amplitudes A, and a GOE-distributed symmetric
    perturbation W, evaluates the weak-coupling width velocity for the
    `central_window` levels nearest zero, and rescales each velocity by

        n_levels / (2 pi)  /  (gamma_bar * sqrt(Tr W^2)).

    The first factor makes the rescaled velocity dimensionless against the
    local density of states, so that the samples follow the same
    distribution as the representation route; dividing by the realization's
    own Tr W^2 makes the result exactly invariant under rescaling of the
    perturbation, and the choice of gamma_bar (internally 1e-3 of the unit
    spacing) cancels identically.  Levels with a neighbor closer than 1e-8
    are skipped and counted.

    A picket-fence realization's substream gives the n_levels *
    n_channels normals of A, row by row, and then the n_levels^2 normals of
    the matrix x with W = (x + x.T) / sqrt(2).  A GOE realization needs
    only the spectrum of H = O diag(E) O^T: given O, the amplitudes O^T A
    and the perturbation O^T W O in the eigenbasis have the laws of A and
    W, whatever O and E are.  So its substream gives the tridiagonal
    beta = 1 model of H (as the representation route draws it), whose
    levels LAPACK ``sterf`` solves; then the chi-square variable that
    stands for the entries of W outside the reference rows; then the
    n_levels * n_channels normals of A in the eigenbasis, and the
    `central_window` x n_levels normals of the reference rows of x
    (:func:`_perturbation_rows`).  No n_levels x n_levels matrix is built.

    This is the one-channel-count case of :func:`_sample_direct`, through
    which ``verify.rigid_samples`` draws its four sets (M = 1, 2, 5, 10)
    in one pass: each realization draws one block of normals, and set M
    takes its first n_levels * M as A and the next ones as x, the layout
    the sets always had, so they are correlated across M as before.

    The realizations run on `workers` threads, or serially where they are
    too small for threads to pay (:data:`_MIN_THREADED_LEVELS`), and each
    draws from its own substream, so the bytes depend neither on `workers`
    nor on the host's core count.  Picket-fence realizations run whole on
    the workers, which overlap in the GIL-free normal draws and matrix
    products.  For GOE the calling thread draws each realization and
    finishes it, in order, while the workers solve the spectra a few
    realizations ahead (as in the representation route).  Where numpy's
    OpenBLAS is not found, GOE realizations run serially, their spectra
    solved through scipy's ``dsterf`` with the same bytes.
    """
    return _sample_direct(config, (config.n_channels,), workers=workers)[config.n_channels]


def _sample_direct(
    config: EnsembleConfig, channels: tuple[int, ...], *, workers: int
) -> dict[int, VelocitySampleSet]:
    """Direct-route sample sets for each channel count M in `channels`,
    from one pass over the realizations; ``config.n_channels`` is ignored.

    Each realization draws one block of n_levels * max(channels) + k
    normals after its spectrum and (GOE only) its chi-square, where k is
    n_levels^2 for the picket fence and central_window * n_levels for GOE.
    Set M takes the first n_levels * M of them as A and the next k as x
    (GOE: the reference rows of x): the stream
    :func:`sample_velocities_direct` draws for M, since consecutive draws
    from one generator equal one draw of their total length.  So each set
    is byte-identical to its own single-M call (``config`` is
    ``replace(config, n_channels=M)``), and the sets are correlated across
    M as the substreams they share make them.
    """
    if config.route != "direct":
        raise ValueError(f"config.route is {config.route!r}, expected 'direct'")
    configs = {m: replace(config, n_channels=m) for m in channels}
    n, window = config.n_levels, config.central_window
    gamma_bar = WEAK_COUPLING_GAMMA

    def velocities(block, m, idx, w_rows, inv, tr_sq):
        # set M's amplitudes are the first n * M normals of the block
        amplitudes = block[: n * m].reshape(n, m) * math.sqrt(gamma_bar)
        b_rows = amplitudes[idx] @ amplitudes.T
        gdot = 2.0 * np.sum(b_rows * w_rows * inv, axis=1)
        return gdot * (n / (2.0 * math.pi) / (gamma_bar * math.sqrt(tr_sq)))

    if config.is_rigid:
        pf_levels = picket_fence_spectrum(n)
        pf_idx = _reference_levels(pf_levels, window)
        with np.errstate(divide="ignore"):
            pf_inv = 1.0 / (pf_levels[pf_idx, None] - pf_levels[None, :])
        pf_inv[np.arange(window), pf_idx] = 0.0

    def one_pf(r: int):
        block = substream(config.seed, r).standard_normal(n * max(configs) + n * n)
        ys = {}
        for m in configs:
            x = block[n * m : n * m + n * n].reshape(n, n)
            pert = np.add(x, x.T)
            pert /= math.sqrt(2.0)
            w_rows = pert[pf_idx]
            # Tr pert^2 = sum(pert * pert), squared in place once w_rows is taken
            tr_sq = float(np.sum(np.multiply(pert, pert, out=pert)))
            ys[m] = velocities(block, m, pf_idx, w_rows, pf_inv, tr_sq)
        return ys, 0

    # the entries of W outside the reference rows, as one chi-square variable
    rest_dof = (n - window) * (n - window + 1) // 2

    def finish_goe(rng, levels):
        idx = _reference_levels(levels, window)
        diff = levels[idx, None] - levels[None, :]
        diff[np.arange(window), idx] = np.inf
        keep_rows = np.abs(diff).min(axis=1) >= DEGENERACY_SKIP_TOL
        inv = np.zeros_like(diff)
        np.divide(1.0, diff, out=inv, where=np.isfinite(diff))
        rest = rng.chisquare(rest_dof) if rest_dof else 0.0
        block = rng.standard_normal(n * max(configs) + window * n)
        kept, inv = idx[keep_rows], inv[keep_rows]
        ys = {}
        for m in configs:
            x_rows = block[n * m : n * m + window * n].reshape(window, n)
            w_rows, tr_sq = _perturbation_rows(x_rows, idx, rest)
            ys[m] = velocities(block, m, kept, w_rows[keep_rows], inv, tr_sq)
        return ys, window - kept.size

    def one_goe(r: int):
        rng = substream(config.seed, r)
        return functools.partial(finish_goe, rng), _goe_tridiagonal(n, rng)

    results, runtime = _run_realizations(one_pf if config.is_rigid else one_goe, config, workers)
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
    expects 25.  The p-value is the chi-square survival function
    ``scipy.special.chdtrc`` (which ``scipy.stats.chi2.sf`` calls) at 39
    degrees of freedom.  It is imported in this function, so the fit does
    not import ``scipy.stats`` and the CLI start-up imports no scipy.  The
    sup-norm compares a density binned into 61 equal-width bins over the
    central 99% of the samples against the pdf at the bin centers; the same
    binning is exposed for plotting.

    `pdf` and `cdf` must be vectorized over y.  `singular(y)`, if given,
    masks the points where `pdf` is singular (:func:`singular_points` for
    :func:`velocity_pdf`): their bin centers get a NaN density and stay out
    of the sup-norm.
    """
    from scipy.special import chdtrc  # keeps scipy off the CLI import

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
