"""Exact analytics for two interfering resonances under an interior perturbation.

The model is the 2x2 complex-symmetric matrix

    [[ D/2 - i g1/2,  -(i/2) sqrt(g1 g2) cos(theta) ],
     [ .           ,  -D/2 - i g2/2                 ]]  +  alpha * [[d, v], [v, -d]]

with level separation D, partial width sums g1, g2, angle theta between the
two decay-amplitude vectors, and a traceless real perturbation of strength
alpha.  Everything reduces to two complex scalars

    eps = D + 2 alpha d - (i/2)(g1 - g2)
    nu  = sqrt(g1 g2) cos(theta) + 2 i alpha v

through which the resonances, the eigenvector mixing parameter f, the
Bell-Steinberger matrix, and the parametric velocities of energies and
widths all have closed forms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ExceptionalPointError, ExceptionalPointWarning
from .spectral import EffectiveHamiltonian, NonorthogonalityMatrix

__all__ = [
    "TwoLevelParams",
    "MixingState",
    "SweepResult",
    "two_level_hamiltonian",
    "two_level_system",
    "decay_vectors",
    "closed_form_resonances",
    "mixing_state",
    "two_level_U",
    "width_velocity",
    "energy_velocity",
    "sweep",
    "find_alpha_star",
    "find_alpha_circ",
    "exceptional_point_distance",
]

EP_REL_TOL = 1e-10

SWEEP_COLUMNS = (
    "alpha",
    "E1",
    "E2",
    "Gamma1",
    "Gamma2",
    "Re_f",
    "Im_f",
    "dGamma1",
    "dE1",
    "U11_re",
    "U12_im",
    "ep_distance",
)


@dataclass(frozen=True)
class TwoLevelParams:
    """The seven scalars of the two-resonance model.

    delta : level separation of the parental levels (energy units)
    gamma1, gamma2 : partial width sums of the two decay vectors, >= 0
    theta : angle between the decay vectors, in [0, pi]
    d, v : diagonal / off-diagonal elements of the traceless perturbation
    alpha : perturbation strength
    """

    delta: float
    gamma1: float
    gamma2: float
    theta: float
    d: float
    v: float
    alpha: float = 0.0

    def __post_init__(self):
        if self.gamma1 < 0 or self.gamma2 < 0:
            raise ValueError("partial width sums gamma1, gamma2 must be nonnegative")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError("theta must lie in [0, pi]")

    @property
    def v_matrix(self) -> np.ndarray:
        """The traceless perturbation matrix [[d, v], [v, -d]]."""
        return np.array([[self.d, self.v], [self.v, -self.d]])


@dataclass(frozen=True)
class MixingState:
    """Eigenvector mixing data at one perturbation strength.

    ``f`` parametrizes the right eigenvectors as N(1, -if) and N(if, 1) with
    N^2 = 1/(1 - f^2); ``branch_root`` is the principal square root of
    eps^2 - nu^2 whose + sign defines label 1.  ``f = +-1`` (equivalently
    eps = +-nu) marks an exceptional point, where the two eigenvectors
    coalesce and become self-orthogonal; ``exceptional`` flags the states
    within tolerance of it.  ``|f| = 1`` alone is not one: ``f = i`` gives
    orthogonal states and U = identity.
    """

    epsilon: complex
    nu: complex
    f: complex
    branch_root: complex
    exceptional: bool = False


def _eps_nu(p: TwoLevelParams, alpha):
    eps = p.delta + 2.0 * np.asarray(alpha) * p.d - 0.5j * (p.gamma1 - p.gamma2)
    nu = (
        math.sqrt(p.gamma1 * p.gamma2) * math.cos(p.theta)
        + 2.0j * np.asarray(alpha) * p.v
    )
    return eps, nu


def _branch_root(eps, nu):
    # principal branch: Re >= 0, and Im >= 0 on the negative real axis
    return np.sqrt((eps - nu) * (eps + nu) + 0j)


def _mixing(eps, nu, root):
    """Cancellation-safe f = nu / (eps + root) = (eps - root) / nu."""
    denom = eps + root
    eps_b, nu_b, denom_b = np.broadcast_arrays(eps, nu, denom)
    root_b = np.broadcast_to(root, denom_b.shape)
    f = np.zeros(denom_b.shape, dtype=complex)
    direct = np.abs(nu_b) <= np.abs(denom_b)
    np.divide(nu_b, denom_b, out=f, where=direct & (np.abs(denom_b) > 0))
    alt = ~direct
    np.divide(eps_b - root_b, nu_b, out=f, where=alt)
    return f


def _ep_distance(eps, nu):
    return np.minimum(np.abs(eps - nu), np.abs(eps + nu))


def _near_ep(f):
    """The model's one exceptional-point rule: f within tolerance of +-1.

    ``|1 - f^2|^2 <= EP_REL_TOL (1 + |f|^2)^2``.  The left side equals the
    velocity denominator ``(1 + |f|^2)^2 - 4 (Re f)^2``, and the rule is
    invariant under f -> -f and f -> 1/f, so it does not depend on labels.
    """
    return np.abs(1.0 - f * f) ** 2 <= EP_REL_TOL * (1.0 + np.abs(f) ** 2) ** 2


def _off_ep(f) -> complex:
    """``f`` as a complex number; raises at an exceptional point."""
    f = complex(f)
    if _near_ep(f):
        raise ExceptionalPointError(
            f"self-orthogonal eigenvectors at f={f:.6g} (exceptional point)"
        )
    return f


def two_level_hamiltonian(p: TwoLevelParams) -> np.ndarray:
    """The 2x2 complex-symmetric matrix of the model at strength ``p.alpha``."""
    off = -0.5j * math.sqrt(p.gamma1 * p.gamma2) * math.cos(p.theta)
    base = np.array(
        [
            [0.5 * (p.delta - 1j * p.gamma1), off],
            [off, 0.5 * (-p.delta - 1j * p.gamma2)],
        ]
    )
    return base + p.alpha * p.v_matrix


def decay_vectors(gamma1: float, gamma2: float, theta: float) -> np.ndarray:
    """A 2x2 decay-amplitude matrix realizing the (gamma1, gamma2, theta) coupling.

    Rows are the two decay vectors; their Gram matrix is
    [[g1, sqrt(g1 g2) cos(theta)], [., g2]].
    """
    if gamma1 < 0 or gamma2 < 0:
        raise ValueError("gamma1, gamma2 must be nonnegative")
    return np.array(
        [
            [math.sqrt(gamma1), 0.0],
            [math.sqrt(gamma2) * math.cos(theta), math.sqrt(gamma2) * math.sin(theta)],
        ]
    )


def two_level_system(p: TwoLevelParams) -> EffectiveHamiltonian:
    """The model as an :class:`EffectiveHamiltonian` (H real, A from the decay vectors)."""
    h = (
        np.array([[0.5 * p.delta, 0.0], [0.0, -0.5 * p.delta]])
        + p.alpha * p.v_matrix
    )
    return EffectiveHamiltonian(hermitian_part=h, coupling=decay_vectors(p.gamma1, p.gamma2, p.theta))


def closed_form_resonances(p: TwoLevelParams, alpha: float | None = None):
    """Closed-form complex resonances ``-(i/4)(g1+g2) +- root/2``.

    Label 1 takes the + sign of the principal branch root.  An exceptional
    point (coalescent output) is valid but triggers an
    :class:`ExceptionalPointWarning`.
    """
    a = p.alpha if alpha is None else alpha
    eps, nu = _eps_nu(p, a)
    root = _branch_root(eps, nu)
    if _near_ep(_mixing(eps, nu, root)):
        warnings.warn(
            f"parameters sit at an exceptional point (alpha={a!r}); "
            "resonances are confluent",
            ExceptionalPointWarning,
            stacklevel=2,
        )
    center = -0.25j * (p.gamma1 + p.gamma2)
    return complex(center + 0.5 * root), complex(center - 0.5 * root)


def mixing_state(p: TwoLevelParams, alpha: float | None = None) -> MixingState:
    """Mixing parameter ``f = nu / (eps + root)`` on the principal branch.

    The algebraically equivalent form ``(eps - root) / nu`` is used when the
    default denominator is the smaller one, which avoids cancellation near
    strong mixing.  At an exceptional point f = +-1; the state is flagged,
    not rejected.
    """
    a = p.alpha if alpha is None else alpha
    eps, nu = _eps_nu(p, a)
    root = _branch_root(eps, nu)
    f = complex(_mixing(eps, nu, root))
    exceptional = bool(_near_ep(f))
    if exceptional:
        warnings.warn(
            f"mixing parameter at an exceptional point (alpha={a!r}, f={f:.6g})",
            ExceptionalPointWarning,
            stacklevel=2,
        )
    return MixingState(
        epsilon=complex(eps), nu=complex(nu), f=f, branch_root=complex(root),
        exceptional=exceptional,
    )


def _u_entries(f):
    """Diagonal value, imaginary part of U12, and |N|^2 for the U matrix."""
    n2 = 1.0 / np.abs(1.0 - f * f)
    diag = n2 * (1.0 + np.abs(f) ** 2)
    off_im = -2.0 * np.real(f) * n2
    return diag, off_im, n2


def two_level_U(f: complex) -> NonorthogonalityMatrix:
    """Bell-Steinberger matrix ``|N|^2 [[1+|f|^2, -2i Re f], [2i Re f, 1+|f|^2]]``."""
    diag, off_im, _ = _u_entries(_off_ep(f))
    u = np.array([[diag, 1j * off_im], [-1j * off_im, diag]])
    return NonorthogonalityMatrix(u=u, hermiticity_defect=0.0)


def _velocity_denominator(f):
    return (1.0 + np.abs(f) ** 2) ** 2 - 4.0 * np.real(f) ** 2


def _width_velocity_raw(f, d, v):
    return (
        4.0
        * np.real(f)
        * (v * (1.0 - np.abs(f) ** 2) - 2.0 * d * np.imag(f))
        / _velocity_denominator(f)
    )


def _energy_velocity_raw(f, d, v):
    return (
        (1.0 + np.abs(f) ** 2)
        * (d * (1.0 - np.abs(f) ** 2) + 2.0 * v * np.imag(f))
        / _velocity_denominator(f)
    )


def width_velocity(f: complex, d: float, v: float) -> tuple[float, float]:
    """Parametric width velocities (dGamma1/dalpha, dGamma2/dalpha).

    ``4 Re f [v (1-|f|^2) - 2 d Im f] / [(1+|f|^2)^2 - 4 (Re f)^2]`` for
    label 1; label 2 is its exact negative.  Vanishes when Re f = 0, i.e.
    exactly when the two resonance states are orthogonal.
    """
    g1 = float(_width_velocity_raw(_off_ep(f), d, v))
    return g1, -g1


def energy_velocity(f: complex, d: float, v: float) -> tuple[float, float]:
    """Parametric energy velocities (dE1/dalpha, dE2/dalpha); dE2 = -dE1."""
    e1 = float(_energy_velocity_raw(_off_ep(f), d, v))
    return e1, -e1


def exceptional_point_distance(p: TwoLevelParams, alpha: float | None = None) -> float:
    """Complex distance ``min(|eps - nu|, |eps + nu|)`` to the branching condition."""
    a = p.alpha if alpha is None else alpha
    eps, nu = _eps_nu(p, a)
    return float(_ep_distance(eps, nu))


@dataclass(frozen=True)
class SweepResult:
    """Trajectory table of a strength sweep with continuous labeling.

    Labels follow the resonances across the grid by complex-plane proximity;
    ``swapped`` marks rows where the continuous label 1 is the - branch of
    the closed form.  On such rows the reported f is the reciprocal of the
    branch value (the mixing parameter of the relabeled eigenvector pair)
    and the off-diagonal U sign follows the label order.  Where the branch
    value is f = 0 on a swapped row, the relabeled pair's mixing is
    unbounded: f alone is NaN there, while velocities and U stay finite
    (both are invariant under f -> 1/f up to the label sign).  Rows within
    tolerance of an exceptional point keep their (confluent) energies and
    widths but carry NaN mixing/velocity/U entries and are listed in
    ``exceptional_rows``.
    """

    alpha: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    gamma1: np.ndarray
    gamma2: np.ndarray
    f: np.ndarray
    dgamma1: np.ndarray
    de1: np.ndarray
    u11_re: np.ndarray
    u12_im: np.ndarray
    ep_distance: np.ndarray
    swapped: np.ndarray
    exceptional_rows: np.ndarray

    columns = SWEEP_COLUMNS

    def as_array(self) -> np.ndarray:
        """The table as a float array with columns :data:`SWEEP_COLUMNS`."""
        return np.column_stack(
            [
                self.alpha,
                self.e1,
                self.e2,
                self.gamma1,
                self.gamma2,
                self.f.real,
                self.f.imag,
                self.dgamma1,
                self.de1,
                self.u11_re,
                self.u12_im,
                self.ep_distance,
            ]
        )


def _branch_values(p: TwoLevelParams, alphas: np.ndarray):
    """eps, nu, root, f and dGamma1 on the principal branch over a grid."""
    eps, nu = _eps_nu(p, alphas)
    eps = np.broadcast_to(eps, alphas.shape).astype(complex)
    nu = np.broadcast_to(nu, alphas.shape).astype(complex)
    root = _branch_root(eps, nu)
    f = _mixing(eps, nu, root)
    with np.errstate(divide="ignore", invalid="ignore"):
        dg1 = _width_velocity_raw(f, p.d, p.v)
    return eps, nu, root, f, dg1


def sweep(p: TwoLevelParams, alpha_grid) -> SweepResult:
    """Evaluate the closed-form trajectory over a strictly increasing grid."""
    alphas = np.asarray(alpha_grid, dtype=float)
    if alphas.ndim != 1 or alphas.size < 1:
        raise ValueError("alpha grid must be a nonempty 1-D array")
    if alphas.size > 1 and not (np.diff(alphas) > 0).all():
        raise ValueError("alpha grid must be strictly increasing")

    eps, nu, root, f, dg1 = _branch_values(p, alphas)
    center = -0.25j * (p.gamma1 + p.gamma2)
    v1 = center + 0.5 * root
    v2 = center - 0.5 * root
    ep_mask = _near_ep(f)

    with np.errstate(divide="ignore", invalid="ignore"):
        de1 = _energy_velocity_raw(f, p.d, p.v)
        u11, u12_im, _ = _u_entries(f)

    # continuous labeling: swap whenever the crossed pairing is closer
    keep = np.abs(v1[1:] - v1[:-1]) + np.abs(v2[1:] - v2[:-1])
    cross = np.abs(v1[1:] - v2[:-1]) + np.abs(v2[1:] - v1[:-1])
    swapped = np.zeros(alphas.shape, dtype=bool)
    if alphas.size > 1:
        swapped[1:] = np.logical_xor.accumulate(cross < keep)

    t1 = np.where(swapped, v2, v1)
    t2 = np.where(swapped, v1, v2)
    with np.errstate(divide="ignore", invalid="ignore"):
        f_out = np.where(swapped, 1.0 / f, f)
    sign = np.where(swapped, -1.0, 1.0)
    dg1 = sign * dg1
    de1 = sign * de1
    u12_im = sign * u12_im

    f_out = np.where(ep_mask | ~np.isfinite(f_out), np.nan + 1j * np.nan, f_out)
    for arr in (dg1, de1, u11, u12_im):
        arr[ep_mask] = np.nan

    return SweepResult(
        alpha=alphas,
        e1=t1.real,
        e2=t2.real,
        gamma1=-2.0 * t1.imag,
        gamma2=-2.0 * t2.imag,
        f=f_out,
        dgamma1=dg1,
        de1=de1,
        u11_re=u11,
        u12_im=u12_im,
        ep_distance=_ep_distance(eps, nu),
        swapped=swapped,
        exceptional_rows=np.flatnonzero(ep_mask),
    )


def _scan_width_velocity(p: TwoLevelParams, bracket, scan_points):
    lo, hi = float(bracket[0]), float(bracket[1])
    if not hi > lo:
        raise ValueError("bracket must satisfy lo < hi")
    grid = np.linspace(lo, hi, scan_points)
    _, _, _, f, dg1 = _branch_values(p, grid)
    re_f = f.real
    bad = _near_ep(f)
    dg1[bad] = np.nan
    re_f[bad] = np.nan
    return grid, dg1, re_f


def find_alpha_star(
    p: TwoLevelParams,
    bracket,
    *,
    scan_points: int = 2001,
) -> float:
    """Strength maximizing |dGamma1/dalpha| inside the bracket.

    A dense pre-scan (default 2001 points) locates the global scan maximum,
    which is then refined by bounded minimization to 1e-10 in alpha.
    Raises if the scan maximum sits on the bracket edge or the velocity
    vanishes identically (no nonorthogonality anywhere).
    """
    from scipy.optimize import minimize_scalar  # keeps it off the CLI import

    grid, dg1, _ = _scan_width_velocity(p, bracket, scan_points)
    mag = np.abs(dg1)
    if np.nanmax(mag) < 1e-12 * max(1.0, abs(p.v) + abs(p.d)):
        raise ValueError("width velocity vanishes over the whole bracket; no maximum")
    i = int(np.nanargmax(mag))
    if i == 0 or i == grid.size - 1:
        raise ValueError("no interior maximum of |dGamma1| in bracket")

    def objective(a):
        f = mixing_state(p, alpha=a).f
        return -abs(_width_velocity_raw(f, p.d, p.v))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExceptionalPointWarning)
        res = minimize_scalar(
            objective,
            bounds=(grid[i - 1], grid[i + 1]),
            method="bounded",
            options={"xatol": 1e-10},
        )
    return float(res.x)


def find_alpha_circ(
    p: TwoLevelParams,
    bracket,
    *,
    scan_points: int = 2001,
) -> float:
    """Strength where Re f = 0 (orthogonal states, vanishing width velocity).

    The first sign change of Re f on the dense scan is refined by Brent's
    method to 1e-12 in alpha.  Raises if Re f does not change sign in the
    bracket.
    """
    from scipy.optimize import brentq  # keeps it off the CLI import

    grid, _, re_f = _scan_width_velocity(p, bracket, scan_points)
    sign = np.sign(re_f)
    ok = np.isfinite(re_f)
    change = np.flatnonzero(ok[:-1] & ok[1:] & (sign[:-1] * sign[1:] < 0))
    exact = np.flatnonzero(ok & (re_f == 0.0))
    if exact.size and (not change.size or exact[0] <= change[0]):
        return float(grid[exact[0]])
    if not change.size:
        raise ValueError("Re f has no sign change in bracket")
    j = int(change[0])

    def re_mixing(a):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExceptionalPointWarning)
            return mixing_state(p, alpha=a).f.real

    return float(brentq(re_mixing, grid[j], grid[j + 1], xtol=1e-12))
