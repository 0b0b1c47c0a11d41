"""First-order parametric shifts of resonances under interior perturbations.

The perturbation adds ``alpha * V`` to the Hermitian part of the effective
Hamiltonian (the coupling to the continuum stays fixed).  To first order the
complex resonance shift is ``alpha <L_n|V|R_n>`` in the biorthogonal pairing;
the corresponding width shift can be written purely through the
Bell-Steinberger matrix and vanishes if and only if the resonance states are
orthogonal.  A weak-coupling formula for the width velocities and a
central-finite-difference oracle complete the module.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import MatchingAmbiguityWarning, MatchingError, SmallDenominatorError
from .spectral import (
    SYMMETRY_TOL,
    BiorthogonalSystem,
    EffectiveHamiltonian,
    NonorthogonalityMatrix,
    diagonalize,
    match_resonances,
)

__all__ = [
    "InteriorPerturbation",
    "ResonanceShift",
    "first_order_shift",
    "width_shift_from_U",
    "weak_coupling_width_velocity",
    "finite_difference_velocities",
]

DENOMINATOR_REL_TOL = 1e-8


@dataclass(frozen=True)
class InteriorPerturbation:
    """A real symmetric perturbation matrix V with strength alpha."""

    v_matrix: np.ndarray
    strength: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.v_matrix, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"v_matrix must be square, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("v_matrix entries must be finite")
        norm = np.linalg.norm(v)
        if np.abs(v - v.T).max() > SYMMETRY_TOL * max(norm, 1.0):
            raise ValueError("v_matrix is not symmetric within tolerance")
        out = np.array(0.5 * (v + v.T))
        out.flags.writeable = False
        object.__setattr__(self, "v_matrix", out)

    @property
    def dim(self) -> int:
        return self.v_matrix.shape[0]


@dataclass(frozen=True)
class ResonanceShift:
    """First-order complex shift of resonance `index`."""

    index: int
    delta_value: complex

    @property
    def delta_energy(self) -> float:
        return self.delta_value.real

    @property
    def delta_width(self) -> float:
        return -2.0 * self.delta_value.imag


def _check_index(sys: BiorthogonalSystem, pert: InteriorPerturbation, n: int):
    if pert.dim != sys.dim:
        raise ValueError(f"perturbation is {pert.dim}x{pert.dim}, system has N={sys.dim}")
    if not 0 <= n < sys.dim:
        raise IndexError(f"level index {n} out of range for N={sys.dim}")


def first_order_shift(
    sys: BiorthogonalSystem, pert: InteriorPerturbation, n: int
) -> ResonanceShift:
    """First-order shift ``alpha <L_n|V|R_n>`` of resonance n.

    The pairing is the unconjugated biorthogonal one, so for a
    complex-symmetric system this is ``alpha R_n^T V R_n``.  A nonzero
    imaginary part (width shift) requires nonorthogonal resonance states.
    """
    _check_index(sys, pert, n)
    r = sys.right_vectors[:, n]
    value = pert.strength * (r @ pert.v_matrix @ r)
    return ResonanceShift(index=n, delta_value=complex(value))


def width_shift_from_U(
    u: NonorthogonalityMatrix,
    sys: BiorthogonalSystem,
    pert: InteriorPerturbation,
    n: int,
) -> float:
    """Width shift expressed through U: ``i alpha sum_m (U_nm V_mn - V_nm U_mn)``.

    Here ``V_nm = <R_n|V|R_m>`` carries the *conjugated* left argument,
    unlike the biorthogonal pairing used in :func:`first_order_shift`.  Only
    m != n terms survive, so the result is driven entirely by the
    off-diagonal entries of U; it must reproduce
    ``-2 Im`` of the first-order shift, which is the operation's purpose.
    """
    _check_index(sys, pert, n)
    r = sys.right_vectors
    v_res = r.conj().T @ pert.v_matrix @ r
    terms = u.u[n, :] * v_res[:, n] - v_res[n, :] * u.u[:, n]
    return float((1j * pert.strength * terms.sum()).real)


def weak_coupling_width_velocity(
    levels,
    eigenbasis,
    coupling,
    v_matrix,
    n: int,
) -> float:
    """Width velocity of level n for weak coupling to the continuum.

    For a closed-system spectrum {E_m} with orthonormal eigenvectors |m>
    (columns of `eigenbasis`), decay amplitudes A and perturbation V, the
    leading-order width velocity is

        sum_{m != n}  <m| A A^T |n><n| V |m> + <m| V |n><n| A A^T |m>
                      -----------------------------------------------
                                      E_n - E_m

    Raises :class:`SmallDenominatorError` when some |E_n - E_m| falls below
    1e-8 times the mean level spacing.
    """
    e = np.asarray(levels, dtype=float)
    q = np.asarray(eigenbasis, dtype=float)
    a = np.asarray(coupling, dtype=float)
    v = np.asarray(v_matrix, dtype=float)
    n_levels = e.size
    if q.shape != (n_levels, n_levels) or v.shape != (n_levels, n_levels):
        raise ValueError("eigenbasis and v_matrix must be N x N")
    if a.shape[0] != n_levels:
        raise ValueError("coupling must have one row per level")
    if not 0 <= n < n_levels:
        raise IndexError(f"level index {n} out of range for N={n_levels}")

    spacing = (e.max() - e.min()) / max(n_levels - 1, 1)
    tol = DENOMINATOR_REL_TOL * spacing
    diff = e[n] - e
    others = np.arange(n_levels) != n
    if (np.abs(diff[others]) < tol).any():
        m = int(np.flatnonzero(others & (np.abs(diff) < tol))[0])
        raise SmallDenominatorError(
            f"levels {n} and {m} are separated by {abs(diff[m]):.3e}, "
            f"below tolerance {tol:.3e}"
        )

    a_rot = q.T @ a
    b_col = a_rot @ a_rot[n]          # <m| A A^T |n>
    w_col = q.T @ (v @ q[:, n])       # <m| V |n>
    return float(2.0 * np.sum(b_col[others] * w_col[others] / diff[others]))


def _shifted(h: EffectiveHamiltonian, pert: InteriorPerturbation, alpha: float):
    return EffectiveHamiltonian(
        hermitian_part=h.hermitian_part + alpha * pert.v_matrix,
        coupling=h.coupling,
    )


def finite_difference_velocities(
    h: EffectiveHamiltonian,
    pert: InteriorPerturbation,
    step: float | None = None,
):
    """Central-difference (dE/dalpha, dGamma/dalpha) for every resonance.

    The derivative is taken at ``pert.strength``; labels at the two stencil
    points are tracked back to the base point by complex-plane matching.  An
    ambiguous matching (avoided crossing closer than the step) raises
    :class:`MatchingError`.
    """
    v_norm = np.linalg.norm(pert.v_matrix)
    if v_norm == 0.0:
        raise ValueError("perturbation matrix is zero; velocities are trivially zero")
    if step is None:
        step = 1e-6 * np.linalg.norm(h.matrix) / v_norm
    if step <= 0.0:
        raise ValueError("step must be positive")

    alpha = pert.strength
    base = diagonalize(_shifted(h, pert, alpha))
    plus = diagonalize(_shifted(h, pert, alpha + step))
    minus = diagonalize(_shifted(h, pert, alpha - step))
    with warnings.catch_warnings():
        warnings.simplefilter("error", MatchingAmbiguityWarning)
        try:
            p_plus = match_resonances(base.values, plus.values)
            p_minus = match_resonances(base.values, minus.values)
        except MatchingAmbiguityWarning as exc:
            raise MatchingError(
                "ambiguous resonance tracking across the stencil (avoided "
                "crossing); retry with a smaller step"
            ) from exc
    de = (plus.energies[p_plus] - minus.energies[p_minus]) / (2.0 * step)
    dg = (plus.widths[p_plus] - minus.widths[p_minus]) / (2.0 * step)
    return de, dg

