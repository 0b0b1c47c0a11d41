"""Effective non-Hermitian Hamiltonians and their biorthogonal eigensystems.

An open system with N interior levels coupled to M decay channels is
described by the complex-symmetric matrix ``H - (i/2) A A^T``, where H is the
real symmetric interior Hamiltonian and A the real N x M matrix of decay
amplitudes.  Its complex eigenvalues ``E_n - (i/2) Gamma_n`` are the
resonances of the system; the paired right/left eigenvectors form a
biorthogonal system whose left-vector Gram matrix (the Bell-Steinberger
matrix U) measures how far the resonance states are from an orthogonal set.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ExceptionalPointError, MatchingAmbiguityWarning

__all__ = [
    "EffectiveHamiltonian",
    "BiorthogonalSystem",
    "NonorthogonalityMatrix",
    "diagonalize",
    "bell_steinberger",
    "match_resonances",
]

SYMMETRY_TOL = 1e-12
SELF_ORTHOGONALITY_TOL = 1e-10
DEGENERACY_REL_TOL = 1e-10
MATCH_AMBIGUITY_TOL = 1e-12


def _frozen_copy(a: np.ndarray) -> np.ndarray:
    out = np.array(a, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """Interior Hamiltonian plus decay amplitudes defining ``H - (i/2) A A^T``.

    Attributes
    ----------
    hermitian_part : (N, N) real symmetric ndarray
        Interior Hamiltonian H, in energy units.
    coupling : (N, M) real ndarray
        Decay amplitudes A, in sqrt-energy units.
    """

    hermitian_part: np.ndarray
    coupling: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.hermitian_part, dtype=float)
        a = np.asarray(self.coupling, dtype=float)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError(f"hermitian_part must be square, got shape {h.shape}")
        if h.shape[0] < 1:
            raise ValueError("need at least one level")
        if a.ndim != 2 or a.shape[0] != h.shape[0]:
            raise ValueError(
                f"coupling must be (N, M) with N={h.shape[0]}, got shape {a.shape}"
            )
        if a.shape[1] < 1:
            raise ValueError("need at least one channel")
        if not (np.isfinite(h).all() and np.isfinite(a).all()):
            raise ValueError("matrix entries must be finite")
        scale = max(np.abs(h).max(), 1.0)
        if np.abs(h - h.T).max() > SYMMETRY_TOL * scale:
            raise ValueError("hermitian_part is not symmetric within tolerance")
        # store exactly symmetric, immutable copies
        object.__setattr__(self, "hermitian_part", _frozen_copy(0.5 * (h + h.T)))
        object.__setattr__(self, "coupling", _frozen_copy(a))

    @property
    def dim_levels(self) -> int:
        return self.hermitian_part.shape[0]

    @property
    def dim_channels(self) -> int:
        return self.coupling.shape[1]

    @property
    def decay_gram(self) -> np.ndarray:
        """The positive-semidefinite matrix ``A A^T`` (twice the anti-Hermitian part)."""
        return self.coupling @ self.coupling.T

    @property
    def matrix(self) -> np.ndarray:
        """The full complex-symmetric matrix ``H - (i/2) A A^T``."""
        return self.hermitian_part - 0.5j * self.decay_gram


@dataclass(frozen=True)
class BiorthogonalSystem:
    """Resonances with biorthogonally normalized right/left eigenvector pairs.

    ``values[n] = E_n - (i/2) Gamma_n`` is resonance n and
    ``right_vectors[:, n]`` its right eigenvector.  The stored matrix is
    normalized so that the *unconjugated* bilinear form ``R_n^T R_n = 1``;
    for a complex-symmetric matrix the left row vector is then exactly the
    transpose ``<L_n| = R_n^T``, which makes ``<L_n|R_m> = delta_nm``
    automatic.
    """

    values: np.ndarray
    right_vectors: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.values, dtype=complex)
        v = np.asarray(self.right_vectors, dtype=complex)
        n = z.size
        if z.shape != (n,) or v.shape != (n, n):
            raise ValueError(
                f"expected {n} values and an ({n}, {n}) eigenvector matrix, "
                f"got shapes {z.shape} and {v.shape}"
            )
        object.__setattr__(self, "values", _frozen_copy(z))
        object.__setattr__(self, "right_vectors", _frozen_copy(v))

    @property
    def dim(self) -> int:
        return self.values.size

    @property
    def left_vectors(self) -> np.ndarray:
        """Left eigenvectors as rows: ``left_vectors[n, :] = <L_n|``."""
        return self.right_vectors.T

    @property
    def energies(self) -> np.ndarray:
        return self.values.real

    @property
    def widths(self) -> np.ndarray:
        return -2.0 * self.values.imag

    def validate(self) -> dict:
        """Return the biorthogonality and completeness defects.

        ``biorthogonality`` is the max absolute deviation of <L_n|R_m> from
        delta_nm; ``completeness`` is the Frobenius norm of
        ``sum_n |R_n><L_n| - 1``.
        """
        r = self.right_vectors
        gram = r.T @ r
        eye = np.eye(self.dim)
        return {
            "biorthogonality": float(np.abs(gram - eye).max()),
            "completeness": float(np.linalg.norm(r @ r.T - eye)),
        }


@dataclass(frozen=True)
class NonorthogonalityMatrix:
    """Bell-Steinberger matrix ``U_nm = <L_n|L_m>`` of a biorthogonal system.

    U is the Gram matrix of the left-eigenvector kets, so it is Hermitian
    positive definite; its diagonal entries (the Petermann factors) are >= 1,
    and any nonzero off-diagonal entry signals nonorthogonal resonance
    states.
    """

    u: np.ndarray
    hermiticity_defect: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "u", _frozen_copy(np.asarray(self.u, dtype=complex)))

    @property
    def dim(self) -> int:
        return self.u.shape[0]

    @property
    def petermann_factors(self) -> np.ndarray:
        return self.u.diagonal().real.copy()


def diagonalize(
    h: EffectiveHamiltonian,
    *,
    degeneracy_tol: float | None = None,
) -> BiorthogonalSystem:
    """Compute the biorthogonal eigensystem of an effective Hamiltonian.

    Resonances are sorted by ascending energy, ties broken by ascending
    width.  Each right eigenvector is normalized to ``R_n^T R_n = 1``
    (unconjugated), with the overall sign fixed so that the
    largest-magnitude component has nonnegative real part (nonnegative
    imaginary part if the real part vanishes).

    Parameters
    ----------
    h : EffectiveHamiltonian
    degeneracy_tol : float, optional
        Minimum allowed complex eigenvalue separation.  Defaults to
        1e-10 times the spectral radius.

    Raises
    ------
    ExceptionalPointError
        If two eigenvalues are closer than the tolerance, or an eigenvector
        is numerically self-orthogonal (both happen on approach to an
        eigenvalue branching point).
    """
    m = h.matrix
    values, vectors = np.linalg.eig(m)
    n = values.size

    radius = float(np.abs(values).max())
    tol = degeneracy_tol if degeneracy_tol is not None else DEGENERACY_REL_TOL * radius
    if n > 1:
        sep = np.abs(values[:, None] - values[None, :])
        np.fill_diagonal(sep, np.inf)
        i, j = np.unravel_index(np.argmin(sep), sep.shape)
        if sep[i, j] < tol:
            raise ExceptionalPointError(
                "exceptional-point proximity: eigenvalues "
                f"{values[i]:.6g} and {values[j]:.6g} (indices {i}, {j}) are "
                f"separated by {sep[i, j]:.3e}, below tolerance {tol:.3e}"
            )

    # unconjugated normalization R^T R = 1; diverges at self-orthogonality
    norms_sq = np.einsum("ij,ij->j", vectors, vectors)
    mags_sq = np.einsum("ij,ij->j", vectors.conj(), vectors).real
    small = np.abs(norms_sq) < SELF_ORTHOGONALITY_TOL * mags_sq
    if small.any():
        k = int(np.flatnonzero(small)[0])
        raise ExceptionalPointError(
            f"eigenvector {k} (eigenvalue {values[k]:.6g}) is numerically "
            "self-orthogonal; the biorthogonal normalization diverges"
        )
    vectors = vectors / np.sqrt(norms_sq)[None, :]

    # deterministic sign: largest-magnitude component points "up"
    lead = np.argmax(np.abs(vectors), axis=0)
    lead_vals = vectors[lead, np.arange(n)]
    flip = (lead_vals.real < 0) | ((lead_vals.real == 0) & (lead_vals.imag < 0))
    vectors[:, flip] *= -1.0

    energies = values.real
    widths = -2.0 * values.imag
    neg_tol = 1e-12 * max(radius, 1.0)
    if (widths < -neg_tol).any():
        worst = float(widths.min())
        warnings.warn(
            f"negative resonance width {worst:.3e} beyond eigensolver tolerance",
            stacklevel=2,
        )

    order = np.lexsort((widths, energies))
    return BiorthogonalSystem(values=values[order], right_vectors=vectors[:, order])


def bell_steinberger(sys: BiorthogonalSystem) -> NonorthogonalityMatrix:
    """Evaluate ``U_nm = <L_n|L_m>`` from a biorthogonal eigensystem.

    With left vectors equal to plain transposes of the right ones,
    ``U_nm = sum_k R_n[k] conj(R_m[k])``.  The result is symmetrized to be
    exactly Hermitian; the pre-symmetrization discrepancy is reported on the
    returned object.
    """
    r = sys.right_vectors
    u = r.T @ r.conj()
    defect = float(np.linalg.norm(u - u.conj().T) / max(np.linalg.norm(u), 1e-300))
    u = 0.5 * (u + u.conj().T)
    return NonorthogonalityMatrix(u=u, hermiticity_defect=defect)


def match_resonances(previous: np.ndarray, current: np.ndarray) -> np.ndarray:
    """Match two resonance spectra by minimum total complex-plane distance.

    `previous` and `current` are arrays of complex eigenvalues, such as the
    ``values`` of two :class:`BiorthogonalSystem` instances.  Returns the
    permutation ``perm`` such that resonance ``perm[i]`` of `current`
    continues resonance ``i`` of `previous`, chosen to minimize
    ``sum_i |previous[i] - current[perm[i]]|``.  When swapping the partners
    of two resonances changes that total by less than 1e-12, a
    :class:`MatchingAmbiguityWarning` is issued.
    """
    prev = np.asarray(previous, dtype=complex)
    cur = np.asarray(current, dtype=complex)
    if prev.shape != cur.shape:
        raise ValueError(f"dimension mismatch: {prev.shape} vs {cur.shape}")
    n = prev.size
    dist = np.abs(prev[:, None] - cur[None, :])
    from scipy.optimize import linear_sum_assignment  # keeps it off the CLI import

    perm = linear_sum_assignment(dist)[1]

    # near-degenerate total cost under any pair swap -> ambiguous labeling
    if n > 1:
        assigned = dist[np.arange(n), perm]
        swapped = dist[:, perm]  # swapped[i, k] = |prev_i - cur_{perm[k]}|
        delta = swapped + swapped.T - assigned[:, None] - assigned[None, :]
        np.fill_diagonal(delta, np.inf)
        if np.abs(delta).min() < MATCH_AMBIGUITY_TOL:
            warnings.warn(
                "ambiguous resonance matching: an alternative assignment has "
                "nearly identical total cost",
                MatchingAmbiguityWarning,
                stacklevel=2,
            )
    return perm
