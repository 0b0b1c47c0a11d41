import numpy as np
import pytest

from resodyn import (
    EffectiveHamiltonian,
    ExceptionalPointError,
    MatchingAmbiguityWarning,
    bell_steinberger,
    decay_vectors,
    diagonalize,
    match_resonances,
    mixing_state,
    sample_couplings,
    sample_goe,
    two_level_hamiltonian,
    two_level_system,
)

# benchmark point, strength zero: f = nu / (1 + sqrt(1 - nu^2)) with
# nu = 0.5 cos(pi/10); frozen from a 40-digit evaluation
F_REF = 0.2529808720395836
U_OFFDIAG_REF = 0.5405570271100004


def random_system(rng, n, m=3, gamma_bar=0.05):
    h = sample_goe(n, rng)
    a = sample_couplings(n, m, gamma_bar, rng)
    return EffectiveHamiltonian(h, a)


class TestEffectiveHamiltonian:
    def test_zero_case(self):
        heff = EffectiveHamiltonian(np.zeros((2, 2)), np.zeros((2, 1)))
        assert np.all(heff.matrix == 0)
        assert heff.dim_levels == 2 and heff.dim_channels == 1

    def test_two_channel_parametrization_matches_two_level_matrix(self, reference_params):
        p = reference_params
        h = np.diag([p.delta / 2, -p.delta / 2])
        a = decay_vectors(p.gamma1, p.gamma2, p.theta)
        heff = EffectiveHamiltonian(h, a)
        np.testing.assert_allclose(heff.matrix, two_level_hamiltonian(p), atol=1e-14)

    def test_decay_gram_is_psd(self, rng):
        heff = random_system(rng, 5, m=2)
        eigenvalues = np.linalg.eigvalsh(heff.decay_gram)
        assert eigenvalues.min() >= -1e-12
        # direct Gram construction oracle
        a = heff.coupling
        gram = np.array([[a[i] @ a[j] for j in range(5)] for i in range(5)])
        np.testing.assert_allclose(heff.decay_gram, gram, atol=1e-14)

    def test_complex_symmetric(self, rng):
        m = random_system(rng, 6).matrix
        np.testing.assert_allclose(m, m.T, atol=1e-15)

    def test_rejects_non_symmetric(self):
        h = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            EffectiveHamiltonian(h, np.zeros((2, 1)))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            EffectiveHamiltonian(np.zeros((2, 2)), np.zeros((3, 1)))

    def test_stored_matrices_are_immutable(self, rng):
        heff = random_system(rng, 4)
        with pytest.raises(ValueError):
            heff.hermitian_part[0, 0] = 1.0


class TestDiagonalize:
    def test_two_level_matches_closed_form(self, reference_params):
        sys = diagonalize(two_level_system(reference_params))
        got = sorted(sys.values, key=lambda z: z.real)
        expected = [-0.4398502232871809 - 0.25j, 0.4398502232871809 - 0.25j]
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_hermitian_limit(self):
        h = np.diag([-1.0, 0.0, 1.0])
        sys = diagonalize(EffectiveHamiltonian(h, np.zeros((3, 1))))
        np.testing.assert_allclose(sys.widths, 0.0, atol=1e-12)
        np.testing.assert_allclose(bell_steinberger(sys).u, np.eye(3), atol=1e-12)

    def test_completeness_and_biorthogonality(self, rng):
        sys = diagonalize(random_system(rng, 10))
        defects = sys.validate()
        assert defects["biorthogonality"] <= 1e-10
        assert defects["completeness"] <= 1e-8

    def test_values_are_the_eigensolver_values_in_lexsorted_order(self, rng):
        heff = random_system(rng, 8)
        sys = diagonalize(heff)
        raw = np.linalg.eig(heff.matrix)[0]
        order = np.lexsort((-2.0 * raw.imag, raw.real))
        np.testing.assert_array_equal(sys.values, raw[order])
        np.testing.assert_array_equal(sys.energies, sys.values.real)
        np.testing.assert_array_equal(sys.widths, -2.0 * sys.values.imag)
        assert not sys.values.flags.writeable

    def test_sorted_by_energy_then_width(self, rng):
        sys = diagonalize(random_system(rng, 8))
        energies = sys.energies
        assert np.all(np.diff(energies) >= 0)

    def test_left_vectors_are_transposes(self, rng):
        sys = diagonalize(random_system(rng, 6))
        np.testing.assert_array_equal(sys.left_vectors, sys.right_vectors.T)
        # unconjugated normalization
        norms = np.einsum("ij,ij->j", sys.right_vectors, sys.right_vectors)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_trace_identity(self, rng):
        heff = random_system(rng, 12)
        total = diagonalize(heff).values.sum()
        expected = np.trace(heff.hermitian_part) - 0.5j * np.trace(heff.decay_gram)
        assert abs(total - expected) <= 1e-10 * abs(expected)

    def test_degenerate_spectrum_raises(self):
        h = np.diag([1.0, 1.0])
        heff = EffectiveHamiltonian(h, np.zeros((2, 1)))
        with pytest.raises(ExceptionalPointError, match="exceptional-point proximity"):
            diagonalize(heff)

    def test_near_exceptional_point_raises(self, reference_params):
        # drive the benchmark system to eps = nu, where eigenvectors coalesce;
        # the numerical eigenvalue split at an exact branching point is
        # O(sqrt(machine eps)), so the guard needs a matching tolerance
        p = reference_params
        ms = mixing_state(p)
        h = np.diag([ms.nu.real / 2, -ms.nu.real / 2])
        a = decay_vectors(p.gamma1, p.gamma2, p.theta)
        heff = EffectiveHamiltonian(h, a)
        with pytest.raises(ExceptionalPointError, match="exceptional-point proximity"):
            diagonalize(heff, degeneracy_tol=1e-5)

    def test_deterministic_output(self, rng):
        heff = random_system(rng, 7)
        sys1 = diagonalize(heff)
        sys2 = diagonalize(heff)
        np.testing.assert_array_equal(sys1.right_vectors, sys2.right_vectors)


class TestBellSteinberger:
    def test_orthogonal_states_give_identity(self):
        h = np.diag([-1.0, 0.5, 2.0])
        sys = diagonalize(EffectiveHamiltonian(h, np.zeros((3, 2))))
        u = bell_steinberger(sys)
        np.testing.assert_allclose(u.u, np.eye(3), atol=1e-12)
        assert u.hermiticity_defect <= 1e-12

    def test_two_level_real_mixing(self, reference_params):
        # for real f the off-diagonal entries are -+ 2i f |N|^2
        sys = diagonalize(two_level_system(reference_params))
        u = bell_steinberger(sys).u
        f = F_REF
        n2 = 1.0 / (1.0 - f * f)
        assert abs(u[0, 0] - n2 * (1 + f * f)) <= 1e-10
        assert abs(u[1, 1] - n2 * (1 + f * f)) <= 1e-10
        # energy-ascending index 0 is the - branch, so the sign flips
        # relative to the branch-labeled form -2i Re f |N|^2
        assert abs(u[0, 1] - 2j * f * n2) <= 1e-10
        assert abs(abs(u[0, 1]) - U_OFFDIAG_REF) <= 1e-9

    def test_hermitian_positive_definite_with_unit_floor(self, rng):
        sys = diagonalize(random_system(rng, 9, gamma_bar=0.2))
        u = bell_steinberger(sys)
        np.testing.assert_allclose(u.u, u.u.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(u.u).min() > 0
        assert u.petermann_factors.min() >= 1.0 - 1e-10


class TestMatchResonances:
    def test_identity(self, rng):
        sys = diagonalize(random_system(rng, 6))
        np.testing.assert_array_equal(match_resonances(sys.values, sys.values), np.arange(6))

    def test_transposition(self):
        prev = np.array([0.0 + 0.0j, 1.0 - 0.5j, 2.0 - 0.1j])
        cur = prev[[1, 0, 2]]
        np.testing.assert_array_equal(match_resonances(prev, cur), [1, 0, 2])

    def test_dense_sweep_is_identity_away_from_crossings(self, reference_params):
        heff = two_level_system(reference_params)
        prev = diagonalize(heff)
        for alpha in np.linspace(0.0, 0.05, 6)[1:]:
            p = with_alpha(reference_params, alpha)
            cur = diagonalize(two_level_system(p))
            np.testing.assert_array_equal(match_resonances(prev.values, cur.values), [0, 1])
            prev = cur

    def test_conflict_resolution_minimizes_cost(self):
        prev = np.array([0.0 + 0j, 0.3 + 0j])
        cur = np.array([0.25 + 0j, 0.9 + 0j])
        # both rows prefer column 0; the global assignment resolves it
        np.testing.assert_array_equal(match_resonances(prev, cur), [0, 1])

    def test_minimum_total_distance_beats_nearest_neighbour(self):
        # row 1 and row 2 both lie nearest to 2.2; the optimal total is 2.2,
        # against 3.8 for sending row 1 to 4
        prev = np.array([0.0, 1.0, 3.0], dtype=complex)
        cur = np.array([0.0, 2.2, 4.0], dtype=complex)
        np.testing.assert_array_equal(match_resonances(prev, cur), [0, 1, 2])

    def test_total_distance_is_the_assignment_optimum(self):
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(2404)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            prev, cur = (rng.uniform(0, 3, n) - 0.5j * rng.uniform(0, 0.3, n)
                         for _ in range(2))
            dist = np.abs(prev[:, None] - cur[None, :])
            perm = match_resonances(prev, cur)
            np.testing.assert_array_equal(np.sort(perm), np.arange(n))
            rows, cols = linear_sum_assignment(dist)
            best = dist[rows, cols].sum()
            assert dist[np.arange(n), perm].sum() <= best + 1e-12

    def test_ambiguous_matching_warns(self):
        prev = np.array([0.0 + 0j, 2.0 + 0j])
        cur = np.array([1.0 - 1e-13j, 1.0 + 1e-13j])
        with pytest.warns(MatchingAmbiguityWarning):
            match_resonances(prev, cur)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            match_resonances(np.zeros(2, dtype=complex), np.zeros(3, dtype=complex))


def with_alpha(p, alpha):
    from resodyn import TwoLevelParams

    return TwoLevelParams(
        delta=p.delta, gamma1=p.gamma1, gamma2=p.gamma2,
        theta=p.theta, d=p.d, v=p.v, alpha=alpha,
    )
