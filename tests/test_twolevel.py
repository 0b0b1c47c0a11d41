import warnings

import numpy as np
import pytest

from resodyn import (
    ExceptionalPointError,
    ExceptionalPointWarning,
    TwoLevelParams,
    bell_steinberger,
    closed_form_resonances,
    energy_velocity,
    exceptional_point_distance,
    find_alpha_circ,
    find_alpha_star,
    mixing_state,
    sweep,
    two_level_U,
    two_level_hamiltonian,
    two_level_system,
    width_velocity,
)
from resodyn.twolevel import SWEEP_COLUMNS
from resodyn.verify import random_two_level_params

# frozen 40-digit oracle values at the benchmark point, strength zero
F_REF = 0.2529808720395836
E1_REF = 0.4398502232871809
U_DIAG_REF = 1.1367505881054127
U_OFF_REF = 0.5405570271100004
GDOT1_REF = 0.8108355406650007
EDOT1_REF = 1.1367505881054127
EP_DIST_REF = 0.5244717418524232
OFFDIAG_REF = -0.23776412907378839


class TestHamiltonian:
    def test_perpendicular_decay_vectors_decouple(self):
        p = TwoLevelParams(delta=2.0, gamma1=0.6, gamma2=0.4, theta=np.pi / 2, d=1.0, v=1.0)
        m = two_level_hamiltonian(p)
        np.testing.assert_allclose(
            m, np.diag([1.0 - 0.3j, -1.0 - 0.2j]), atol=1e-16
        )

    def test_reference_off_diagonal(self, reference_params):
        m = two_level_hamiltonian(reference_params)
        assert abs(m[0, 1] - 1j * OFFDIAG_REF) <= 1e-15
        assert m[0, 1] == m[1, 0]

    def test_trace_is_strength_independent(self, rng):
        for _ in range(50):
            p = random_two_level_params(rng)
            trace = np.trace(two_level_hamiltonian(p))
            assert abs(trace + 0.5j * (p.gamma1 + p.gamma2)) <= 1e-14

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            TwoLevelParams(delta=1, gamma1=-0.1, gamma2=0.5, theta=0.3, d=1, v=1)

    def test_system_matches_matrix(self, rng):
        for _ in range(20):
            p = random_two_level_params(rng)
            np.testing.assert_allclose(
                two_level_system(p).matrix, two_level_hamiltonian(p), atol=1e-14
            )


class TestClosedForm:
    def test_sum_rules_random(self, rng):
        for _ in range(200):
            p = random_two_level_params(rng)
            e1, e2 = closed_form_resonances(p)
            scale = p.gamma1 + p.gamma2 + abs(p.delta)
            assert abs((e1 + e2).real) <= 1e-12 * scale
            assert abs(-2 * (e1 + e2).imag - (p.gamma1 + p.gamma2)) <= 1e-12 * scale

    def test_reference_values(self, reference_params):
        e1, e2 = closed_form_resonances(reference_params)
        assert abs(e1 - (E1_REF - 0.25j)) <= 1e-15
        assert abs(e2 - (-E1_REF - 0.25j)) <= 1e-15

    def test_closed_system_limit_is_real(self):
        p = TwoLevelParams(delta=1.2, gamma1=0.0, gamma2=0.0, theta=0.4, d=0.7, v=0.3, alpha=0.9)
        e1, e2 = closed_form_resonances(p)
        assert e1.imag == 0.0 and e2.imag == 0.0
        half_split = 0.5 * np.hypot(p.delta + 2 * p.alpha * p.d, 2 * p.alpha * p.v)
        np.testing.assert_allclose(sorted([e1.real, e2.real]), [-half_split, half_split])

    def test_exceptional_point_is_flagged_not_fatal(self):
        p = TwoLevelParams(delta=0.5, gamma1=0.5, gamma2=0.5, theta=0.0, d=0.0, v=0.0)
        with pytest.warns(ExceptionalPointWarning):
            e1, e2 = closed_form_resonances(p)
        assert e1 == e2


class TestMixing:
    def test_decoupled_gives_zero(self):
        # cos(pi/2) is ~6e-17 in floating point, so nu is tiny, not zero
        p = TwoLevelParams(delta=1.0, gamma1=0.3, gamma2=0.7, theta=np.pi / 2, d=1.0, v=0.0, alpha=0.8)
        assert abs(mixing_state(p).f) <= 1e-16
        q = TwoLevelParams(delta=1.0, gamma1=0.0, gamma2=0.7, theta=0.9, d=1.0, v=0.0, alpha=0.8)
        assert mixing_state(q).f == 0.0

    def test_reference_value_is_real(self, reference_params):
        ms = mixing_state(reference_params)
        assert abs(ms.f - F_REF) <= 1e-15
        assert ms.f.imag == 0.0

    def test_exceptional_point_flag(self):
        # eps = nu = 1/4 exactly: binary-exact gammas with theta = 0
        p = TwoLevelParams(delta=0.25, gamma1=0.25, gamma2=0.25, theta=0.0, d=0.0, v=0.0)
        with pytest.warns(ExceptionalPointWarning):
            ms = mixing_state(p)
        assert ms.exceptional
        assert ms.f == 1.0

    def test_defining_identity_and_branch_safety(self, rng):
        for _ in range(500):
            p = random_two_level_params(rng)
            ms = mixing_state(p)
            defect = abs(ms.f * (ms.epsilon + ms.branch_root) - ms.nu)
            assert defect <= 1e-12 * max(abs(ms.nu), abs(ms.epsilon))

    def test_unit_disc_on_principal_labeling(self, rng):
        # |f| <= 1 whenever the principal root points along eps
        for _ in range(500):
            p = random_two_level_params(rng)
            ms = mixing_state(p)
            if (np.conj(ms.epsilon) * ms.branch_root).real >= 0:
                assert abs(ms.f) <= 1.0 + 1e-12


class TestUMatrix:
    def test_orthogonal_limit(self):
        np.testing.assert_array_equal(two_level_U(0.0).u, np.eye(2))

    def test_imaginary_mixing_is_diagonal(self):
        u = two_level_U(0.4j).u
        assert u[0, 1] == 0 and u[1, 0] == 0
        np.testing.assert_allclose(u[0, 0], (1 + 0.16) / abs(1 + 0.16), rtol=1e-15)

    def test_reference_values(self, reference_params):
        u = two_level_U(mixing_state(reference_params).f).u
        assert abs(u[0, 0] - U_DIAG_REF) <= 1e-14
        assert abs(u[0, 1] - (-1j * U_OFF_REF)) <= 1e-14
        assert abs(u[1, 0] - (1j * U_OFF_REF)) <= 1e-14

    def test_self_orthogonality_raises(self):
        with pytest.raises(ExceptionalPointError):
            two_level_U(1.0)

    def test_matches_gram_matrix_of_eigensystem(self, rng):
        # branch labels vs energy-ascending labels can differ by a
        # permutation and per-vector signs; map before comparing
        from resodyn.verify import _match_branch_to_system

        for _ in range(100):
            p = random_two_level_params(rng, min_ep_distance=0.1)
            sys, ms, perm, signs = _match_branch_to_system(p)
            u_numeric = bell_steinberger(sys).u
            u_exact = two_level_U(ms.f).u
            for j in range(2):
                for k in range(2):
                    assert abs(
                        u_exact[j, k] - signs[j] * signs[k] * u_numeric[perm[j], perm[k]]
                    ) <= 1e-8


class TestVelocities:
    def test_orthogonal_states_have_no_width_flow(self):
        assert width_velocity(0.3j, d=1.0, v=2.0) == (0.0, -0.0)

    def test_reference_values(self, reference_params):
        f = mixing_state(reference_params).f
        gdot1, gdot2 = width_velocity(f, reference_params.d, reference_params.v)
        edot1, edot2 = energy_velocity(f, reference_params.d, reference_params.v)
        assert abs(gdot1 - GDOT1_REF) <= 1e-14
        assert abs(edot1 - EDOT1_REF) <= 1e-14
        assert gdot2 == -gdot1 and edot2 == -edot1

    def test_decoupled_energy_rate(self):
        edot1, _ = energy_velocity(0.0, d=0.37, v=5.0)
        assert edot1 == 0.37

    def test_against_finite_difference(self, rng):
        # central differences of the closed form, labels tracked by proximity
        step = 1e-6
        for _ in range(200):
            p = random_two_level_params(rng, min_ep_distance=0.1)
            f = mixing_state(p).f
            gdot, _ = width_velocity(f, p.d, p.v)
            edot, _ = energy_velocity(f, p.d, p.v)
            base = closed_form_resonances(p)
            branches = []
            for da in (step, -step):
                pair = closed_form_resonances(p, p.alpha + da)
                if abs(pair[0] - base[0]) + abs(pair[1] - base[1]) > abs(
                    pair[1] - base[0]
                ) + abs(pair[0] - base[1]):
                    pair = (pair[1], pair[0])
                branches.append(pair[0])
            deriv = (branches[0] - branches[1]) / (2 * step)
            scale = max(abs(gdot), abs(edot), 1e-6)
            assert abs(gdot + 2 * deriv.imag) <= 1e-4 * scale
            assert abs(edot - deriv.real) <= 1e-4 * scale

    def test_exceptional_point_denominator_raises(self):
        with pytest.raises(ExceptionalPointError):
            width_velocity(1.0, d=1.0, v=1.0)


class TestSweep:
    def test_reference_sweep_sum_rules(self, reference_params):
        table = sweep(reference_params, np.linspace(-2, 2, 801))
        np.testing.assert_array_equal(table.e1 + table.e2, np.zeros(801))
        np.testing.assert_allclose(table.gamma1 + table.gamma2, 1.0, atol=1e-14)

    def test_columns_and_layout(self, reference_params):
        table = sweep(reference_params, np.linspace(-1, 1, 11))
        arr = table.as_array()
        assert arr.shape == (11, len(SWEEP_COLUMNS))
        assert SWEEP_COLUMNS[0] == "alpha" and SWEEP_COLUMNS[-1] == "ep_distance"

    def test_labels_are_continuous(self, rng):
        # trajectories must not jump: the tracked labels change smoothly
        # even where the branch labels swap
        for _ in range(20):
            p = random_two_level_params(rng)
            grid = np.linspace(-2, 2, 2001)
            table = sweep(p, grid)
            if len(table.exceptional_rows):
                continue
            traj = table.e1 - 0.5j * table.gamma1
            jumps = np.abs(np.diff(traj))
            crossed = np.abs(traj[:-1] - (table.e2[1:] - 0.5j * table.gamma2[1:]))
            assert np.all(jumps <= crossed + 1e-12)

    def test_velocity_matches_trajectory_derivative(self, reference_params):
        grid = np.linspace(-2, 2, 4001)
        table = sweep(reference_params, grid)
        h = grid[1] - grid[0]
        numeric = np.gradient(table.gamma1, h)
        np.testing.assert_allclose(numeric[2:-2], table.dgamma1[2:-2], atol=5e-4)

    def test_exceptional_row_is_flagged_and_split(self):
        # eps = nu = 1/4 exactly at alpha = 0; d moves eps off the branching
        # point everywhere else on the grid
        p = TwoLevelParams(delta=0.25, gamma1=0.25, gamma2=0.25, theta=0.0, d=0.1, v=0.0)
        table = sweep(p, np.linspace(-1, 1, 5))
        assert 2 in table.exceptional_rows
        assert np.isnan(table.dgamma1[2]) and np.isnan(table.u11_re[2])

    def test_swapped_row_with_vanishing_mixing_is_regular(self):
        # nu = 0 at alpha = 0 (gamma1 = 0), so the branch f is 0 there; the
        # row is swapped, its relabeled f = 1/f is unbounded, yet it is far
        # from an exceptional point and its velocities and U are finite
        p = TwoLevelParams(delta=0.0709, gamma1=0.0, gamma2=1.90, theta=0.453,
                           d=1.79, v=-0.753)
        table = sweep(p, np.linspace(-2, 2, 2001))
        i = 1000
        assert table.alpha[i] == 0.0 and table.swapped[i]
        assert table.ep_distance[i] > 0.9
        assert table.exceptional_rows.size == 0
        assert np.isnan(table.f[i])
        for col in (table.dgamma1, table.de1, table.u11_re, table.u12_im):
            assert np.isfinite(col[i])
        lo, hi = sorted((table.dgamma1[i - 1], table.dgamma1[i + 1]))
        assert lo < table.dgamma1[i] < hi
        np.testing.assert_allclose([lo, hi], [-0.00475, 0.00475], atol=5e-5)

    def test_grid_validation(self, reference_params):
        with pytest.raises(ValueError):
            sweep(reference_params, [0.0, 0.0])


class TestCriticalPoints:
    def test_reference_orthogonality_point(self, reference_params):
        # with equal partial widths the states become orthogonal exactly
        # where the real part of eps vanishes: alpha = -delta / (2 d)
        alpha_circ = find_alpha_circ(reference_params, (-2, 2))
        assert abs(alpha_circ - (-0.5)) <= 1e-10
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            f = mixing_state(reference_params, alpha=alpha_circ).f
        assert abs(f.real) <= 1e-10
        u = two_level_U(f).u
        assert abs(u[0, 1]) <= 1e-9
        gdot1, _ = width_velocity(f, reference_params.d, reference_params.v)
        assert abs(gdot1) <= 1e-9

    def test_reference_velocity_maximum_dominates_scan(self, reference_params):
        p = reference_params
        alpha_star = find_alpha_star(p, (-2, 2))
        f_star = mixing_state(p, alpha=alpha_star).f
        peak = abs(width_velocity(f_star, p.d, p.v)[0])
        grid = np.linspace(-2, 2, 2001)
        table = sweep(p, grid)
        assert peak >= np.nanmax(np.abs(table.dgamma1)) - 1e-12
        # the velocity peak tracks the nonorthogonality peak
        i = np.nanargmax(np.abs(table.f.real))
        assert abs(alpha_star - grid[i]) <= grid[1] - grid[0]

    def test_symmetric_case_maxima_coincide(self):
        # d = 0 keeps d*Im f = 0 along the sweep; velocity and Re f then
        # peak at the same strength (here alpha = 0 by symmetry)
        p = TwoLevelParams(delta=1.0, gamma1=0.5, gamma2=0.5, theta=np.pi / 10, d=0.0, v=0.75)
        alpha_star = find_alpha_star(p, (-2, 2))
        grid = np.linspace(-2, 2, 2001)
        table = sweep(p, grid)
        i = np.nanargmax(np.abs(table.f.real))
        assert abs(alpha_star - 0.0) <= 1e-6
        assert abs(grid[i] - 0.0) <= 1e-6

    def test_flat_case_has_no_maximum(self):
        p = TwoLevelParams(delta=1.0, gamma1=0.4, gamma2=0.4, theta=np.pi / 2, d=1.0, v=0.0)
        with pytest.raises(ValueError, match="vanishes"):
            find_alpha_star(p, (-2, 2))

    def test_no_sign_change_raises(self, reference_params):
        with pytest.raises(ValueError, match="sign change"):
            find_alpha_circ(reference_params, (0.5, 2.0))


class TestExceptionalPointDistance:
    def test_at_exceptional_point(self):
        p = TwoLevelParams(delta=0.25, gamma1=0.25, gamma2=0.25, theta=0.0, d=0.0, v=0.0)
        assert exceptional_point_distance(p) == 0.0

    def test_reference_value(self, reference_params):
        assert abs(exceptional_point_distance(reference_params) - EP_DIST_REF) <= 1e-15

    def test_off_diagonal_perturbation_controls_proximity(self):
        # with real parameters the distance at the critical strength is set
        # by v: larger v keeps the sweep farther from the branching points
        base = dict(delta=1.0, gamma1=0.5, gamma2=0.5, theta=np.pi / 10, d=1.0)
        distances = []
        for v in (0.25, 0.75, 1.5):
            p = TwoLevelParams(v=v, **base)
            grid = np.linspace(-2, 2, 801)
            distances.append(min(exceptional_point_distance(p, alpha=a) for a in grid))
        assert distances[0] < distances[1] < distances[2]


class TestExceptionalPointRule:
    def test_all_verdicts_agree_near_an_exceptional_point(self):
        # eps = nu = 1/4 exactly at alpha = 0; d moves eps off the branching
        # point, so the tolerance is crossed inside the alpha ladder
        p = TwoLevelParams(delta=0.25, gamma1=0.25, gamma2=0.25, theta=0.0, d=0.1, v=0.0)

        def raises(fn, *args):
            try:
                fn(*args)
            except ExceptionalPointError:
                return True
            return False

        verdicts = []
        for alpha in (0.0, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                closed_form_resonances(p, alpha)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ExceptionalPointWarning)
                ms = mixing_state(p, alpha)
            f = ms.f
            row = (
                any(issubclass(w.category, ExceptionalPointWarning) for w in caught),
                ms.exceptional,
                sweep(p, [alpha]).exceptional_rows.size == 1,
                raises(two_level_U, f),
                raises(width_velocity, f, p.d, p.v),
                raises(energy_velocity, f, p.d, p.v),
            )
            assert len(set(row)) == 1, (alpha, row)
            verdicts.append(row[0])
        assert verdicts[0] and not verdicts[-1]
