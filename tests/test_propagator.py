import cmath
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from weakgordon import measure as me
from weakgordon import poly
from weakgordon import propagator as pr
from weakgordon.errors import DomainError, ResourceError, ToleranceError

import walk_oracle as wo
from conftest import random_measure


def random_potential(rng, window=(-3, 3), max_atoms=6, densities=True, unif_cap=5.0,
                     density_degree=0):
    return random_measure(
        rng,
        window=window,
        max_atoms=max_atoms,
        max_segments=2 if densities else 0,
        density_degree=density_degree,
        max_weight=1.0,
        unif_cap=unif_cap,
    )


class TestTransferMatrix:
    def test_free_particle(self):
        T = pr.transfer_matrix(me.zero_measure((-1, 1)), 0.0, 0.0, 0.7)
        assert np.allclose(T.entries, [[1, 0.7], [0, 1]])
        assert T.det_defect == 0.0

    def test_negative_energy_cosh(self):
        T = pr.transfer_matrix(me.zero_measure((-1, 2)), -1.0, 0.0, 1.0)
        ref = [[math.cosh(1), math.sinh(1)], [math.sinh(1), math.cosh(1)]]
        assert np.allclose(T.entries, ref, atol=1e-14)

    def test_atom_factor(self):
        w = 1.7
        T = pr.transfer_matrix(me.dirac(0.0, w, (-0.25, 0.25)), 0.0, -1e-9, 1e-9)
        assert np.allclose(T.entries, [[1, 0], [w, 1]], atol=1e-8)

    def test_inverse_relation(self, rng):
        for _ in range(15):
            mu = random_potential(rng)
            z = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
            s, t = sorted(rng.uniform(-2.8, 2.8, 2))
            Tf = pr.transfer_matrix(mu, z, s, t)
            Tb = pr.transfer_matrix(mu, z, t, s)
            assert np.max(np.abs(Tf.entries @ Tb.entries - np.eye(2))) < 1e-9

    def test_composition(self, rng):
        for _ in range(15):
            mu = random_potential(rng)
            z = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
            r, s, t = sorted(rng.uniform(-2.8, 2.8, 3))
            Ta = pr.transfer_matrix(mu, z, r, s)
            Tb = pr.transfer_matrix(mu, z, s, t)
            Tc = pr.transfer_matrix(mu, z, r, t)
            scale = max(1.0, float(np.max(np.abs(Tc.entries))))
            assert (
                np.max(np.abs(Tb.entries @ Ta.entries - Tc.entries)) / scale < 1e-9
            )

    def test_det_certificate(self, rng):
        for _ in range(15):
            mu = random_potential(rng)
            z = complex(rng.uniform(-4, 4), rng.uniform(-1, 1))
            T = pr.transfer_matrix(mu, z, -2.5, 2.5)
            assert T.det_defect <= 1e-10 * 5.0

    def test_dirichlet_neumann_columns(self):
        mu = me.zero_measure((-1, 2))
        uN, duN, uD, duD = pr.dirichlet_neumann(mu, 0.0, 0.0, 1.3)
        assert (uN, duN, uD, duD) == (1.0, 0.0, 1.3, 1.0)

    def test_dirichlet_antisymmetry(self, rng):
        for _ in range(10):
            mu = random_potential(rng)
            z = complex(rng.uniform(-2, 2), 0)
            s, t = rng.uniform(-2.5, 2.5, 2)
            _, _, uD_ts, _ = pr.dirichlet_neumann(mu, z, float(s), float(t))
            _, _, uD_st, _ = pr.dirichlet_neumann(mu, z, float(t), float(s))
            assert abs(uD_ts + uD_st) < 1e-9 * max(1.0, abs(uD_ts))


class TestPropagate:
    def test_constant_solution(self):
        tr = pr.propagate(me.zero_measure((-2, 2)), 0.0, 0.0, (1.0, 0.0), np.linspace(-1.5, 1.5, 7))
        assert np.allclose(tr.u, 1.0)
        assert np.allclose(tr.du, 0.0)

    def test_dirac_kink(self):
        # the mollified oracle: propagate through mollify(w delta_0, n) -> kink
        w = 0.8
        mu = me.dirac(0.0, w, (-2, 2))
        grid = np.linspace(-1.0, 1.0, 9)
        tr = pr.propagate(mu, 0.0, -1.0, (1.0, 0.0), grid)
        for t, u in zip(tr.grid, tr.u):
            expect = 1.0 if t <= 0 else 1.0 + w * t
            assert abs(u - expect) < 1e-12
        mol = me.mollify(mu, 64)
        trm = pr.propagate(mol, 0.0, -1.0, (1.0, 0.0), grid)
        assert np.max(np.abs(trm.u - tr.u)) < 0.05

    def test_jump_log_exactness(self, rng):
        for _ in range(10):
            mu = random_potential(rng, densities=False)
            grid = np.linspace(-2.5, 2.5, 11)
            tr = pr.propagate(mu, 0.3, 0.0, (1.0, 0.5), grid)
            atom_map = dict(mu.atoms)
            for x, w, jump in tr.jump_log:
                assert atom_map[x] == w
                pts = np.array(sorted({x, 0.0}))
                fine = pr.propagate(mu, 0.3, 0.0, (1.0, 0.5), pts)
                u_x = fine.u[list(fine.grid).index(x)]
                assert abs(jump - w * u_x) < 1e-12 * max(1.0, abs(jump))

    def test_mollification_consistency(self, rng):
        # propagate(mollify(mu, n)) is Cauchy toward propagate(mu)
        mu = random_potential(np.random.default_rng(5), window=(-3, 3), max_atoms=4)
        grid = np.linspace(-2.0, 2.0, 9)
        ref = pr.propagate(mu, -0.5, 0.0, (1.0, 0.2), grid)
        errs = []
        for n in (8, 32, 128):
            mol = me.mollify(mu, n)
            tr = pr.propagate(mol, -0.5, 0.0, (1.0, 0.2), grid)
            errs.append(float(np.max(np.abs(tr.u - ref.u))))
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] < 0.02


@st.composite
def walks(draw):
    """A measure on (-3, 3) with atoms on grid points, at s and on segment
    ends, a grid, s inside its range (a grid point or not) and z."""
    lattice = [round(-2.5 + 0.5 * k, 12) for k in range(11)]
    grid = sorted(set(draw(st.lists(st.sampled_from(lattice), min_size=1, max_size=6))))
    s = draw(st.one_of(st.sampled_from(grid), st.floats(grid[0], grid[-1])))
    cuts = sorted(draw(st.lists(st.floats(-2.9, 2.9), min_size=2, max_size=4)))
    segments = []
    for a, b in zip(cuts[0::2], cuts[1::2]):
        if b - a > 1e-6:
            deg = draw(st.integers(0, 3))
            coeffs = draw(st.lists(st.floats(-1.0, 1.0), min_size=deg + 1, max_size=deg + 1))
            segments.append((a, b, tuple(coeffs)))
    special = grid + [s] + [x for a, b, _ in segments for x in (a, b)]
    position = st.one_of(st.sampled_from(special), st.floats(-2.9, 2.9))
    weight = st.builds(complex, st.floats(-1.0, 1.0), st.floats(-0.5, 0.5))
    atoms = draw(st.lists(st.tuples(position, weight), max_size=6))
    z = draw(st.builds(complex, st.floats(-2.0, 2.0), st.floats(-0.5, 0.5)))
    return me.make_measure(atoms, segments, (-3, 3)), z, s, grid


@settings(max_examples=100, deadline=None, derandomize=True)
@given(walks())
def test_walker_consumers_agree(case):
    # propagate folds the walk into a state, transfer_matrix into matrices.
    # Grid points cut the Magnus steps of a walk, so T(x, s) is chained
    # through the grid points between s and x: both consumers then apply
    # the same factors, and differ only by rounding.
    mu, z, s, grid = case
    initial = np.array([1.0 - 0.5j, 0.25 + 0j])
    tr = pr.propagate(mu, z, s, initial, grid, 1e-6)
    scale = max(1.0, float(np.max(np.abs(tr.u))), float(np.max(np.abs(tr.du))))
    right = [k for k, x in enumerate(grid) if x >= s]
    left = [k for k, x in enumerate(grid) if x < s]
    for side in (right, left[::-1]):
        prev, state = s, initial
        for k in side:
            state = pr.transfer_matrix(mu, z, prev, grid[k], 1e-6).entries @ state
            assert np.max(np.abs(state - [tr.u[k], tr.du[k]])) <= 1e-10 * scale
            prev = grid[k]
    logged = sorted(x for x, _w, _jump in tr.jump_log)
    assert logged == [x for x, _w in mu.atoms if grid[0] < x <= grid[-1]]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(walks(), st.floats(-2.9, 2.9), st.floats(-2.9, 2.9))
def test_composition_through_matmul(case, r, t):
    # T(t, r) T(r, s) = T(t, s); the walk to r cuts the Magnus steps at r,
    # which moves the product at the discretisation level (1e-10 at tol 1e-12)
    mu, z, s, _grid = case
    tol = 1e-12
    Ttr, Trs = pr.transfer_matrix(mu, z, r, t, tol), pr.transfer_matrix(mu, z, s, r, tol)
    Tts = pr.transfer_matrix(mu, z, s, t, tol)
    prod = Ttr @ Trs
    scale = max(1.0, float(np.max(np.abs(Ttr.entries))) * float(np.max(np.abs(Trs.entries))))
    assert np.max(np.abs(prod.entries - Tts.entries)) <= 1e-9 * scale
    assert (prod.source, prod.target) == (s, t)
    assert prod.det_defect == Ttr.det_defect + Trs.det_defect
    with pytest.raises(DomainError):
        Ttr @ pr.transfer_matrix(mu, z, s, r + 1e-6, tol)


def test_matmul_chains_within_the_relative_slack():
    # at 2^17 one ulp is above an absolute 1e-12: ends one ulp apart chain,
    # ends further apart than 1e-12 * max(1, |ends|) still raise
    x = 2.0**17
    mu = me.make_measure([(x + 0.5, 0.3)], [(x - 1.0, x + 1.0, (0.2, 0.1))], (x - 2.0, x + 2.0))
    Ta = pr.transfer_matrix(mu, 0.5, x - 1.5, x)
    Tb = pr.transfer_matrix(mu, 0.5, math.nextafter(x, 0.0), x + 1.5)
    T = Tb @ Ta
    assert (T.source, T.target) == (x - 1.5, x + 1.5)
    assert T.entries.tobytes() == (Tb.entries @ Ta.entries).tobytes()
    with pytest.raises(DomainError, match="do not chain"):
        pr.transfer_matrix(mu, 0.5, x - 2e-12 * x, x + 1.5) @ Ta


@settings(max_examples=100, deadline=None, derandomize=True)
@given(walks())
def test_transfer_steps_are_the_pairwise_transfer_matrices(case):
    # one walk, its fold restarted at every point, applies each step's
    # factors in the order transfer_matrix does: the same bytes
    mu, z, s, grid = case
    points = sorted({s, *grid})
    steps = pr.transfer_steps(mu, z, points[::-1], 1e-6)
    assert len(steps) == len(points) - 1
    for x0, x1, T in zip(points, points[1:], steps):
        assert T.tobytes() == pr.transfer_matrix(mu, z, x0, x1, 1e-6).entries.tobytes()
    with pytest.raises(DomainError):
        pr.transfer_steps(mu, z, [*points, 3.5])


class TestComplexSpectralShift:
    def test_atoms_only_norm(self, rng):
        # |mu - z lambda| puts |z| on every unit of length next to the atoms
        for _ in range(20):
            mu = random_measure(rng, window=(-3, 3), max_segments=0, complex_weights=True)
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            for r in (0.3, 1.0, 2.5):
                # the heaviest window (a, a + r] ends at an atom x, or
                # starts at the window edge when x - r lies outside it
                heaviest = max(
                    sum(abs(w) for y, w in mu.atoms if max(mu.lo, x - r) < y <= max(x, mu.lo + r))
                    for x, _ in mu.atoms
                )
                got = me.norm_unif(pr.spectral_shift(mu, z), r)
                assert got == pytest.approx(heaviest / r + abs(z), abs=1e-12)

    def test_stability_bound_at_complex_z(self, rng):
        mu2 = random_potential(rng, window=(-4, 4), max_atoms=4)
        mu1 = me.add_measures(mu2, me.dirac(0.3, 0.05, (-4, 4)))
        z = 0.5 - 0.25j
        b = pr.stability_bound(mu1, mu2, z, -2, 2, u2_sup=1.0, tol=1e-4)
        assert b.omega == me.norm_unif(pr.spectral_shift(mu1, z)) + 1.0
        assert b.omega > abs(z) + 1.0
        assert math.isfinite(b.constant) and b.constant > 0
        assert b(1.0) > 0


class TestGrowthBounds:
    def test_gronwall_formula(self):
        mu = me.zero_measure((-2, 2))
        assert pr.gronwall_bound(mu, 1.5, 2.0) == pytest.approx(2.0 * math.exp(2.5))

    def test_gronwall_dominates(self, rng):
        for _ in range(25):
            mu = random_potential(rng)
            z = 0.0
            grid = np.linspace(-2.5, 2.5, 21)
            tr = pr.propagate(mu, z, 0.0, (1.0, -0.3), grid)
            init = abs(1.0) + abs(-0.3)
            for t, u, du in zip(tr.grid, tr.u, tr.du):
                assert abs(u) + abs(du) <= pr.gronwall_bound(mu, t, init) + 1e-9

    def test_sharp_growth_formula(self):
        lam = me.lebesgue((-2, 2))
        got = pr.sharp_growth_bound(lam, 1.0, 1.0, 1.0)
        assert got == pytest.approx(math.sqrt(2.0) * math.exp(1.5))

    def test_sharp_growth_dominates(self, rng):
        for _ in range(25):
            mu = random_potential(rng)
            w = math.sqrt(me.norm_unif(mu))
            grid = np.linspace(-2.5, 2.5, 21)
            tr = pr.propagate(mu, 0.0, 0.0, (0.7, 0.4), grid)
            for t, u, du in zip(tr.grid, tr.u, tr.du):
                measured = math.sqrt(w * w * abs(u) ** 2 + abs(du) ** 2)
                assert measured <= pr.sharp_growth_bound(mu, t, 0.7, 0.4) + 1e-9

    def test_sharp_growth_zero_measure_affine(self):
        mu = me.zero_measure((-2, 2))
        assert pr.sharp_growth_bound(mu, 5.0, 3.0, 0.25) == 0.25

    def test_derivative_chain(self, rng):
        count = 0
        for _ in range(40):
            mu = random_potential(rng, window=(-2, 2), max_atoms=4)
            grid = np.sort(
                np.concatenate(
                    [np.linspace(-1.9, 1.9, 1201), [x for x, _ in mu.atoms]]
                )
            )
            tr = pr.propagate(mu, 0.0, 0.0, (1.0, 0.1), grid)
            chain = pr.derivative_sup_bound(mu, tr, (-0.5, 0.5))
            assert all(chain.holds), chain
            count += 1
        assert count == 40

    def test_derivative_chain_is_scale_free(self, rng):
        # initial data scaled by 2^+-60 scale the trace exactly, and the
        # chain's slack is relative, so `holds` does not move
        for _ in range(10):
            mu = random_potential(rng, window=(-2, 2), max_atoms=4)
            grid = np.sort(np.concatenate([np.linspace(-1.9, 1.9, 401), [x for x, _ in mu.atoms]]))
            chains = [pr.derivative_sup_bound(mu, pr.propagate(mu, 0.0, 0.0, (f, 0.1 * f), grid),
                                              (-0.5, 0.5)) for f in (1.0, 2.0**60, 2.0**-60)]
            for f, chain in zip((2.0**60, 2.0**-60), chains[1:]):
                assert (chain.sup_du, chain.sup_u) == (f * chains[0].sup_du, f * chains[0].sup_u)
                assert chain.holds == chains[0].holds
        # u' steep against a small u: sup|u'| <= M sup|u| fails at every
        # scale, also at 2^-60, where an absolute slack would pass it
        grid = np.linspace(-0.5, 0.5, 11)
        for f in (1.0, 2.0**60, 2.0**-60):
            tr = pr.SolutionTrace(grid, np.full(11, 1e-3 * f), np.full(11, f), ())
            chain = pr.derivative_sup_bound(me.zero_measure((-1, 1)), tr, (-0.5, 0.5))
            assert chain.holds == (True, False, True)

    @pytest.mark.parametrize("shift", [0.0, 2.0**17])
    def test_atom_an_ulp_off_its_grid_point(self, shift):
        # the jump at an atom one ulp off its grid point still gives the
        # left derivative -9 there, also where positions round at 1.5e-11
        grid = np.linspace(-0.5, 0.5, 11) + shift
        du = np.ones(11)
        tr = pr.SolutionTrace(grid, np.ones(11), du, ((math.nextafter(grid[5], math.inf), 1.0, 10.0),))
        chain = pr.derivative_sup_bound(me.zero_measure((shift - 1.0, shift + 1.0)), tr,
                                        (shift - 0.5, shift + 0.5))
        assert chain.sup_du == 9.0

    def test_cosh_closed_form_chain(self):
        # mu = lambda, z = 0 on [0, 1]: u = cosh, ||u'||_inf = sinh 1 <= 3 cosh 1
        lam = me.lebesgue((-0.5, 1.5))
        grid = np.linspace(0.0, 1.0, 2001)
        tr = pr.propagate(lam, 0.0, 0.0, (1.0, 0.0), grid)
        chain = pr.derivative_sup_bound(lam, tr, (0.0, 1.0))
        assert chain.sup_du == pytest.approx(math.sinh(1.0), abs=1e-6)
        assert chain.m_mu == 3.0
        assert all(chain.holds)


class TestStability:
    def test_identical_measures(self, rng):
        mu = random_potential(rng)
        b = pr.stability_bound(mu, mu, 0.0, -2, 2, u2_sup=1.0)
        assert b(1.0) == 0.0

    def test_dominates_difference(self, rng):
        for _ in range(10):
            mu2 = random_potential(rng, window=(-4, 4), max_atoms=4)
            pert = random_measure(
                rng, window=(-4, 4), max_atoms=2, max_segments=0, max_weight=0.05
            )
            mu1 = me.add_measures(mu2, pert)
            z = 0.0
            grid = np.linspace(-2.0, 2.0, 17)
            sd = pr.solution_difference(mu1, mu2, z, (1.0, 0.0), grid)
            u2_sup = float(
                np.max(np.abs(pr.propagate(mu2, z, 0.0, sd.u2_initial, grid).u))
            )
            bound = pr.stability_bound(mu1, mu2, z, -2, 2, u2_sup, tol=1e-4)
            for t, v in zip(sd.grid, sd.v):
                assert abs(v) <= bound(t) + 1e-9

    def test_default_exponent_admissible(self, rng):
        # |d1 u_D(t+, s)| <= e^omega e^{omega |t - s|}
        for _ in range(10):
            mu = random_potential(rng)
            omega = me.norm_unif(mu) + 1.0
            s, t = rng.uniform(-2.5, 2.5, 2)
            _, _, _, duD = pr.dirichlet_neumann(mu, 0.0, float(s), float(t))
            assert abs(duD) <= math.exp(omega) * math.exp(omega * abs(t - s)) + 1e-9

    def test_interval_validation(self, rng):
        mu = random_potential(rng)
        with pytest.raises(DomainError):
            pr.stability_bound(mu, mu, 0.0, 0, 2, 1.0)


class TestSolutionDifference:
    @pytest.mark.parametrize("degree", [0, 3])
    def test_reconstruction_matches(self, rng, degree):
        for _ in range(10):
            mu1 = random_potential(rng, window=(-4, 4), max_atoms=4, density_degree=degree)
            mu2 = random_potential(rng, window=(-4, 4), max_atoms=4, density_degree=degree)
            z = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
            grid = np.linspace(-3.0, 3.0, 13)
            sd = pr.solution_difference(mu1, mu2, z, (1.0, 0.3), grid)
            scale = max(1.0, float(np.max(np.abs(sd.v))))
            assert sd.max_mismatch / scale < 1e-6

    def test_matched_initial_condition(self, rng):
        mu1 = random_potential(rng, window=(-4, 4))
        mu2 = random_potential(rng, window=(-4, 4))
        grid = np.linspace(-2.0, 2.0, 9)
        sd = pr.solution_difference(mu1, mu2, 0.0, (1.0, 0.5), grid)
        c = sd.c_matching
        assert sd.u2_initial == (1.0 + 0j, 0.5 + c)
        i0 = int(np.argmin(np.abs(grid)))
        assert abs(sd.v[i0]) < 1e-12

    @pytest.mark.parametrize("degree", [0, 3])
    def test_duhamel_identity_off_zero(self, rng, degree):
        for _ in range(8):
            mu1 = random_potential(rng, window=(-4, 4), max_atoms=3, density_degree=degree)
            mu2 = random_potential(rng, window=(-4, 4), max_atoms=3, density_degree=degree)
            z = 0.2
            grid = np.linspace(-3.0, 3.0, 25)
            tr1 = pr.propagate(mu1, z, 0.0, (1.0, 0.1), grid)
            tr2 = pr.propagate(mu2, z, 0.0, (0.8, -0.2), grid)
            s = float(grid[rng.integers(0, len(grid))])
            t = float(grid[rng.integers(0, len(grid))])
            val = pr.variation_of_constants_value(mu1, mu2, z, tr1, tr2, s, t)
            i_t = int(np.argmin(np.abs(grid - t)))
            direct = tr1.u[i_t] - tr2.u[i_t]
            assert abs(val - direct) <= 1e-6 * max(1.0, abs(direct))

    def test_duhamel_panels_cut_at_cancelled_atoms(self):
        # the atom at 0.75 cancels in nu but is a kink of u2 and u_D(t, .)
        # inside nu's density: the panels must be cut there too
        window = (-4.0, 4.0)
        mu2 = me.make_measure([(0.75, 0.5)], [(-4.0, 4.0, (0.2, 0.05, -0.01, 0.002))], window)
        mu1 = me.add_measures(mu2, me.make_measure((), [(0.0, 2.0, (0.3,))], window))
        grid = np.linspace(-2.0, 2.0, 9)
        tr1 = pr.propagate(mu1, 0.2, 0.0, (1.0, 0.1), grid)
        tr2 = pr.propagate(mu2, 0.2, 0.0, (0.8, -0.2), grid)
        val = pr.variation_of_constants_value(mu1, mu2, 0.2, tr1, tr2, 0.0, 2.0)
        direct = tr1.u[-1] - tr2.u[-1]
        assert abs(val - direct) <= 1e-6 * max(1.0, abs(direct))

    @pytest.mark.parametrize("shift", [0.0, 2.0**17])
    def test_anchor_an_ulp_off_its_grid_point(self, shift):
        # near 2^17 positions round at 1.5e-11: an anchor one ulp below its
        # grid value still names that grid point
        window = (-4.0, 4.0)
        mu2 = me.make_measure([(0.75, 0.5)], [(-4.0, 4.0, (0.2, 0.05, -0.01, 0.002))], window)
        mu1 = me.add_measures(mu2, me.make_measure((), [(0.0, 2.0, (0.3,))], window))
        mu1, mu2 = me.translate(mu1, -shift), me.translate(mu2, -shift)
        grid = np.linspace(-2.0, 2.0, 9) + shift
        tr1 = pr.propagate(mu1, 0.2, shift, (1.0, 0.1), grid)
        tr2 = pr.propagate(mu2, 0.2, shift, (0.8, -0.2), grid)
        s = math.nextafter(shift - 1.0, -math.inf)
        val = pr.variation_of_constants_value(mu1, mu2, 0.2, tr1, tr2, s, shift + 2.0)
        direct = tr1.u[-1] - tr2.u[-1]
        assert abs(val - direct) <= 1e-6 * max(1.0, abs(direct))

    def test_anchor_a_subnormal_off_its_grid_point(self):
        # the stretch from the anchor -5e-324 to the breakpoint 0 halves to
        # 0: it is still one panel, so the anchor stays a node
        window = (-4.0, 4.0)
        mu2 = me.make_measure([(0.75, 0.5)], [(-4.0, 4.0, (0.2, 0.05, -0.01, 0.002))], window)
        mu1 = me.add_measures(mu2, me.make_measure((), [(0.0, 2.0, (0.3,))], window))
        grid = np.linspace(-2.0, 2.0, 9)
        tr1 = pr.propagate(mu1, 0.2, 0.0, (1.0, 0.1), grid)
        tr2 = pr.propagate(mu2, 0.2, 0.0, (0.8, -0.2), grid)
        s = math.nextafter(0.0, -math.inf)
        val = pr.variation_of_constants_value(mu1, mu2, 0.2, tr1, tr2, s, 2.0)
        direct = tr1.u[-1] - tr2.u[-1]
        assert abs(val - direct) <= 1e-9 * max(1.0, abs(direct))

    def test_degenerate_inputs(self):
        mu1 = me.dirac(0.3, 0.2, (-3.0, 3.0))
        mu2 = me.dirac(-0.4, 0.1, (-3.0, 3.0))
        with pytest.raises(DomainError):
            pr.solution_difference(mu1, mu2, 0.0, (1.0, 0.0), [])
        sd = pr.solution_difference(mu1, mu2, 0.0, (1.0, 0.0), [0.0])
        assert sd.v.tolist() == [0.0] and sd.v_reconstructed.tolist() == [0.0]
        assert sd.max_mismatch == 0.0
        with pytest.raises(DomainError):
            pr.solution_difference(mu1, mu2, 0.0, (1.0, 0.0), [0.0, 1.0], tol=0.0)

    def test_panel_rule_resolves_a_long_stretch(self):
        # grid points 4 apart at z = 10: the 8-point rule in place of the
        # 16-point one (mismatch 1.2e-7) or panels left longer than 2
        # (ToleranceError, estimate 3.8e-4) fail here
        window = (-6.0, 6.0)
        mu1 = me.make_measure([(0.7, 0.3)], [(-5.0, 5.0, (0.2, 0.05, -0.01, 0.002))], window)
        mu2 = me.make_measure([(-1.3, -0.2)], [(-5.0, 5.0, (0.1, -0.03, 0.02))], window)
        sd = pr.solution_difference(mu1, mu2, 10.0, (1.0, 0.3), [-4.0, 0.0, 4.0], tol=1e-8)
        assert sd.max_mismatch <= 1e-10 * max(1.0, float(np.max(np.abs(sd.v))))

    def test_quadrature_error_raises(self):
        # at z = -100 the solutions grow like e^(10 |t|): the 16- and
        # 8-point rules disagree far beyond the tolerance
        mu1 = me.dirac(0.3, 0.2, (-3.0, 3.0))
        mu2 = me.dirac(-0.4, 0.1, (-3.0, 3.0))
        with pytest.raises(ToleranceError, match="t=2.0"):
            pr.solution_difference(mu1, mu2, -100.0, (1.0, 0.0), np.linspace(-2.0, 2.0, 3))


def _duhamel_value(mu, tol):
    tr = pr.propagate(mu, 0.0, 0.0, (1.0, 0.0), [0.0, 0.5])
    return pr.variation_of_constants_value(mu, mu, 0.0, tr, tr, 0.0, 0.5, tol)


@pytest.mark.parametrize("call", [
    lambda mu, tol: pr.propagate(mu, 0.0, 0.0, (1.0, 0.0), [0.0, 0.5], tol),
    lambda mu, tol: pr.transfer_matrix(mu, 0.0, 0.0, 0.5, tol),
    lambda mu, tol: pr.transfer_steps(mu, 0.0, [0.0, 0.5], tol),
    lambda mu, tol: pr.solution_difference(mu, mu, 0.0, (1.0, 0.0), [0.0, 0.5], tol),
    _duhamel_value,
], ids=["propagate", "transfer_matrix", "transfer_steps", "solution_difference",
        "variation_of_constants_value"])
def test_tol_must_be_positive(call):
    # NaN too, which fails every comparison, so a `tol <= 0` test lets it by
    mu = me.make_measure((), [(-1.0, 1.0, (0.1, 0.2))], (-1.0, 1.0))
    for tol in (0.0, -1e-8, math.nan):
        with pytest.raises(DomainError, match="tol must be positive"):
            call(mu, tol)


def _voc_on_grids(n1, n2, s):
    """variation_of_constants_value anchored at s, with tr1 on n1 and tr2 on
    n2 equally spaced points of [-2, 2]."""
    mu1 = me.make_measure([(0.3, 0.2)], [(-3.0, 3.0, (0.1, 0.05))], (-3.0, 3.0))
    mu2 = me.dirac(-0.4, 0.1, (-3.0, 3.0))
    tr1 = pr.propagate(mu1, 0.2, 0.0, (1.0, 0.1), np.linspace(-2.0, 2.0, n1))
    tr2 = pr.propagate(mu2, 0.2, 0.0, (0.8, -0.2), np.linspace(-2.0, 2.0, n2))
    return pr.variation_of_constants_value(mu1, mu2, 0.2, tr1, tr2, s, 1.5)


_DIRAC = me.dirac(0.3, 0.2, (-3.0, 3.0))
_SLOPE = me.make_measure((), [(-2.0, 2.0, (0.5, 0.25))], (-2.0, 2.0))
_SHORT_TRACE = pr.propagate(_DIRAC, 0.0, 0.0, (1.0, 0.0), [-1.0, 0.0])


@pytest.mark.parametrize("call, error, message", [
    (lambda: pr.transfer_steps(_DIRAC, 0.0, []), DomainError, "no points"),
    (lambda: pr.propagate(_DIRAC, 0.0, 0.0, (1.0, 0.0), []), DomainError, "empty grid"),
    (lambda: pr.propagate(_DIRAC, 0.0, 1.5, (1.0, 0.0), [0.0, 1.0]), DomainError,
     "s must lie in the grid range"),
    (lambda: pr.derivative_sup_bound(_DIRAC, _SHORT_TRACE, (0.0, 2.0)), DomainError,
     "interval (0.0, 2.0) must have unit length"),
    (lambda: pr.derivative_sup_bound(_DIRAC, _SHORT_TRACE, (0.5, 1.5)), DomainError,
     "interval not resolved by the trace grid"),
    (lambda: pr.stability_bound(_DIRAC, _DIRAC, 0.0, -1.5, 2, 1.0), DomainError,
     "alpha, beta must be integers"),
    (lambda: pr.solution_difference(_DIRAC, _DIRAC, 0.0, (1.0, 0.0), [0.5, 1.0]),
     DomainError, "0 must lie in the grid range"),
    (lambda: _voc_on_grids(9, 9, 0.3), DomainError, "s must be a trace grid point"),
    # tr1's index of s names another point of tr2, or none
    (lambda: _voc_on_grids(9, 5, -1.0), DomainError,
     "s must be a grid point of tr2 at its index in tr1"),
    (lambda: _voc_on_grids(9, 5, 0.5), DomainError,
     "s must be a grid point of tr2 at its index in tr1"),
    # the step count is checked as a float: 2e75 steps would wrap in int64
    (lambda: pr.transfer_matrix(_SLOPE, 0.0, -1.0, 1.0, 1e-300), ResourceError,
     "the walk needs 2e+75 Magnus steps, budget 1000000"),
    # the budget counts the steps of the whole call: 1e15 on each side of s
    (lambda: pr.propagate(_SLOPE, 0.0, 0.0, (1.0, 0.0), [-1.0, 1.0], 1e-60), ResourceError,
     "the walk needs 2e+15 Magnus steps, budget 1000000"),
], ids=["transfer-steps-no-points", "propagate-empty-grid", "propagate-s-outside",
        "chain-not-unit", "chain-unresolved", "stability-non-integer", "difference-no-zero",
        "voc-off-grid", "voc-other-tr2-point", "voc-past-tr2", "magnus-steps-past-int64",
        "magnus-steps-past-budget"])
def test_raise_paths(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# the batched Magnus kernel against the former scalar one


_EPS = np.finfo(float).eps
_SQRT3 = math.sqrt(3.0)


def assert_agrees(got, ref, exact):
    """Byte equality, or agreement within 1e-12 of the larger of 1 and the
    largest reference entry: the bound for a different association order
    of the Magnus run products (tests/walk_oracle.py)."""
    got, ref = np.asarray(got, dtype=complex), np.asarray(ref, dtype=complex)
    if exact:
        assert got.tobytes() == ref.tobytes()
    else:
        scale = max(1.0, float(np.max(np.abs(ref), initial=0.0)))
        assert float(np.max(np.abs(got - ref), initial=0.0)) <= 1e-12 * scale


def assert_defect_agrees(defect, ref, stats):
    """det_defect against the oracle's Python sum: the same bytes without
    Magnus steps, else within a few ulps of 1 per step (NumPy's complex
    products can differ from Python's in the last bit)."""
    if stats.magnus == 0:
        assert defect == ref
    else:
        assert abs(defect - ref) <= 8 * _EPS * stats.magnus


def scalar_even_funcs(w2):
    if abs(w2) < 1e-4:
        c = 1.0 + 0j
        s = 1.0 + 0j
        term = 1.0 + 0j
        for k in range(1, 7):
            term = term * w2
            c += term / math.factorial(2 * k)
            s += term / math.factorial(2 * k + 1)
        return c, s
    r = cmath.sqrt(complex(w2))
    return cmath.cosh(r), cmath.sinh(r) / r


@pytest.mark.parametrize("w2", [0.0, 3e-5, -9.9e-5, 2e-5 - 7e-5j, 1e-4j, 0.5, -3.0 + 1j])
def test_even_funcs_series_is_the_factorial_division(w2):
    # the constant divisors give the bytes of the math.factorial ones
    assert pr._even_funcs(w2) == scalar_even_funcs(w2)
    c, s = pr._even_funcs_array(np.array([w2, w2], dtype=complex))
    ref_c, ref_s = np.ones(2, dtype=complex), np.ones(2, dtype=complex)
    if abs(w2) < 1e-4:
        term = np.ones(2, dtype=complex)
        for k in range(1, 7):
            term = term * w2
            ref_c += term / math.factorial(2 * k)
            ref_s += term / math.factorial(2 * k + 1)
    else:
        r = np.sqrt(np.array([w2, w2], dtype=complex))
        ref_c, ref_s = np.cosh(r), np.sinh(r) / r
    assert c.tobytes() == ref_c.tobytes() and s.tobytes() == ref_s.tobytes()


def test_span_events_carry_their_covering_segments():
    # each span of the walk takes its factors from the one segment that a
    # scan of every segment finds covering it (or from none), on a
    # mollified measure (many adjacent segments) and on spans that start
    # and end inside, between and on segment ends; an atom is no factor but
    # a mark after the spans up to it
    mu = me.make_measure([(0.3, 1.0), (1.0, -0.5)],
                         ((-2.0, -1.0, (1.0,)), (-1.0, 0.5, (0.5, 1.0)), (1.5, 2.5, (0.2,))),
                         (-3, 3))
    for m in (mu, me.mollify(mu, 8)):
        for a, b in ((-3.0, 3.0), (-1.5, 2.0), (-1.0, 0.5), (0.7, 0.9), (2.6, 3.0)):
            cut = sorted({a, b} | {min(max(x, a), b) for s in m.segments for x in (s.start, s.end)}
                         | {x for x, _ in m.atoms_in(a, b)})
            runs, expected, atoms, atom_marks = [], [], dict(m.atoms_in(a, b)), []
            for x0, x1 in zip(cut, cut[1:]):
                scan = [s for s in m.segments if s.start <= x0 and x1 <= s.end]
                assert len(scan) <= 1
                span = wo.span_factors(1.0, x0, x1, scan[0] if scan else None, 1e-8, runs)
                expected.append((span[0], None, 0))  # a span's Magnus steps are one factor
                if x1 in atoms:
                    atom_marks.append((len(expected), x1, atoms[x1]))
            products = iter(wo.run_products(runs, 1.0))
            expected = [next(products) if F is None else (F, d, n) for F, d, n in expected]
            factors, defects, marks, stats = pr._walk(m, 1.0, a, b, 1e-8)
            defects = list(defects)
            assert expected and len(factors) == len(expected) == stats.constant + stats.runs
            for F, d, (ref, ref_d, n) in zip(factors, defects, expected):
                assert_agrees(F, ref, n <= 1)
                assert (d is None) == (ref_d is None)
            assert marks == tuple(atom_marks) and stats.atoms == len(atoms)
            assert [(x, w) for _, x, w in marks] == list(m.atoms_in(a, b))
            assert stats.magnus == sum(n for *_, n in runs) and stats.runs == len(runs)


def scalar_magnus_factor(coeffs, x0, h, z):
    t1 = x0 + (0.5 - _SQRT3 / 6.0) * h
    t2 = x0 + (0.5 + _SQRT3 / 6.0) * h
    q1 = poly.evaluate(coeffs, t1) - z
    q2 = poly.evaluate(coeffs, t2) - z
    qbar = 0.5 * (q1 + q2)
    delta = (_SQRT3 / 12.0) * h * h * (q1 - q2)
    w2 = delta * delta + h * h * qbar
    c, s = scalar_even_funcs(w2)
    return np.array(
        [[c + s * delta, s * h], [s * h * qbar, c - s * delta]], dtype=complex
    )


def scalar_span_factors(mu, z, x0, x1, tol):
    out = []
    for s in mu.segments:
        if not (s.start <= x0 and x1 <= s.end):
            continue
        c = poly.trim(s.coeffs)
        if len(c) == 1:
            out.append(np.array(pr._const_factor(c[0] - z, x1 - x0)).reshape(2, 2))
            continue
        n = max(1, int(math.ceil((x1 - x0) / min(x1 - x0, tol**0.25))))
        h = (x1 - x0) / n
        out.extend(scalar_magnus_factor(s.coeffs, x0 - s.start + k * h, h, z)
                   for k in range(n))
    return out or [np.array(pr._const_factor(-z, x1 - x0)).reshape(2, 2)]


def scalar_transfer(mu, z, s, t, tol):
    """T(t, s) as a NumPy fold of the scalar factors; to the left, the
    adjugate of the walk from t up to s."""
    a, b = sorted((s, t))
    T = np.eye(2, dtype=complex)
    for ev in wo.factor_events(mu, z, a, b):
        if ev[0] == "atom":
            T = np.array([[1, 0], [ev[2], 1]], dtype=complex) @ T
        elif ev[0] == "span":
            for F in scalar_span_factors(mu, z, ev[1], ev[2], tol):
                T = F @ T
    return T if t >= s else np.array([[T[1, 1], -T[0, 1]], [-T[1, 0], T[0, 0]]])


complex_unit = st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


@st.composite
def magnus_runs(draw):
    """Runs of 1-4 Magnus steps on complex densities of degree 1-3, at local
    offsets far from 0, with h from 1e-9 to 0.1 or with |w^2| within a
    factor 2 of the 1e-4 series threshold, and z with |z| <= 10."""
    z = draw(st.builds(cmath.rect, st.floats(0.0, 10.0), st.floats(-math.pi, math.pi)))
    runs = []
    for _ in range(draw(st.integers(1, 4))):
        deg = draw(st.integers(1, 3))
        coeffs = tuple(draw(st.lists(complex_unit, min_size=deg + 1, max_size=deg + 1)))
        x0 = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(5.0, 20.0))
        if draw(st.booleans()):
            h = 10.0 ** draw(st.floats(-9.0, -1.0))
        else:
            q = max(abs(poly.evaluate(coeffs, x0) - z), 1e-300)
            h = min(0.1, max(1e-9, math.sqrt(1e-4 * draw(st.floats(0.5, 2.0)) / q)))
        runs.append((coeffs, x0, h, draw(st.integers(1, 4))))
    return runs, z


def scalar_run(coeffs, x0, h, n, z):
    """F_n ... F_1 of the scalar steps, folded one at a time."""
    ref = scalar_magnus_factor(coeffs, x0, h, z)
    for k in range(1, n):
        ref = scalar_magnus_factor(coeffs, x0 + k * h, h, z) @ ref
    return ref


def kernel_runs(runs, z):
    """The Magnus kernel, `_magnus_plan` then `_magnus_factors` at z, on
    runs (coeffs, x0, h, n): each a one-cell piece of length n h on its own
    segment, which starts at -x0 so that the cell [0, n h] has local offset
    x0, with a longest step a hair above h, so that the cell takes n steps.
    Returns the products, the defects and the runs with the kernel's own
    step, (n h) / n, which can differ from h in the last bit."""
    segments = [me.Segment(-x0, 1.0 - x0, coeffs) for coeffs, x0, _, _ in runs]
    length = [h * n for _, _, h, n in runs]
    root = np.array([h for _, _, h, _ in runs]) * (1.0 + 2.0**-40)
    plan = pr._magnus_plan(segments, range(len(runs)), [0.0] * len(runs), length, root)
    assert plan.steps == sum(n for *_, n in runs)
    products, defects = pr._magnus_factors(plan, z)
    return products, defects, [(c, x0, L / n, n) for (c, x0, _, n), L in zip(runs, length)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(magnus_runs())
def test_batched_magnus_matches_scalar_steps(case):
    # a single step is the scalar step to 64 ulps; a longer run is the
    # scalar fold within 1e-12 of its scale
    runs, z = case
    products, defects, runs = kernel_runs(runs, z)
    assert len(products) == len(defects) == len(runs)
    for (coeffs, x0, h, n), F in zip(runs, products):
        ref = scalar_run(coeffs, x0, h, n, z)
        bound = (64 * _EPS if n == 1 else 1e-12) * max(1.0, np.max(np.abs(ref)))
        assert np.max(np.abs(np.array(F).reshape(2, 2) - ref)) <= bound


@st.composite
def long_magnus_runs(draw):
    """1-6 runs of 1-300 Magnus steps in one call, on complex densities of
    degree 1-3 over local offsets in [0, 6], each run at most 3 long, with
    |z| <= 10."""
    z = draw(st.builds(cmath.rect, st.floats(0.0, 10.0), st.floats(-math.pi, math.pi)))
    runs = []
    for _ in range(draw(st.integers(1, 6))):
        deg = draw(st.integers(1, 3))
        coeffs = tuple(draw(st.lists(complex_unit, min_size=deg + 1, max_size=deg + 1)))
        n = draw(st.one_of(st.integers(1, 4), st.integers(1, 300)))
        length = 10.0 ** draw(st.floats(-6.0, math.log10(3.0)))
        runs.append((coeffs, draw(st.floats(0.0, 3.0)), length / n, n))
    return runs, z


@settings(max_examples=150, deadline=None, derandomize=True)
@given(long_magnus_runs())
def test_run_products_match_the_sequential_fold(case):
    runs, z = case
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        products, defects, runs = kernel_runs(runs, z)
    with np.errstate(all="ignore"):
        refs = [scalar_run(*run, z) for run in runs]
    assume(all(np.all(np.isfinite(ref)) for ref in refs))
    for F, ref in zip(products, refs):
        assert_agrees(F, ref.ravel(), exact=False)
    # each run's defect is the Python sum of its steps' |det F - 1|, taken
    # from the same steps by the same NumPy arithmetic
    f00, f01, f10, f11 = np.array(wo.magnus_factors(runs, z)).T
    step_defects = iter(np.abs(f00 * f11 - f01 * f10 - 1.0).tolist())
    for (*_, n), d in zip(runs, defects):
        terms = [next(step_defects) for _ in range(n)]
        assert abs(d - sum(terms)) <= n * _EPS * sum(terms)


def test_det_defect_is_the_python_sum_of_step_defects():
    # constant pieces add their Python |det F - 1|, each run the NumPy
    # defects of its steps and atoms, which are jumps, nothing; summing per
    # run first moves the total only by rounding
    mu = _edge_measure()
    z, tol = 0.5 + 0.25j, 1e-10
    factors, runs = [], []
    for ev in wo.factor_events(mu, z, -2.5, 2.5):
        if ev[0] == "span":
            factors += [F for F in wo.span_factors(z, *ev[1:], tol, runs) if F is not None]
    terms = [abs(f00 * f11 - f01 * f10 - 1.0) for f00, f01, f10, f11 in factors]
    f00, f01, f10, f11 = np.array(wo.magnus_factors(runs, z)).T
    terms += np.abs(f00 * f11 - f01 * f10 - 1.0).tolist()
    for s, t in ((-2.5, 2.5), (2.5, -2.5)):
        T = pr.transfer_matrix(mu, z, s, t, tol)
        assert T.stats.runs == len(runs) and T.stats.magnus == sum(n for *_, n in runs) > 100
        total = sum(terms)
        assert 0 < T.det_defect and abs(T.det_defect - total) <= len(terms) * _EPS * total


def test_run_tree_memory_stays_near_the_step_arrays():
    # one run of 2^14 steps beside 1,000 single steps: each run is padded
    # to its own power of two, not to the longest run's (1,001 x 2^14)
    segments = [me.Segment(0.0, 3.0, (0.5, 1j, -0.3, 0.2))]
    x0 = [0.0] + [1.0 + 1e-3 * k for k in range(1, 1001)]
    cells = ([0] * 1001, x0, [2**14 * 1e-4] + [x + 1e-4 for x in x0[1:]], 1e-4 * (1.0 + 1e-9))
    steps = 2**14 + 1000
    step_arrays = 4 * steps * np.dtype(complex).itemsize  # the four entries of every step
    assert pr._magnus_plan(segments, *cells).steps == steps
    # the peak from before the plan is made, so the plan's arrays count,
    # through a fold whose temporaries sit on top of them
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        plan = pr._magnus_plan(segments, *cells)
        products, _ = pr._magnus_factors(plan, 0.5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(products) == 1001 and peak <= 4 * step_arrays


@st.composite
def density_walks(draw):
    """Complex densities of degree 1-3 and atoms on (-3, 3), s, t and z."""
    cuts = sorted(draw(st.lists(st.floats(-2.9, 2.9), min_size=2, max_size=6)))
    segments = []
    for a, b in zip(cuts[0::2], cuts[1::2]):
        if b - a > 1e-6:
            deg = draw(st.integers(1, 3))
            segments.append((a, b, tuple(draw(st.lists(complex_unit, min_size=deg + 1,
                                                        max_size=deg + 1)))))
    atoms = draw(st.lists(st.tuples(st.floats(-2.9, 2.9), complex_unit), max_size=4))
    s, t = draw(st.floats(-2.9, 2.9)), draw(st.floats(-2.9, 2.9))
    z = draw(st.builds(cmath.rect, st.floats(0.0, 10.0), st.floats(-math.pi, math.pi)))
    tol = draw(st.sampled_from([1e-4, 1e-6, 1e-8]))
    return me.make_measure(atoms, segments, (-3, 3)), z, s, t, tol


@settings(max_examples=100, deadline=None, derandomize=True)
@given(density_walks())
def test_transfer_along_matches_scalar_fold(case):
    mu, z, s, t, tol = case
    ref = scalar_transfer(mu, z, s, t, tol)
    got = np.array(pr._transfer_along(mu, z, s, [t], tol)[0][t]).reshape(2, 2)
    assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(density_walks())
def test_walk_run_products(case):
    # at tol 1e-12 a span takes thousands of steps; a run factor is the
    # oracle's one-step-at-a-time fold, and each run carries its steps'
    # defects; the atoms are marks, not factors
    mu, z, s, t, _ = case
    a, b = sorted((s, t))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        factors, defects, marks, stats = pr._walk(mu, z, a, b, 1e-12)
        defects = list(defects)
    expected = wo.span_walk(mu, z, a, b, 1e-12)
    assert len(factors) == len(defects) == len(expected) == stats.constant + stats.runs
    assert [(x, w) for _, x, w in marks] == list(mu.atoms_in(a, b))
    for F, d, (ref, ref_d, n) in zip(factors, defects, expected):
        assert_agrees(F, ref, n <= 1)
        assert (d is None) == (ref_d is None)
        if d is not None:
            assert abs(d - ref_d) <= 8 * _EPS * n
    assert stats.runs == sum(n > 0 for *_, n in expected)
    assert stats.magnus == sum(n for *_, n in expected)


def python_fold(mu, z, s, t):
    """T(t, s) and its det defect folded in Python complex arithmetic from
    the closed-form factors of an atom-only measure, each atom of weight w
    at x applied as the jump u'(x+) - u'(x-) = w u(x) to both columns
    (walking left, removed)."""
    a, b = sorted((s, t))
    steps = [ev[2] if ev[0] == "atom" else pr._const_factor(-z, ev[2] - ev[1])
             for ev in wo.factor_events(mu, z, a, b)]
    if t < s:
        steps = [step if isinstance(step, complex) else pr._inv_unimodular(step)
                 for step in reversed(steps)]
    (t00, t01, t10, t11), defect = (1 + 0j, 0j, 0j, 1 + 0j), 0.0
    for step in steps:
        if isinstance(step, complex):
            if t < s:
                t10, t11 = t10 - step * t00, t11 - step * t01
            else:
                t10, t11 = t10 + step * t00, t11 + step * t01
            continue
        f00, f01, f10, f11 = step
        t00, t01, t10, t11 = (f00 * t00 + f01 * t10, f00 * t01 + f01 * t11,
                              f10 * t00 + f11 * t10, f10 * t01 + f11 * t11)
        defect += abs(f00 * f11 - f01 * f10 - 1.0)
    return (t00, t01, t10, t11), defect


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.floats(-2.9, 2.9), complex_unit), min_size=1, max_size=8),
       st.floats(-2.9, 2.9), st.floats(-2.9, 2.9),
       st.builds(complex, st.floats(-10.0, 10.0), st.floats(-3.0, 3.0)))
# as the factor (1, 0, w, 1), the first atom would turn T00's imaginary -0.0
# into +0.0; as a jump it leaves T00 alone
@example([(-2.0, 0.5 + 0j), (1.0, -0.5 + 0j)], -2.5, 1.0, complex(2.0, -0.0))
def test_atom_only_transfer_is_the_scalar_fold(atoms, s, t, z):
    mu = me.make_measure(atoms, (), (-3, 3))
    T = pr.transfer_matrix(mu, z, s, t)
    ref, defect = python_fold(mu, z, s, t)
    assert T.entries.tobytes() == np.array(ref).tobytes()
    assert T.det_defect == defect


# ---------------------------------------------------------------------------
# the flat walk against the event-tuple walk it replaced (tests/walk_oracle.py)


@st.composite
def edge_walks(draw):
    """A measure on (-3, 3), a grid, s, z and tol with the edge cases of the
    walk: atoms on grid points, at s and at the grid ends; s off the grid or
    at either end (so walks go both ways); grid points duplicated within
    1e-12; segment ends on grid points; degree-0 and complex density
    pieces; tol 1e-12, which gives hundreds of Magnus steps per span."""
    lattice = [round(-2.5 + 0.25 * k, 12) for k in range(21)]
    grid = sorted(set(draw(st.lists(st.sampled_from(lattice), min_size=1, max_size=8))))
    grid += [g + draw(st.sampled_from([1e-13, -4e-13, 9e-13]))
             for g in draw(st.lists(st.sampled_from(grid), max_size=2))]
    s = draw(st.one_of(st.sampled_from([min(grid), max(grid)]), st.sampled_from(grid),
                       st.floats(min(grid), max(grid))))
    ends = sorted(set(draw(st.lists(st.one_of(st.sampled_from(lattice), st.floats(-2.9, 2.9)),
                                    min_size=2, max_size=6))))
    coeff = st.one_of(st.floats(-1.0, 1.0), complex_unit)
    segments = [(a, b, tuple(draw(st.lists(coeff, min_size=1, max_size=4))))
                for a, b in zip(ends[0::2], ends[1::2]) if b - a > 1e-6]
    special = grid + [s] + [x for a, b, _ in segments for x in (a, b)]
    position = st.one_of(st.sampled_from(special), st.floats(-2.9, 2.9))
    atoms = draw(st.lists(st.tuples(position, complex_unit), max_size=6))
    z = draw(st.one_of(st.floats(-2.0, 2.0), complex_unit))
    tol = draw(st.sampled_from([1e-4, 1e-8, 1e-12]))
    t = draw(st.one_of(st.sampled_from(special), st.floats(-2.9, 2.9)))
    return me.make_measure(atoms, segments, (-3, 3)), z, s, t, np.array(grid), tol


def _reprs(values):
    return [repr(complex(v)) for v in values]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(edge_walks())
def test_propagate_matches_the_event_walk(case):
    # the same bytes where no run has more than one step, else within
    # 1e-12 of the trace's scale (tests/walk_oracle.py)
    mu, z, s, _t, grid, tol = case
    tr = pr.propagate(mu, z, s, (1.0 - 0.5j, 0.25), grid, tol)
    ref_grid, u, du, jumps = wo.propagate(mu, z, s, (1.0 - 0.5j, 0.25), grid, tol)
    exact = tr.stats.magnus == tr.stats.runs
    assert tr.grid.tobytes() == ref_grid.tobytes()
    assert_agrees(np.concatenate([tr.u, tr.du]), np.concatenate([u, du]), exact)
    assert [_reprs(j[:2]) for j in tr.jump_log] == [_reprs(j[:2]) for j in jumps]
    assert_agrees([j[2] for j in tr.jump_log], [j[2] for j in jumps], exact)


@pytest.mark.parametrize("s, du", [(0.0, [0, 0, 0, 2, 2]), (2.0, [-2, -2, -2, 0, 0])])
def test_grid_points_closer_than_1e_12_take_their_own_state(s, du):
    # an atom of weight 2 at 1 + 5e-14 lies between the grid points 1 and
    # 1 + 1e-13, so u' jumps between them, walking right or left; the
    # duplicate grid point 1 shares its state
    mu = me.make_measure([(1.0 + 5e-14, 2.0)], (), (-1, 3))
    tr = pr.propagate(mu, 0.0, s, (1.0, 0.0), [0.0, 1.0, 1.0, 1.0 + 1e-13, 2.0])
    assert tr.du.tolist() == du


@settings(max_examples=150, deadline=None, derandomize=True)
@given(edge_walks())
def test_transfer_matches_the_event_walk(case):
    # the same bytes where no run has more than one step, else within
    # 1e-12 of each matrix's scale (tests/walk_oracle.py)
    mu, z, s, t, grid, tol = case
    T = pr.transfer_matrix(mu, z, s, t, tol)
    entries, defect = wo.transfer_matrix(mu, z, s, t, tol)
    assert_agrees(T.entries, entries, T.stats.magnus == T.stats.runs)
    assert_defect_agrees(T.det_defect, defect, T.stats)
    points = [*grid.tolist(), t]
    tmats, defect, stats = pr._transfer_along(mu, z, s, points, tol)
    ref, ref_defect = wo.transfer_along(mu, z, s, points, tol)
    assert tmats.keys() == ref.keys()
    assert_defect_agrees(defect, ref_defect, stats)
    for x in ref:
        assert_agrees(tmats[x], ref[x], stats.magnus == stats.runs)


@st.composite
def base_walks(draw):
    """Atoms and constant pieces on (-3, 3), a grid and a base s with the
    cases of one walk folded both ways from s's mark: s on an atom, off the
    grid between two points, at either grid end, and -0.0 against a grid
    point 0.0; repeated grid points; atoms at both grid ends.  Without
    Magnus steps every value has the oracle's bytes."""
    lattice = [round(-2.5 + 0.25 * k, 12) for k in range(21)]
    grid = draw(st.lists(st.sampled_from(lattice), min_size=1, max_size=8))
    grid += draw(st.lists(st.sampled_from(grid), max_size=3)) + draw(st.sampled_from([[], [0.0]]))
    lo, hi = min(grid), max(grid)
    between = st.floats(lo, hi).filter(lambda x: x not in grid)
    s = draw(st.one_of(st.sampled_from([lo, hi, -0.0 if lo <= 0.0 <= hi else lo, *grid]),
                       between))
    ends = sorted(set(draw(st.lists(st.sampled_from([*lattice, s]), min_size=2, max_size=6))))
    coeff = st.one_of(st.floats(-1.0, 1.0), complex_unit)
    segments = [(a, b, (draw(coeff),)) for a, b in zip(ends[0::2], ends[1::2])]
    position = st.one_of(st.sampled_from([lo, hi, s, *grid]), st.floats(-2.9, 2.9))
    atoms = draw(st.lists(st.tuples(position, complex_unit), max_size=6))
    z = draw(st.one_of(st.floats(-2.0, 2.0), complex_unit))
    return me.make_measure(atoms, segments, (-3, 3)), z, s, grid


def _complex_bytes(values):
    return np.array(values, dtype=complex).tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(base_walks())
@example((me.make_measure([(0.0, 0.5), (-1.0, 0.25j), (1.0, -0.3)], [(-0.5, 0.5, (0.2j,))],
                          (-3, 3)), 0.7, -0.0, [-1.0, 0.0, 0.0, 0.25, 1.0]))
def test_one_walk_folds_are_the_two_walk_bytes(case):
    # one walk folded both ways from s's mark gives the bytes, the jump log
    # (with an atom at s logged at s) and the counts of the oracle's two
    # walks; so do the transfer matrices from s and transfer_steps' restarts
    mu, z, s, grid = case
    tr = pr.propagate(mu, z, s, (1.0 - 0.5j, 0.25), grid)
    ref_grid, u, du, jumps = wo.propagate(mu, z, s, (1.0 - 0.5j, 0.25), grid)
    assert tr.grid.tobytes() == ref_grid.tobytes()
    assert tr.u.tobytes() == u.tobytes() and tr.du.tobytes() == du.tobytes()
    assert _complex_bytes(tr.jump_log) == _complex_bytes(jumps)
    xs = sorted(grid)
    right, left = [x for x in xs if x >= s], [x for x in xs if x < s]
    ref_stats = _oracle_stats(mu, z, s, right[-1], 1e-8, right)
    if left:
        ref_stats += _oracle_stats(mu, z, left[0], s, 1e-8, left)
    assert tr.stats == ref_stats and ref_stats.magnus == 0
    tmats, defect, stats = pr._transfer_along(mu, z, s, grid, 1e-8)
    ref, ref_defect = wo.transfer_along(mu, z, s, grid, 1e-8)
    assert tmats.keys() == ref.keys() and defect == ref_defect and stats == ref_stats
    assert all(_complex_bytes(tmats[x]) == _complex_bytes(ref[x]) for x in ref)
    for t in (xs[0], xs[-1]):
        T = pr.transfer_matrix(mu, z, s, t)
        entries, ref_defect = wo.transfer_matrix(mu, z, s, t)
        assert T.entries.tobytes() == entries.tobytes() and T.det_defect == ref_defect
        assert T.stats == _oracle_stats(mu, z, *sorted((s, t)), 1e-8, [t])
    points = sorted(set(xs))
    for x0, x1, T in zip(points, points[1:], pr.transfer_steps(mu, z, grid)):
        assert T.tobytes() == wo.transfer_matrix(mu, z, x0, x1)[0].tobytes()


def _edge_measure():
    return me.make_measure([(-1.0, 0.5 - 0.25j), (0.5, -0.3), (1.5, 0.2)],
                           [(-2.0, -0.5, (0.2, 0.1j, -0.3)), (0.0, 1.0, (0.7,))], (-3, 3))


def test_walk_state_and_jumps_are_python_scalars(monkeypatch):
    # a grid of NumPy floats, as the CLI makes it, reaches neither the
    # factors nor the state: everything the folds touch is float or complex
    walks = []

    def spy(*args, **kwargs):
        walks.append(walk(*args, **kwargs))
        return walks[-1]

    walk = pr._walk
    monkeypatch.setattr(pr, "_walk", spy)
    mu, grid = _edge_measure(), np.arange(-2.5, 2.5 + 0.0625, 0.125)
    tr = pr.propagate(mu, 0.5 + 0.25j, np.float64(0.3), (1.0, 0.5j), grid)
    assert tr.jump_log and all(tuple(map(type, j)) == (float, complex, complex)
                               for j in tr.jump_log)
    tmats, defect, _ = pr._transfer_along(mu, 0.5 + 0.25j, np.float64(0.3), grid, 1e-8)
    assert all(type(v) is complex for T in tmats.values() for v in T) and type(defect) is float
    assert len(walks) == 2  # one for each call, folded both ways from its base
    assert {type(d) for _, defects, _, _ in walks for d in defects} == {float, type(None)}
    for factors, _, marks, _ in walks:
        assert all(type(v) is complex for F in factors for v in F)
        assert all(type(x) is float for _, x, _ in marks)


def test_walks_without_magnus_steps_make_no_numpy_call(monkeypatch):
    # atoms and constant pieces are scalar closed forms: neither the Magnus
    # kernel nor any other NumPy function runs
    def fail(*_args):
        raise AssertionError("NumPy called")

    class NoNumpy:
        def __getattr__(self, name):
            fail()

    monkeypatch.setattr(pr, "_magnus_plan", fail)
    monkeypatch.setattr(pr, "_magnus_factors", fail)
    monkeypatch.setattr(pr, "np", NoNumpy())
    mu = me.make_measure([(-1.0, 0.5), (0.5, -0.3 + 0.1j)], [(0.0, 1.0, (0.7,))], (-3, 3))
    # the plans are made at the first z and read at the second
    for z in (0.3 - 0.1j, -1.0):
        tmats, _, stats = pr._transfer_along(mu, z, -0.2, [2.5, -2.5, 0.7], 1e-8)
        assert set(tmats) == {-0.2, 2.5, -2.5, 0.7}
        assert stats == pr.WalkStats(atoms=2, constant=7, magnus=0)
    assert len(mu.walk_plans) == 1  # one walk over [-2.5, 2.5], folded both ways from -0.2


def test_grid_walks_without_magnus_steps_make_no_numpy_call(monkeypatch):
    # 1,000 markers inside constant pieces, between atoms and on them,
    # walked and folded both ways into transfer matrices, still without NumPy
    grid = [-2.5 + 0.005 * k for k in range(1000)]
    mu = me.make_measure([(-1.0, 0.5), (grid[500], -0.3 + 0.1j)],
                         [(0.0, 1.0, (0.7,)), (1.5, grid[900], (0.2 - 0.1j,))], (-3, 3))
    def fail(*_args):
        raise AssertionError("Magnus kernel called")

    monkeypatch.setattr(pr, "_magnus_plan", fail)
    monkeypatch.setattr(pr, "_magnus_factors", fail)
    monkeypatch.setattr(pr, "np", None)  # any NumPy call fails
    factors, defects, marks, stats = pr._walk(mu, 0.3 - 0.1j, grid[0], grid[-1], 1e-8, grid)
    defects = list(defects)
    assert stats == pr.WalkStats(atoms=2, constant=999, magnus=0)
    assert len(factors) == stats.constant + stats.runs and defects == [None] * 999
    assert [x for _, x, w in marks if w is None] == grid
    assert [(x, w) for _, x, w in marks if w is not None] == list(mu.atoms)
    tmats, _, stats = pr._transfer_along(mu, 0.3 - 0.1j, 0.2, grid, 1e-8)
    assert len(tmats) == 1001 and stats.magnus == 0 and stats.atoms == 2


def grid_walk_measure():
    """Atoms at -1, 0.5 and 1.7, a cubic on [-2, -0.5], a constant on
    [0, 1] and a complex cubic on [1.2, 2.4]: atoms and segment ends on
    markers, and 24 markers 0.05 apart inside the complex cubic."""
    return me.make_measure(
        [(-1.0, 0.4), (0.5, -0.3 + 0.1j), (1.7, 0.25j)],
        [(-2.0, -0.5, (0.3, 0.1, -0.2, 0.05)), (0.0, 1.0, (0.7,)),
         (1.2, 2.4, (-0.4 + 0.1j, 0.5, -0.3j, 0.1))], (-3, 3))


GRID_WALK_MARKERS = sorted(
    [-2.5, -2.0, -1.0, -1.0, -0.5, 0.0, 0.5, 0.5 + 1e-13, 0.5 - 1e-13, 1.0, 1.0, 1.2, 2.4]
    + [1.2 + 0.05 * k for k in range(1, 24)] + [2.9])


@pytest.mark.parametrize("s", [-1.0, 0.5, 1.2, 1.33, 2.9])
@pytest.mark.parametrize("tol", [1.0, 1e-8])
def test_grid_walks_match_the_event_walk(s, tol):
    # markers on atoms and segment ends, duplicated and 1e-13 apart, and
    # many inside the complex cubic; at tol 1e-8 (tol^(1/4) = 0.01) each of
    # its cells is a run of five steps, at tol 1 every cell is one step
    mu, z = grid_walk_measure(), 0.5 - 0.75j
    tr = pr.propagate(mu, z, s, (1.0 - 0.5j, 0.25), GRID_WALK_MARKERS, tol)
    grid, u, du, jumps = wo.propagate(mu, z, s, (1.0 - 0.5j, 0.25), GRID_WALK_MARKERS, tol)
    exact = tol == 1.0
    assert exact == (tr.stats.magnus == tr.stats.runs)
    assert tr.grid.tobytes() == grid.tobytes() and tr.stats.atoms == 3
    assert_agrees(np.concatenate([tr.u, tr.du]), np.concatenate([u, du]), exact)
    assert [_reprs(j[:2]) for j in tr.jump_log] == [_reprs(j[:2]) for j in jumps]
    assert_agrees([j[2] for j in tr.jump_log], [j[2] for j in jumps], exact)
    tmats, defect, stats = pr._transfer_along(mu, z, s, GRID_WALK_MARKERS, tol)
    ref, ref_defect = wo.transfer_along(mu, z, s, GRID_WALK_MARKERS, tol)
    assert tmats.keys() == ref.keys()
    assert_defect_agrees(defect, ref_defect, stats)
    for x in ref:
        assert_agrees(tmats[x], ref[x], exact)


def _oracle_stats(mu, z, a, b, tol, markers=()):
    runs, atoms, constant = [], 0, 0
    for ev in wo.factor_events(mu, z, a, b, markers):
        if ev[0] == "atom":
            atoms += 1
        elif ev[0] == "span":
            constant += sum(F is not None for F in wo.span_factors(z, *ev[1:], tol, runs))
    return pr.WalkStats(atoms, constant, sum(n for *_, n in runs), len(runs))


def test_walk_stats_count_the_factors_applied():
    mu, z, tol = _edge_measure(), 0.5 + 0.25j, 1e-6
    Tf = pr.transfer_matrix(mu, z, -2.5, 0.25, tol)
    Tb = pr.transfer_matrix(mu, z, 2.5, 0.25, tol)
    assert Tf.stats == _oracle_stats(mu, z, -2.5, 0.25, tol, [0.25])
    assert Tb.stats == _oracle_stats(mu, z, 0.25, 2.5, tol, [0.25])
    assert Tf.stats.atoms == 1 and Tf.stats.magnus > Tf.stats.runs > 0 and Tb.stats.constant > 0
    # summed by @, as the defects are
    T = pr.transfer_matrix(mu, z, 0.25, 2.5, tol) @ Tf
    assert T.stats == Tf.stats + _oracle_stats(mu, z, 0.25, 2.5, tol, [2.5])
    grid = np.linspace(-2.5, 2.5, 11)
    tr = pr.propagate(mu, z, 0.3, (1.0, 0.0), grid, tol)
    right, left = grid[grid >= 0.3].tolist(), grid[grid < 0.3].tolist()
    assert tr.stats == (_oracle_stats(mu, z, 0.3, right[-1], tol, right)
                        + _oracle_stats(mu, z, left[0], 0.3, tol, left))


def test_walk_stats_on_a_1001_point_grid():
    # the counts of the two walks of a CLI-sized trace: every grid cell is a
    # factor, and the atoms are counted as atoms, not as constant factors
    mu, z, tol = grid_walk_measure(), 0.5 - 0.75j, 1e-8
    grid = np.arange(-2.9, 2.9 + 0.00290, 0.0058)
    assert grid.size == 1001
    tr = pr.propagate(mu, z, 0.3, (1.0, 0.0), grid, tol)
    right, left = grid[grid >= 0.3].tolist(), grid[grid < 0.3].tolist()
    assert tr.stats == (_oracle_stats(mu, z, 0.3, right[-1], tol, right)
                        + _oracle_stats(mu, z, left[0], 0.3, tol, left))
    # the 1,000 grid cells, cut again at s, the six segment ends and the
    # three atoms (none of them on the grid): the atoms are marks, not cells
    assert tr.stats.atoms == 3 and tr.stats.constant + tr.stats.runs == 1000 + 1 + 6 + 3


# ---------------------------------------------------------------------------
# walk plans kept on the measure


def _bits(res):
    """A result as nested tuples of bytes and reprs (repr keeps -0.0)."""
    if isinstance(res, np.ndarray):
        return res.dtype.str, res.tobytes()
    if dataclasses.is_dataclass(res):
        return tuple(_bits(getattr(res, f.name)) for f in dataclasses.fields(res))
    if isinstance(res, (tuple, list)):
        return tuple(_bits(v) for v in res)
    return repr(res)


def _fresh(mu):
    return me.make_measure(mu.atoms, mu.segments, mu.window)


@pytest.mark.parametrize("tol", [1e-4, 1e-8])
def test_warm_walk_plans_give_the_bits_of_a_fresh_measure(tol):
    # every entry point, over a sequence of z with a repeat, walking both
    # ways: paths ending on the window ends, on atoms and at +-0.0, grid
    # points on atoms and segment ends, two tols on one path.  Each group
    # of calls gets its own measure, so its plans are built at the first z
    # and read at the others, and each call is compared with a fresh
    # measure.  A group shares a path up to the sign of a zero end or up to
    # tol: an atom sits at 0.0, and a walk ending at -0.0 marks its jump
    # at -0.0
    mu = me.make_measure([(-1.0, 0.4), (0.0, -0.3 + 0.1j), (1.7, 0.25j)],
                         [(-2.0, -0.5, (0.3, 0.1, -0.2, 0.05)), (0.2, 1.0, (0.7,)),
                          (1.2, 2.4, (-0.4 + 0.1j, 0.5, -0.3j, 0.1))], (-3, 3))
    mu2 = me.add_measures(mu, me.make_measure([(0.6, 0.05), (-0.4, -0.02j)], (), (-3, 3)))
    grid = [-3.0, -2.0, -1.0, -0.0, 0.5, 1.0, 1.2, 1.7, 2.4, 3.0]
    init = (1.0 - 0.5j, 0.25)
    groups = [
        [lambda m, z: pr.transfer_matrix(m, z, -3.0, 3.0, tol)],
        [lambda m, z: pr.transfer_matrix(m, z, 3.0, -3.0, tol)],
        [lambda m, z, end=end: pr.transfer_matrix(m, z, -1.0, end, tol) for end in (-0.0, 0.0)],
        [lambda m, z, end=end: pr.transfer_matrix(m, z, end, -1.0, tol) for end in (0.0, -0.0)],
        [lambda m, z, t=t: pr.dirichlet_neumann(m, z, 1.7, -1.0, t) for t in (tol, 1e-2 * tol)],
        [lambda m, z: pr.propagate(m, z, -0.0, init, grid, tol)],
        [lambda m, z, s=s: pr.propagate(m, z, s, init, [-2.5, s, 2.5], tol) for s in (-0.0, 0.0)],
        [lambda m, z: pr.propagate(m, z, 1.7, init, grid, tol)],
        [lambda m, z: pr.transfer_steps(m, z, grid, tol)],
        [lambda m, z: pr.solution_difference(m, mu2, z, init, [-1.5, -0.0, 0.5, 1.5], tol)],
    ]
    warm = [_fresh(mu) for _ in groups]
    kept = None
    for z in (0.0, 1.5 + 0.3j, -2.0, 0.5 - 0.75j, 1.5 + 0.3j):
        for calls, m in zip(groups, warm):
            for call in calls:
                assert _bits(call(m, z)) == _bits(call(_fresh(mu), z))
        plans = [dict(m.walk_plans) for m in warm]
        if kept is None:
            kept = plans
            assert all(0 < len(p) <= 4 for p in plans)
        # the plans of the first z are the ones read at the others
        assert [[(k, id(v)) for k, v in p.items()] for p in plans] == \
            [[(k, id(v)) for k, v in p.items()] for p in kept]


def test_walk_plans_stay_at_their_cap():
    # many distinct paths keep the last eight plans, the newest included,
    # and each path still gives the bits of a fresh measure
    mu = grid_walk_measure()
    for k in range(40):
        s, t = -2.5 + 0.01 * k, 2.5 - 0.02 * k
        T = pr.transfer_matrix(mu, 0.5 - 0.75j, s, t)
        assert _bits(T) == _bits(pr.transfer_matrix(_fresh(mu), 0.5 - 0.75j, s, t))
        assert len(mu.walk_plans) == min(k + 1, 8)
    T = pr.transfer_matrix(mu, 1.0, s, t)
    assert len(mu.walk_plans) == 8
    assert _bits(T) == _bits(pr.transfer_matrix(_fresh(mu), 1.0, s, t))


def test_walk_plans_are_not_part_of_the_value():
    mu = grid_walk_measure()
    pr.transfer_matrix(mu, 0.5, -2.0, 2.0)
    assert mu.walk_plans and mu == _fresh(mu) and repr(mu) == repr(_fresh(mu))
