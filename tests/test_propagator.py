import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakgordon import measure as me
from weakgordon import poly
from weakgordon import propagator as pr
from weakgordon.errors import DomainError

import walk_oracle as wo
from conftest import random_measure


def random_potential(rng, window=(-3, 3), max_atoms=6, densities=True, unif_cap=5.0):
    return random_measure(
        rng,
        window=window,
        max_atoms=max_atoms,
        max_segments=2 if densities else 0,
        density_degree=0 if densities else 0,
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
    def test_reconstruction_matches(self, rng):
        for _ in range(10):
            mu1 = random_potential(rng, window=(-4, 4), max_atoms=4)
            mu2 = random_potential(rng, window=(-4, 4), max_atoms=4)
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

    def test_duhamel_identity_off_zero(self, rng):
        for _ in range(8):
            mu1 = random_potential(rng, window=(-4, 4), max_atoms=3)
            mu2 = random_potential(rng, window=(-4, 4), max_atoms=3)
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


# ---------------------------------------------------------------------------
# the batched Magnus kernel against the former scalar one


_EPS = np.finfo(float).eps
_SQRT3 = math.sqrt(3.0)


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
    # and end inside, between and on segment ends
    mu = me.make_measure([(0.3, 1.0), (1.0, -0.5)],
                         ((-2.0, -1.0, (1.0,)), (-1.0, 0.5, (0.5, 1.0)), (1.5, 2.5, (0.2,))),
                         (-3, 3))
    for m in (mu, me.mollify(mu, 8)):
        for a, b in ((-3.0, 3.0), (-1.5, 2.0), (-1.0, 0.5), (0.7, 0.9), (2.6, 3.0)):
            cut = sorted({a, b} | {min(max(x, a), b) for s in m.segments for x in (s.start, s.end)}
                         | {x for x, _ in m.atoms_in(a, b)})
            runs, expected = [], []
            for x0, x1 in zip(cut, cut[1:]):
                scan = [s for s in m.segments if s.start <= x0 and x1 <= s.end]
                assert len(scan) <= 1
                expected += wo.span_factors(1.0, x0, x1, scan[0] if scan else None, 1e-8, runs)
            magnus = iter(wo.magnus_factors(runs, 1.0))
            expected = [next(magnus) if F is None else F for F in expected]
            factors, marks, stats = pr._walk(m, 1.0, a, b, 1e-8)
            assert expected and repr(factors) == repr(expected)
            assert [(x, w) for _, x, w in marks] == list(m.atoms_in(a, b))
            assert stats.magnus == sum(n for *_, n in runs)


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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(magnus_runs())
def test_batched_magnus_matches_scalar_steps(case):
    runs, z = case
    segments = [me.Segment(0.0, 1.0, coeffs) for coeffs, _, _, _ in runs]
    got = iter(pr._magnus_factors(
        segments, [(None, k, x0, h, n) for k, (_, x0, h, n) in enumerate(runs)], z))
    for coeffs, x0, h, n in runs:
        for k in range(n):
            ref = scalar_magnus_factor(coeffs, x0 + k * h, h, z)
            F = np.array(next(got)).reshape(2, 2)
            assert np.max(np.abs(F - ref)) <= 64 * _EPS * max(1.0, np.max(np.abs(ref)))
    assert next(got, None) is None


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


def python_fold(mu, z, s, t):
    """T(t, s) and its det defect folded in Python complex arithmetic from
    the closed-form factors of an atom-only measure."""
    a, b = sorted((s, t))
    factors = []
    for ev in wo.factor_events(mu, z, a, b):
        if ev[0] == "atom":
            factors.append((1 + 0j, 0j, complex(ev[2]), 1 + 0j))
        elif ev[0] == "span":
            factors.append(pr._const_factor(-z, ev[2] - ev[1]))
    if t < s:
        factors = [(d, -b_, -c, a_) for a_, b_, c, d in reversed(factors)]
    T, defect = (1 + 0j, 0j, 0j, 1 + 0j), 0.0
    for f00, f01, f10, f11 in factors:
        t00, t01, t10, t11 = T
        T = (f00 * t00 + f01 * t10, f00 * t01 + f01 * t11,
             f10 * t00 + f11 * t10, f10 * t01 + f11 * t11)
        defect += abs(f00 * f11 - f01 * f10 - 1.0)
    return T, defect


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.floats(-2.9, 2.9), complex_unit), min_size=1, max_size=8),
       st.floats(-2.9, 2.9), st.floats(-2.9, 2.9),
       st.builds(complex, st.floats(-10.0, 10.0), st.floats(-3.0, 3.0)))
def test_atom_only_transfer_is_the_scalar_fold(atoms, s, t, z):
    mu = me.make_measure(atoms, (), (-3, 3))
    T = pr.transfer_matrix(mu, z, s, t)
    ref, defect = python_fold(mu, z, s, t)
    assert T.entries.ravel().tolist() == list(ref)
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
    mu, z, s, _t, grid, tol = case
    tr = pr.propagate(mu, z, s, (1.0 - 0.5j, 0.25), grid, tol)
    ref_grid, u, du, jumps = wo.propagate(mu, z, s, (1.0 - 0.5j, 0.25), grid, tol)
    assert tr.grid.tobytes() == ref_grid.tobytes()
    assert tr.u.tobytes() == u.tobytes() and tr.du.tobytes() == du.tobytes()
    assert [_reprs(j) for j in tr.jump_log] == [_reprs(j) for j in jumps]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(edge_walks())
def test_transfer_matches_the_event_walk(case):
    mu, z, s, t, grid, tol = case
    T = pr.transfer_matrix(mu, z, s, t, tol)
    entries, defect = wo.transfer_matrix(mu, z, s, t, tol)
    assert T.entries.tobytes() == entries.tobytes() and T.det_defect == defect
    points = [*grid.tolist(), t]
    tmats, defect, _ = pr._transfer_along(mu, z, s, points, tol)
    ref, ref_defect = wo.transfer_along(mu, z, s, points, tol)
    assert tmats.keys() == ref.keys() and defect == ref_defect
    assert all(_reprs(tmats[x]) == _reprs(ref[x]) for x in ref)


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
    assert len(walks) == 4
    for factors, marks, _ in walks:
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

    monkeypatch.setattr(pr, "_magnus_factors", fail)
    monkeypatch.setattr(pr, "np", NoNumpy())
    mu = me.make_measure([(-1.0, 0.5), (0.5, -0.3 + 0.1j)], [(0.0, 1.0, (0.7,))], (-3, 3))
    tmats, _, stats = pr._transfer_along(mu, 0.3 - 0.1j, -0.2, [2.5, -2.5, 0.7], 1e-8)
    assert set(tmats) == {-0.2, 2.5, -2.5, 0.7}
    assert stats == pr.WalkStats(atoms=2, constant=7, magnus=0)


def _oracle_stats(mu, z, a, b, tol, markers=()):
    runs, atoms, constant = [], 0, 0
    for ev in wo.factor_events(mu, z, a, b, markers):
        if ev[0] == "atom":
            atoms += 1
        elif ev[0] == "span":
            constant += sum(F is not None for F in wo.span_factors(z, *ev[1:], tol, runs))
    return pr.WalkStats(atoms, constant, sum(n for *_, n in runs))


def test_walk_stats_count_the_factors_applied():
    mu, z, tol = _edge_measure(), 0.5 + 0.25j, 1e-6
    Tf = pr.transfer_matrix(mu, z, -2.5, 0.25, tol)
    Tb = pr.transfer_matrix(mu, z, 2.5, 0.25, tol)
    assert Tf.stats == _oracle_stats(mu, z, -2.5, 0.25, tol, [0.25])
    assert Tb.stats == _oracle_stats(mu, z, 0.25, 2.5, tol, [0.25])
    assert Tf.stats.atoms == 1 and Tf.stats.magnus > 0 and Tb.stats.constant > 0
    # summed by @, as the defects are
    T = pr.transfer_matrix(mu, z, 0.25, 2.5, tol) @ Tf
    assert T.stats == Tf.stats + _oracle_stats(mu, z, 0.25, 2.5, tol, [2.5])
    grid = np.linspace(-2.5, 2.5, 11)
    tr = pr.propagate(mu, z, 0.3, (1.0, 0.0), grid, tol)
    right, left = grid[grid >= 0.3].tolist(), grid[grid < 0.3].tolist()
    assert tr.stats == (_oracle_stats(mu, z, 0.3, right[-1], tol, right)
                        + _oracle_stats(mu, z, left[0], 0.3, tol, left))
