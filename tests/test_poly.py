"""poly.abs_pieces: the one root split behind |mu| and |phi - c|."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from weakgordon import poly


@st.composite
def polys_on_intervals(draw):
    """A real polynomial of degree 0-3 in t - t0 on [t0, t1]: random
    coefficients, or a product of linear factors whose roots include double
    roots and roots at the interval ends."""
    t0 = draw(st.floats(-5.0, 5.0))
    L = draw(st.one_of(st.floats(1e-9, 1e-6), st.floats(1e-3, 4.0)))
    deg = draw(st.integers(0, 3))
    if draw(st.booleans()):
        coeffs = tuple(draw(st.lists(st.floats(-2.0, 2.0), min_size=deg + 1,
                                     max_size=deg + 1)))
    else:
        coeffs = (draw(st.sampled_from([-1.5, -0.25, 0.5, 2.0])),)
        root = st.one_of(st.sampled_from([0.0, L, 0.5 * L]), st.floats(0.0, L))
        roots = draw(st.lists(root, min_size=deg, max_size=deg))
        if deg >= 2 and draw(st.booleans()):
            roots[1] = roots[0]  # double root
        for r in roots:
            coeffs = poly.multiply(coeffs, (-r, 1.0))
    return coeffs, t0, t0 + L


@settings(max_examples=300, deadline=None, derandomize=True)
@given(polys_on_intervals())
# -1.5 (x - L/2)^2: root isolation misses the double root at the midpoint,
# where p is at rounding level with the wrong sign
@example(((-1.108883328145071, 2.5793991488078043, -1.5), 0.0, 1.7195994325385362))
# a subnormal constant, whose integral underflows to -0.0
@example(((-5e-324,), 0.0, 7.530081855694316e-07))
def test_abs_pieces_tile_and_integrate(case):
    coeffs, t0, t1 = case
    L = t1 - t0
    scale = sum(abs(c) * max(1.0, L) ** k for k, c in enumerate(coeffs))
    pieces = poly.abs_pieces(coeffs, t0, t1)
    assert pieces and pieces[0].start == t0
    assert pieces[-1].end == t0 + L
    for p, q in zip(pieces[:-1], pieces[1:]):
        assert p.end == q.start
    total = 0.0
    for p in pieces:
        h = p.end - p.start
        assert h > 0
        for x in (0.0, 0.5 * h, h):
            assert poly.evaluate(p.coeffs, x) >= -1e-12 * scale
        total += poly.integral(p.coeffs, 0.0, h)
    assert abs(total - poly.integral_abs(coeffs, 0.0, L)) <= 1e-12 * scale * max(1.0, L)
