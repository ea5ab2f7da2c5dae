import numpy as np
import pytest

from hypersymplectic.polynomials import Polynomial


def zero(n_vars):
    return Polynomial.from_terms(n_vars, [])


def constant(n_vars, value):
    return Polynomial.from_terms(n_vars, [((0,) * n_vars, value)])


def coordinate(n_vars, axis):
    return Polynomial.from_terms(n_vars, [(tuple(int(i == axis) for i in range(n_vars)), 1.0)])


def test_evaluation():
    # f(x, y) = 3 x^2 y + 2 y
    f = Polynomial.from_terms(2, [((2, 1), 3.0), ((0, 1), 2.0)])
    assert f((1.0, 1.0)) == 5.0
    assert f((2.0, -1.0)) == -14.0
    assert f((0.0, 7.0)) == 14.0


def test_derivative_is_exact():
    # Coefficients are exact; evaluation may differ from the hand expression
    # by summation order, hence the one-ulp relative tolerance.
    f = Polynomial.from_terms(2, [((2, 1), 3.0), ((0, 1), 2.0)])
    fx = f.derivative(0)
    fy = f.derivative(1)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, y = rng.uniform(-2, 2, size=2)
        assert fx((x, y)) == pytest.approx(6 * x * y, rel=1e-15, abs=0)
        assert fy((x, y)) == pytest.approx(3 * x * x + 2, rel=1e-15, abs=0)


def test_second_derivatives_commute():
    f = Polynomial.from_terms(2, [((3, 2), 1.5), ((1, 1), -2.0)])
    assert f.derivative(0).derivative(1) == f.derivative(1).derivative(0)


def test_terms_merge_and_sort():
    a = Polynomial.from_terms(2, [((1, 0), 1.0), ((0, 1), 2.0), ((1, 0), 3.0)])
    b = Polynomial.from_terms(2, [((0, 1), 2.0), ((1, 0), 4.0)])
    assert a == b
    assert a.terms == (((0, 1), 2.0), ((1, 0), 4.0))


def test_zero_coefficients_dropped():
    p = Polynomial.from_terms(2, [((1, 0), 1.0), ((1, 0), -1.0), ((0, 2), 0.0)])
    assert p == zero(2)
    assert p.terms == ()


def test_constructors():
    assert constant(3, 4.0)((9.0, 9.0, 9.0)) == 4.0
    x1 = coordinate(2, 0)
    assert x1((5.0, 7.0)) == 5.0
    assert x1.derivative(0) == constant(2, 1.0)
    assert x1.derivative(1) == zero(2)


def test_wrong_arity_rejected():
    f = coordinate(2, 1)
    with pytest.raises(ValueError):
        f((1.0,))
    with pytest.raises(ValueError):
        Polynomial.from_terms(2, [((1, 0, 0), 1.0)])
    with pytest.raises(ValueError):
        f.derivative(2)


# V = Re (x + iy)^9 and its gradient (p, q), a degree-8 harmonic section
RE_Z9 = Polynomial.from_terms(
    2, [((9, 0), 1.0), ((7, 2), -36.0), ((5, 4), 126.0), ((3, 6), -84.0), ((1, 8), 9.0)]
)


def stack(components):
    return Polynomial.stack(components[0].n_vars, [c.terms for c in components])


def reference_value(f, coords):
    """A scalar polynomial evaluated term by term: the coefficient times the
    powers in axis order, added to a total that starts at +0.0."""
    x = np.asarray(coords, dtype=float)
    total = np.zeros(x.shape[:-1])
    for powers, coeff in f.terms:
        value = coeff
        for axis, e in enumerate(powers):
            if e:
                value = value * x[..., axis] ** e
        total += value
    return total[()]


def reference_derivative(f, axis):
    """d f / d x_axis by lowering each exponent: the coefficient times the
    exponent, a term without the variable dropped."""
    terms = [
        (powers[:axis] + (powers[axis] - 1,) + powers[axis + 1 :], coeff * powers[axis])
        for powers, coeff in f.terms
        if powers[axis]
    ]
    return Polynomial.from_terms(f.n_vars, terms)


def random_corpus(seed, count=200):
    """Seeded scalar polynomials grouped by n_vars (1 to 8): up to six terms
    of total degree at most 8, coefficients from 1e-300 to 1e300 in size,
    and -0.0, which the table drops."""
    rng = np.random.default_rng(seed)
    groups = {}
    for _ in range(count):
        n_vars = int(rng.integers(1, 9))
        terms = []
        for _ in range(int(rng.integers(0, 7))):
            powers = rng.multinomial(int(rng.integers(0, 9)), [1 / n_vars] * n_vars)
            coeff = rng.uniform(-1, 1) * 10.0 ** int(rng.integers(-300, 301))
            terms.append((powers, -0.0 if rng.random() < 0.1 else coeff))
        groups.setdefault(n_vars, []).append(Polynomial.from_terms(n_vars, terms))
    return groups


def corpus_coords(rng, n_vars):
    coords = rng.uniform(-1.5, 1.5, (4, 3, n_vars))
    coords[0, 0] = -0.0
    coords[0, 1] = 0.0
    coords[0, 2, ::2] = -0.0
    return coords


def assert_bitwise_equal(a, b):
    assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def test_stacked_components_match_scalar_polynomials():
    """Each component of a vector polynomial equals its scalar polynomial bit
    for bit, signs of zero included, on a stack of points and at one point;
    the components need not share monomials, and one of them is zero."""
    p, q = RE_Z9.derivative(0), RE_Z9.derivative(1)
    components = [p, q] + [f.derivative(j) for f in (p, q) for j in range(2)]
    components += [zero(2), constant(2, -1.5), coordinate(2, 1)]
    vector = stack(components)
    assert vector.size == len(components)
    assert len(vector.terms) == len(set().union(*(dict(c.terms) for c in components)))
    coords = np.random.default_rng(4).uniform(-1.2, 1.2, (3, 5, 2))
    coords[0, 0] = (-0.0, 0.0)
    coords[0, 1] = (0.0, -0.0)
    values = vector(coords)
    assert values.shape == (3, 5, len(components))
    for k, f in enumerate(components):
        scalar = f(coords)
        assert np.array_equal(values[..., k], scalar), k
        assert np.array_equal(np.signbit(values[..., k]), np.signbit(scalar)), k
    one = vector(coords[1, 2])
    assert one.shape == (len(components),)
    assert all(one[k] == f(coords[1, 2]) for k, f in enumerate(components))
    with pytest.raises(ValueError):
        Polynomial.stack(2, [p.terms, coordinate(3, 0).terms])
    # a seeded corpus: every scalar polynomial evaluates as the per-term
    # formula does, and so does its component of the corpus's stack
    rng = np.random.default_rng(6)
    with np.errstate(all="ignore"):
        for n_vars, polys in random_corpus(6).items():
            coords = corpus_coords(rng, n_vars)
            values = stack(polys)(coords)
            for k, f in enumerate(polys):
                reference = reference_value(f, coords)
                assert_bitwise_equal(f(coords), reference)
                assert_bitwise_equal(values[..., k], reference)
                assert f(coords[1, 2]) == reference_value(f, coords[1, 2])


def derivative_stack(components):
    n_vars = components[0].n_vars
    return stack([reference_derivative(c, j) for c in components for j in range(n_vars)])


def test_one_pass_jacobian_matches_the_stacked_derivatives():
    """Component r * n_vars + j of the Jacobian is d(component r)/dx_j, with
    the term table of the per-derivative stack, so it evaluates bit for bit
    like it; covers the degree-8 harmonic section and an all-zero row."""
    p, q = RE_Z9.derivative(0), RE_Z9.derivative(1)
    three = Polynomial.from_terms(3, [((2, 0, 1), 0.5), ((0, 3, 0), -1.25), ((1, 1, 1), 2.0)])
    cases = [
        [p, q],
        [p, zero(2), constant(2, 4.0), coordinate(2, 1)],
        [three, zero(3), three.derivative(2)],
        [zero(2), zero(2)],
    ]
    rng = np.random.default_rng(5)
    for components in cases:
        n_vars = components[0].n_vars
        jacobian = stack(components).jacobian()
        reference = derivative_stack(components)
        assert jacobian == reference
        assert jacobian.size == len(components) * n_vars
        coords = rng.uniform(-1.2, 1.2, (4, 3, n_vars))
        coords[0, 0] = 0.0
        assert np.array_equal(jacobian(coords), reference(coords))
        assert np.array_equal(np.signbit(jacobian(coords)), np.signbit(reference(coords)))
    rng = np.random.default_rng(7)
    with np.errstate(all="ignore"):
        for n_vars, polys in random_corpus(7).items():
            coords = corpus_coords(rng, n_vars)
            jacobian = stack(polys).jacobian()
            reference = derivative_stack(polys)
            assert jacobian == reference
            assert_bitwise_equal(jacobian(coords), reference(coords))
            for f in polys:
                for j in range(n_vars):
                    derivative = f.derivative(j)
                    assert derivative == reference_derivative(f, j)
                    assert_bitwise_equal(derivative(coords), reference_value(derivative, coords))
    with pytest.raises(ValueError):
        p.jacobian()
    with pytest.raises(ValueError, match="derivative takes a scalar polynomial"):
        stack([p, q]).derivative(0)


def test_one_pass_jacobian_overflows_without_a_numpy_warning():
    """8 * 1e308 overflows to inf as a Python float product, as in
    ``derivative``, without a numpy RuntimeWarning."""
    huge = Polynomial.from_terms(2, [((8, 0), 1e308)])
    jacobian = stack([huge, zero(2)]).jacobian()
    assert jacobian == derivative_stack([huge, zero(2)])
    assert jacobian.terms == (((7, 0), (np.inf, 0.0, 0.0, 0.0)),)
