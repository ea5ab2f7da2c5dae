import numpy as np
import pytest

from hypersymplectic.calculus import (
    DifferentialForm,
    EndomorphismField,
    TensorField,
    VectorField,
    compose_covector,
    exterior_derivative,
    form_matrix,
    lie_bracket,
    stencil,
)
from hypersymplectic.charts import Chart
from hypersymplectic.errors import ChartMismatchError
from hypersymplectic.structures import FlatConnection

PLANE = Chart("plane", ("u", "v"), (-1.0, -1.0), (1.0, 1.0))
CUBE = Chart("cube", ("u", "v", "w"), (-1.0,) * 3, (1.0,) * 3)
UNIT_CUBE = Chart("unit-cube", ("u", "v", "w"), (0.0,) * 3, (1.0,) * 3)  # half CUBE's step
SPACE = Chart("space", ("a", "b", "c", "d"), (-1.0,) * 4, (1.0,) * 4)
AREA = np.array([[0.0, 1.0], [-1.0, 0.0]])  # du ^ dv on PLANE


def vw_form(coefficient):
    """The 2-form coefficient(pt) dv ^ dw on CUBE, as a matrix field."""

    def matrix(pt):
        c = coefficient(pt)
        M = np.zeros(pt.batch_shape + (3, 3))
        M[..., 1, 2], M[..., 2, 1] = c, -c
        return M

    return DifferentialForm(CUBE, matrix)


def test_constant_form_validation():
    with pytest.raises(ValueError):
        DifferentialForm.constant(PLANE, [[0.0, 1.0], [1.0, 0.0]])  # not antisymmetric
    with pytest.raises(ValueError):
        DifferentialForm.constant(PLANE, np.zeros((3, 3)))  # not the chart's dimension
    bad = DifferentialForm(PLANE, lambda pt: np.zeros(2))
    with pytest.raises(ValueError):
        form_matrix(bad, PLANE.point([0.0, 0.0]))


def test_evaluation_uses_the_determinant_convention():
    area = DifferentialForm.constant(PLANE, AREA, name="du^dv")
    M = form_matrix(area, PLANE.point([0.0, 0.0]))
    e0, e1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert e0 @ M @ e1 == 1.0
    assert e1 @ M @ e0 == -1.0
    assert e0 @ M @ (2 * e0 + 3 * e1) == pytest.approx(3.0)


def test_exterior_derivative_of_linear_coefficient():
    # d(u dv^dw) = du ^ dv ^ dw: the full table is totally antisymmetric
    beta = vw_form(lambda pt: pt.coords[..., 0])
    table = exterior_derivative(beta.gradient(CUBE.point([0.3, -0.4, 0.2])))
    assert table.shape == (3, 3, 3)
    for (i, j, k), sign in (((0, 1, 2), 1), ((1, 2, 0), 1), ((1, 0, 2), -1), ((2, 1, 0), -1)):
        assert table[i, j, k] == pytest.approx(sign, abs=1e-10)
    assert np.max(np.abs(table[[0, 0, 1], [0, 1, 1], [2, 0, 2]])) == 0.0  # repeated index


def test_exterior_derivative_quadratic_coefficient():
    # d(u^2 dv^dw) = 2u du ^ dv ^ dw
    beta = vw_form(lambda pt: pt.coords[..., 0] ** 2)
    for u in (-0.8, 0.0, 0.55):
        table = exterior_derivative(beta.gradient(CUBE.point([u, 0.1, -0.3])))
        assert table[0, 1, 2] == pytest.approx(2 * u, abs=1e-6)


def test_exterior_derivative_detects_non_closed():
    beta = vw_form(lambda pt: pt.coords[..., 0])
    table = exterior_derivative(beta.gradient(CUBE.point([0.0, 0.0, 0.0])))
    assert abs(table[0, 1, 2]) > 0.5


def test_constant_forms_are_closed_exactly():
    M = np.zeros((4, 4))
    M[0, 1], M[2, 3] = 1.0, -1.0
    area = DifferentialForm.constant(SPACE, M - M.T)
    table = exterior_derivative(area.gradient(SPACE.point([0.2, 0.1, -0.3, 0.4])))
    assert np.all(table == 0.0)
    # a constant form keeps no point axes, on a stack too
    assert exterior_derivative(area.gradient(SPACE.sample(5, 1))).shape == (4, 4, 4)


def test_lie_bracket_fixture():
    # X = u d/dv, Y = d/du: [X, Y] = -d/dv
    X = VectorField(PLANE, lambda pt: np.array([0.0, pt.coords[0]]))
    Y = VectorField.constant(PLANE, [1.0, 0.0])
    bracket = lie_bracket(X, Y, PLANE.point([0.4, 0.1]))
    assert np.allclose(bracket, [0.0, -1.0], atol=1e-9)


def test_lie_bracket_antisymmetric():
    rng = np.random.default_rng(5)
    X = VectorField(PLANE, lambda pt: np.array([pt.coords[1] ** 2, pt.coords[0]]))
    Y = VectorField(PLANE, lambda pt: np.array([1.0, pt.coords[0] * pt.coords[1]]))
    for _ in range(5):
        pt = PLANE.point(rng.uniform(-0.9, 0.9, size=2))
        assert np.allclose(
            lie_bracket(X, Y, pt), -lie_bracket(Y, X, pt), atol=1e-9
        )


def test_endomorphism_transpose_contract():
    rng = np.random.default_rng(8)
    M = rng.normal(size=(4, 4))
    J = EndomorphismField.constant(SPACE, M)
    pt = SPACE.point(np.zeros(4))
    for _ in range(10):
        alpha = rng.normal(size=4)
        v = rng.normal(size=4)
        # (J alpha)(v) == alpha(J v)
        assert (J.covector_matrix(pt) @ alpha) @ v == pytest.approx(
            alpha @ (J.matrix(pt) @ v), rel=1e-13, abs=1e-13
        )


def test_composition_orders():
    rng = np.random.default_rng(9)
    A = EndomorphismField.constant(SPACE, rng.normal(size=(4, 4)))
    B = EndomorphismField.constant(SPACE, rng.normal(size=(4, 4)))
    pt = SPACE.point(np.zeros(4))
    cov_first = compose_covector(A, B)
    # its vector-action matrix is B after A
    assert np.array_equal(cov_first.matrix(pt), B.matrix(pt) @ A.matrix(pt))
    # covector action of compose_covector(A, B) is A after B
    alpha = rng.normal(size=4)
    expected = A.covector_matrix(pt) @ (B.covector_matrix(pt) @ alpha)
    assert np.allclose(cov_first.covector_matrix(pt) @ alpha, expected)


def test_endomorphism_shape_check():
    bad = EndomorphismField(SPACE, lambda pt: np.zeros((2, 2)))
    with pytest.raises(ValueError):
        bad.matrix(SPACE.point(np.zeros(4)))


def test_form_matrix_is_antisymmetric():
    upper = np.zeros((4, 4))
    upper[0, 2], upper[1, 3] = 2.0, -1.0
    form = DifferentialForm.constant(SPACE, upper - upper.T)
    M = form_matrix(form, SPACE.point(np.zeros(4)))
    assert np.array_equal(M, -M.T)
    assert M[0, 2] == 2.0 and M[2, 0] == -2.0
    assert form_matrix(form, SPACE.sample(5, 1)) is M  # a constant stays unbatched
    with pytest.raises(ValueError):
        M[0, 2] = 0.0  # and read-only
    varying = vw_form(lambda pt: pt.coords[..., 0])
    stacked = CUBE.sample(5, 1)
    assert np.array_equal(form_matrix(varying, stacked)[:, 1, 2], stacked.coords[:, 0])


def shifted_reference(evaluate, pt, h):
    """The per-axis stencil: two ``Point.shifted`` evaluations per axis."""
    return np.stack(
        [
            (evaluate(pt.shifted(a, h)) - evaluate(pt.shifted(a, -h))) / (2.0 * h)
            for a in range(pt.chart.dim)
        ],
        axis=-1,
    )


def test_stacked_stencil_equals_the_per_axis_shifted_reference():
    """One call on all 2 * dim shifts gives, bit for bit, the table of the
    per-axis differences at the chart's step, for vector, matrix and 3-tensor
    values at a single point and at sample sizes that coincide with dim and
    2 * dim, on two charts whose widths give them different steps."""
    fields = {
        (3,): lambda p: np.sin(p.coords) * p.coords[..., :1] ** 2,
        (3, 3): lambda p: np.exp(p.coords[..., :, None]) * p.coords[..., None, :] ** 3,
        (3, 3, 3): lambda p: np.cos(p.coords[..., :, None, None] * p.coords[..., None, :, None])
        + p.coords[..., None, None, :],
    }
    assert UNIT_CUBE.fd_step() == 5e-6 != CUBE.fd_step()
    points = [
        pt
        for chart in (CUBE, UNIT_CUBE)
        for pt in [chart.point([0.3, -0.7, 0.1])] + [chart.sample(n, seed=n) for n in (1, 3, 6, 7)]
    ]
    for shape, evaluate in fields.items():
        for pt in points:
            calls = []
            table = stencil(lambda p: calls.append(p) or evaluate(p), pt, shape)
            assert len(calls) == 1
            assert table.shape == pt.batch_shape + shape + (3,)
            reference = shifted_reference(evaluate, pt, pt.chart.fd_step())
            assert np.array_equal(table, reference), (shape, pt)


def test_stencil_keeps_a_constant_unbatched():
    """A constant value, whatever the sample size and even when its first
    axis has the length 2 * dim of the stencil stack, gets a derivative table
    of zeros without point axes."""
    for shape in ((3,), (6,), (6, 3), (3, 3, 3)):
        constant = np.arange(float(np.prod(shape))).reshape(shape)
        for pt in [CUBE.point([0.0, 0.5, -0.5])] + [CUBE.sample(n, seed=2) for n in (1, 3, 6)]:
            table = stencil(lambda p: constant, pt, shape)
            assert table.shape == shape + (3,)
            assert np.array_equal(table, np.zeros(shape + (3,)))


def constant_value(kind, rng, non_finite):
    """A constant value of ``kind`` on SPACE, antisymmetric for a form; with
    ``non_finite``, with infinite entries and a NaN where the kind allows one
    (a form pairs +inf with -inf, since its antisymmetry check rejects NaN)."""
    value = rng.normal(size=(4,) * kind.rank)
    if kind is DifferentialForm:
        value = np.triu(value, 1)
        if non_finite:
            value[0, 1], value[2, 3] = np.inf, -np.inf
        return value - value.T
    if non_finite:
        value[(1,) * kind.rank] = np.inf
        value[(2,) * kind.rank] = np.nan
    return value


def varying(kind):
    """An evaluator of ``kind`` on SPACE whose entry (i, ...) is sin(x_i)."""
    column = (4,) + (1,) * (kind.rank - 1)
    return lambda p: np.sin(p.coords).reshape(p.batch_shape + column) * np.ones((4,) * kind.rank)


@pytest.mark.parametrize("kind", [VectorField, DifferentialForm, EndomorphismField, FlatConnection])
def test_field_contract(kind):
    """Every kind of field reads its value and its derivative one way.

    * ``constant`` carries a read-only derivative table equal, bit for bit,
      to the one ``stencil`` gives for the constant: zeros without point
      axes, NaN where the constant is not finite.
    * A hand-built field carries no derivative and is differenced on the
      ``(2, dim, N)`` stencil stack, in one evaluator call.
    * A ``derivative`` evaluator of the wrong shape raises ValueError.
    """
    assert issubclass(kind, TensorField)
    shape = (4,) * kind.rank
    rng = np.random.default_rng(12)
    for non_finite in (False, True):
        value = constant_value(kind, rng, non_finite)
        field = kind.constant(SPACE, value)
        assert field.derivative is not None
        expected = np.repeat(np.where(np.isfinite(value), 0.0, np.nan)[..., None], 4, axis=-1)
        for pt in (SPACE.point(np.zeros(4)), SPACE.sample(1, 3), SPACE.sample(40, 3)):
            exact = field.gradient(pt)
            fd = stencil(field.value, pt, shape)
            assert exact.shape == fd.shape == shape + (4,)
            assert exact.tobytes() == fd.tobytes()
            assert np.array_equal(exact, expected, equal_nan=True)
            with pytest.raises(ValueError):
                exact[(0,) * exact.ndim] = 1.0  # read-only
    with pytest.raises(ValueError):
        kind.constant(SPACE, np.zeros((3,) * kind.rank))  # not the chart's dimension

    shapes = []
    evaluate = varying(kind)
    hand_built = kind(SPACE, lambda p: shapes.append(p.batch_shape) or evaluate(p))
    assert hand_built.derivative is None
    pt = SPACE.sample(6, 4)
    table = hand_built.gradient(pt)
    assert shapes == [(2, 4, 6)]
    assert np.array_equal(table, stencil(kind(SPACE, evaluate).value, pt, shape))
    assert np.max(np.abs(table)) > 0.1

    wrong = kind(SPACE, evaluate, derivative=lambda p: np.zeros(shape))  # no derivative axis
    with pytest.raises(ValueError):
        wrong.gradient(pt)


def test_a_field_refuses_a_point_of_another_chart():
    """``value`` and ``gradient`` both raise ChartMismatchError on a point of
    another chart of the same dimension: a constant, whose exact derivative
    reads no point, a field with an exact derivative evaluator, and one
    differenced by ``stencil``."""
    other = Chart("other", ("s", "t"), (-1.0, -1.0), (1.0, 1.0))
    fields = [
        DifferentialForm.constant(PLANE, AREA),
        DifferentialForm(PLANE, lambda p: AREA, derivative=lambda p: np.zeros((2, 2, 2))),
        DifferentialForm(PLANE, lambda p: AREA),
    ]
    for field in fields:
        for pt in (other.sample(3, 1), other.point([0.1, 0.2])):
            for read in (field.value, field.gradient):
                with pytest.raises(ChartMismatchError):
                    read(pt)
