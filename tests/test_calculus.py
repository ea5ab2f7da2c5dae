import numpy as np
import pytest

from hypersymplectic.calculus import (
    DifferentialForm,
    EndomorphismField,
    compose_covector,
    exterior_derivative,
    form_matrix,
    lie_bracket,
)
from hypersymplectic.charts import Chart, VectorField

PLANE = Chart("plane", ("u", "v"), (-1.0, -1.0), (1.0, 1.0))
SPACE = Chart("space", ("a", "b", "c", "d"), (-1.0,) * 4, (1.0,) * 4)


def test_multi_index_validation():
    with pytest.raises(ValueError):
        DifferentialForm.constant(PLANE, 2, {(1, 0): 1.0})  # not increasing
    with pytest.raises(ValueError):
        DifferentialForm.constant(PLANE, 2, {(0, 5): 1.0})
    with pytest.raises(ValueError):
        DifferentialForm.constant(PLANE, 3, {})  # degree beyond the chart


def test_evaluation_uses_the_determinant_convention():
    area = DifferentialForm.constant(PLANE, 2, {(0, 1): 1.0}, name="du^dv")
    M = form_matrix(area, PLANE.point([0.0, 0.0]))
    e0, e1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert e0 @ M @ e1 == 1.0
    assert e1 @ M @ e0 == -1.0
    assert e0 @ M @ (2 * e0 + 3 * e1) == pytest.approx(3.0)


def test_one_form_components():
    alpha = DifferentialForm.constant(PLANE, 1, {(0,): 2.0, (1,): -3.0})
    assert np.array_equal(alpha.components(PLANE.point([0.1, 0.1])), [2.0, -3.0])
    area = DifferentialForm.constant(PLANE, 2, {(0, 1): 1.0})
    with pytest.raises(ValueError):
        area.components(PLANE.point([0.0, 0.0]))


def test_exterior_derivative_of_linear_coefficient():
    # d(u dv) = du ^ dv
    alpha = DifferentialForm(PLANE, 1, {(1,): lambda pt: pt.coords[..., 0]})
    table = exterior_derivative(alpha, PLANE.point([0.3, -0.4]))
    assert set(table) == {(0, 1)}
    assert table[(0, 1)] == pytest.approx(1.0, abs=1e-10)


def test_exterior_derivative_quadratic_coefficient():
    # d(u^2 dv) = 2u du ^ dv
    alpha = DifferentialForm(PLANE, 1, {(1,): lambda pt: pt.coords[..., 0] ** 2})
    for u in (-0.8, 0.0, 0.55):
        table = exterior_derivative(alpha, PLANE.point([u, 0.1]))
        assert table[(0, 1)] == pytest.approx(2 * u, abs=1e-6)


def test_exterior_derivative_detects_non_closed():
    alpha = DifferentialForm(PLANE, 1, {(1,): lambda pt: pt.coords[..., 0]})
    table = exterior_derivative(alpha, PLANE.point([0.0, 0.0]))
    assert abs(table[(0, 1)]) > 0.5


def test_constant_forms_are_closed_exactly():
    area = DifferentialForm.constant(SPACE, 2, {(0, 1): 1.0, (2, 3): -1.0})
    table = exterior_derivative(area, SPACE.point([0.2, 0.1, -0.3, 0.4]))
    assert all(v == 0.0 for v in table.values())


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
        assert J.apply_covector(pt, alpha) @ v == pytest.approx(
            alpha @ J.apply_vector(pt, v), rel=1e-13, abs=1e-13
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
    expected = A.apply_covector(pt, B.apply_covector(pt, alpha))
    assert np.allclose(cov_first.apply_covector(pt, alpha), expected)


def test_endomorphism_shape_check():
    bad = EndomorphismField(SPACE, lambda pt: np.zeros((2, 2)))
    with pytest.raises(ValueError):
        bad.matrix(SPACE.point(np.zeros(4)))


def test_form_matrix_is_antisymmetric():
    form = DifferentialForm.constant(SPACE, 2, {(0, 2): 2.0, (1, 3): -1.0})
    M = form_matrix(form, SPACE.point(np.zeros(4)))
    assert np.array_equal(M, -M.T)
    assert M[0, 2] == 2.0 and M[2, 0] == -2.0
