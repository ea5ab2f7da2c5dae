"""Exterior calculus on chart boxes, evaluated on stacked points.

Conventions, fixed once for the whole package:

* A 2-form is a matrix field: its evaluator returns the antisymmetric matrix
  ``M[..., i, j] = form(e_i, e_j)`` (the determinant convention, no ``1/k!``),
  or one ``(dim, dim)`` array when the coefficients are constant.  No check
  reads a form of another degree, so none is represented.
* A field (2-form, endomorphism, or ``structures.FlatConnection``) may
  carry an exact derivative evaluator next to its value evaluator; the
  ``constant`` constructors set it (``constant_derivative``).  Every
  derivative of such a field that a check takes goes through
  ``differentiate``, which reads that evaluator when the field has one and
  falls back to ``stencil``, central differences, otherwise.  Both give the
  table with the derivative axis last: ``out[..., *value, a] = d_a value``
  (the Jacobian layout), and for a constant both give the same table bit
  for bit: zeros without point axes, NaN where the constant is not finite.
* ``stencil`` steps by the chart's ``fd_step()``, the one step of every
  central difference on that chart.  It calls the evaluator once, on all
  2 * dim shifted copies of the sample stacked on two extra leading axes,
  and is told the value's
  shape at one point, so it recognises a constant (a value of exactly that
  shape) whatever the sample size, and the constant's table stays
  unbatched.  The FD frame of a section's graph
  (``fibration.SectionMap.jacobian_fd``) also comes from ``stencil``.
* The exterior derivative of a 2-form is the table
  ``(d w)_ijk = d_i w_jk - d_j w_ik + d_k w_ij``, taken from one
  ``differentiate`` call.
* An endomorphism field acts on vectors through its matrix and on covectors
  through the transpose contract ``(J a)(X) = a(J X)``.  Composition of the
  matrices therefore reverses when read on covectors, which is why
  ``compose_covector`` exists.

Every function here takes a ``Point`` whose coords may carry leading sample
axes (see ``charts``) and returns values with those axes in front, or without
them when every value it read was a constant.  ``vector_jacobian`` and
``lie_bracket`` are the single-point reference formulas: the tests contract
the coordinate-frame table of ``structures.nijenhuis`` with two vector
fields and compare it with the four-bracket composition built from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .charts import Chart, Point, VectorField, conform, require_same_chart


def transpose(M: np.ndarray) -> np.ndarray:
    """Swap the last two axes of a stack of matrices."""
    return np.swapaxes(M, -1, -2)


def stencil(
    evaluate: Callable[[Point], np.ndarray], pt: Point, shape: tuple[int, ...]
) -> np.ndarray:
    """Central differences of ``evaluate`` along every chart axis, stacked on a
    new last axis: ``out[..., *value, a] = d_a value``, with the step h of
    the chart's ``fd_step()``.

    ``shape`` is the shape of the value at one point.  ``evaluate`` is called
    once, on a ``Point`` holding the 2 * dim shifted copies of ``pt`` on two
    new leading axes ``(sign, axis)``, each shifted coordinate formed as
    ``Point.shifted`` forms it.  A value of exactly ``shape`` is a constant,
    and its table keeps no point axes."""
    h = pt.chart.fd_step()
    dim = pt.chart.dim
    axes = np.arange(dim)
    coords = np.broadcast_to(pt.coords, (2, dim) + pt.coords.shape).copy()
    coords[0, axes, ..., axes] += h
    coords[1, axes, ..., axes] += -h
    shifted = Point(pt.chart, coords)
    value = conform(evaluate(shifted), shifted, shape, "stencil evaluator")
    if value.shape == shape:
        return _constant_table(value, dim)
    # written straight into the Jacobian layout: no temporary of the table's size
    out = np.empty(pt.batch_shape + shape + (dim,))
    np.subtract(np.moveaxis(value[0], 0, -1), np.moveaxis(value[1], 0, -1), out=out)
    out /= 2.0 * h
    return out


def _constant_table(value: np.ndarray, dim: int) -> np.ndarray:
    """What central differences give for a constant ``value``, without point
    axes: zeros of shape ``value.shape + (dim,)``, NaN where ``value`` is not
    finite.  A read-only view: of one zero when ``value`` is finite, else of
    ``value - value`` repeated along the derivative axis."""
    with np.errstate(invalid="ignore"):
        zero = value - value
    if zero.any():  # NaN where value is not finite
        return np.broadcast_to(zero[..., None], value.shape + (dim,))
    return np.broadcast_to(0.0, value.shape + (dim,))


def constant_derivative(value: np.ndarray, dim: int) -> Callable[[Point], np.ndarray]:
    """The exact derivative evaluator of a field whose value is ``value``
    everywhere: its table, the one ``stencil`` gives for that constant."""
    table = _constant_table(value, dim)
    return lambda pt: table


def differentiate(
    evaluate: Callable[[Point], np.ndarray],
    derivative: Callable[[Point], np.ndarray] | None,
    pt: Point,
    shape: tuple[int, ...],
) -> np.ndarray:
    """``out[..., *value, a] = d_a value`` of the field with value evaluator
    ``evaluate``: read from its exact ``derivative`` evaluator when it has
    one, else from ``stencil(evaluate, pt, shape)``."""
    if derivative is None:
        return stencil(evaluate, pt, shape)
    return conform(derivative(pt), pt, shape + (pt.chart.dim,), "derivative evaluator")


@dataclass(frozen=True)
class DifferentialForm:
    """A 2-form given by its matrix evaluator ``M[..., i, j] = form(e_i, e_j)``
    and, optionally, the exact evaluator of its derivative table
    ``dM[..., i, j, a] = d_a M_ij``."""

    chart: Chart
    fn: Callable[[Point], np.ndarray] = field(repr=False)
    name: str = ""
    derivative: Callable[[Point], np.ndarray] | None = field(default=None, repr=False)

    @classmethod
    def constant(cls, chart: Chart, matrix, name: str = "") -> "DifferentialForm":
        frozen = np.array(matrix, dtype=float)
        if frozen.shape != (chart.dim, chart.dim):
            raise ValueError("matrix shape does not match the chart dimension")
        if not np.array_equal(frozen, -frozen.T):
            raise ValueError("a 2-form matrix must be antisymmetric")
        frozen.flags.writeable = False
        return cls(chart, lambda pt: frozen, name, constant_derivative(frozen, chart.dim))


def form_matrix(form: DifferentialForm, pt: Point) -> np.ndarray:
    """Antisymmetric matrices M[..., i, j] = form(e_i, e_j) of a 2-form."""
    require_same_chart(form.chart, pt.chart)
    dim = form.chart.dim
    return conform(form.fn(pt), pt, (dim, dim), f"2-form {form.name!r}")


def exterior_derivative(form: DifferentialForm, pt: Point) -> np.ndarray:
    """Exterior derivative of a 2-form as the full table
    ``(d w)[..., i, j, k] = d_i w_jk - d_j w_ik + d_k w_ij``, exact when the
    form carries its derivative, else from central differences."""
    require_same_chart(form.chart, pt.chart)
    dim = form.chart.dim
    # dM[..., j, k, i] = d_i w_jk
    dM = differentiate(lambda p: form_matrix(form, p), form.derivative, pt, (dim, dim))
    return np.einsum("...jki->...ijk", dM) - np.einsum("...ikj->...ijk", dM) + dM


def vector_jacobian(X: VectorField, pt: Point) -> np.ndarray:
    """Column j holds the central difference of X along axis j (one point),
    with the chart's step."""
    dim, step = pt.chart.dim, pt.chart.fd_step()
    jac = np.empty((dim, dim))
    for j in range(dim):
        jac[:, j] = (X(pt.shifted(j, step)) - X(pt.shifted(j, -step))) / (2.0 * step)
    return jac


def lie_bracket(X: VectorField, Y: VectorField, pt: Point) -> np.ndarray:
    """[X, Y] = DY.X - DX.Y with finite-difference Jacobians (one point)."""
    require_same_chart(X.chart, Y.chart)
    require_same_chart(X.chart, pt.chart)
    return vector_jacobian(Y, pt) @ X(pt) - vector_jacobian(X, pt) @ Y(pt)


@dataclass(frozen=True)
class EndomorphismField:
    """A (1,1)-tensor field given by its vector-action matrix evaluator and,
    optionally, the exact evaluator of its derivative table
    ``dJ[..., k, b, a] = d_a J_kb``."""

    chart: Chart
    fn: Callable[[Point], np.ndarray] = field(repr=False)
    name: str = ""
    derivative: Callable[[Point], np.ndarray] | None = field(default=None, repr=False)

    def matrix(self, pt: Point) -> np.ndarray:
        require_same_chart(self.chart, pt.chart)
        dim = self.chart.dim
        return conform(self.fn(pt), pt, (dim, dim), f"endomorphism {self.name!r}")

    def covector_matrix(self, pt: Point) -> np.ndarray:
        """Matrix of the covector (transpose-contract) action on components."""
        return transpose(self.matrix(pt))

    @classmethod
    def constant(cls, chart: Chart, matrix, name: str = "") -> "EndomorphismField":
        frozen = np.array(matrix, dtype=float)
        if frozen.shape != (chart.dim, chart.dim):
            raise ValueError("matrix shape does not match the chart dimension")
        frozen.flags.writeable = False
        return cls(chart, lambda pt: frozen, name, constant_derivative(frozen, chart.dim))


def compose_covector(A: EndomorphismField, B: EndomorphismField) -> EndomorphismField:
    """The composite whose covector action applies B first, then A.

    Its vector-action matrix is B(pt) @ A(pt).
    """
    require_same_chart(A.chart, B.chart)
    name = f"({A.name}*{B.name})" if A.name and B.name else ""
    return EndomorphismField(A.chart, lambda pt: B.matrix(pt) @ A.matrix(pt), name=name)
