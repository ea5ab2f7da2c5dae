"""Tensor fields and exterior calculus on chart boxes, evaluated on stacked points.

Conventions, fixed once for the whole package:

* Every field is a ``TensorField``: a value evaluator and, optionally, the
  exact evaluator of its derivative.  A kind fixes the rank of the value,
  ``(dim,) * rank`` at one point: ``VectorField`` (1), ``DifferentialForm``
  and ``EndomorphismField`` (2), ``structures.FlatConnection`` (3, the
  Christoffel table).  Each field is read one way: ``value(pt)``, and
  ``gradient(pt)``, the table with the derivative axis last,
  ``out[..., *value, a] = d_a value`` (the Jacobian layout).  ``gradient``
  reads the exact evaluator when the field has one and falls back to
  ``stencil``, central differences, otherwise.  ``constant`` sets the exact
  evaluator to the table ``stencil`` gives for that constant, bit for bit:
  a read-only table of zeros without point axes, NaN where the constant is
  not finite, formed once when the field is built.
* A 2-form is a matrix field: its value is the antisymmetric matrix
  ``M[..., i, j] = form(e_i, e_j)`` (the determinant convention, no
  ``1/k!``), read by ``form_matrix``.  No check reads a form of another
  degree, so none is represented.
* ``stencil`` steps by the chart's ``fd_step()``.  No run reaches it, since
  every field a suite reads carries its exact derivative: it differences
  hand-built fields and gives the tests' FD cross-checks, among them the FD
  frame of a section's graph (``fibration.SectionMap.jacobian_fd``).  It
  calls the evaluator once, on all 2 * dim shifted copies of the sample
  stacked on two extra leading axes, and is told the value's shape at one
  point, so it recognises a constant (a value of exactly that shape)
  whatever the sample size, and the constant's table stays unbatched.
* The exterior derivative of a 2-form is the table
  ``(d w)_ijk = d_i w_jk - d_j w_ik + d_k w_ij``, taken from one
  ``gradient`` call.
* An endomorphism field acts on vectors through its matrix and on covectors
  through the transpose contract ``(J a)(X) = a(J X)``.  Composition of the
  matrices therefore reverses when read on covectors, which is why
  ``compose_covector`` exists.

A field reads a ``Point`` (see ``charts``) and returns values with its leading
sample axes in front, or without them for a constant; ``exterior_derivative``
takes such a table and keeps any leading axes.  ``vector_jacobian`` and
``lie_bracket`` are the single-point reference formulas: the tests contract
the coordinate-frame table of ``structures.nijenhuis`` with two vector
fields and compare it with the four-bracket composition built from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np

from .charts import Chart, Point, conform, require_same_chart


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
    axes: a read-only array of zeros of shape ``value.shape + (dim,)``, NaN
    along the derivative axis where ``value`` is not finite."""
    table = np.zeros(value.shape + (dim,))
    table[~np.isfinite(value)] = np.nan
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class TensorField:
    """A field on ``chart`` given by its value evaluator ``fn`` and,
    optionally, the exact evaluator of its derivative table.

    A kind (a subclass) sets ``rank``, so its value at one point has shape
    ``(dim,) * rank``, and ``kind``, its name in error messages; it may
    override ``_validate`` to reject constant values of the right shape."""

    rank: ClassVar[int]
    kind: ClassVar[str]

    chart: Chart
    fn: Callable[[Point], np.ndarray] = field(repr=False)
    name: str = ""
    derivative: Callable[[Point], np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_shape", (self.chart.dim,) * self.rank)

    def value(self, pt: Point) -> np.ndarray:
        """The value at ``pt``, of shape ``pt.batch_shape + (dim,) * rank``, or
        ``(dim,) * rank`` for a constant."""
        require_same_chart(self.chart, pt.chart)
        return conform(self.fn(pt), pt, self._shape, f"{self.kind} {self.name!r}")

    def gradient(self, pt: Point) -> np.ndarray:
        """``out[..., *value, a] = d_a value`` at ``pt``: from the exact
        ``derivative`` evaluator when the field has one, else from
        ``stencil(self.value, pt, ...)``; ChartMismatchError, as from
        ``value``, when ``pt`` lies on another chart."""
        if self.derivative is None:
            return stencil(self.value, pt, self._shape)
        require_same_chart(self.chart, pt.chart)
        table = self._shape + (pt.chart.dim,)
        return conform(self.derivative(pt), pt, table, "derivative evaluator")

    @classmethod
    def constant(cls, chart: Chart, value, name: str = "") -> TensorField:
        """The field equal to ``value`` everywhere, held as a read-only array
        without point axes, with the exact derivative ``stencil`` gives it."""
        frozen = np.array(value, dtype=float)
        if frozen.shape != (chart.dim,) * cls.rank:
            raise ValueError(f"{cls.kind} shape {frozen.shape} does not match the chart dimension")
        cls._validate(frozen)
        frozen.flags.writeable = False
        table = _constant_table(frozen, chart.dim)
        return cls(chart, lambda pt: frozen, name, lambda pt: table)

    @staticmethod
    def _validate(value: np.ndarray) -> None:
        """Raise ValueError when ``value`` is no constant of this kind."""


class VectorField(TensorField):
    """Components ``X[..., k]`` of a vector field."""

    rank, kind = 1, "vector field"


class DifferentialForm(TensorField):
    """A 2-form as its matrix field ``M[..., i, j] = form(e_i, e_j)``, with
    the derivative table ``dM[..., i, j, a] = d_a M_ij``."""

    rank, kind = 2, "2-form"

    @staticmethod
    def _validate(value: np.ndarray) -> None:
        if not (value == -value.T).all():
            raise ValueError("a 2-form matrix must be antisymmetric")


class EndomorphismField(TensorField):
    """A (1,1)-tensor field as its vector-action matrix field, with the
    derivative table ``dJ[..., k, b, a] = d_a J_kb``."""

    rank, kind = 2, "endomorphism"

    # matrix and form_matrix are functions of their own, not aliases of value:
    # benchmarks/shims.py traces each by name and counts calls per code object
    def matrix(self, pt: Point) -> np.ndarray:
        """Matrices of the vector action: the value."""
        return self.value(pt)

    def covector_matrix(self, pt: Point) -> np.ndarray:
        """Matrix of the covector (transpose-contract) action on components."""
        return transpose(self.matrix(pt))


def form_matrix(form: DifferentialForm, pt: Point) -> np.ndarray:
    """Antisymmetric matrices M[..., i, j] = form(e_i, e_j) of a 2-form: its value."""
    return form.value(pt)


def exterior_derivative(dM: np.ndarray) -> np.ndarray:
    """Exterior derivative of a 2-form from its derivative table
    ``dM[..., j, k, i] = d_i w_jk`` (the form's ``gradient``), as the full
    table ``(d w)[..., i, j, k] = d_i w_jk - d_j w_ik + d_k w_ij``, with the
    leading axes of ``dM`` kept."""
    return np.einsum("...jki->...ijk", dM) - np.einsum("...ikj->...ijk", dM) + dM


def vector_jacobian(X: VectorField, pt: Point) -> np.ndarray:
    """Column j holds the central difference of X along axis j (one point),
    with the chart's step."""
    dim, step = pt.chart.dim, pt.chart.fd_step()
    jac = np.empty((dim, dim))
    for j in range(dim):
        jac[:, j] = (X.value(pt.shifted(j, step)) - X.value(pt.shifted(j, -step))) / (2.0 * step)
    return jac


def lie_bracket(X: VectorField, Y: VectorField, pt: Point) -> np.ndarray:
    """[X, Y] = DY.X - DX.Y with finite-difference Jacobians (one point)."""
    require_same_chart(X.chart, Y.chart)
    require_same_chart(X.chart, pt.chart)
    return vector_jacobian(Y, pt) @ X.value(pt) - vector_jacobian(X, pt) @ Y.value(pt)


def compose_covector(A: EndomorphismField, B: EndomorphismField) -> EndomorphismField:
    """The composite whose covector action applies B first, then A.

    Its vector-action matrix is B(pt) @ A(pt).
    """
    require_same_chart(A.chart, B.chart)
    name = f"({A.name}*{B.name})" if A.name and B.name else ""
    return EndomorphismField(A.chart, lambda pt: B.matrix(pt) @ A.matrix(pt), name=name)
