"""Exterior calculus on chart boxes, evaluated on stacked points.

Conventions, fixed once for the whole package:

* A k-form stores one coefficient evaluator per strictly increasing multi-index
  ``(i_1 < ... < i_k)``; storage is dense (every one of the ``C(dim, k)`` slots
  exists), with absent inputs bound to a shared zero evaluator that derivative
  code recognizes and skips.
* A 2-form is read through its matrix ``M[i, j] = form(e_i, e_j)``, which
  holds the stored coefficient at ``i < j`` - the determinant convention, no
  ``1/k!``.
* The exterior derivative is computed by central finite differences:
  ``(d w)_J = sum_m (-1)^m  d_{j_m} w_{J \\ j_m}``.
* An endomorphism field acts on vectors through its matrix and on covectors
  through the transpose contract ``(J a)(X) = a(J X)``.  Composition of the
  matrices therefore reverses when read on covectors, which is why
  ``compose_covector`` exists.

Every function here takes a ``Point`` whose coords may carry leading sample
axes (see ``charts``) and returns values with those axes in front.
``vector_jacobian`` and ``lie_bracket`` are the single-point reference
formulas that the batched ``structures.nijenhuis`` is tested against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .charts import Chart, Point, VectorField, conform, require_same_chart

MultiIndex = tuple[int, ...]
Coefficient = Callable[[Point], float]


def _zero_coefficient(pt: Point) -> float:
    return 0.0


ZERO_COEFFICIENT = _zero_coefficient


def increasing_indices(dim: int, degree: int) -> list[MultiIndex]:
    return list(itertools.combinations(range(dim), degree))


def apply(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product over stacked ``(..., m, k)`` and ``(..., k)`` arrays."""
    return np.matmul(M, v[..., None])[..., 0]


def transpose(M: np.ndarray) -> np.ndarray:
    """Swap the last two axes of a stack of matrices."""
    return np.swapaxes(M, -1, -2)


@dataclass(frozen=True)
class DifferentialForm:
    """A degree-k differential form with evaluator coefficients."""

    chart: Chart
    degree: int
    coefficients: Mapping[MultiIndex, Coefficient] = field(repr=False)
    name: str = ""

    def __post_init__(self) -> None:
        dim = self.chart.dim
        if not 1 <= self.degree <= dim:
            raise ValueError(f"degree {self.degree} invalid on a {dim}-dim chart")
        slots = increasing_indices(dim, self.degree)
        dense: dict[MultiIndex, Coefficient] = {}
        for idx, fn in self.coefficients.items():
            idx = tuple(int(i) for i in idx)
            if len(idx) != self.degree or any(not 0 <= i < dim for i in idx):
                raise ValueError(f"bad multi-index {idx}")
            if list(idx) != sorted(set(idx)):
                raise ValueError(f"multi-index {idx} is not strictly increasing")
            dense[idx] = fn
        for idx in slots:
            dense.setdefault(idx, ZERO_COEFFICIENT)
        object.__setattr__(self, "coefficients", dense)

    @classmethod
    def constant(
        cls, chart: Chart, degree: int, table: Mapping[MultiIndex, float], name: str = ""
    ) -> "DifferentialForm":
        coeffs = {
            tuple(idx): (lambda pt, v=float(value): v) for idx, value in table.items()
        }
        return cls(chart, degree, coeffs, name=name)

    def coefficient(self, idx: MultiIndex) -> Coefficient:
        return self.coefficients[tuple(idx)]

    def stored_indices(self) -> list[MultiIndex]:
        """Slots holding a genuinely stored (possibly nonzero) coefficient."""
        return [i for i, fn in self.coefficients.items() if fn is not ZERO_COEFFICIENT]

    def components(self, pt: Point) -> np.ndarray:
        """Degree-1 forms only: the coefficient vectors, shape ``(..., dim)``."""
        if self.degree != 1:
            raise ValueError("components() is defined for 1-forms")
        out = np.zeros(pt.batch_shape + (self.chart.dim,))
        for (i,), fn in self.coefficients.items():
            out[..., i] = fn(pt)
        return out


def coordinate_differential(chart: Chart, axis: int) -> DifferentialForm:
    return DifferentialForm.constant(
        chart, 1, {(axis,): 1.0}, name=f"d{chart.coords[axis]}"
    )


def central_difference(fn: Callable[[Point], float], pt: Point, axis: int, step: float):
    return (fn(pt.shifted(axis, step)) - fn(pt.shifted(axis, -step))) / (2.0 * step)


def exterior_derivative(
    form: DifferentialForm, pt: Point, step: float | None = None
) -> dict[MultiIndex, np.ndarray]:
    """Finite-difference exterior derivative as a (k+1)-index value table;
    each value has the point's leading shape.

    Only indices receiving a contribution from a stored coefficient appear;
    every absent index is identically zero because the missing parent
    coefficients are the shared zero evaluator.
    """
    require_same_chart(form.chart, pt.chart)
    h = form.chart.fd_step() if step is None else float(step)
    out: dict[MultiIndex, np.ndarray] = {}
    for idx in form.stored_indices():
        fn = form.coefficient(idx)
        for axis in range(form.chart.dim):
            if axis in idx:
                continue
            position = sum(1 for i in idx if i < axis)
            parent = list(idx)
            parent.insert(position, axis)
            target = tuple(parent)
            sign = -1.0 if position % 2 else 1.0
            previous = out.get(target, np.zeros(pt.batch_shape))
            out[target] = previous + sign * central_difference(fn, pt, axis, h)
    return out


def vector_jacobian(X: VectorField, pt: Point, step: float) -> np.ndarray:
    """Column j holds the central difference of X along axis j (one point)."""
    dim = pt.chart.dim
    jac = np.empty((dim, dim))
    for j in range(dim):
        jac[:, j] = (X(pt.shifted(j, step)) - X(pt.shifted(j, -step))) / (2.0 * step)
    return jac


def lie_bracket(
    X: VectorField, Y: VectorField, pt: Point, step: float | None = None
) -> np.ndarray:
    """[X, Y] = DY.X - DX.Y with finite-difference Jacobians (one point)."""
    require_same_chart(X.chart, Y.chart)
    require_same_chart(X.chart, pt.chart)
    h = pt.chart.fd_step() if step is None else float(step)
    return vector_jacobian(Y, pt, h) @ X(pt) - vector_jacobian(X, pt, h) @ Y(pt)


@dataclass(frozen=True)
class EndomorphismField:
    """A (1,1)-tensor field given by its vector-action matrix evaluator."""

    chart: Chart
    fn: Callable[[Point], np.ndarray] = field(repr=False)
    name: str = ""

    def matrix(self, pt: Point) -> np.ndarray:
        require_same_chart(self.chart, pt.chart)
        dim = self.chart.dim
        return conform(self.fn(pt), pt, (dim, dim), f"endomorphism {self.name!r}")

    def covector_matrix(self, pt: Point) -> np.ndarray:
        """Matrix of the covector (transpose-contract) action on components."""
        return transpose(self.matrix(pt))

    def apply_vector(self, pt: Point, v: np.ndarray) -> np.ndarray:
        return apply(self.matrix(pt), np.asarray(v, dtype=float))

    def apply_covector(self, pt: Point, alpha: np.ndarray) -> np.ndarray:
        return apply(self.covector_matrix(pt), np.asarray(alpha, dtype=float))

    @classmethod
    def constant(cls, chart: Chart, matrix, name: str = "") -> "EndomorphismField":
        frozen = np.array(matrix, dtype=float)
        if frozen.shape != (chart.dim, chart.dim):
            raise ValueError("matrix shape does not match the chart dimension")
        return cls(chart, lambda pt: frozen, name=name)


def compose_covector(A: EndomorphismField, B: EndomorphismField) -> EndomorphismField:
    """The composite whose covector action applies B first, then A.

    Its vector-action matrix is B(pt) @ A(pt).
    """
    require_same_chart(A.chart, B.chart)
    name = f"({A.name}*{B.name})" if A.name and B.name else ""
    return EndomorphismField(A.chart, lambda pt: B.matrix(pt) @ A.matrix(pt), name=name)


def form_matrix(form: DifferentialForm, pt: Point) -> np.ndarray:
    """Antisymmetric matrices M[..., i, j] = form(e_i, e_j) of a 2-form."""
    if form.degree != 2:
        raise ValueError("form_matrix is defined for 2-forms")
    require_same_chart(form.chart, pt.chart)
    dim = form.chart.dim
    M = np.zeros(pt.batch_shape + (dim, dim))
    for (i, j), fn in form.coefficients.items():
        if fn is ZERO_COEFFICIENT:
            continue
        value = fn(pt)
        M[..., i, j] = value
        M[..., j, i] = -value
    return M
