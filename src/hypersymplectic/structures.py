"""Connections, curvature/torsion checks, and residual reports.

Every verification in the package funnels into a CheckReport: an identity
name, the sample size, the worst residual seen, the tolerance it was held to,
and the resulting verdict.  Two report styles are used:

* plain residual: ``max_residual`` is the largest absolute defect and must
  stay below ``tolerance``;
* signed slack (tolerance 0.0): used when a check combines parts with
  different units, e.g. closedness together with a determinant floor; the
  residual is ``max(part_residual - part_tolerance)`` and passing means <= 0.

Either way the invariant ``passed == (max_residual <= tolerance)`` holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .calculus import DifferentialForm, EndomorphismField, exterior_derivative, form_matrix
from .charts import Chart, Point, VectorField, require_same_chart

TOL_ALGEBRAIC = 1e-12
TOL_FD = 1e-6
TOL_NESTED_FD = 1e-4
NONDEG_FLOOR = 1e-8
METRIC_ZERO_GUARD = 1e-10
DEFAULT_POINTS = 100
DEFAULT_SEED = 42


@dataclass(frozen=True)
class CheckReport:
    identity_name: str
    n_points: int
    max_residual: float
    tolerance: float
    passed: bool
    statement: str = ""

    @classmethod
    def from_residual(
        cls,
        identity_name: str,
        n_points: int,
        max_residual: float,
        tolerance: float,
        statement: str = "",
    ) -> "CheckReport":
        return cls(
            identity_name=identity_name,
            n_points=n_points,
            max_residual=float(max_residual),
            tolerance=float(tolerance),
            passed=bool(max_residual <= tolerance),
            statement=statement,
        )

    def as_dict(self) -> dict:
        return {
            "identity": self.identity_name,
            "n_points": self.n_points,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "statement": self.statement,
        }


@dataclass(frozen=True)
class FlatConnection:
    """An affine connection given by a Christoffel evaluator.

    ``christoffel(pt)[k, i, j]`` is the coefficient with upper index k and
    lower indices (i, j).  "Flat" is the intent, not an assumption: torsion
    and curvature are checked, never taken for granted.
    """

    chart: Chart
    christoffel: Callable[[Point], np.ndarray] = field(repr=False)
    name: str = ""

    @classmethod
    def zero(cls, chart: Chart, name: str = "zero") -> "FlatConnection":
        dim = chart.dim
        table = np.zeros((dim, dim, dim))
        return cls(chart, lambda pt: table, name=name)

    def gamma(self, pt: Point) -> np.ndarray:
        require_same_chart(self.chart, pt.chart)
        G = np.asarray(self.christoffel(pt), dtype=float)
        dim = self.chart.dim
        if G.shape != (dim, dim, dim):
            raise ValueError(f"christoffel evaluator returned shape {G.shape}")
        return G

    def torsion_residual(self, pt: Point) -> float:
        G = self.gamma(pt)
        return float(np.max(np.abs(G - np.transpose(G, (0, 2, 1)))))

    def curvature_residual(self, pt: Point, step: float | None = None) -> float:
        """Max |R^l_kij| with the curvature assembled from FD derivatives."""
        h = self.chart.fd_step() if step is None else float(step)
        dim = self.chart.dim
        G = self.gamma(pt)
        dG = np.empty((dim, dim, dim, dim))
        for a in range(dim):
            dG[a] = (self.gamma(pt.shifted(a, h)) - self.gamma(pt.shifted(a, -h))) / (2 * h)
        t1 = np.transpose(dG, (1, 3, 0, 2))  # d_i Gamma^l_jk  ->  [l,k,i,j]
        t2 = np.transpose(dG, (1, 3, 2, 0))  # d_j Gamma^l_ik  ->  [l,k,i,j]
        t3 = np.einsum("lim,mjk->lkij", G, G)
        t4 = np.einsum("ljm,mik->lkij", G, G)
        return float(np.max(np.abs(t1 - t2 + t3 - t4)))


def covariant_constancy(
    conn: FlatConnection, form: DifferentialForm, pt: Point, step: float | None = None
) -> np.ndarray:
    """Residual table (nabla_i T)_{jk} for a 2-form T.

    Zero everywhere iff the form is parallel for the connection at the point.
    """
    require_same_chart(conn.chart, form.chart)
    h = conn.chart.fd_step() if step is None else float(step)
    dim = conn.chart.dim
    T = form_matrix(form, pt)
    dT = np.empty((dim, dim, dim))
    for a in range(dim):
        dT[a] = (form_matrix(form, pt.shifted(a, h)) - form_matrix(form, pt.shifted(a, -h))) / (2 * h)
    G = conn.gamma(pt)
    corr1 = np.einsum("lij,lk->ijk", G, T)
    corr2 = np.einsum("lik,jl->ijk", G, T)
    return dT - corr1 - corr2


def d_nabla_endo(
    conn: FlatConnection,
    I: EndomorphismField,
    pt: Point,
    step: float | None = None,
) -> np.ndarray:
    """Exterior covariant derivative of an endomorphism on the coordinate frame.

    ``table[a, b] = d_nabla I (e_a, e_b) = (nabla_a I) e_b - (nabla_b I) e_a`` with

        (nabla_a I) e_b = (d_a I) e_b + Gamma(e_a, I e_b) - I Gamma(e_a, e_b).

    d_nabla I is a tensor, so the frame table determines it on every pair of
    fields.  I is read once at ``pt`` and once at each central-stencil point.
    """
    require_same_chart(conn.chart, I.chart)
    h = conn.chart.fd_step() if step is None else float(step)
    I_pt = I.matrix(pt)
    dI = np.stack(
        [
            (I.matrix(pt.shifted(a, h)) - I.matrix(pt.shifted(a, -h))) / (2.0 * h)
            for a in range(conn.chart.dim)
        ]
    )
    G = conn.gamma(pt)
    nabla = (
        np.transpose(dI, (0, 2, 1))
        + np.einsum("kaj,jb->abk", G, I_pt)
        - np.einsum("kj,jab->abk", I_pt, G)
    )
    return nabla - np.transpose(nabla, (1, 0, 2))


def nijenhuis(
    J: EndomorphismField,
    X: VectorField,
    Y: VectorField,
    pt: Point,
    step: float | None = None,
) -> np.ndarray:
    """Nijenhuis tensor N_J(X, Y) = [JX, JY] - J[JX, Y] - J[X, JY] + J^2 [X, Y].

    J, X and Y are read once at ``pt`` and once at each central-stencil
    point; the four brackets ``[A, B] = DB.A - DA.B`` are formed from those
    values with central-difference Jacobians, as ``calculus.lie_bracket`` does.
    """
    require_same_chart(J.chart, X.chart)
    require_same_chart(J.chart, Y.chart)
    h = pt.chart.fd_step() if step is None else float(step)
    dim = pt.chart.dim
    DX, DY, DJX, DJY = (np.empty((dim, dim)) for _ in range(4))
    for j in range(dim):
        plus, minus = pt.shifted(j, h), pt.shifted(j, -h)
        J_p, J_m = J.matrix(plus), J.matrix(minus)
        X_p, X_m, Y_p, Y_m = X(plus), X(minus), Y(plus), Y(minus)
        DX[:, j] = (X_p - X_m) / (2.0 * h)
        DY[:, j] = (Y_p - Y_m) / (2.0 * h)
        DJX[:, j] = (J_p @ X_p - J_m @ X_m) / (2.0 * h)
        DJY[:, j] = (J_p @ Y_p - J_m @ Y_m) / (2.0 * h)
    J_pt, X_pt, Y_pt = J.matrix(pt), X(pt), Y(pt)
    JX_pt, JY_pt = J_pt @ X_pt, J_pt @ Y_pt
    return (
        (DJY @ JX_pt - DJX @ JY_pt)
        - J_pt @ (DY @ JX_pt - DJX @ Y_pt)
        - J_pt @ (DJY @ X_pt - DX @ JY_pt)
        + J_pt @ J_pt @ (DY @ X_pt - DX @ Y_pt)
    )


def check_closedness(
    form: DifferentialForm,
    points: Sequence[Point],
    step: float | None = None,
    tolerance: float = TOL_FD,
    identity_name: str | None = None,
) -> CheckReport:
    worst = 0.0
    for pt in points:
        table = exterior_derivative(form, pt, step)
        if table:
            worst = max(worst, max(abs(v) for v in table.values()))
    return CheckReport.from_residual(
        identity_name or f"closed({form.name})",
        len(points),
        worst,
        tolerance,
        statement=f"d({form.name or '2-form'}) = 0 under central differences",
    )


def check_nondegeneracy(
    form: DifferentialForm,
    points: Sequence[Point],
    floor: float = NONDEG_FLOOR,
    identity_name: str | None = None,
) -> CheckReport:
    min_det = min(abs(float(np.linalg.det(form_matrix(form, pt)))) for pt in points)
    return CheckReport.from_residual(
        identity_name or f"nondegenerate({form.name})",
        len(points),
        floor - min_det,
        0.0,
        statement=(
            f"|det| of the {form.name or '2-form'} matrix stays above {floor:g} "
            f"(minimum seen: {min_det:g})"
        ),
    )


def check_symplectic(
    form: DifferentialForm,
    points: Sequence[Point],
    step: float | None = None,
    tol_closed: float = TOL_FD,
    nondeg_floor: float = NONDEG_FLOOR,
) -> CheckReport:
    """Combined closedness + nondegeneracy verdict in one signed-slack report."""
    closed = check_closedness(form, points, step, tol_closed)
    nondeg = check_nondegeneracy(form, points, nondeg_floor)
    slack = max(closed.max_residual - tol_closed, nondeg.max_residual)
    return CheckReport.from_residual(
        f"symplectic({form.name})",
        len(points),
        slack,
        0.0,
        statement=(
            f"closedness residual {closed.max_residual:.3e} (tol {tol_closed:g}) and "
            f"determinant floor {nondeg_floor:g}; signed slack <= 0 means both hold"
        ),
    )


def check_almost_complex(
    J: EndomorphismField,
    points: Sequence[Point],
    tolerance: float = TOL_ALGEBRAIC,
    identity_name: str | None = None,
) -> CheckReport:
    dim = J.chart.dim
    eye = np.eye(dim)
    worst = 0.0
    for pt in points:
        M = J.matrix(pt)
        worst = max(worst, float(np.max(np.abs(M @ M + eye))))
    return CheckReport.from_residual(
        identity_name or f"almost_complex({J.name})",
        len(points),
        worst,
        tolerance,
        statement=f"{J.name or 'endomorphism'} squared equals minus the identity",
    )


def check_flatness(
    conn: FlatConnection,
    points: Sequence[Point],
    step: float | None = None,
    tolerance: float = TOL_FD,
    identity_name: str | None = None,
) -> CheckReport:
    worst = max(conn.curvature_residual(pt, step) for pt in points)
    return CheckReport.from_residual(
        identity_name or f"flat({conn.name})",
        len(points),
        worst,
        tolerance,
        statement="curvature of the connection vanishes",
    )


def check_torsion_free(
    conn: FlatConnection,
    points: Sequence[Point],
    tolerance: float = TOL_ALGEBRAIC,
    identity_name: str | None = None,
) -> CheckReport:
    worst = max(conn.torsion_residual(pt) for pt in points)
    return CheckReport.from_residual(
        identity_name or f"torsion_free({conn.name})",
        len(points),
        worst,
        tolerance,
        statement="connection coefficients are symmetric in the lower indices",
    )
