"""Geometry induced on the base by a section of the fibration.

A section rho with components (p, q) pulls the fibre differentials back to the
base and defines, with the tensor-contraction convention
``(dp (x) d/dx)(v) = dp(v) d/dx``,

    I = -(dp (x) d/dx + dq (x) d/dy),      g = Omega o I,

where Omega = sum dx_i ^ dy_i and dp, dq are read through the section's
Jacobian.  Together with the flat zero connection of the action coordinates
this is the candidate special-symplectic package: the checks below verify
flatness, torsion-freeness, parallel Omega and I, that I squares to minus the
identity, that g is symmetric and Omega is I-invariant, and that the signature
of g (which need not be definite) is constant over the sampled box.

The Jacobian enters twice, deliberately through different routes: the induced
endomorphism uses exact polynomial derivatives, while the graph-restriction
comparison uses the finite-difference frame, so agreement between the two is
an actual cross-check and not an identity of implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .calculus import DifferentialForm, EndomorphismField, form_matrix, transpose
from .charts import Point
from .errors import DegenerateMetricError, NotAlmostComplexError
from .fibration import (
    FibrationModel,
    HyperComplexTriple,
    SectionMap,
    base_symplectic_form,
    build_complex_triple,
)
from .structures import (
    METRIC_ZERO_GUARD,
    TOL_ALGEBRAIC,
    TOL_FD,
    CheckReport,
    FlatConnection,
    check_flatness,
    check_torsion_free,
    covariant_constancy,
    d_nabla_endo,
)

PARALLEL_TOL = 1e-8


def induced_complex_structure(section: SectionMap, pt: Point) -> np.ndarray:
    """Matrices of I at base point(s): minus the exact fibre block of the
    section's Jacobian, negated in place because on a whole stencil stack
    the block is large (8 MB at n = 4, N = 1000)."""
    block = section.fibre_jacobian(pt)
    return np.negative(block, out=block)


def induced_endomorphism(section: SectionMap) -> EndomorphismField:
    return EndomorphismField(
        section.model.base_chart,
        lambda pt: induced_complex_structure(section, pt),
        name=f"I[{section.name}]" if section.name else "I",
    )


@dataclass(frozen=True)
class SpecialKahlerData:
    base_chart: object
    Omega: DifferentialForm
    I: EndomorphismField
    g: Callable[[Point], np.ndarray] = field(repr=False)
    connection: FlatConnection = field(repr=False)
    section_name: str = ""


def build_special_kahler(model: FibrationModel, section: SectionMap) -> SpecialKahlerData:
    Omega = base_symplectic_form(model)
    I = induced_endomorphism(section)

    def metric(pt: Point) -> np.ndarray:
        return form_matrix(Omega, pt) @ I.matrix(pt)

    return SpecialKahlerData(
        base_chart=model.base_chart,
        Omega=Omega,
        I=I,
        g=metric,
        connection=model.connection,
        section_name=section.name,
    )


def kahler_metric(
    Omega: DifferentialForm,
    I: EndomorphismField,
    pt: Point,
    almost_complex_tol: float = PARALLEL_TOL,
) -> tuple[np.ndarray, float]:
    """g = Omega o I at point(s), plus the worst I-invariance residual of Omega.

    Raises if I fails to square to minus the identity: the metric is only
    meaningful for an almost-complex I.
    """
    M_I = I.matrix(pt)
    ac_residual = float(np.max(np.abs(M_I @ M_I + np.eye(I.chart.dim))))
    if ac_residual > almost_complex_tol:
        raise NotAlmostComplexError(
            f"I^2 + Id residual {ac_residual:.3e} exceeds {almost_complex_tol:g}; "
            "refusing to build a metric from a non-almost-complex I"
        )
    M_Omega = form_matrix(Omega, pt)
    g = M_Omega @ M_I
    invariance = float(np.max(np.abs(transpose(M_I) @ M_Omega @ M_I - M_Omega)))
    return g, invariance


def signature(g: np.ndarray, zero_guard: float = METRIC_ZERO_GUARD) -> tuple:
    """(positive, negative) eigenvalue counts of the symmetric part of g.

    For a stack of ``(..., d, d)`` matrices both counts have the leading
    shape.  Raises, naming the first degenerate matrix of the stack, when an
    eigenvalue lies inside the zero guard.
    """
    eigenvalues = np.linalg.eigvalsh(0.5 * (g + transpose(g)))
    inside = np.abs(eigenvalues) < zero_guard
    if np.any(inside):
        first = int(np.argmax(np.any(inside, axis=-1).ravel()))
        worst = float(np.min(np.abs(eigenvalues.reshape(-1, g.shape[-1])[first])))
        raise DegenerateMetricError(
            f"metric eigenvalue {worst:.3e} lies inside the zero guard {zero_guard:g}"
        )
    pos = np.sum(eigenvalues > 0, axis=-1)
    return pos[()], (g.shape[-1] - pos)[()]


def special_symplectic_check(
    data: SpecialKahlerData,
    pt: Point,
    fd_step: float | None = None,
    tol_parallel: float = PARALLEL_TOL,
    tol_algebraic: float = TOL_ALGEBRAIC,
    tol_fd: float = TOL_FD,
) -> list[CheckReport]:
    """Reports for: flat, torsion-free, Omega parallel, I parallel, I^2 = -Id."""
    conn = data.connection
    reports = [
        check_flatness(conn, pt, fd_step, tol_fd, identity_name="special_kahler.connection_flat"),
        check_torsion_free(
            conn, pt, tol_algebraic, identity_name="special_kahler.connection_torsion_free"
        ),
    ]

    worst = float(np.max(np.abs(covariant_constancy(conn, data.Omega, pt, fd_step))))
    reports.append(
        CheckReport.from_residual(
            "special_kahler.base_form_parallel",
            len(pt),
            worst,
            tol_parallel,
            statement="the base symplectic form is parallel for the flat connection",
        )
    )

    # the table is antisymmetric in (a, b), so its max covers every pair a < b
    parallel = float(np.max(np.abs(d_nabla_endo(conn, data.I, pt, fd_step))))
    M_I = data.I.matrix(pt)
    square = float(np.max(np.abs(M_I @ M_I + np.eye(conn.chart.dim))))
    reports.append(
        CheckReport.from_residual(
            "special_kahler.complex_structure_parallel",
            len(pt),
            parallel,
            tol_parallel,
            statement="the exterior covariant derivative of I vanishes on the coordinate frame",
        )
    )
    reports.append(
        CheckReport.from_residual(
            "special_kahler.squares_to_minus_identity",
            len(pt),
            square,
            tol_algebraic,
            statement="the induced endomorphism squares to minus the identity",
        )
    )
    return reports


def kahler_reports(
    data: SpecialKahlerData,
    pt: Point,
    tol_algebraic: float = TOL_ALGEBRAIC,
) -> list[CheckReport]:
    """Metric-level reports: symmetry (exact), invariance, constant signature."""
    reports: list[CheckReport] = []

    g = data.g(pt)
    M_I = data.I.matrix(pt)
    M_Omega = form_matrix(data.Omega, pt)
    asymmetry = float(np.max(np.abs(g - transpose(g))))
    invariance = float(np.max(np.abs(transpose(M_I) @ M_Omega @ M_I - M_Omega)))
    reports.append(
        CheckReport.from_residual(
            "special_kahler.metric_symmetric",
            len(pt),
            asymmetry,
            0.0,
            statement="g agrees with its transpose exactly at every sampled point",
        )
    )
    reports.append(
        CheckReport.from_residual(
            "special_kahler.base_form_invariant",
            len(pt),
            invariance,
            tol_algebraic,
            statement="Omega(I., I.) agrees with Omega",
        )
    )

    try:
        pos, neg = signature(g)
        signatures = set(zip(np.ravel(pos).tolist(), np.ravel(neg).tolist()))
    except DegenerateMetricError as exc:
        reports.append(
            CheckReport.from_residual(
                "special_kahler.signature_constant",
                len(pt),
                float("inf"),
                0.0,
                statement=f"signature undefined: {exc}",
            )
        )
    else:
        constant = len(signatures) == 1
        sig_text = ", ".join(f"(+{p}, -{m})" for p, m in sorted(signatures))
        reports.append(
            CheckReport.from_residual(
                "special_kahler.signature_constant",
                len(pt),
                0.0 if constant else 1.0,
                0.0,
                statement=f"eigenvalue signature over the sample: {sig_text}",
            )
        )
    return reports


def induced_vs_restriction(
    model: FibrationModel,
    section: SectionMap,
    pt: Point,
    fd_step: float | None = None,
    tolerance: float = TOL_FD,
    *,
    complexes: HyperComplexTriple | None = None,
) -> CheckReport:
    """Cross-check: I from the section formula against the first complex
    structure restricted to the graph and pushed to the base.

    The projection kills the fibre components, so the pushed restriction is
    the base block of J applied to the FD graph frame.  Meaningful when the
    graph is invariant (the invariance defect is folded into the residual).
    ``complexes`` is the model's complex triple, built here if not passed.
    """
    J = (build_complex_triple(model) if complexes is None else complexes).J_omega
    n2 = 2 * model.n
    frame = section.jacobian_fd(pt, fd_step)
    moved = J.matrix(section.evaluate(pt)) @ frame
    restriction = moved[..., :n2, :]
    # invariance defect: the moved frame should be graph-tangent again
    rebuilt = frame @ restriction
    defect = float(np.max(np.abs(rebuilt - moved)))
    agree = float(np.max(np.abs(restriction - induced_complex_structure(section, pt))))
    worst = max(defect, agree)
    return CheckReport.from_residual(
        "special_kahler.matches_graph_restriction",
        len(pt),
        worst,
        tolerance,
        statement=(
            "the section-induced endomorphism agrees with the graph restriction of "
            "the first complex structure pushed through the projection"
        ),
    )
