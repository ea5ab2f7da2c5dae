"""Geometry induced on the base by a section of the fibration.

A section rho with components (p, q) pulls the fibre differentials back to the
base and defines, with the tensor-contraction convention
``(dp (x) d/dx)(v) = dp(v) d/dx``,

    I = -(dp (x) d/dx + dq (x) d/dy),      g = Omega o I,

where Omega is the base form of ``fibration.base_data`` and dp, dq are read
through the section's Jacobian.  With the flat zero connection of the action
coordinates this is the candidate special-symplectic package: the checks
below verify flatness, torsion-freeness, parallel Omega and I, that I squares
to minus the identity, that g is symmetric and Omega is I-invariant, and that
the signature of g (which need not be definite) is constant on the sample.

Every derivative is the section's exact one: I and its derivative read the
section's first and second polynomial derivatives, and the graph-restriction
comparison reads the same first derivatives as the graph frame (Id; D).  Its
content is then the algebra on that frame of J_omega, which
``fibration.FORM_TO_COMPLEX`` names for sigma: its base block R = J_bb +
J_bf D equals I = -D and the defect J_fb + J_ff D - D R vanishes.  The
section is member ``member`` (0 for a single section) of a ``SectionMap``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calculus import DifferentialForm, EndomorphismField, form_matrix, transpose
from .charts import Point
from .errors import DegenerateMetricError, NotAlmostComplexError
from .fibration import (
    FORM_TO_COMPLEX,
    FibrationModel,
    SectionMap,
    base_symplectic_form,
    graph_frame_defect,
)
from .structures import (
    METRIC_ZERO_GUARD,
    PARALLEL_TOL,
    CheckReport,
    FlatConnection,
    Tolerances,
    almost_complex_residual,
    covariant_constancy,
    d_nabla_endo,
    report,
)


def induced_complex_structure(section: SectionMap, pt: Point, member: int = 0) -> np.ndarray:
    """Matrices of I of one member of ``section`` at base point(s): minus
    that member's exact fibre block of the section's Jacobian."""
    return -section.fibre_jacobian(pt)[..., member, :, :]


def induced_endomorphism(section: SectionMap, member: int = 0) -> EndomorphismField:
    """I of one member of ``section`` as a field carrying its exact derivative
    ``d_a I_kb = -d_a d_b (p, q)_k``, minus the member's second derivatives."""
    name = section.names[member]
    return EndomorphismField(
        section.model.base_chart,
        lambda pt: induced_complex_structure(section, pt, member),
        f"I[{name}]" if name else "I",
        lambda pt: -section.fibre_hessian(pt, member),
    )


def _metric(M_Omega: np.ndarray, M_I: np.ndarray) -> tuple[np.ndarray, float]:
    """g = Omega o I and the worst residual of Omega(I., I.) - Omega."""
    invariance = float(np.max(np.abs(transpose(M_I) @ M_Omega @ M_I - M_Omega)))
    return M_Omega @ M_I, invariance


@dataclass(frozen=True)
class SpecialKahlerData:
    Omega: DifferentialForm
    I: EndomorphismField
    connection: FlatConnection = field(repr=False)

    def g(self, pt: Point) -> np.ndarray:
        """Matrices of the metric g = Omega o I at point(s)."""
        return _metric(form_matrix(self.Omega, pt), self.I.matrix(pt))[0]


def build_special_kahler(
    model: FibrationModel, section: SectionMap, member: int = 0
) -> SpecialKahlerData:
    Omega = base_symplectic_form(model)
    return SpecialKahlerData(Omega, induced_endomorphism(section, member), model.connection)


def kahler_metric(
    Omega: DifferentialForm, I: EndomorphismField, pt: Point
) -> tuple[np.ndarray, float]:
    """g = Omega o I at point(s), plus the worst I-invariance residual of Omega.

    Raises if I^2 + Id exceeds ``PARALLEL_TOL``: the metric is only
    meaningful for an almost-complex I.
    """
    M_I = I.matrix(pt)
    ac_residual = almost_complex_residual(M_I)
    if ac_residual > PARALLEL_TOL:
        raise NotAlmostComplexError(
            f"I^2 + Id residual {ac_residual:.3e} exceeds {PARALLEL_TOL:g}; "
            "refusing to build a metric from a non-almost-complex I"
        )
    return _metric(form_matrix(Omega, pt), M_I)


def signature(g: np.ndarray) -> tuple:
    """(positive, negative) eigenvalue counts of the symmetric part of g.

    For a stack of ``(..., d, d)`` matrices both counts have the leading
    shape.  Raises, naming the first degenerate matrix of the stack, when an
    eigenvalue lies inside the zero guard.
    """
    eigenvalues = np.linalg.eigvalsh(0.5 * (g + transpose(g)))
    inside = np.abs(eigenvalues) < METRIC_ZERO_GUARD
    if np.any(inside):
        first = int(np.argmax(np.any(inside, axis=-1).ravel()))
        worst = float(np.min(np.abs(eigenvalues.reshape(-1, g.shape[-1])[first])))
        raise DegenerateMetricError(
            f"metric eigenvalue {worst:.3e} lies inside the zero guard {METRIC_ZERO_GUARD:g}"
        )
    pos = np.sum(eigenvalues > 0, axis=-1)
    return pos[()], (g.shape[-1] - pos)[()]


def special_symplectic_check(
    data: SpecialKahlerData,
    pt: Point,
    tolerances: Tolerances = Tolerances(),
) -> list[CheckReport]:
    """Reports for: flat, torsion-free, Omega and I parallel, I^2 = -Id."""
    conn, Omega, I = data.connection, data.Omega, data.I
    G, M_I = conn.gamma(pt), I.matrix(pt)
    parallel_Omega = covariant_constancy(G, form_matrix(Omega, pt), Omega.gradient(pt))
    residuals = {
        "connection_flat": conn.curvature_residual(pt),
        "connection_torsion_free": conn.torsion_residual(pt),
        "base_form_parallel": np.max(np.abs(parallel_Omega)),
        # the table is antisymmetric in (a, b), so its max covers every pair a < b
        "complex_structure_parallel": np.max(np.abs(d_nabla_endo(G, M_I, I.gradient(pt)))),
        "squares_to_minus_identity": almost_complex_residual(M_I),
    }
    return [report(f"special_kahler.{k}", r, len(pt), tolerances) for k, r in residuals.items()]


def kahler_reports(
    data: SpecialKahlerData,
    pt: Point,
    tolerances: Tolerances = Tolerances(),
) -> list[CheckReport]:
    """Metric-level reports: symmetry (exact), invariance, constant signature.
    An undefined signature reads as a changing one, residual 1.0."""
    g, invariance = _metric(form_matrix(data.Omega, pt), data.I.matrix(pt))
    try:
        pos, neg = signature(g)
    except DegenerateMetricError as exc:
        spread, signature_text = 1.0, f"signature undefined: {exc}"
    else:
        signatures = set(zip(np.ravel(pos).tolist(), np.ravel(neg).tolist()))
        spread = 0.0 if len(signatures) == 1 else 1.0
        listed = ", ".join(f"(+{p}, -{m})" for p, m in sorted(signatures))
        signature_text = f"eigenvalue signature over the sample: {listed}"
    residuals = {
        "metric_symmetric": np.max(np.abs(g - transpose(g))),
        "base_form_invariant": invariance,
        "signature_constant": spread,
    }
    return [
        report(f"special_kahler.{k}", r, len(pt), tolerances, signature=signature_text)
        for k, r in residuals.items()
    ]


def induced_vs_restriction(
    model: FibrationModel,
    section: SectionMap,
    pt: Point,
    tolerance: Tolerances | float = Tolerances(),
    member: int = 0,
    frame_defect: tuple | None = None,
) -> CheckReport:
    """Cross-check: I from the section formula of member ``member`` against
    the model's ``FORM_TO_COMPLEX["sigma"]`` (J_omega), restricted to that
    member's graph and pushed to the base, held to the run's ``tolerance``
    or to a number.

    The projection kills the fibre components, so the pushed restriction is
    the base block of J applied to the exact graph frame.  Meaningful when the
    graph is invariant (the graph-frame defect is folded into the residual).
    A caller that has formed ``graph_frame_defect`` of ``section`` at ``pt``,
    with that structure on that member, passes it as ``frame_defect``.
    """
    if frame_defect is None:
        J = getattr(model.complexes, FORM_TO_COMPLEX["sigma"])
        frame_defect = graph_frame_defect(section, J, pt)
    restriction, defect = (table[..., member, :, :] for table in frame_defect[1:])
    agree = np.max(np.abs(restriction - induced_complex_structure(section, pt, member)))
    worst = max(float(np.max(np.abs(defect))), float(agree))
    return report("special_kahler.matches_graph_restriction", worst, len(pt), tolerance)
