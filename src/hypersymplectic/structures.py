"""Residual reports, connections and the tensor identities the checks read.

Every verification in the package funnels into a CheckReport: an identity
name, the sample size, the worst residual seen, the tolerance it was held to,
and the resulting verdict.  Two report styles are used:

* plain residual: ``max_residual`` is the largest absolute defect and must
  stay below ``tolerance``;
* signed slack (tolerance 0.0): used when a quantity must stay above a
  floor, e.g. nondegeneracy reports ``floor - min |det|``; passing means <= 0.

Either way ``passed`` is derived, never stored: ``max_residual <= tolerance``.
The suites (``fibration.verify_hypersymplectic``,
``special_kahler.special_symplectic_check``, ...) measure each residual with
the primitive that states it and hand it to ``report``, which names it, words
it and holds it to its tolerance from the row of its family in
``IDENTITIES``, the catalogue.

The primitives take the arrays a caller reads once from its fields on a
stacked sample (see ``charts``), values and ``gradient`` tables, broadcast
over any leading axes and keep them in the table the caller reduces.  The
connection is a ``calculus.TensorField`` of rank 3, like the forms and
endomorphisms it acts on, and every derivative is the field's ``gradient``:
a field built by ``constant`` (every form and complex structure of the
model, the zero connection) and the induced I of every section carry their
exact derivative, so no run differences a field.  A hand-built field
without one is evaluated once on all central-stencil shifts of the sample
(``calculus.stencil``), a fixed number of evaluator calls whatever the
sample size.  A constant field keeps no point axes, so it and its
derivative table hold one copy for the whole sample.

The tensor identities (``d_nabla_endo``, ``nijenhuis``) are evaluated on the
coordinate frame: each returns the full table of the tensor's components at
every point, which fixes its value on every pair of vector fields.

Every tolerance a check is held to is defined here.  ``Tolerances`` holds the
four a configuration may set; the remaining constants are fixed: no
configuration key reaches them.  Which one each check reads is the
catalogue's to say.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .calculus import TensorField, transpose
from .charts import Chart, Point

# The largest rank a configuration may ask for: paper-n at n = 16 (a
# 64-dimensional phase space) takes about 0.4 s and 127 MB peak RSS on the
# default sample, and the peak grows faster than n^2 (686 MB at n = 32).
MAX_RANK = 16
# The largest n_points * ceil(sections / 2) * entries_per_point(n), the one
# bound on the sample size: each pair of sections takes paper-n's share.
# paper-n's peak RSS grows by 23-27 bytes per entry at n = 1..4, 8 and 16, and
# its largest admitted sample peaks at 250-284 MiB at every rank measured (n =
# 1..6, 8, 10, 12, 16; Python 3.11, numpy 2.4, x86-64 Linux); 4 and 16
# sections peak lower at n = 4 (README).
MAX_TABLE_ENTRIES = 10**7


def entries_per_point(n: int) -> int:
    """The table entries a run holds per sample point at rank n, m = 2n:
    the m^3 of d_nabla I and the sections' second derivatives, and the
    lower-order tables (frames, Jacobians, vectors) as fitted to paper-n's
    peak RSS, 1.5 kB a point at n = 1 and 0.9 MB at n = 16.  The m^3 term
    is the worst case: constant second derivatives hold none per point."""
    m = 2 * n
    return m**3 + 4 * m**2 + 20 * m


@dataclass(frozen=True)
class Tolerances:
    """The four tolerances a configuration may set, with their defaults;
    ``IDENTITIES`` says which checks each one holds."""

    algebraic: float = 1e-12
    fd: float = 1e-6
    nested_fd: float = 1e-4
    nondegeneracy: float = 1e-8


# fixed tolerances
SECTION_PULLBACK_TOL = 1e-10  # a section's pullback, read through its exact Jacobian
PARALLEL_TOL = 1e-8  # Omega and I parallel; also the I^2 = -Id guard of kahler_metric
QUADRATURE_TOL = 1e-8  # the action-angle quadrature oracles
METRIC_ZERO_GUARD = 1e-10  # a metric eigenvalue closer to zero leaves the signature undefined
# the fixed tolerances a catalogue row may name, with "exact" for 0
FIXED_TOLERANCES = {
    "SECTION_PULLBACK_TOL": SECTION_PULLBACK_TOL,
    "PARALLEL_TOL": PARALLEL_TOL,
    "QUADRATURE_TOL": QUADRATURE_TOL,
    "exact": 0.0,
}


@dataclass(frozen=True)
class CheckReport:
    identity_name: str
    n_points: int
    max_residual: float
    tolerance: float
    statement: str = ""

    @property
    def passed(self) -> bool:  # a NaN residual fails
        return self.max_residual <= self.tolerance

    @classmethod
    def from_residual(
        cls,
        identity_name: str,
        n_points: int,
        max_residual: float,
        tolerance: float,
        statement: str = "",
    ) -> "CheckReport":
        return cls(identity_name, n_points, float(max_residual), float(tolerance), statement)

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
class Identity:
    """One family of checks: ``name`` and ``statement`` are templates that
    ``str.format`` fills with each check's placeholder values, and
    ``tolerance`` names a ``Tolerances`` field or a ``FIXED_TOLERANCES`` entry.
    A ``floor`` family measures a minimum that must stay above its
    tolerance and reports the signed slack, tolerance - minimum, against 0."""

    name: str
    statement: str
    tolerance: str
    floor: bool = False

    @property
    def family(self) -> str:
        """The name up to its first placeholder, the family's catalogue key."""
        return self.name.split("{", 1)[0].rstrip(".(")


# The catalogue: one row per family of checks, in the order of the suites,
# with its name pattern, statement template and tolerance, and ``floor`` on
# the one signed-slack family.  Besides a check's placeholder values a
# statement may read ``tolerance`` and ``measured``, the residual handed to
# ``report``.
_ROWS = (
    ("hypersymplectic.closed.{form}", "d({form}) = 0 on the coordinate frame", "fd"),
    ("hypersymplectic.nondegenerate.{form}", "|det| of the {form} matrix stays above "
     "{tolerance:g} (minimum seen: {measured:g})", "nondegeneracy", True),
    ("hypersymplectic.recursion_squares.{forms[0]}_{forms[1]}", "the recursion operator "
     "of ({forms[0]}, {forms[1]}) squares to minus the identity", "algebraic"),
    ("hypersymplectic.anticommute.{Js[0]}_{Js[1]}",
     "{Js[0]} and {Js[1]} anticommute in the covector action", "algebraic"),
    ("hypersymplectic.nijenhuis.{J}",
     "Nijenhuis tensor of {J} vanishes on the coordinate frame", "fd"),
    ("hypersymplectic.holomorphic_frame.{J}",
     "the standard coframe pairs diagonalize {J}", "algebraic"),
    ("hypersymplectic.composition.{forms[2]}_from_{forms[0]}_{forms[1]}",
     "{Js[0]} composed with {Js[1]} in the covector action equals {Js[2]}, "
     "the recursion operator of ({forms[1]}, {forms[0]})", "algebraic"),
    ("lagrangian_fibres({form})", "fibre directions are isotropic for {form}", "algebraic"),
    ("sections.pullback_vanishes.{section}.{form}",
     "the graph of {section!r} is Lagrangian for {form}", "SECTION_PULLBACK_TOL"),
    ("sections.graph_invariant.{section}.{J}",
     "{J} preserves the tangent spaces of the graph of {section!r}", "fd"),
    ("special_kahler.connection_flat", "curvature of the connection vanishes", "nested_fd"),
    ("special_kahler.connection_torsion_free",
     "connection coefficients are symmetric in the lower indices", "algebraic"),
    ("special_kahler.base_form_parallel",
     "the base symplectic form is parallel for the flat connection", "PARALLEL_TOL"),
    ("special_kahler.complex_structure_parallel", "the exterior covariant derivative "
     "of I vanishes on the coordinate frame", "PARALLEL_TOL"),
    ("special_kahler.squares_to_minus_identity",
     "the induced endomorphism squares to minus the identity", "algebraic"),
    ("special_kahler.metric_symmetric",
     "g agrees with its transpose exactly at every sampled point", "exact"),
    ("special_kahler.base_form_invariant", "Omega(I., I.) agrees with Omega", "algebraic"),
    # the signature the sample shows, or why it is undefined
    ("special_kahler.signature_constant", "{signature}", "exact"),
    ("special_kahler.matches_graph_restriction", "the section-induced endomorphism agrees "
     "with the graph restriction of the first complex structure pushed through the "
     "projection", "fd"),
    ("action_angle.action_equals_energy_over_frequency", "quadrature of the action "
     "integral matches energy / frequency, relative to energy / frequency", "QUADRATURE_TOL"),
    ("action_angle.angle_normalization",
     "the angle advances by exactly one turn around each level curve", "QUADRATURE_TOL"),
    ("action_angle.round_trip",
     "to_action_angle and from_action_angle invert each other", "algebraic"),
    ("action_angle.canonical_transform", "the action-angle map pulls the angle-action "
     "symplectic form back to the mechanical one (antisymmetric parts compared; the "
     "symmetric part of the pulled-back form is rounding)", "fd"),
)
IDENTITIES = {row.family: row for row in itertools.starmap(Identity, _ROWS)}


def report(
    family: str, residual, n_points: int, tolerances: Tolerances | float, **values
) -> CheckReport:
    """The check of catalogue family ``family`` named by the placeholder
    ``values``, with its worst ``residual`` over ``n_points`` points, held to
    the row's tolerance as ``tolerances`` sets it; a number passed as
    ``tolerances`` replaces the row's choice."""
    row = IDENTITIES[family]
    if not isinstance(tolerances, Tolerances):
        tolerance = tolerances
    elif row.tolerance in FIXED_TOLERANCES:
        tolerance = FIXED_TOLERANCES[row.tolerance]
    else:
        tolerance = getattr(tolerances, row.tolerance)
    name = row.name.format_map(values)
    statement = row.statement.format_map(dict(values, tolerance=tolerance, measured=residual))
    if row.floor:
        residual, tolerance = tolerance - residual, 0.0
    return CheckReport.from_residual(name, n_points, residual, tolerance, statement)


class FlatConnection(TensorField):
    """An affine connection given by its Christoffel table
    ``gamma(pt)[..., k, i, j]``, the coefficient with upper index k and lower
    indices (i, j), with the derivative table ``dG[..., k, i, j, a] =
    d_a Gamma^k_ij``.

    "Flat" is the intent, not an assumption: torsion and curvature are
    checked, never taken for granted.
    """

    rank, kind = 3, "connection"

    gamma = TensorField.value

    @classmethod
    def zero(cls, chart: Chart, name: str = "zero") -> "FlatConnection":
        return cls.constant(chart, np.zeros((chart.dim,) * 3), name)

    def torsion_residual(self, pt: Point) -> float:
        G = self.gamma(pt)
        return float(np.max(np.abs(G - np.swapaxes(G, -1, -2))))

    def curvature_residual(self, pt: Point) -> float:
        """Max |R^l_kij|, with the derivatives of Gamma exact when the
        connection carries them, else from central differences.

        R is formed in one pass for every connection, the upper index l
        riding in the formula's ellipsis next to any point axes.
        """
        G = self.gamma(pt)
        dG = self.gradient(pt)  # dG[..., l, j, k, a] = d_a Gamma^l_jk
        return float(np.max(np.abs(_curvature(dG, G))))


def _curvature(dG: np.ndarray, G: np.ndarray) -> np.ndarray:
    """R^l_kij = d_i Gamma^l_jk - d_j Gamma^l_ik + Gamma^l_im Gamma^m_jk
    - Gamma^l_jm Gamma^m_ik, summed in that order, in the layout
    ``R[..., l, k, i, j]``.  Both products are the one matrix product
    P[..., l, i, (j, k)] = Gamma^l_im Gamma^m_(jk), read as P_ijk and as
    P_jik."""
    dim = G.shape[-1]
    P = G @ G.reshape(G.shape[:-3] + (1, dim, dim * dim))
    P = P.reshape(P.shape[:-1] + (dim, dim))
    d = np.einsum("...jki->...kij", dG) - np.einsum("...ikj->...kij", dG)
    # not in place: either of Gamma and its derivative table may lack the point axes
    return d + np.moveaxis(P, -1, -3) - np.swapaxes(P, -1, -3)


def covariant_constancy(G: np.ndarray, T: np.ndarray, dT: np.ndarray) -> np.ndarray:
    """Residual table ``(nabla_i T)_{jk}`` of a 2-form, shape ``(..., i, j, k)``,
    from the Christoffel table ``G``, the form's matrices ``T`` and its
    ``gradient`` ``dT[..., j, k, i] = d_i T_jk``.

    Zero everywhere iff the form is parallel for the connection at the point.
    """
    corr1 = np.einsum("...lij,...lk->...ijk", G, T)
    corr2 = np.einsum("...lik,...jl->...ijk", G, T)
    return np.moveaxis(dT, -1, -3) - corr1 - corr2


def d_nabla_endo(G: np.ndarray, I: np.ndarray, dI: np.ndarray) -> np.ndarray:
    """Exterior covariant derivative of an endomorphism on the coordinate frame,
    from the Christoffel table ``G``, the matrices ``I`` and their ``gradient``
    ``dI[..., k, b, a] = d_a I_kb``.

    ``table[..., a, b, :] = d_nabla I (e_a, e_b) = (nabla_a I) e_b - (nabla_b I) e_a``
    with

        (nabla_a I) e_b = (d_a I) e_b + Gamma(e_a, I e_b) - I Gamma(e_a, e_b),

    that is nabla_a I = d_a I + [Gamma_a, I] with (Gamma_a)_kj = Gamma^k_aj,
    formed by matrix products over every a at once.

    d_nabla I is a tensor, so the frame table determines it on every pair of
    fields.
    """
    I = I[..., None, :, :]
    G_a = np.moveaxis(G, -2, -3)  # G_a[..., a, k, j] = Gamma^k_aj
    nabla = np.moveaxis(dI, -1, -3) + G_a @ I - I @ G_a  # [..., a, k, b]
    nabla = np.swapaxes(nabla, -1, -2)
    return nabla - np.swapaxes(nabla, -3, -2)


def nijenhuis(J: np.ndarray, dJ: np.ndarray) -> np.ndarray:
    """Nijenhuis tensor on the coordinate frame, from the matrices ``J`` and
    their ``gradient`` ``dJ[..., k, b, m] = d_m J^k_b``:
    ``table[..., k, a, b] = N_J(e_a, e_b)^k``, where

        N_J(X, Y) = [JX, JY] - J[JX, Y] - J[X, JY] + J^2 [X, Y].

    Coordinate fields commute, so the four brackets reduce to
    ``N^k_ab = A^k_ab - A^k_ba`` with ``A^k_ab = J^m_a d_m J^k_b + J^k_m d_b J^m_a``,
    both terms batched matrix products: for each k, ``J^T`` times the
    transpose of ``dJ[..., k, :, :]``, and ``J`` times ``dJ`` read as a
    ``(dim, dim * dim)`` matrix.  N_J is a tensor, so the frame table
    determines it on every pair of fields.
    """
    dim = J.shape[-1]
    A = transpose(J)[..., None, :, :] @ transpose(dJ)
    B = J @ dJ.reshape(dJ.shape[:-3] + (dim, dim * dim))
    A += B.reshape(B.shape[:-1] + (dim, dim))
    return A - np.swapaxes(A, -1, -2)


def almost_complex_residual(M: np.ndarray) -> float:
    """Worst ``|M @ M + Id|`` over a stack of matrices: zero exactly when each
    squares to minus the identity."""
    return float(np.max(np.abs(M @ M + np.eye(M.shape[-1]))))
