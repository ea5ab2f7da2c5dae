"""The model fibration, its three symplectic and three complex structures.

The total chart of a rank-n model carries coordinates

    (x_1..x_n, y_1..y_n, p_1..p_n, q_1..q_n)

where (x, y) are action (base) coordinates and (p, q) are angle coordinates
with period 2*pi.  On this chart the package builds the block-constant triple

    omega = dp ^ dx + dq ^ dy
    chi   = -dp ^ dq + dx ^ dy
    sigma = dq ^ dx + dy ^ dp

and the complex-structure triple J_omega, J_chi, J_sigma, where J_sigma is
*derived* by composing the first two in the covector action rather than being
hand-coded; the printed constant table for the composite is kept separately as
an independent fixture so the composition identity is an actual check.

Sections of the fibration are polynomial maps (x, y) -> (p, q); their graphs
are probed for Lagrangian behaviour (pullback of a chosen 2-form vanishes,
read through the exact polynomial Jacobian) and for invariance under a chosen
complex structure (complex-submanifold check, through the finite-difference
frame, which thereby also cross-checks the polynomial derivatives).
A graph turns out to be invariant under one J exactly when it is Lagrangian
for the other two symplectic forms; the test suite pins both directions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .calculus import (
    DifferentialForm,
    EndomorphismField,
    apply,
    compose_covector,
    form_matrix,
    stencil,
    transpose,
)
from .charts import Chart, Point
from .errors import DegenerateFormError, GeometryError
from .polynomials import Polynomial
from .structures import (
    DEFAULT_POINTS,
    DEFAULT_SEED,
    NONDEG_FLOOR,
    TOL_ALGEBRAIC,
    TOL_FD,
    CheckReport,
    FlatConnection,
    check_almost_complex,
    check_closedness,
    check_nondegeneracy,
    nijenhuis,
)

ANGLE_PERIOD = 2.0 * math.pi
MAX_SECTION_DEGREE = 8


@dataclass(frozen=True)
class FibrationModel:
    n: int
    base_chart: Chart
    total_chart: Chart
    connection: FlatConnection

    # Block index helpers (0-based block slot i in 0..n-1).
    def ix(self, i: int) -> int:
        return i

    def iy(self, i: int) -> int:
        return self.n + i

    def ip(self, i: int) -> int:
        return 2 * self.n + i

    def iq(self, i: int) -> int:
        return 3 * self.n + i

    def vertical_axes(self) -> list[int]:
        return list(range(2 * self.n, 4 * self.n))


def _names(prefix: str, n: int) -> tuple[str, ...]:
    if n == 1:
        return (prefix,)
    return tuple(f"{prefix}{i + 1}" for i in range(n))


def make_model(
    n: int,
    action_bounds: Sequence[tuple[float, float]] | None = None,
    angle_period: float = ANGLE_PERIOD,
    name: str = "model",
) -> FibrationModel:
    """Build the rank-n model on a box chart.

    ``action_bounds`` gives one (lower, upper) pair per action coordinate in
    the order (x_1..x_n, y_1..y_n); the default box is [-1, 1] per axis.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if action_bounds is None:
        action_bounds = [(-1.0, 1.0)] * (2 * n)
    if len(action_bounds) != 2 * n:
        raise ValueError(f"need {2 * n} action bounds, got {len(action_bounds)}")
    base_coords = _names("x", n) + _names("y", n)
    base_lower = tuple(lo for lo, _ in action_bounds)
    base_upper = tuple(hi for _, hi in action_bounds)
    base = Chart(f"{name}-base", base_coords, base_lower, base_upper)
    total_coords = base_coords + _names("p", n) + _names("q", n)
    total = Chart(
        f"{name}-total",
        total_coords,
        base_lower + (0.0,) * (2 * n),
        base_upper + (angle_period,) * (2 * n),
    )
    return FibrationModel(
        n=n,
        base_chart=base,
        total_chart=total,
        connection=FlatConnection.zero(base),
    )


@dataclass(frozen=True)
class HyperSymplecticTriple:
    omega: DifferentialForm
    chi: DifferentialForm
    sigma: DifferentialForm

    def forms(self) -> tuple[DifferentialForm, DifferentialForm, DifferentialForm]:
        return (self.omega, self.chi, self.sigma)


@dataclass(frozen=True)
class HyperComplexTriple:
    J_omega: EndomorphismField
    J_chi: EndomorphismField
    J_sigma: EndomorphismField

    def endos(self) -> tuple[EndomorphismField, ...]:
        return (self.J_omega, self.J_chi, self.J_sigma)


def build_structure_triple(model: FibrationModel) -> HyperSymplecticTriple:
    """The three block-constant 2-forms on the total chart."""
    chart = model.total_chart
    omega, chi, sigma = (np.zeros((chart.dim, chart.dim)) for _ in range(3))
    for i in range(model.n):
        ix, iy, ip, iq = model.ix(i), model.iy(i), model.ip(i), model.iq(i)
        omega[ix, ip] = -1.0  # dp ^ dx
        omega[iy, iq] = -1.0  # dq ^ dy
        chi[ip, iq] = -1.0  # -dp ^ dq
        chi[ix, iy] = 1.0  # dx ^ dy
        sigma[ix, iq] = -1.0  # dq ^ dx
        sigma[iy, ip] = 1.0  # dy ^ dp
    # each table holds the coefficients at i < j; the form matrix is M - M^T
    return HyperSymplecticTriple(
        omega=DifferentialForm.constant(chart, omega - omega.T, name="omega"),
        chi=DifferentialForm.constant(chart, chi - chi.T, name="chi"),
        sigma=DifferentialForm.constant(chart, sigma - sigma.T, name="sigma"),
    )


def base_symplectic_form(model: FibrationModel) -> DifferentialForm:
    """Omega = sum_i dx_i ^ dy_i on the base chart."""
    upper = np.eye(2 * model.n, k=model.n)  # 1 at (x_i, y_i)
    return DifferentialForm.constant(model.base_chart, upper - upper.T, name="Omega")


def _omega_matrix(model: FibrationModel) -> np.ndarray:
    dim = 4 * model.n
    M = np.zeros((dim, dim))
    for i in range(model.n):
        M[model.ip(i), model.ix(i)] = 1.0
        M[model.ix(i), model.ip(i)] = -1.0
        M[model.iq(i), model.iy(i)] = 1.0
        M[model.iy(i), model.iq(i)] = -1.0
    return M


def _chi_matrix(model: FibrationModel) -> np.ndarray:
    dim = 4 * model.n
    M = np.zeros((dim, dim))
    for i in range(model.n):
        M[model.iy(i), model.ix(i)] = 1.0
        M[model.ix(i), model.iy(i)] = -1.0
        M[model.iq(i), model.ip(i)] = -1.0
        M[model.ip(i), model.iq(i)] = 1.0
    return M


def build_complex_triple(model: FibrationModel) -> HyperComplexTriple:
    """J_omega and J_chi from their constant tables; J_sigma by composition.

    The composition is taken in the covector action (apply J_chi to a
    covector first, then J_omega), which is the reading under which the
    composite reproduces the pinned covector table; the tangent-action
    composite differs by an overall sign.
    """
    chart = model.total_chart
    J_omega = EndomorphismField.constant(chart, _omega_matrix(model), name="J_omega")
    J_chi = EndomorphismField.constant(chart, _chi_matrix(model), name="J_chi")
    J_sigma_raw = compose_covector(J_omega, J_chi)
    frozen = J_sigma_raw.matrix(chart.point(np.zeros(chart.dim)))
    J_sigma = EndomorphismField.constant(chart, frozen, name="J_sigma")
    return HyperComplexTriple(J_omega=J_omega, J_chi=J_chi, J_sigma=J_sigma)


def expected_composite_matrix(model: FibrationModel) -> np.ndarray:
    """Independent constant fixture for the composite structure:

    per block  x -> -q,  y -> p,  p -> -y,  q -> x  (vector action),
    equivalently the covector table dx -> dq, dy -> -dp, dq -> -dx, dp -> dy.
    """
    dim = 4 * model.n
    M = np.zeros((dim, dim))
    for i in range(model.n):
        M[model.iq(i), model.ix(i)] = -1.0
        M[model.ip(i), model.iy(i)] = 1.0
        M[model.iy(i), model.ip(i)] = -1.0
        M[model.ix(i), model.iq(i)] = 1.0
    return M


def recursion_operator(
    omega: DifferentialForm, chi: DifferentialForm, pt: Point
) -> np.ndarray:
    """The endomorphism A with chi(X, Y) = omega(A X, Y) for all X, Y.

    In matrices A = M_omega^{-1} M_chi; omega must be nondegenerate at every
    point of ``pt``.
    """
    M_omega = form_matrix(omega, pt)
    M_chi = form_matrix(chi, pt)
    smallest = float(np.min(np.abs(np.linalg.det(M_omega))))
    if smallest < 1e-12:
        raise DegenerateFormError(
            f"recursion operator needs a nondegenerate base form; |det| = {smallest:.3e}"
        )
    return np.linalg.solve(M_omega, M_chi)


def holomorphic_frame_check(
    J: EndomorphismField,
    pairs: Sequence[tuple[np.ndarray, np.ndarray]],
    pt: Point,
) -> float:
    """Check that each (a, b) pair of covectors spans a J-eigen coframe, a + ib.

    For each pair the residual is min over s in {+1, -1} of
    ``|J a - s (-b)| + |J b - s a|`` in the covector action; s = +1 matches
    J a = -b (the pair represents a holomorphic differential), s = -1 the
    conjugate orientation.  Returns the worst residual over pairs and points.
    """
    worst = 0.0
    C = J.covector_matrix(pt)
    for a, b in pairs:
        Ja, Jb = apply(C, a), apply(C, b)
        plus, minus = (
            np.linalg.norm(Ja - s * (-b), axis=-1) + np.linalg.norm(Jb - s * a, axis=-1)
            for s in (1, -1)
        )
        worst = max(worst, float(np.max(np.minimum(plus, minus))))
    return worst


def standard_frame_pairs(model: FibrationModel) -> dict[str, list[tuple[np.ndarray, np.ndarray]]]:
    """The coordinate coframe pairs (unit covectors) each complex structure
    should preserve."""
    d = np.eye(model.total_chart.dim)
    pairs: dict[str, list] = {"J_omega": [], "J_chi": [], "J_sigma": []}
    for i in range(model.n):
        ix, iy, ip, iq = model.ix(i), model.iy(i), model.ip(i), model.iq(i)
        pairs["J_omega"] += [(d[ix], d[ip]), (d[iy], d[iq])]
        pairs["J_chi"] += [(d[iq], d[ip]), (d[ix], d[iy])]
        pairs["J_sigma"] += [(d[ix], d[iq]), (d[ip], d[iy])]
    return pairs


def verify_lagrangian_fibres(
    model: FibrationModel,
    form: DifferentialForm,
    pt: Point,
    tolerance: float = TOL_ALGEBRAIC,
) -> CheckReport:
    """Max |form(e_a, e_b)| over vertical (fibre) coordinate pairs."""
    vert = model.vertical_axes()
    M = form_matrix(form, pt)
    worst = float(np.max(np.abs(M[..., vert, :][..., vert])))
    return CheckReport.from_residual(
        f"lagrangian_fibres({form.name})",
        len(pt),
        worst,
        tolerance,
        statement=f"fibre directions are isotropic for {form.name}",
    )


def verify_hypersymplectic(
    model: FibrationModel,
    n_points: int = DEFAULT_POINTS,
    seed: int = DEFAULT_SEED,
    fd_step: float | None = None,
    tol_algebraic: float = TOL_ALGEBRAIC,
    tol_fd: float = TOL_FD,
    nondeg_floor: float = NONDEG_FLOOR,
    *,
    pt: Point | None = None,
    triple: HyperSymplecticTriple | None = None,
    complexes: HyperComplexTriple | None = None,
) -> list[CheckReport]:
    """The full identity battery for the triple structure, sorted by name.

    A caller that already holds the sample ``total_chart.sample(n_points,
    seed)`` or the two triples of the model passes them in; otherwise they
    are drawn and built here."""
    pt = model.total_chart.sample(n_points, seed) if pt is None else pt
    triple = build_structure_triple(model) if triple is None else triple
    complexes = build_complex_triple(model) if complexes is None else complexes
    eye = np.eye(model.total_chart.dim)
    reports: list[CheckReport] = []

    for f in triple.forms():
        reports.append(
            check_closedness(
                f, pt, fd_step, tol_fd, identity_name=f"hypersymplectic.closed.{f.name}"
            )
        )
        reports.append(
            check_nondegeneracy(
                f,
                pt,
                nondeg_floor,
                identity_name=f"hypersymplectic.nondegenerate.{f.name}",
            )
        )

    named_forms = {"omega": triple.omega, "chi": triple.chi, "sigma": triple.sigma}
    for a, b in (("omega", "chi"), ("omega", "sigma"), ("chi", "sigma")):
        A = recursion_operator(named_forms[a], named_forms[b], pt)
        worst = float(np.max(np.abs(A @ A + eye)))
        reports.append(
            CheckReport.from_residual(
                f"hypersymplectic.recursion_squares.{a}_{b}",
                len(pt),
                worst,
                tol_algebraic,
                statement=f"the recursion operator of ({a}, {b}) squares to minus the identity",
            )
        )

    for Ja, Jb in itertools.combinations(complexes.endos(), 2):
        Ca, Cb = Ja.covector_matrix(pt), Jb.covector_matrix(pt)
        worst = float(np.max(np.abs(Ca @ Cb + Cb @ Ca)))
        reports.append(
            CheckReport.from_residual(
                f"hypersymplectic.anticommute.{Ja.name}_{Jb.name}",
                len(pt),
                worst,
                tol_algebraic,
                statement=f"{Ja.name} and {Jb.name} anticommute in the covector action",
            )
        )

    pairs = standard_frame_pairs(model)
    for J in complexes.endos():
        reports.append(
            check_almost_complex(
                J,
                pt,
                tol_algebraic,
                identity_name=f"hypersymplectic.squares_to_minus_identity.{J.name}",
            )
        )
        worst = float(np.max(np.abs(nijenhuis(J, pt, fd_step))))
        reports.append(
            CheckReport.from_residual(
                f"hypersymplectic.nijenhuis.{J.name}",
                len(pt),
                worst,
                tol_fd,
                statement=f"Nijenhuis tensor of {J.name} vanishes on the coordinate frame",
            )
        )
        reports.append(
            CheckReport.from_residual(
                f"hypersymplectic.holomorphic_frame.{J.name}",
                len(pt),
                holomorphic_frame_check(J, pairs[J.name], pt),
                tol_algebraic,
                statement=f"the standard coframe pairs diagonalize {J.name}",
            )
        )

    expected = expected_composite_matrix(model)
    worst = float(np.max(np.abs(complexes.J_sigma.matrix(pt) - expected)))
    reports.append(
        CheckReport.from_residual(
            "hypersymplectic.composition.sigma_from_omega_chi",
            len(pt),
            worst,
            tol_algebraic,
            statement=(
                "composing the first two complex structures in the covector action "
                "reproduces the pinned constant table of the third"
            ),
        )
    )

    return sorted(reports, key=lambda r: r.identity_name)


# ---------------------------------------------------------------------------
# Sections


@dataclass(frozen=True)
class SectionMap:
    """A polynomial section (x, y) -> (x, y, p(x, y), q(x, y)).

    The components (p, q) and their exact Jacobian are each held as one
    vector polynomial, so a map evaluates every component in one call."""

    model: FibrationModel
    p: tuple[Polynomial, ...]
    q: tuple[Polynomial, ...]
    name: str = ""
    _fibre: Polynomial = field(init=False, repr=False, compare=False)
    _jacobian: Polynomial = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.model.n
        if len(self.p) != n or len(self.q) != n:
            raise ValueError(f"need {n} p- and q-components")
        components = self.p + self.q
        for poly in components:
            if poly.n_vars != 2 * n:
                raise ValueError("section components must be polynomials on the base")
            if poly.degree > MAX_SECTION_DEGREE:
                raise ValueError(
                    f"section degree {poly.degree} exceeds the bound {MAX_SECTION_DEGREE}"
                )
        # row-major d(p, q)_r / d(x, y)_j, reshaped to (2n, 2n) by fibre_jacobian
        rows = [poly.derivative(j) for poly in components for j in range(2 * n)]
        object.__setattr__(self, "_fibre", Polynomial.stack(components))
        object.__setattr__(self, "_jacobian", Polynomial.stack(rows))

    def total_coords(self, base_pt: Point) -> np.ndarray:
        xy = base_pt.coords
        return np.concatenate([xy, self._fibre(xy)], axis=-1)

    def evaluate(self, base_pt: Point) -> Point:
        if base_pt.chart != self.model.base_chart:
            raise GeometryError("section evaluated off its base chart")
        return Point(self.model.total_chart, self.total_coords(base_pt))

    def fibre_jacobian(self, base_pt: Point) -> np.ndarray:
        """Exact fibre block d(p, q)/d(x, y), shape (..., 2n, 2n)."""
        n2 = 2 * self.model.n
        return self._jacobian(base_pt.coords).reshape(base_pt.batch_shape + (n2, n2))

    def jacobian(self, base_pt: Point) -> np.ndarray:
        """Exact Jacobian (..., 4n, 2n): identity block over the fibre block."""
        n2 = 2 * self.model.n
        top = np.broadcast_to(np.eye(n2), base_pt.batch_shape + (n2, n2))
        return np.concatenate([top, self.fibre_jacobian(base_pt)], axis=-2)

    def jacobian_fd(self, base_pt: Point, step: float | None = None) -> np.ndarray:
        h = self.model.base_chart.fd_step() if step is None else float(step)
        return stencil(self.total_coords, base_pt, h, (self.model.total_chart.dim,))


def zero_section(model: FibrationModel) -> SectionMap:
    n2 = 2 * model.n
    zero = Polynomial.zero(n2)
    return SectionMap(model, (zero,) * model.n, (zero,) * model.n, name="zero")


def standard_sigma_section(model: FibrationModel) -> SectionMap:
    """p_i = y_i, q_i = -x_i: Lagrangian for sigma and chi, invariant under J_omega."""
    n, n2 = model.n, 2 * model.n
    p = tuple(Polynomial.coordinate(n2, n + i) for i in range(n))
    q = tuple(Polynomial.coordinate(n2, i).scaled(-1.0) for i in range(n))
    return SectionMap(model, p, q, name="rotation")


def gradient_section(model: FibrationModel, potential: Polynomial, name: str = "") -> SectionMap:
    """p_i = d(potential)/dx_i, q_i = d(potential)/dy_i; always omega-Lagrangian."""
    n = model.n
    if potential.n_vars != 2 * n:
        raise ValueError("potential must live on the base chart")
    p = tuple(potential.derivative(i) for i in range(n))
    q = tuple(potential.derivative(n + i) for i in range(n))
    return SectionMap(model, p, q, name=name or "gradient")


def section_pullback(
    model: FibrationModel,
    section: SectionMap,
    form: DifferentialForm,
    pt: Point,
) -> dict[tuple[int, int], float]:
    """Coefficient table of the pullback of a total-space 2-form to the base,
    read through the exact Jacobian of the section; each value has the
    point's leading shape."""
    frame = section.jacobian(pt)
    M = form_matrix(form, section.evaluate(pt))
    P = transpose(frame) @ M @ frame
    n2 = 2 * model.n
    return {(i, j): P[..., i, j][()] for i in range(n2) for j in range(i + 1, n2)}


def span_invariance_residual(frame: np.ndarray, images: np.ndarray) -> float:
    """Worst distance of an image column from the column span of the frame,
    over a stack of ``(..., m, k)`` frames; projects onto the span through a
    reduced QR factorization."""
    if np.any(np.linalg.matrix_rank(frame) < frame.shape[-1]):
        raise GeometryError("tangent frame is rank deficient")
    Q = np.linalg.qr(frame)[0]
    off_span = images - Q @ (transpose(Q) @ images)
    return float(np.max(np.linalg.norm(off_span, axis=-2)))


def complex_submanifold_check(
    model: FibrationModel,
    section: SectionMap,
    J: EndomorphismField,
    pt: Point,
    fd_step: float | None = None,
) -> float:
    """How far J moves the graph tangent space off itself, worst over the
    base point(s) ``pt``."""
    frame = section.jacobian_fd(pt, fd_step)
    Jmat = J.matrix(section.evaluate(pt))
    return span_invariance_residual(frame, Jmat @ frame)

