"""The model fibration, its three symplectic and three complex structures.

The total chart of a rank-n model carries coordinates

    (x_1..x_n, y_1..y_n, p_1..p_n, q_1..q_n)

where (x, y) are action (base) coordinates and (p, q) are angle coordinates
with period 2*pi.  The block-constant triple is formed from base data (Omega,
I), a symplectic form and a complex structure with I^T Omega I = Omega, on
the blocks u = (x, y) and theta = (p, q) (``form_matrices``):

    omega = [[0, -Id], [Id, 0]],  chi = diag(Omega, Omega^-1),  sigma = [[0, -I^T], [I, 0]]

read at the standard data of ``base_data``: Omega = sum dx_i ^ dy_i, I = -Omega.
The complex-structure triple is determined by the forms (P. Xu, "Hyper-Lie
Poisson structures", 1997): each J is the recursion operator of the other
two, J_omega = R(chi, sigma), J_chi = R(omega, sigma), J_sigma = R(chi, omega)
with R(f, g) = M_f^{-1} M_g.  Composing J_omega and J_chi in the covector
action is an independent route to J_sigma, so the composition identity
compares two matrices built from the forms.

Sections of the fibration are polynomial maps (x, y) -> (p, q), held as one
stacked family (``SectionMap``); their graphs are probed for Lagrangian
behaviour (pullback of a chosen 2-form vanishes) and for invariance under a
chosen complex structure (the distance of J applied to the graph frame
(Id; D) from the graph's tangent plane), both read through the one exact
polynomial Jacobian of the family.
A graph turns out to be invariant under one J exactly when it is Lagrangian
for the other two symplectic forms; the test suite pins both directions.
The names live here: ``FORM_NAMES`` and ``COMPLEX_NAMES`` are the fields of
the two triples, ``FORM_TO_COMPLEX`` the J a form's sections are read
through, and every check of the battery is named by slot from them.

What depends on no sample is built once per process, in ``lru_cache`` memos
of ``MEMO_SIZE`` entries, each keyed on one input as given, holding
read-only arrays and no failed build: ``make_model``'s on (n, bytes of the
bounds, name), as -0.0 == 0.0, is the model; ``SectionMap``'s on a family's
spec holds its members, polynomial, degree and Jacobian (the tables as given
when they are nested tuples, as a config's are, else copied into them), and
its second derivatives on first read.  Complex structures are built per run:
the benchmark's self-test counts the traced calls that build them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

from .calculus import (
    DifferentialForm,
    EndomorphismField,
    exterior_derivative,
    form_matrix,
    stencil,
    transpose,
)
from .charts import DEFAULT_POINTS, DEFAULT_SEED, Chart, Point
from .errors import DegenerateFormError, GeometryError
from .polynomials import Polynomial, merge_terms
from .structures import CheckReport, FlatConnection, Tolerances, nijenhuis, report

ANGLE_PERIOD = 2.0 * math.pi
MAX_SECTION_DEGREE = 8
MEMO_SIZE = 4  # entries per memo: at MAX_RANK the models' hold about 60 MB (README)


@dataclass(frozen=True)
class FibrationModel:
    n: int
    base_chart: Chart
    total_chart: Chart
    connection: FlatConnection
    triple: HyperSymplecticTriple
    Omega: DifferentialForm
    pairs: tuple[np.ndarray, np.ndarray] = field(repr=False, compare=False)  # arrays: no hash

    # Block index helpers (0-based block slot i in 0..n-1).
    def ix(self, i: int) -> int:
        return i

    def iy(self, i: int) -> int:
        return self.n + i

    def ip(self, i: int) -> int:
        return 2 * self.n + i

    def iq(self, i: int) -> int:
        return 3 * self.n + i


def _names(prefix: str, n: int) -> tuple[str, ...]:
    if n == 1:
        return (prefix,)
    return tuple(f"{prefix}{i + 1}" for i in range(n))


def make_model(
    n: int,
    action_bounds: Sequence[tuple[float, float]] | None = None,
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
    bounds = np.array(action_bounds, dtype=float)
    if bounds.shape != (2 * n, 2):
        raise ValueError(f"need {2 * n} (lower, upper) action bounds, got shape {bounds.shape}")
    return _model_build(n, bounds.tobytes(), name)


@lru_cache(maxsize=MEMO_SIZE)
def _model_build(n: int, bounds: bytes, name: str) -> FibrationModel:
    """``make_model``'s model from its bounds' bytes, the forms from ``base_data``."""
    lower, upper = map(tuple, np.frombuffer(bounds).reshape(2 * n, 2).T.tolist())
    base_coords = _names("x", n) + _names("y", n)
    base = Chart(f"{name}-base", base_coords, lower, upper)
    total_coords = base_coords + _names("p", n) + _names("q", n)
    fibre_lower, fibre_upper = (0.0,) * (2 * n), (ANGLE_PERIOD,) * (2 * n)
    total = Chart(f"{name}-total", total_coords, lower + fibre_lower, upper + fibre_upper)
    Omega, I = base_data(n)
    forms = zip(form_matrices(Omega, I), FORM_NAMES)
    triple = HyperSymplecticTriple(*(DifferentialForm.constant(total, *f) for f in forms))
    Omega = DifferentialForm.constant(base, Omega, name="Omega")
    return FibrationModel(n, base, total, FlatConnection.zero(base), triple, Omega, _frame_pairs(n))


@dataclass(frozen=True)
class HyperSymplecticTriple:
    omega: DifferentialForm
    chi: DifferentialForm
    sigma: DifferentialForm

    def forms(self) -> tuple[DifferentialForm, DifferentialForm, DifferentialForm]:
        return (self.omega, self.chi, self.sigma)


FORM_NAMES = tuple(f.name for f in fields(HyperSymplecticTriple))


@dataclass(frozen=True)
class HyperComplexTriple:
    J_omega: EndomorphismField
    J_chi: EndomorphismField
    J_sigma: EndomorphismField

    def endos(self) -> tuple[EndomorphismField, ...]:
        return (self.J_omega, self.J_chi, self.J_sigma)


COMPLEX_NAMES = tuple(f.name for f in fields(HyperComplexTriple))
# the complex structure that should preserve the graph of a section that is
# Lagrangian for a given form: form k is read through J of slot k + 1 (mod 3)
FORM_TO_COMPLEX = dict(zip(FORM_NAMES, COMPLEX_NAMES[1:] + COMPLEX_NAMES[:1]))


def canonical(k: int) -> np.ndarray:
    """[[0, -Id_k], [Id_k, 0]], every zero +0.0."""
    return np.eye(2 * k, k=-k) - np.eye(2 * k, k=k)


def base_data(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The standard base data (Omega, I) at rank n: Omega = sum dx_i ^ dy_i, I = -Omega."""
    I = canonical(n)
    return I.T, I


def form_matrices(Omega: np.ndarray, I: np.ndarray) -> np.ndarray:
    """The matrices (omega, chi, sigma) of the module docstring's block formula,
    each as (M - M^T) / 2 + 0.0: antisymmetric however Omega^-1 rounds."""
    Z = np.zeros_like(Omega)
    chi = np.block([[Omega, Z], [Z, np.linalg.inv(Omega)]])
    M = np.stack([canonical(len(Omega)), chi, np.block([[Z, -I.T], [I, Z]])])
    return (M - transpose(M)) / 2 + 0.0


def build_structure_triple(model: FibrationModel) -> HyperSymplecticTriple:
    """The three forms on the total chart from ``base_data``, built with the model's charts."""
    return model.triple


def base_symplectic_form(model: FibrationModel) -> DifferentialForm:
    """Omega of ``base_data`` on the base chart, built with the model's charts."""
    return model.Omega


def build_complex_triple(
    model: FibrationModel, *, triple: HyperSymplecticTriple | None = None
) -> HyperComplexTriple:
    """Each complex structure as the recursion operator of the other two
    forms of ``triple`` (by default ``model.triple``): J_omega = R(chi, sigma),
    J_chi = R(omega, sigma), J_sigma = R(chi, omega), where R(f, g) =
    M_f^{-1} M_g is ``recursion_operator``, taken once on the stacked pairs.

    The forms are read once, on a one-row stack, and each J is kept as a
    constant, which is right only for constant forms: ValueError when a
    form's value carries point axes.  Adding 0.0 turns the -0.0 entries of
    ``solve`` into +0.0.
    """
    chart = model.total_chart
    triple = model.triple if triple is None else triple
    row = Point(chart, np.zeros((1, chart.dim)))
    values = [form_matrix(f, row) for f in triple.forms()]
    varying = [name for name, M in zip(FORM_NAMES, values) if M.ndim != 2]
    if varying:
        raise ValueError(f"each complex structure needs constant forms; {varying[0]} varies")
    M = np.stack(values)  # members omega, chi, sigma
    J = recursion_operator(M[[1, 0, 1]], M[[2, 2, 0]]) + 0.0
    return HyperComplexTriple(
        *(EndomorphismField.constant(chart, J_k, name=name) for J_k, name in zip(J, COMPLEX_NAMES))
    )


def recursion_operator(M_f: np.ndarray, M_g: np.ndarray) -> np.ndarray:
    """The endomorphisms A with g(X, Y) = f(A X, Y) for all X, Y, from the
    form matrices of f and g, over any leading axes: A = M_f^{-1} M_g.

    DegenerateFormError when some ``|det M_f|`` falls below 1e-12.
    """
    _require_nondegenerate(np.abs(np.linalg.det(M_f)))
    if M_f.shape != M_g.shape:
        # numpy < 2 reads a right-hand side with one axis fewer than M_f as vectors
        M_f, M_g = np.broadcast_arrays(M_f, M_g)
    return np.linalg.solve(M_f, M_g)


def _require_nondegenerate(abs_dets: np.ndarray) -> None:
    """The recursion guard: DegenerateFormError when some entry of
    ``abs_dets``, the ``|det|`` of each base form, falls below 1e-12.  The
    minimum is numpy's, so a NaN determinant passes the guard."""
    smallest = float(abs_dets.min())
    if smallest < 1e-12:
        raise DegenerateFormError(
            f"recursion operator needs a nondegenerate base form; |det| = {smallest:.3e}"
        )


def holomorphic_frame_check(J: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Residual of each row pair (a_k, b_k) of the ``(..., k, dim)`` covector
    arrays ``a`` and ``b`` as a coframe a_k + i b_k of the complex structure
    whose vector-action matrices ``J`` holds: the table ``(..., k)``, over the
    leading axes of all three.

    For each pair the residual is min over s in {+1, -1} of
    ``|J a - s (-b)| + |J b - s a|`` in the covector action; s = +1 matches
    J a = -b (the pair represents a holomorphic differential), s = -1 the
    conjugate orientation.  Every covector goes through one product with J.
    """
    k = a.shape[-2]
    moved = np.concatenate([a, b], axis=-2) @ J  # J^T on each row of a, then of b
    target = np.concatenate([-b, a], axis=-2)  # J a = s (-b) and J b = s a
    norms = [np.sqrt(np.sum(r**2, axis=-1)) for r in (moved - target, moved + target)]
    return np.minimum(*(r[..., :k] + r[..., k:] for r in norms))  # |J a - s (-b)| + |J b - s a|


# The coordinate blocks (x, y, p, q) = (0, 1, 2, 3) of each complex
# structure's coframe pairs, in the order of COMPLEX_NAMES: block k of the
# first side pairs with block k of the second, so J_omega pairs (dx, dp) and
# (dy, dq).
_FRAME_BLOCKS = [((0, 1), (2, 3)), ((3, 0), (2, 1)), ((0, 2), (3, 1))]


def _frame_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The coframe pairs of the three complex structures at rank n, as two
    read-only ``(member, 2n, 4n)`` stacks of unit covectors: one read of the
    identity's row blocks at ``_FRAME_BLOCKS``."""
    d = np.eye(4 * n).reshape(4, n, 4 * n)  # [block, row in block, covector]
    pairs = d[np.array(_FRAME_BLOCKS)].reshape(3, 2, 2 * n, 4 * n)  # [member, side, ...]
    pairs.flags.writeable = False
    return pairs[:, 0], pairs[:, 1]


def verify_lagrangian_fibres(
    model: FibrationModel,
    form: DifferentialForm,
    pt: Point,
    tolerances: Tolerances = Tolerances(),
) -> CheckReport:
    """Max |form(e_a, e_b)| over vertical (fibre) coordinate pairs, the
    trailing (p, q) block of the form matrices."""
    fibre = slice(2 * model.n, None)
    worst = np.abs(form_matrix(form, pt)[..., fibre, fibre]).max()
    return report("lagrangian_fibres", worst, len(pt), tolerances, form=form.name)


def _members(arrays: list[np.ndarray], rank: int) -> np.ndarray:
    """``arrays``, each with ``rank`` value axes, stacked on a new member axis
    just before the value axes, their leading axes broadcast together."""
    if any(x.shape != arrays[0].shape for x in arrays):
        arrays = np.broadcast_arrays(*arrays)
    return np.stack(arrays, axis=-rank - 1)


def member_worst(table: np.ndarray, rank: int) -> list[float]:
    """The largest ``|entry|`` of each member of ``table``, whose member axis
    sits just before its ``rank`` value axes."""
    member = table.ndim - rank - 1
    return np.abs(table).max(axis=tuple(i for i in range(table.ndim) if i != member)).tolist()


def verify_hypersymplectic(
    model: FibrationModel,
    n_points: int = DEFAULT_POINTS,
    seed: int = DEFAULT_SEED,
    tolerances: Tolerances = Tolerances(),
    *,
    pt: Point | None = None,
    triple: HyperSymplecticTriple | None = None,
    complexes: HyperComplexTriple | None = None,
) -> list[CheckReport]:
    """The full identity battery for the triple structure, sorted by name,
    each check held to its catalogue row's entry of ``tolerances``.

    A caller that already holds the sample ``total_chart.sample(n_points,
    seed)`` passes it in, and a hand-built triple of forms or of complex
    structures replaces the model's; without ``complexes``, the complex
    structures are derived from the triple read.  Every check is named by its slot
    (``FORM_NAMES``, ``COMPLEX_NAMES``), never by a field's ``name``.  Each
    family is read once, stacked on a member axis, and each identity is one
    call on the stacks.  One ``det`` of the stacked forms serves both the
    nondegeneracy reports and the recursion guard, which reads its omega and
    chi entries (the forms the pairs invert) and raises DegenerateFormError
    as ``recursion_operator`` does; the three recursion operators are then
    one ``solve``."""
    pt = model.total_chart.sample(n_points, seed) if pt is None else pt
    triple = model.triple if triple is None else triple
    complexes = build_complex_triple(model, triple=triple) if complexes is None else complexes
    forms, endos = triple.forms(), complexes.endos()
    M = _members([form_matrix(f, pt) for f in forms], 2)
    J = _members([E.matrix(pt) for E in endos], 2)
    a, b = model.pairs
    first, second = [0, 0, 1], [1, 2, 2]  # the member pairs (0, 1), (0, 2), (1, 2)
    closures = member_worst(exterior_derivative(_members([f.gradient(pt) for f in forms], 3)), 3)
    dets = np.abs(np.linalg.det(M))  # [..., member]
    min_dets = dets.reshape(-1, 3).min(axis=0).tolist()
    _require_nondegenerate(dets[..., :2])  # omega and chi, the base forms of the pairs
    A = np.linalg.solve(M[..., first, :, :], M[..., second, :, :])  # the recursion operators
    squares = member_worst(A @ A + np.eye(A.shape[-1]), 2)
    C = transpose(J)  # the covector action
    Ca, Cb = C[..., first, :, :], C[..., second, :, :]
    anticommutators = member_worst(Ca @ Cb + Cb @ Ca, 2)
    tensors = member_worst(nijenhuis(J, _members([E.gradient(pt) for E in endos], 3)), 3)
    frames = member_worst(holomorphic_frame_check(J, a, b), 1)
    # J_omega, then J_chi, in the covector action: the matrices J_chi @ J_omega
    composition = np.abs(J[..., 1, :, :] @ J[..., 0, :, :] - J[..., 2, :, :]).max()
    checks = [("composition", composition, {"forms": FORM_NAMES, "Js": COMPLEX_NAMES})]
    for f, closure, min_det in zip(FORM_NAMES, closures, min_dets):
        checks += [("closed", closure, {"form": f}), ("nondegenerate", min_det, {"form": f})]
    for pair, square in zip(itertools.combinations(FORM_NAMES, 2), squares):
        checks.append(("recursion_squares", square, {"forms": pair}))
    for pair, anticommutator in zip(itertools.combinations(COMPLEX_NAMES, 2), anticommutators):
        checks.append(("anticommute", anticommutator, {"Js": pair}))
    for E, tensor, frame in zip(COMPLEX_NAMES, tensors, frames):
        checks += [("nijenhuis", tensor, {"J": E}), ("holomorphic_frame", frame, {"J": E})]
    reports = [
        report(f"hypersymplectic.{family}", residual, len(pt), tolerances, **values)
        for family, residual, values in checks
    ]
    return sorted(reports, key=lambda r: r.identity_name)


# ---------------------------------------------------------------------------
# Sections

class SectionMap:
    """A family of polynomial sections (x, y) -> (x, y, p(x, y), q(x, y)),
    its m members on an axis just before the value axes of each read; a
    single section is the one-member family.  All components are one vector
    polynomial, with its exact Jacobian, and component ``k * 2n + r``, (p,
    q)_r of member k, evaluates bit for bit as it would alone where finite.
    Each read is of the whole family and raises GeometryError unless
    finite; the exact block is ``(..., m, 2n, 2n)``, with no point axes
    when the family's Jacobian is constant.  The FD frame ``jacobian_fd``,
    stepped by the base chart, is the tests' cross-check of the exact one,
    which every check reads.  The
    values, exact fibre block and exact frame read on the last base
    ``Point`` object (compared by identity) are kept read-only until
    another point is read."""

    def __init__(self, model: FibrationModel, p, q, name: str = "") -> None:
        """The section whose components are the scalar polynomials p and q."""
        if any(c.n_vars != 2 * model.n or c.size is not None for c in (*p, *q)):
            raise ValueError("section components must be polynomials on the base")
        self._build(model, [(name, tuple(c.terms for c in p), tuple(c.terms for c in q))])

    @classmethod
    def family(cls, model: FibrationModel, members: Sequence) -> SectionMap:
        """The family of ``members``, (name, p term tables, q term tables);
        ValueError, naming the member, when a member does not fit the model."""
        family = cls.__new__(cls)
        family._build(model, members)
        return family

    def _build(self, model: FibrationModel, members: Sequence) -> None:
        spec = tuple((name, p, q) for name, p, q in members)
        self.model = model
        try:  # the key as given: SectionSpec holds its tables as nested tuples
            self._entry = _family(model.n, spec)
        except TypeError:  # unhashable tables, such as lists, keyed as nested tuples
            spec = tuple((name, _tuples(p), _tuples(q)) for name, p, q in spec)
            self._entry = _family(model.n, spec)
        self.members = self._entry.members
        self.names = tuple(name for name, _, _ in self.members)
        self.name = ", ".join(self.names)  # a single section's name
        self._reads: tuple = (None, None)  # the last base Point object read, its reads by kind

    def _read(self, base_pt: Point, kind: str, compute: Callable[[], np.ndarray]) -> np.ndarray:
        """The ``kind`` read of ``base_pt``: ``compute()`` on the first ask,
        kept read-only while ``base_pt`` is the last Point object read."""
        last, reads = self._reads
        if last is not base_pt:
            reads = {}
            self._reads = (base_pt, reads)
        if kind not in reads:
            value = compute()
            value.flags.writeable = False
            reads[kind] = value
        return reads[kind]

    def total_coords(self, base_pt: Point) -> np.ndarray:
        """The graph point of every member over ``base_pt``: (..., m, 4n)."""
        xy = base_pt.coords
        fibre = self._entry.fibre(xy).reshape(xy.shape[:-1] + (len(self.members), -1))
        return np.concatenate([np.broadcast_to(xy[..., None, :], fibre.shape), fibre], axis=-1)

    def evaluate(self, base_pt: Point) -> Point:
        """The graph points over ``base_pt``, read once per sample."""
        if base_pt.chart != self.model.base_chart:
            raise GeometryError("section evaluated off its base chart")
        values = lambda: _finite(lambda: self.total_coords(base_pt), "value of the section")
        return Point(self.model.total_chart, self._read(base_pt, "values", values))

    def fibre_jacobian(self, base_pt: Point) -> np.ndarray:
        """Exact fibre block d(p, q)/d(x, y), ``(..., m, 2n, 2n)``, with no
        point axes when the family's Jacobian is constant, read once per sample."""
        block = lambda: _finite(lambda: self._entry.read(1, base_pt.coords))
        return self._read(base_pt, "block", block)

    def fibre_hessian(self, base_pt: Point, member: int = 0) -> np.ndarray:
        """Exact d_a d_j (p, q)_r of one member in the layout [..., r, j, a],
        ``(..., 2n, 2n, 2n)``, with no point axes when the family's second
        derivatives are constant, sliced from the family's table."""
        read = lambda: self._entry.read(2, base_pt.coords)
        return _finite(read, "second derivative of the section")[..., member, :, :, :]

    def jacobian(self, base_pt: Point) -> np.ndarray:
        """Exact graph frame (Id; D), ``(..., m, 4n, 2n)``, with no point axes
        when the family's Jacobian is constant: the identity block over the
        fibre block, read once per sample."""
        block = self.fibre_jacobian(base_pt)
        top = np.broadcast_to(np.eye(2 * self.model.n), block.shape)
        return self._read(base_pt, "frame", lambda: np.concatenate([top, block], axis=-2))

    def jacobian_fd(self, base_pt: Point) -> np.ndarray:
        """FD graph frame (Id; D), (..., m, 4n, 2n) like ``jacobian``: one
        ``stencil`` of ``total_coords``, each column divided by its base
        entry, the step actually taken over 2h (1 up to about eps / h)."""
        n2, shape = 2 * self.model.n, (len(self.members), self.model.total_chart.dim)
        over_steps = lambda F: F / np.diagonal(F[..., :n2, :], axis1=-2, axis2=-1)[..., None, :]
        return _finite(lambda: over_steps(stencil(self.total_coords, base_pt, shape)))


def _tuples(tables: Sequence) -> tuple:
    """Term tables as given, as nested tuples: part of a memo key."""
    return tuple(tuple((tuple(powers), coeff) for powers, coeff in table) for table in tables)


@dataclass(frozen=True, eq=False)
class _FamilyEntry:
    """A family's members (name, merged p tables, merged q tables), stacked
    polynomial of total degree ``degree``, its Jacobian and, built on first
    read, second derivatives."""

    members: tuple
    fibre: Polynomial
    jacobian: Polynomial
    degree: int

    @cached_property
    def hessian(self) -> Polynomial:
        return self.jacobian.jacobian()

    def read(self, order: int, coords: np.ndarray) -> np.ndarray:
        """The derivatives of ``order`` 1 or 2 at ``coords``; a constant
        table (``degree <= order``) at one point, without point axes."""
        table = self.jacobian if order == 1 else self.hessian
        value = table(coords if self.degree > order else np.zeros(table.n_vars))
        return value.reshape(value.shape[:-1] + (len(self.members), -1) + (table.n_vars,) * order)


@lru_cache(maxsize=MEMO_SIZE)
def _family(n: int, spec: tuple) -> _FamilyEntry:
    """A spec's ``_FamilyEntry``; ValueError, naming the member, when one does not fit."""
    members = []
    for name, p, q in spec:
        try:
            tables = [merge_terms(2 * n, terms) for terms in (*p, *q)]
            if len(p) != n or len(q) != n:
                raise ValueError(f"need {n} p- and q-components")
            degree = max((sum(e) for table in tables for e, _ in table), default=0)
            if degree > MAX_SECTION_DEGREE:
                raise ValueError(f"section degree {degree} exceeds the bound {MAX_SECTION_DEGREE}")
        except ValueError as exc:
            raise ValueError(f"section {name!r}: {exc}") from None
        members.append((name, tuple(tables[:n]), tuple(tables[n:])))
    fibre = Polynomial.stack(2 * n, [t for _, p, q in members for t in (*p, *q)])
    degree = max((sum(e) for e, _ in fibre.terms), default=0)
    return _FamilyEntry(tuple(members), fibre, fibre.jacobian(), degree)


def _finite(compute: Callable[[], np.ndarray], what="tangent frame of the graph") -> np.ndarray:
    """``compute()``, evaluated with numpy's overflow warnings silenced;
    GeometryError, naming ``what``, unless every value is finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = compute()
    if not np.isfinite(value).all():
        raise GeometryError(f"{what} is not finite")
    return value


def default_sections(n: int) -> tuple[tuple[str, str, tuple, tuple], ...]:
    """The sections a run checks when none is configured, as (name, form, p
    term tables, q term tables) rows at rank n: the zero section, Lagrangian
    for omega, and the rotation (p, q) = Omega (x, y) of ``base_data``, for sigma."""
    unit = lambda j: tuple(int(a == j) for a in range(2 * n))
    Omega = base_data(n)[0].tolist()
    rows = tuple(tuple((unit(j), c) for j, c in enumerate(r) if c) for r in Omega)
    return ("zero", "omega", ((),) * n, ((),) * n), ("rotation", "sigma", rows[:n], rows[n:])


def _default_section(model: FibrationModel, form: str) -> SectionMap:
    ((name, p, q),) = [(name, p, q) for name, f, p, q in default_sections(model.n) if f == form]
    return SectionMap.family(model, [(name, p, q)])


def zero_section(model: FibrationModel) -> SectionMap:
    return _default_section(model, "omega")


def standard_sigma_section(model: FibrationModel) -> SectionMap:
    """p_i = y_i, q_i = -x_i: Lagrangian for sigma and chi, invariant under J_omega."""
    return _default_section(model, "sigma")


def gradient_section(model: FibrationModel, potential: Polynomial, name: str = "") -> SectionMap:
    """p_i = d(potential)/dx_i, q_i = d(potential)/dy_i; always omega-Lagrangian."""
    n = model.n
    if potential.n_vars != 2 * n:
        raise ValueError("potential must live on the base chart")
    p = tuple(potential.derivative(i) for i in range(n))
    q = tuple(potential.derivative(n + i) for i in range(n))
    return SectionMap(model, p, q, name=name or "gradient")


def _member_fields(fields, graph: Point, read: Callable) -> tuple[list, np.ndarray]:
    """The field of each member of a family, ``fields`` for every member or
    its entry k for member k, and ``read(field, points)`` of each at that
    member's points of ``graph``, stacked on the member axis."""
    fields = list(fields) if isinstance(fields, Sequence) else [fields] * graph.batch_shape[-1]
    values = [read(f, Point(graph.chart, graph.coords[..., k, :])) for k, f in enumerate(fields)]
    return fields, _members(values, 2)


def section_pullback(
    model: FibrationModel,
    section: SectionMap,
    form: DifferentialForm | Sequence,
    pt: Point,
) -> dict[tuple[int, int], np.ndarray]:
    """Coefficient table of the pullback of a total-space 2-form to the base
    through each member of ``section``, read through the exact Jacobian;
    ``form`` is one form for every member or one per member.  Each value has
    the point's leading shape, then the member axis.  The product F^T M F
    is formed once for the family, with numpy's overflow warnings silenced:
    GeometryError when it is not finite."""
    frame = section.jacobian(pt)
    M = _member_fields(form, section.evaluate(pt), form_matrix)[1]
    P = _finite(lambda: transpose(frame) @ M @ frame, "pullback of the form to the graph")
    n2 = 2 * model.n
    return {(i, j): P[..., i, j] for i in range(n2) for j in range(i + 1, n2)}


def graph_frame_defect(
    section: SectionMap, J: EndomorphismField | Sequence, pt: Point
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """J applied to the exact graph frame F = (Id; D) (``SectionMap.jacobian``)
    of each member of a family at base point(s); ``J`` is one complex
    structure for every member or one per member, and every table has the
    member axis.  Returns D, R = (J F)_xy and the defect (J F)_pq - D R:
    column c of J F minus the tangent vector (R_c, D R_c) of the graph is
    (0, defect_c), so J F is tangent to the graph exactly when the defect
    vanishes.  GeometryError, naming the J of the first member at fault,
    when the defect is not finite (two slopes near the float maximum); the
    products are formed with numpy's overflow warnings silenced.
    """
    frame = section.jacobian(pt)
    endos, M_J = _member_fields(J, section.evaluate(pt), EndomorphismField.matrix)
    n2 = frame.shape[-1]
    D = frame[..., n2:, :]
    with np.errstate(over="ignore", invalid="ignore"):
        moved = M_J @ frame
        restriction = moved[..., :n2, :]
        defect = moved[..., n2:, :] - D @ restriction
    broken = ~np.isfinite(defect).all(axis=(-2, -1)).reshape(-1, len(endos)).all(axis=0)
    if broken.any():
        name = endos[int(np.argmax(broken))].name
        raise GeometryError(f"defect of {name} on the tangent frame of the graph is not finite")
    return D, restriction, defect


def complex_submanifold_check(
    model: FibrationModel,
    section: SectionMap,
    J: EndomorphismField,
    pt: Point,
) -> float:
    """How far J moves the graph tangent spaces off themselves, worst over
    the base point(s) ``pt`` and the members of ``section``:
    ``graph_distance`` of ``graph_frame_defect``.  ``model`` is not read."""
    D, _, defect = graph_frame_defect(section, J, pt)
    return float(np.max(graph_distance(D, defect)))


def graph_distance(D: np.ndarray, defect: np.ndarray) -> np.ndarray:
    """The distance of each column of J F from the tangent plane {(v, D v)}
    of a graph, which is the distance of (0, defect_c): the table
    ``(..., 2n)``, over the leading axes of ``D`` and ``defect``.

    The plane has the normal space {(-D^T u, u)}, so that distance is the
    length of the projection of (0, defect_c) on it,
    |(Id + D D^T)^(-1/2) defect_c|.  It is read through an orthonormal basis
    Q of the normal space: one stacked QR of [-D^T; Id], each matrix divided
    by max(1, max|D|) so that no entry exceeds 1, gives Q, and the distance
    is |Q_pq^T defect_c|.  The plane has full dimension however steep the
    section, so no rank test is needed; the column norms are taken by
    ``hypot``, which squares no entry.  GeometryError when a distance
    exceeds the float range.  A zero defect lies in every such plane, so a
    table of zero defects takes no QR: its distances are +0.0, as the QR
    route gives them."""
    if not defect.any():
        return np.zeros(np.broadcast_shapes(D.shape, defect.shape)[:-2] + defect.shape[-1:])
    n2 = D.shape[-1]
    scale = np.maximum(1.0, np.max(np.abs(D), axis=(-2, -1)))[..., None, None]
    normals = np.concatenate([-transpose(D), np.broadcast_to(np.eye(n2), D.shape)], axis=-2)
    Q = np.linalg.qr(normals / scale)[0]
    return _finite(
        lambda: np.hypot.reduce(transpose(Q[..., n2:, :]) @ defect, axis=-2),
        "distance from the tangent plane of the graph",
    )
