import sys

import numpy as np
import pytest

from hypersymplectic.calculus import (
    DifferentialForm,
    EndomorphismField,
    compose_covector,
    form_matrix,
)
from hypersymplectic.charts import Point
from hypersymplectic.errors import DegenerateFormError, GeometryError
from hypersymplectic.fibration import (
    COMPLEX_NAMES,
    HyperComplexTriple,
    HyperSymplecticTriple,
    SectionMap,
    _frame_pairs,
    build_complex_triple,
    build_structure_triple,
    complex_submanifold_check,
    gradient_section,
    graph_distance,
    graph_frame_defect,
    holomorphic_frame_check,
    make_model,
    default_sections,
    recursion_operator,
    section_pullback,
    standard_sigma_section,
    verify_hypersymplectic,
    verify_lagrangian_fibres,
    zero_section,
)
from hypersymplectic.polynomials import Polynomial
from hypersymplectic.scenarios import ScenarioConfig, run_scenario
from hypersymplectic.structures import SECTION_PULLBACK_TOL
from test_acceptance import _corpus
from test_structures import assert_members_match

MODEL = make_model(1)
TRIPLE = build_structure_triple(MODEL)
COMPLEXES = build_complex_triple(MODEL)

# Hand-checked constant matrices at n = 1, coordinate order (x, y, p, q).
M_OMEGA = np.array(
    [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float
)
M_CHI = np.array(
    [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float
)
M_SIGMA = np.array(
    [[0, 0, 0, -1], [0, 0, 1, 0], [0, -1, 0, 0], [1, 0, 0, 0]], dtype=float
)
RECURSION = np.array(
    [[0, 0, 0, -1], [0, 0, 1, 0], [0, -1, 0, 0], [1, 0, 0, 0]], dtype=float
)

# The complex structures as sign patterns on the (x, y, p, q) blocks, vector
# action; at rank n each entry multiplies the n x n identity.
# J_omega: x -> p, y -> q, p -> -x, q -> -y
J_OMEGA_TABLE = [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]
# J_chi: x -> y, y -> -x, p -> -q, q -> p
J_CHI_TABLE = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
# J_sigma: x -> -q, y -> p, p -> -y, q -> x; as covectors dx -> dq, dy -> -dp,
# dq -> -dx, dp -> dy
COMPOSITE_TABLE = [[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]


def block_table(pattern, n):
    return np.kron(np.array(pattern, dtype=float), np.eye(n))


def frame_pairs(n):
    """The coordinate coframe pairs of each complex structure at rank n, by
    name, as two ``(2n, 4n)`` covector arrays: row k of each is pair k."""
    a, b = _frame_pairs(n)
    return {name: (a_k, b_k) for name, a_k, b_k in zip(COMPLEX_NAMES, a, b)}


def total_point(coords):
    return MODEL.total_chart.point(coords)


def base_point(coords):
    return MODEL.base_chart.point(coords)


def test_model_layout():
    assert MODEL.total_chart.coords == ("x", "y", "p", "q")
    assert MODEL.base_chart.coords == ("x", "y")
    assert MODEL.total_chart.lower[2:] == (0.0, 0.0)
    assert MODEL.total_chart.upper[2] == pytest.approx(2 * np.pi)
    model3 = make_model(3)
    assert model3.total_chart.coords[:3] == ("x1", "x2", "x3")
    assert model3.ix(1) == 1 and model3.iy(1) == 4
    assert model3.ip(1) == 7 and model3.iq(1) == 10


def test_model_validation():
    with pytest.raises(ValueError):
        make_model(0)
    with pytest.raises(ValueError):
        make_model(2, action_bounds=[(-1.0, 1.0)])


def test_form_matrices_match_the_pinned_tables():
    pt = total_point([0.3, -0.2, 1.0, 2.0])
    assert np.array_equal(form_matrix(TRIPLE.omega, pt), M_OMEGA)
    assert np.array_equal(form_matrix(TRIPLE.chi, pt), M_CHI)
    assert np.array_equal(form_matrix(TRIPLE.sigma, pt), M_SIGMA)
    for M in (M_OMEGA, M_CHI, M_SIGMA):
        assert np.linalg.det(M) == pytest.approx(1.0)


def test_complex_structure_tables():
    pt = total_point([0.0, 0.0, 1.0, 1.0])
    J_omega = COMPLEXES.J_omega.matrix(pt)
    # vector action: x -> p, y -> q, p -> -x, q -> -y
    assert np.array_equal(J_omega @ np.eye(4)[0], [0, 0, 1, 0])
    assert np.array_equal(J_omega @ np.eye(4)[2], [-1, 0, 0, 0])
    J_chi = COMPLEXES.J_chi.matrix(pt)
    assert np.array_equal(J_chi @ np.eye(4)[0], [0, 1, 0, 0])
    assert np.array_equal(J_chi @ np.eye(4)[2], [0, 0, 0, -1])
    assert np.array_equal(COMPLEXES.J_sigma.matrix(pt), block_table(COMPOSITE_TABLE, 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_complex_structures_are_the_recursion_operators_of_the_forms(n):
    """J_omega = R(chi, sigma), J_chi = R(omega, sigma), J_sigma = R(chi, omega)
    reproduce the sign tables entry for entry, with no -0.0, and J_sigma is
    the covector composite of J_omega and J_chi."""
    model = make_model(n)
    chart = model.total_chart
    complexes = build_complex_triple(model)
    pt = chart.sample(3, n)
    for J, table in zip(complexes.endos(), (J_OMEGA_TABLE, J_CHI_TABLE, COMPOSITE_TABLE)):
        M = J.matrix(pt)
        assert M.shape == (4 * n, 4 * n)
        assert np.array_equal(M, block_table(table, n)), J.name
        assert not np.signbit(M[M == 0.0]).any(), J.name
    composite = compose_covector(complexes.J_omega, complexes.J_chi)
    assert np.array_equal(composite.matrix(pt), complexes.J_sigma.matrix(pt))


def test_composite_covector_table():
    pt = total_point([0.1, 0.2, 0.3, 0.4])
    K = COMPLEXES.J_sigma.covector_matrix(pt)
    dx, dy, dp, dq = np.eye(4)
    assert np.array_equal(K @ dx, dq)
    assert np.array_equal(K @ dy, -dp)
    assert np.array_equal(K @ dq, -dx)
    assert np.array_equal(K @ dp, dy)


def test_recursion_operator_fixture():
    pt = total_point([0.5, 0.5, 3.0, 3.0])
    A = recursion_operator(form_matrix(TRIPLE.omega, pt), form_matrix(TRIPLE.chi, pt))
    assert np.allclose(A, RECURSION, atol=1e-14)
    assert np.allclose(A @ A, -np.eye(4), atol=1e-14)


def test_recursion_operator_rejects_degenerate_input():
    dx_dy = np.zeros((4, 4))
    dx_dy[0, 1], dx_dy[1, 0] = 1.0, -1.0
    degenerate = DifferentialForm.constant(MODEL.total_chart, dx_dy)
    pt = total_point([0, 0, 1, 1])
    with pytest.raises(DegenerateFormError):
        recursion_operator(form_matrix(degenerate, pt), form_matrix(TRIPLE.chi, pt))


def test_fibres_are_lagrangian_for_omega_and_sigma_but_not_chi():
    pts = MODEL.total_chart.sample(20, 42)
    assert verify_lagrangian_fibres(MODEL, TRIPLE.omega, pts).passed
    assert verify_lagrangian_fibres(MODEL, TRIPLE.sigma, pts).passed
    chi_report = verify_lagrangian_fibres(MODEL, TRIPLE.chi, pts)
    assert not chi_report.passed  # chi pairs the two fibre directions
    assert chi_report.max_residual == pytest.approx(1.0)


def test_holomorphic_frames():
    pairs = frame_pairs(1)
    pt = total_point([0.2, 0.4, 1.0, 2.0])
    for key, J in (("J_omega", COMPLEXES.J_omega), ("J_chi", COMPLEXES.J_chi),
                   ("J_sigma", COMPLEXES.J_sigma)):
        assert np.max(holomorphic_frame_check(J.matrix(pt), *pairs[key])) == 0.0
    # a mismatched pair is caught
    assert np.max(holomorphic_frame_check(COMPLEXES.J_omega.matrix(pt), *pairs["J_chi"])) > 1.0


def test_frame_pairs_are_coordinate_covector_arrays():
    """Row k of the two arrays is pair k; at rank 2 J_chi pairs (dq_i, dp_i)
    and (dx_i, dy_i) in the chart order (x1, x2, y1, y2, p1, p2, q1, q2)."""
    a, b = frame_pairs(2)["J_chi"]
    d = np.eye(8)
    assert np.array_equal(a, d[[6, 7, 0, 1]])
    assert np.array_equal(b, d[[4, 5, 2, 3]])


def test_holomorphic_frame_check_over_pairs_is_the_worst_single_pair():
    """The array check equals the max over one-pair calls, on a J that no
    pair diagonalizes exactly, at rank 2 on a stack of points."""
    model = make_model(2)
    chart = model.total_chart
    B = np.random.default_rng(9).uniform(-1, 1, (8, 8))
    J_chi = build_complex_triple(model).J_chi
    J = EndomorphismField(chart, lambda p: J_chi.matrix(p) + p.coords[..., :1, None] * B)
    M_J = J.matrix(chart.sample(5, 12))
    for key, (a, b) in frame_pairs(model.n).items():
        worst = np.max(holomorphic_frame_check(M_J, a, b))
        singles = [
            np.max(holomorphic_frame_check(M_J, a[k : k + 1], b[k : k + 1])) for k in range(len(a))
        ]
        assert worst == max(singles) > 0.0, key


def test_stacked_recursion_and_frames_match_single_points():
    """Non-constant forms and a non-constant J, evaluated on a stack of points,
    return row for row their single-point values; and stacked on a member
    axis, with the model's forms and J's at n = 1..4, member for member their
    single-member values."""
    chart = MODEL.total_chart
    x, q = (lambda p: p.coords[..., 0]), (lambda p: p.coords[..., 3])

    def matrix_field(entries):
        """The 2-form with coefficient c(p) at (i, j), i < j, for each entry."""

        def matrix(p):
            M = np.zeros(p.batch_shape + (4, 4))
            for (i, j), c in entries.items():
                M[..., i, j] = c(p)
            return M - np.swapaxes(M, -1, -2)

        return DifferentialForm(chart, matrix)

    omega = matrix_field({(0, 2): lambda p: -1.0 - x(p) ** 2, (1, 3): lambda p: -1.0 + 0.1 * q(p)})
    chi = matrix_field({(0, 1): lambda p: x(p) * q(p), (2, 3): lambda p: -1.0})
    B = np.random.default_rng(4).uniform(-1, 1, (4, 4))
    J = EndomorphismField(
        chart, lambda p: COMPLEXES.J_chi.matrix(p) + x(p)[..., None, None] * B
    )
    pairs = frame_pairs(1)
    stacked = chart.sample(6, 31)
    rows = recursion_operator(form_matrix(omega, stacked), form_matrix(chi, stacked))
    frames = holomorphic_frame_check(J.matrix(stacked), *pairs["J_chi"])
    lagrangian = verify_lagrangian_fibres(MODEL, omega, stacked)
    for r, pt in enumerate(stacked):
        single = recursion_operator(form_matrix(omega, pt), form_matrix(chi, pt))
        assert np.array_equal(rows[r], single)
        assert np.array_equal(frames[r], holomorphic_frame_check(J.matrix(pt), *pairs["J_chi"]))
    assert np.max(frames) == max(
        np.max(holomorphic_frame_check(J.matrix(pt), *pairs["J_chi"])) for pt in stacked
    )
    assert np.max(frames) > 0.1
    assert lagrangian.max_residual == max(
        verify_lagrangian_fibres(MODEL, omega, Point(chart, pt.coords[None])).max_residual
        for pt in stacked
    )

    # members (omega, omega, TRIPLE.chi) against (chi, sigma, omega), and
    # (J, J_omega, J) with the pairs of J_chi, J_omega, J_sigma: varying and
    # constant members mixed
    M_omega, M_chi = form_matrix(omega, stacked), form_matrix(chi, stacked)
    M_f = [M_omega, M_omega, form_matrix(TRIPLE.chi, stacked)]
    M_g = [M_chi, form_matrix(TRIPLE.sigma, stacked), M_omega]
    assert_members_match(recursion_operator, [M_f, M_g], (2, 2), 2)
    endos = [J.matrix(stacked), COMPLEXES.J_omega.matrix(stacked), J.matrix(stacked)]
    a, b = zip(pairs["J_chi"], pairs["J_omega"], pairs["J_sigma"])
    assert_members_match(holomorphic_frame_check, [endos, a, b], (2, 2, 2), 1)
    for n in (1, 2, 3, 4):
        model = make_model(n)
        pt = model.total_chart.sample(4, n)
        M = [form_matrix(f, pt) for f in model.triple.forms()]
        assert_members_match(recursion_operator, [[M[1], M[0], M[1]], [M[2], M[2], M[0]]], (2, 2), 2)
        endos = model.complexes.endos()
        a, b = zip(*(frame_pairs(model.n)[E.name] for E in endos))
        matrices = [E.matrix(pt) for E in endos]
        assert_members_match(holomorphic_frame_check, [matrices, a, b], (2, 2, 2), 1)


def test_verify_derives_the_complex_structures_of_the_triple_it_is_given():
    """chi scaled by 2: without ``complexes`` the battery reads the J's of
    that triple, its recursion operators J_omega / 2, J_chi and J_sigma / 2,
    not the model's, so the halved J's fail their coframe pairs too."""
    chi = DifferentialForm.constant(MODEL.total_chart, 2.0 * M_CHI, name="chi")
    doubled = HyperSymplecticTriple(TRIPLE.omega, chi, TRIPLE.sigma)
    pt = MODEL.total_chart.sample(6, 2)
    derived = build_complex_triple(MODEL, triple=doubled)
    others = ((doubled.chi, doubled.sigma), (doubled.omega, doubled.sigma), (chi, doubled.omega))
    for J, (f, g) in zip(derived.endos(), others):
        R = recursion_operator(form_matrix(f, pt), form_matrix(g, pt))
        assert np.array_equal(J.matrix(pt), R), J.name
    assert np.array_equal(derived.J_omega.matrix(pt), COMPLEXES.J_omega.matrix(pt) / 2)
    reports = verify_hypersymplectic(MODEL, pt=pt, triple=doubled)
    assert reports == verify_hypersymplectic(MODEL, pt=pt, triple=doubled, complexes=derived)
    assert {r.identity_name for r in reports if not r.passed} == {
        "hypersymplectic.holomorphic_frame.J_omega",
        "hypersymplectic.holomorphic_frame.J_sigma",
        "hypersymplectic.recursion_squares.chi_sigma",
        "hypersymplectic.recursion_squares.omega_chi",
    }


@pytest.mark.parametrize("name", ["", "mine"], ids=["unnamed", "renamed"])
@pytest.mark.parametrize("slot", range(3), ids=COMPLEX_NAMES)
def test_the_battery_names_a_hand_built_complex_triple_by_slot(slot, name):
    """A complex structure built by hand, unnamed or under a name of its own,
    holding the model's matrix in its slot: the battery gives the model's 19
    reports, named by slot from COMPLEX_NAMES, with the model's residuals.
    Reading the coframe pairs by a field's name raised KeyError here."""
    pt = MODEL.total_chart.sample(6, 3)
    endos = list(COMPLEXES.endos())
    matrix = endos[slot].matrix(MODEL.total_chart.point(np.zeros(4)))
    endos[slot] = EndomorphismField.constant(MODEL.total_chart, matrix, name=name)
    reports = verify_hypersymplectic(MODEL, pt=pt, complexes=HyperComplexTriple(*endos))
    assert len(reports) == 19 and all(r.passed for r in reports)
    assert reports == verify_hypersymplectic(MODEL, pt=pt)
    assert f"hypersymplectic.nijenhuis.{COMPLEX_NAMES[slot]}" in {r.identity_name for r in reports}


def test_full_battery_passes_at_rank_two():
    reports = verify_hypersymplectic(make_model(2), n_points=25, seed=9)
    failed = [r.identity_name for r in reports if not r.passed]
    assert failed == []


# ---------------------------------------------------------------------------
# Sections


def make_section(p_terms, q_terms, name):
    p = Polynomial.from_terms(2, p_terms)
    q = Polynomial.from_terms(2, q_terms)
    return SectionMap(MODEL, (p,), (q,), name=name)


def pullback_residual(section, form, points):
    worst = 0.0
    for pt in points:
        table = section_pullback(MODEL, section, form, pt)
        worst = max(worst, max(abs(v) for v in table.values()))
    return worst


def test_section_validation():
    with pytest.raises(ValueError):
        SectionMap(MODEL, (), (Polynomial.from_terms(2, []),), name="short")
    with pytest.raises(ValueError):
        make_section([((9, 0), 1.0)], [], "too-steep")
    # the degree is the largest total degree of a term: neither the largest
    # single power nor the sum over all terms
    with pytest.raises(ValueError, match="'mixed': section degree 9 exceeds the bound 8"):
        make_section([((5, 4), 1.0)], [], "mixed")
    make_section([((2, 3), 1.0), ((4, 0), 1.0)], [], "five")
    make_section([((4, 4), 1.0)], [((0, 8), 1.0)], "at-bound")
    fits, steep = (((((1, 0), 1.0),),), ((),)), (((((5, 4), 1.0),),), ((),))
    with pytest.raises(ValueError, match="'steep': section degree 9"):
        SectionMap.family(MODEL, [("fits", *fits), ("steep", *steep)])
    wrong_arity = Polynomial.from_terms(3, [])
    with pytest.raises(ValueError):
        SectionMap(MODEL, (wrong_arity,), (wrong_arity,), name="bad")


def test_section_evaluation_and_chart_guard():
    rot = standard_sigma_section(MODEL)
    pt = base_point([0.3, -0.5])
    total = rot.evaluate(pt)
    assert np.allclose(total.coords, [0.3, -0.5, -0.5, -0.3])
    with pytest.raises(GeometryError):
        rot.evaluate(total_point([0, 0, 0, 0]))


def fd_error_bound(section: SectionMap) -> np.ndarray:
    """The error model of the FD frame of ``section`` against its exact
    Jacobian, C (h^2 M3 + eps M0 / h) for each fibre component, of shape
    (m, 2n, 1) so that it broadcasts over the columns of the fibre block.

    h is the base chart's step.  On the box widened by h, which holds every
    stencil point, |x_k| <= X_k, and a term c x^e is at most |c| prod X_k^e_k:
    M0 sums these over the terms, and M3 is the largest over the axes a of
    the same sum for d_a^3 (c x^e).  A central difference along a is d_a f
    plus the truncation h^2 d_a^3 f(xi) / 6, plus the rounding of the two
    evaluations of f over the step taken, at most (2d + t + 1) eps M0 / (2h)
    for a component of degree d with t terms (Higham's gamma, one
    multiplication and one power per factor and one addition per term).
    C = 2 (d + t) covers both."""
    chart = section.model.base_chart
    h, eps = chart.fd_step(), np.finfo(float).eps
    reach = np.maximum(np.abs(chart.lower), np.abs(chart.upper)) + h
    bounds = []
    for _, p, q in section.members:
        for table in (*p, *q):
            M0, M3 = 0.0, np.zeros(chart.dim)
            for powers, c in table:
                e = np.array(powers)
                term = abs(c) * np.prod(reach**e)
                M0 += term
                M3 += term * e * (e - 1) * (e - 2) / reach**3
            degree = max((sum(powers) for powers, _ in table), default=0)
            C = 2 * (degree + len(table))
            bounds.append(C * (h**2 * M3.max() + eps * M0 / h))
    return np.reshape(bounds, (len(section.members), -1, 1))


def fd_excess(exact: SectionMap, fd: SectionMap, pt: Point) -> float:
    """The largest |FD - exact| over ``pt`` and the fibre block, in units of
    the error bound of ``fd``: at most 1 when the two frames agree."""
    gap = np.abs(fd.jacobian_fd(pt) - exact.jacobian(pt))
    n2 = 2 * fd.model.n
    assert np.array_equal(gap[..., :n2, :], np.zeros_like(gap[..., :n2, :]))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(gap[..., n2:, :] == 0.0, 0.0, gap[..., n2:, :] / fd_error_bound(fd))
    return float(ratio.max())


def scaled_term(section: SectionMap, factor: float) -> SectionMap | None:
    """``section`` with the coefficient of a term of highest degree
    multiplied by ``factor``; None when no term moves the Jacobian (degree 0)."""
    (name, p, q), = section.members
    tables = [list(t) for t in (*p, *q)]
    terms = [(sum(powers), r, k) for r, t in enumerate(tables) for k, (powers, _) in enumerate(t)]
    degree, r, k = max(terms, default=(0, 0, 0))
    if degree == 0:
        return None
    powers, c = tables[r][k]
    tables[r][k] = (powers, c * factor)
    n = section.model.n
    return SectionMap.family(section.model, [(name, tables[:n], tables[n:])])


def cross_check_cases():
    """(sample, sections): the criterion-3 corpus and a curved rank-1
    section on the rank-1 model, the curved rank-2 section on the rank-2 one."""
    curved = make_section([((2, 0), 1.0), ((0, 1), 1.0)], [((1, 1), -2.0)], "curved")
    yield MODEL.base_chart.sample(50, 7), [*_corpus(), curved]
    model = make_model(2)
    yield model.base_chart.sample(50, 7), [SectionMap.family(model, [CURVED_N2])]


def test_exact_and_fd_jacobians_agree():
    """The labelled FD cross-check of the exact Jacobian, which every check
    reads: on a sample, for every section of ``cross_check_cases``, the FD
    frame stays within ``fd_error_bound`` of the exact one, and the base
    blocks agree exactly.  At one point the curved section's exact frame is
    its hand-derived one."""
    for pt, sections in cross_check_cases():
        for section in sections:
            assert fd_excess(section, section, pt) <= 1.0, section.name
    curved = next(cross_check_cases())[1][-1]
    exact = curved.jacobian(base_point([0.4, -0.3]))[0]  # the one member
    assert np.array_equal(exact[:2], np.eye(2))
    assert np.allclose(exact[2], [0.8, 1.0])  # d(x^2 + y)
    assert np.allclose(exact[3], [0.6, -0.8])  # d(-2xy)


def test_the_fd_cross_check_sees_a_perturbed_coefficient():
    """Non-vacuity witness: the exact frame of a section with one
    highest-degree coefficient scaled by 1 + 1e-6, against the FD frame of
    the true section, breaks the error bound, on every section of the cases
    whose Jacobian that coefficient moves."""
    witnessed = 0
    for pt, sections in cross_check_cases():
        for section in sections:
            perturbed = scaled_term(section, 1.0 + 1e-6)
            if perturbed is not None:
                assert fd_excess(perturbed, section, pt) > 1.0, section.name
                witnessed += 1
    assert witnessed >= 20


def test_the_fd_frame_is_divided_by_the_step_actually_taken():
    """Each FD column is divided by its base entry, so the frame has the
    exact frame's shape (Id; D) at any step; for the rotation section,
    whose slopes are 0 and 1, it equals the exact frame bit for bit, also
    on a box near x = 1 narrow enough that the width rule steps by 1e-12,
    where the step taken differs from h by up to 2e-4."""
    for bounds in (None, [(1.0, 1.0 + 2e-7)] * 2):
        model = make_model(1, action_bounds=bounds)
        rotation = standard_sigma_section(model)
        pt = model.base_chart.sample(50, 3)
        assert np.array_equal(rotation.jacobian_fd(pt), rotation.jacobian(pt))
    assert model.base_chart.fd_step() == pytest.approx(1e-12)


def test_stacked_section_maps_match_single_points():
    """On the curved section p = y + x^2, q = -x, every section map and the
    pullback and invariance checks agree, row for row, with single points."""
    curved = make_section([((0, 1), 1.0), ((2, 0), 1.0)], [((1, 0), -1.0)], "curved")
    stacked = MODEL.base_chart.sample(6, 32)
    maps = {
        "total_coords": curved.total_coords,
        "jacobian": curved.jacobian,
        "jacobian_fd": curved.jacobian_fd,
    }
    for name, section_map in maps.items():
        rows = section_map(stacked)
        for r, pt in enumerate(stacked):
            assert np.array_equal(rows[r], section_map(pt)), name
    for form in TRIPLE.forms():
        table = section_pullback(MODEL, curved, form, stacked)
        for r, pt in enumerate(stacked):
            single = section_pullback(MODEL, curved, form, pt)
            assert {k: v[r] for k, v in table.items()} == single
    for J in COMPLEXES.endos():
        worst = complex_submanifold_check(MODEL, curved, J, stacked)
        singles = [complex_submanifold_check(MODEL, curved, J, pt) for pt in stacked]
        assert worst == max(singles)
    assert complex_submanifold_check(MODEL, curved, COMPLEXES.J_chi, stacked) > 1e-2


def test_section_maps_match_per_component_evaluation():
    """``total_coords`` and ``fibre_jacobian`` evaluate all components in one
    vector-polynomial call and equal, bit for bit, the per-component stacks of
    the scalar polynomials and their exact derivatives."""
    potential = Polynomial.from_terms(
        4, [((3, 1, 2, 0), 0.5), ((0, 2, 0, 4), -1.25), ((1, 0, 1, 1), 2.0), ((0, 0, 0, 1), 3.0)]
    )
    model = make_model(2)
    cases = [
        (gradient_section(model, potential), [potential.derivative(j) for j in range(4)]),
        (zero_section(model), [Polynomial.from_terms(4, [])] * 4),
    ]
    for section, polys in cases:
        stacked = model.base_chart.sample(7, 3)
        for pt in (stacked, next(iter(stacked))):
            xy = pt.coords
            fibre = np.stack([poly(xy) for poly in polys], axis=-1)
            graph = np.concatenate([xy, fibre], axis=-1)[..., None, :]
            assert np.array_equal(section.total_coords(pt), graph)
            rows = [np.stack([poly.derivative(j)(xy) for j in range(4)], axis=-1) for poly in polys]
            assert np.array_equal(section.fibre_jacobian(pt), np.stack(rows, axis=-2)[..., None, :, :])


def test_zero_section_is_omega_lagrangian_and_chi_invariant():
    pts = MODEL.base_chart.sample(30, 42)
    zero = zero_section(MODEL)
    assert pullback_residual(zero, TRIPLE.omega, pts) <= 1e-10
    worst = max(
        complex_submanifold_check(MODEL, zero, COMPLEXES.J_chi, pt) for pt in pts
    )
    assert worst <= 1e-6


def test_rotation_section_pullback_table():
    pts = MODEL.base_chart.sample(30, 42)
    rot = standard_sigma_section(MODEL)
    assert pullback_residual(rot, TRIPLE.sigma, pts) <= 1e-10
    assert pullback_residual(rot, TRIPLE.chi, pts) <= 1e-10
    # and it is NOT omega-Lagrangian: s*omega = (q_x - p_y) dx^dy = -2 dx^dy
    res = section_pullback(MODEL, rot, TRIPLE.omega, next(iter(pts)))
    assert res[(0, 1)] == pytest.approx(-2.0, abs=1e-9)


def test_rotation_graph_is_preserved_by_the_first_structure():
    pts = MODEL.base_chart.sample(30, 42)
    rot = standard_sigma_section(MODEL)
    worst = max(
        complex_submanifold_check(MODEL, rot, COMPLEXES.J_omega, pt) for pt in pts
    )
    assert worst <= 1e-6
    # ... but not by J_chi
    bad = complex_submanifold_check(MODEL, rot, COMPLEXES.J_chi, next(iter(pts)))
    assert bad > 1e-2


def test_tilt_section_sigma_pullback_coefficient():
    # p = x, q = 0 pulls sigma back to -(q_y + p_x) dx^dy = -dx^dy
    tilt = make_section([((1, 0), 1.0)], [], "tilt")
    table = section_pullback(MODEL, tilt, TRIPLE.sigma, base_point([0.2, 0.7]))
    assert table[(0, 1)] == pytest.approx(-1.0, abs=1e-9)


def test_degree_eight_gradient_graph_is_exactly_lagrangian():
    """The gradient graph of x^4 y^4 is omega-Lagrangian; read through the
    exact Jacobian its pullback vanishes within the sections gate (an FD
    frame scored about 6e-10 here, above the gate)."""
    section = gradient_section(MODEL, Polynomial.from_terms(2, [((4, 4), 1.0)]))
    pts = MODEL.base_chart.sample(100, 42)
    table = section_pullback(MODEL, section, TRIPLE.omega, pts)
    assert max(np.max(np.abs(v)) for v in table.values()) <= SECTION_PULLBACK_TOL


def test_lagrangian_alone_does_not_force_invariance():
    """The graph of p = 2x, q = 0 kills omega (it is a gradient graph) yet is
    moved off itself by J_chi; invariance needs the other two pullbacks to
    vanish as well, which fails here because the potential x^2 is not
    harmonic."""
    section = gradient_section(MODEL, Polynomial.from_terms(2, [((2, 0), 1.0)]))
    pts = MODEL.base_chart.sample(20, 42)
    assert pullback_residual(section, TRIPLE.omega, pts) <= 1e-10
    worst = max(
        complex_submanifold_check(MODEL, section, COMPLEXES.J_chi, pt) for pt in pts
    )
    assert worst > 1e-2


def test_harmonic_gradient_graphs_are_chi_invariant():
    pts = MODEL.base_chart.sample(20, 42)
    for terms in ([((1, 1), 1.0)], [((2, 0), 0.5), ((0, 2), -0.5)]):
        section = gradient_section(MODEL, Polynomial.from_terms(2, terms))
        assert pullback_residual(section, TRIPLE.omega, pts) <= 1e-10
        worst = max(
            complex_submanifold_check(MODEL, section, COMPLEXES.J_chi, pt)
            for pt in pts
        )
        assert worst <= 1e-6


def test_gradient_section_arity_guard():
    with pytest.raises(ValueError):
        gradient_section(MODEL, Polynomial.from_terms(3, [((1, 0, 0), 1.0)]))


def qr_distance(section, J, pt):
    """Reference: the worst distance of a column of J F from the column span
    of the exact graph frame F, by projection onto a QR basis of F."""
    frame = section.jacobian(pt)
    images = J.matrix(section.evaluate(pt)) @ frame
    Q = np.linalg.qr(frame)[0]
    off_span = images - Q @ (np.swapaxes(Q, -1, -2) @ images)
    return float(np.max(np.linalg.norm(off_span, axis=-2)))


def test_graph_invariance_is_the_orthogonal_distance_on_the_criterion_3_corpus():
    """On every section of the criterion-3 corpus and each complex structure,
    the graph-frame residual equals the QR orthogonal distance up to rounding,
    so it is never below it by more than rounding: hard failures stay hard
    and passes stay passes."""
    pts = MODEL.base_chart.sample(100, 42)
    for section in _corpus():
        for J in COMPLEXES.endos():
            residual = complex_submanifold_check(MODEL, section, J, pts)
            reference = qr_distance(section, J, pts)
            assert residual == pytest.approx(reference, rel=1e-12, abs=1e-14), section.name


def test_steep_graphs_keep_a_scale_free_residual():
    """Gradient graphs of c (x^2 - y^2) / 2 are J_chi-invariant for every c.
    The residual is a distance from the tangent plane, so it stays at
    rounding level up to c = 1e12, where the QR projection of the raw FD
    frame drifted to 5e-4; at p = 1e15 x^2 the graph is not invariant and
    the residual is about 2e15."""
    pts = MODEL.base_chart.sample(100, 42)
    for c in (1.0, 1e6, 1e12):
        potential = Polynomial.from_terms(2, [((2, 0), 0.5 * c), ((0, 2), -0.5 * c)])
        section = gradient_section(MODEL, potential)
        assert complex_submanifold_check(MODEL, section, COMPLEXES.J_chi, pts) <= 1e-10
    steep = make_section([((2, 0), 1e15)], [], "steep")
    assert complex_submanifold_check(MODEL, steep, COMPLEXES.J_chi, pts) > 1e15


def test_non_finite_graph_frames_raise():
    """p = 1e308 x^8 overflows the graph frame: no verdict, a GeometryError."""
    huge = make_section([((8, 0), 1e308)], [], "huge")
    pts = MODEL.base_chart.sample(10, 42)
    with np.errstate(over="ignore", invalid="ignore"):
        for J in COMPLEXES.endos():
            with pytest.raises(GeometryError, match="not finite"):
                complex_submanifold_check(MODEL, huge, J, pts)


# p = (y1 + 0.3 x1^2 x2, y2), q = (-x1, -x2 + 0.2 y1^3): a curved rank-2 section
CURVED_N2 = (
    "curved2",
    [[((0, 0, 1, 0), 1.0), ((2, 1, 0, 0), 0.3)], [((0, 0, 0, 1), 1.0)]],
    [[((1, 0, 0, 0), -1.0)], [((0, 1, 0, 0), -1.0), ((0, 0, 3, 0), 0.2)]],
)


def family_reads(model, family, pt, forms, endos):
    """Every read of a family on ``pt`` with the given forms and complex
    structures (one for every member, or one per member), each table with
    the member axis."""
    table = section_pullback(model, family, forms, pt)
    D, restriction, defect = graph_frame_defect(family, endos, pt)
    return {
        "values": family.evaluate(pt).coords,
        "exact frame": family.jacobian(pt),
        "fd frame": family.jacobian_fd(pt),
        "pullback": np.stack(list(table.values()), axis=-1),
        "D": D,
        "restriction": restriction,
        "defect": defect,
        "distance": graph_distance(D, defect),
    }


def family_cases():
    """(model, sections): the defaults at n = 1..4, the criterion-3 corpus
    and the curved rank-2 section."""
    for n in (1, 2, 3, 4):
        model = make_model(n)
        yield model, [zero_section(model), standard_sigma_section(model)]
    yield MODEL, _corpus()
    model = make_model(2)
    yield model, [SectionMap.family(model, [CURVED_N2])]


def test_a_family_reads_each_member_as_its_own_section():
    """Built from the term tables of its members, a family equals, member by
    member and exactly, each section read alone: values, exact and FD
    frames, pullback table, D, restriction, defect, distance and second
    derivatives.  Member k is held to form k and complex structure k
    (cycling), the section alone to the same two."""
    for model, sections in family_cases():
        family = SectionMap.family(model, [s.members[0] for s in sections])
        assert family.names == tuple(s.name for s in sections)
        forms = [model.triple.forms()[k % 3] for k in range(len(sections))]
        endos = [model.complexes.endos()[k % 3] for k in range(len(sections))]
        for pt in (model.base_chart.sample(17, 5), model.base_chart.point([0.3] * (2 * model.n))):
            axis = len(pt.batch_shape)  # the member axis
            reads = family_reads(model, family, pt, forms, endos)
            for k, section in enumerate(sections):
                alone = family_reads(model, section, pt, forms[k], endos[k])
                for kind, table in reads.items():
                    member = np.take(table, k, axis=axis)
                    assert np.array_equal(member, np.take(alone[kind], 0, axis=axis)), kind
                assert np.array_equal(family.fibre_hessian(pt, k), section.fibre_hessian(pt))


def test_an_overflowing_member_raises_for_the_family():
    """A member whose frame, defect or pullback overflows raises
    GeometryError for the whole family, naming the J of the member at fault,
    and numpy warns about nothing."""
    name, _, p, q = default_sections(1)[1]
    rotation = (name, p, q)
    huge = ("huge", [[((8, 0), 1e308)]], [[]])
    two_slopes = ("lin", [[((1, 0), 1.7e308)]], [[((0, 1), 1.7e308)]])
    big = (
        "big",
        [[((1, 1), -2.87e57), ((4, 1), 3.25e-40), ((4, 4), -1.86e250)]],
        [[((3, 4), -4.81e132), ((4, 3), -6.86e133), ((4, 0), 9.28e-193)]],
    )
    pts = MODEL.base_chart.sample(10, 42)
    family = SectionMap.family(MODEL, [rotation, huge])
    with pytest.raises(GeometryError, match="tangent frame of the graph is not finite"):
        section_pullback(MODEL, family, TRIPLE.omega, pts)
    with pytest.raises(GeometryError, match="tangent frame of the graph is not finite"):
        graph_frame_defect(family, COMPLEXES.J_chi, pts)
    family = SectionMap.family(MODEL, [rotation, two_slopes])
    endos = [COMPLEXES.J_omega, COMPLEXES.J_chi]
    with pytest.raises(GeometryError, match="defect of J_chi on the tangent frame"):
        graph_frame_defect(family, endos, pts)
    family = SectionMap.family(MODEL, [rotation, big])
    with pytest.raises(GeometryError, match="pullback of the form to the graph is not finite"):
        section_pullback(MODEL, family, [TRIPLE.sigma, TRIPLE.chi], pts)


def svd_distance(D, defect):
    """Reference: |(Id + D D^T)^(-1/2) defect_c| per column c, read through
    the SVD D = U S V^T as |U^T defect_c / hypot(1, S)|."""
    U, S = np.linalg.svd(D)[:2]
    normal = (np.swapaxes(U, -1, -2) @ defect) / np.hypot(1.0, S)[..., None]
    return np.hypot.reduce(normal, axis=-2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_graph_distance_matches_the_svd_formula(n):
    """The QR read of the distance from the tangent plane agrees with the SVD
    formula to 1e-12 relative, per point and column, for slopes from 1e-3 to
    1e150 and for D with zero rows; a zero defect is at distance 0.0.

    A zero row r of D makes (0, e_r) a normal direction, so Id + D D^T is
    block diagonal and the reference takes the SVD of the other rows only:
    on the whole D, the SVD would put the zero singular value at about
    eps * |D|, which is not small beside 1 for steep D."""
    rng = np.random.default_rng(n)
    n2 = 2 * n
    for slope in (1e-3, 1.0, 1e3, 1e8, 1e50, 1e150):
        for zero_rows in (0, 1, n):
            D = slope * rng.standard_normal((6, n2, n2))
            D[:, :zero_rows, :] = 0.0
            defect = rng.standard_normal((6, n2, n2))
            reference = np.hypot(
                np.hypot.reduce(defect[:, :zero_rows, :], axis=-2),
                svd_distance(D[:, zero_rows:, :], defect[:, zero_rows:, :]),
            )
            for k in range(len(D)):
                for c in range(n2):
                    column = defect[k][:, [c]]
                    (distance,) = graph_distance(D[k], column)
                    assert distance == pytest.approx(reference[k, c], rel=1e-12, abs=0.0)
            assert (graph_distance(D, np.zeros_like(defect)) == 0.0).all()


def test_zero_defects_take_no_qr_and_read_as_through_the_qr(monkeypatch):
    """A zero defect lies in the tangent plane: a table of zero defects is
    read without a QR as +0.0, which is what the QR route gives a zero
    member next to a nonzero one."""
    rng = np.random.default_rng(5)
    D = 1e8 * rng.standard_normal((4, 2, 6, 6))
    defect = rng.standard_normal((4, 2, 6, 6))
    defect[:, 0] = 0.0
    through_qr = graph_distance(D, defect)[:, 0]
    real_qr, calls = np.linalg.qr, []
    monkeypatch.setattr(np.linalg, "qr", lambda *args: calls.append(1) or real_qr(*args))
    zero = graph_distance(D, np.zeros_like(defect))
    assert calls == [] and zero.shape == (4, 2, 6)
    for table in (through_qr, zero):
        assert np.array_equal(table, np.zeros(table.shape)) and not np.signbit(table).any()
    graph_distance(D, defect)
    assert calls == [1]


def test_the_exact_fibre_block_is_read_once_per_sample(monkeypatch):
    """Each read of a section on a Point object (its values and exact fibre
    block) costs one polynomial call and is kept read-only for the next read
    of that object; another Point object, even with equal coordinates, is
    read anew.  The exact frame (Id; D) is kept too, built from the kept
    block with no further polynomial call."""
    calls = []
    original = Polynomial.__call__

    def counting(poly, coords):
        calls.append(poly)
        return original(poly, coords)

    monkeypatch.setattr(Polynomial, "__call__", counting)
    rot = standard_sigma_section(MODEL)
    pts = MODEL.base_chart.sample(20, 3)
    reads = {
        "evaluate": lambda pt: rot.evaluate(pt).coords,
        "fibre_jacobian": rot.fibre_jacobian,
    }
    kept = {}
    for k, (kind, read) in enumerate(reads.items()):
        kept[kind] = read(pts)
        assert read(pts) is kept[kind], kind
        assert not kept[kind].flags.writeable, kind
        assert len(calls) == k + 1, kind
    for kind, read in reads.items():
        assert read(pts) is kept[kind], kind
    frame = rot.jacobian(pts)
    assert rot.jacobian(pts) is frame and not frame.flags.writeable
    assert len(calls) == 2
    equal = MODEL.base_chart.sample(20, 3)
    for kind, read in reads.items():
        again = read(equal)
        assert again is not kept[kind] and not again.flags.writeable, kind
        np.testing.assert_array_equal(again, kept[kind])
    assert len(calls) == 4


def test_a_sample_cannot_be_written_after_a_section_read_it():
    """A section keeps its reads per Point object, so the coordinates of a
    sample or a point are read-only: writing them after a read would leave
    the kept values stale.  ``Chart.point`` copies, so the caller's array
    stays writeable and the point does not follow it."""
    section = standard_sigma_section(MODEL)
    pt = MODEL.base_chart.sample(3, 1)
    section.evaluate(pt)
    with pytest.raises(ValueError, match="read-only"):
        pt.coords[:] = 0.5
    coords = np.array([0.1, 0.2])
    single = MODEL.base_chart.point(coords)
    section.fibre_jacobian(single)
    with pytest.raises(ValueError, match="read-only"):
        single.coords[0] = 0.5
    coords[0] = 0.5
    assert single.coords[0] == 0.1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_model_builds_its_complex_structures_once(n):
    """``model.complexes`` is built on first use, kept, and equals the
    recursion operators of ``build_complex_triple`` entry for entry."""
    model = make_model(n)
    assert model.complexes is model.complexes
    assert model.triple is model.triple
    row = Point(model.total_chart, np.zeros((1, model.total_chart.dim)))
    for kept, built in zip(model.complexes.endos(), build_complex_triple(model).endos()):
        assert kept.name == built.name
        np.testing.assert_array_equal(kept.matrix(row), built.matrix(row))


def test_a_run_takes_one_determinant_and_one_solve_per_use(monkeypatch):
    """One run of a rank-3 model through every suite (the paper-n3
    benchmark configuration) takes one ``det`` and one ``solve`` for the
    model's complex structures and one of each for the battery, whose
    recursion guard reads the battery's own determinants."""
    calls = []
    for name in ("det", "solve"):

        def counting(*args, _real=getattr(np.linalg, name), _name=name):
            if sys._getframe(1).f_globals["__name__"] == "hypersymplectic.fibration":
                calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(np.linalg, name, counting)
    config = {"scenario": "paper-n", "n": 3, "sampling": {"n_points": 16, "seed": 1}}
    assert run_scenario(ScenarioConfig.from_dict(config)).verdict == "pass"
    assert sorted(calls) == ["det", "det", "solve", "solve"]
