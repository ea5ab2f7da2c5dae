import dataclasses

import numpy as np
import pytest

from hypersymplectic.calculus import (
    DifferentialForm,
    EndomorphismField,
    VectorField,
    exterior_derivative,
    form_matrix,
    stencil,
)
from hypersymplectic.charts import Chart, Point
from hypersymplectic.errors import DegenerateFormError
from hypersymplectic.fibration import (
    HyperComplexTriple,
    HyperSymplecticTriple,
    build_complex_triple,
    make_model,
    verify_hypersymplectic,
)
from hypersymplectic.special_kahler import SpecialKahlerData, special_symplectic_check
from hypersymplectic.structures import (
    CheckReport,
    FlatConnection,
    almost_complex_residual,
    covariant_constancy,
    d_nabla_endo,
    nijenhuis,
)
from hypersymplectic.calculus import lie_bracket

PLANE = Chart("plane", ("u", "v"), (-1.0, -1.0), (1.0, 1.0))
CUBE = Chart("cube", ("u", "v", "w"), (-1.0,) * 3, (1.0,) * 3)
SPACE = Chart("space", ("x1", "x2", "x3", "x4"), (-1.0,) * 4, (1.0,) * 4)


def area_form(chart, coefficient):
    """The 2-form coefficient(pt) de_0 ^ de_1, as a matrix field."""

    def matrix(pt):
        c = coefficient(pt)
        M = np.zeros(pt.batch_shape + (chart.dim, chart.dim))
        M[..., 0, 1], M[..., 1, 0] = c, -c
        return M

    return DifferentialForm(chart, matrix)


def cube_form(pt):
    """v^3 dv^dw + uvw dw^du + (1 + u^2) du^dv; its d is uw du^dv^dw."""
    u, v, w = (pt.coords[..., k] for k in range(3))
    M = np.zeros(pt.batch_shape + (3, 3))
    M[..., 1, 2], M[..., 2, 0], M[..., 0, 1] = v**3, u * v * w, 1.0 + u**2
    return M - np.swapaxes(M, -1, -2)


def varying_christoffel(pt):
    """A torsion-free Gamma on any chart: Gamma^0_01 = Gamma^0_10 = x_0,
    Gamma^last_last,last = x_1^2."""
    dim = pt.coords.shape[-1]
    G = np.zeros(pt.batch_shape + (dim,) * 3)
    G[..., 0, 0, 1] = G[..., 0, 1, 0] = pt.coords[..., 0]
    G[..., -1, -1, -1] = pt.coords[..., 1] ** 2
    return G


def assert_members_match(primitive, args, ranks, out_rank):
    """``primitive`` on member stacks equals, member by member, ``primitive``
    on each member alone.  ``args`` holds one list of member arrays per
    argument; the arrays of argument i have ``ranks[i]`` value axes and are
    stacked on a member axis just before them, their leading axes broadcast;
    the result's member axis sits before its ``out_rank`` value axes."""
    stacks = [
        np.stack(np.broadcast_arrays(*arrays), axis=-rank - 1) for arrays, rank in zip(args, ranks)
    ]
    table = primitive(*stacks)
    assert table.shape[-out_rank - 1] == len(args[0]), primitive.__name__
    for m, single_args in enumerate(zip(*args)):
        member = np.take(table, m, axis=-out_rank - 1)
        single = primitive(*single_args)
        assert np.array_equal(member, np.broadcast_to(single, member.shape)), primitive.__name__


def test_report_pass_boundary():
    assert CheckReport.from_residual("id", 1, 1e-9, 1e-9).passed
    assert not CheckReport.from_residual("id", 1, 1.0000001e-9, 1e-9).passed
    as_dict = CheckReport.from_residual("id", 3, 0.0, 1e-6, statement="s").as_dict()
    assert as_dict == {
        "identity": "id",
        "n_points": 3,
        "max_residual": 0.0,
        "tolerance": 1e-6,
        "passed": True,
        "statement": "s",
    }
    # the flag is read off the residual and the tolerance: a NaN residual fails
    nan = CheckReport.from_residual("id", 3, float("nan"), 1e-6)
    assert nan.passed is False
    assert nan.as_dict()["passed"] is False


def test_zero_connection_is_flat_and_torsion_free():
    conn = FlatConnection.zero(PLANE)
    pt = PLANE.point([0.2, 0.3])
    assert conn.curvature_residual(pt) == 0.0
    assert conn.torsion_residual(pt) == 0.0
    with pytest.raises(ValueError):
        conn.gamma(pt)[0, 1, 1] = 1.0  # the table is read-only


def test_curvature_detects_a_non_flat_connection():
    def christoffel(pt):
        G = np.zeros(pt.batch_shape + (2, 2, 2))
        G[..., 0, 1, 1] = pt.coords[..., 0]  # Gamma^u_vv = u
        return G

    conn = FlatConnection(PLANE, christoffel)
    assert conn.curvature_residual(PLANE.point([0.5, 0.1])) > 0.5
    assert conn.torsion_residual(PLANE.point([0.5, 0.1])) == 0.0


def test_torsion_detects_asymmetric_coefficients():
    G = np.zeros((2, 2, 2))
    G[0, 0, 1] = 1.0
    conn = FlatConnection(PLANE, lambda pt: G)
    assert conn.torsion_residual(PLANE.point([0.0, 0.0])) == 1.0


def test_christoffel_shape_validated():
    conn = FlatConnection(PLANE, lambda pt: np.zeros((2, 2)))
    with pytest.raises(ValueError):
        conn.gamma(PLANE.point([0.0, 0.0]))


def test_covariant_constancy_flags_varying_forms():
    conn = FlatConnection.zero(PLANE)
    pt = PLANE.point([0.1, 0.4])
    constant = DifferentialForm.constant(PLANE, [[0.0, 2.5], [-2.5, 0.0]])
    G = conn.gamma(pt)
    table = covariant_constancy(G, form_matrix(constant, pt), constant.gradient(pt))
    assert np.max(np.abs(table)) == 0.0
    varying = area_form(PLANE, lambda p: 1.0 + p.coords[..., 0])
    table = covariant_constancy(G, form_matrix(varying, pt), varying.gradient(pt))
    assert np.max(np.abs(table)) > 0.5


def curved_I(pt):
    """I = -d(p, q) for the section p = v + u^2, q = -u: non-constant in u."""
    M = np.empty(pt.batch_shape + (2, 2))
    M[..., 0, 0] = -2.0 * pt.coords[..., 0]
    M[..., 0, 1], M[..., 1, 0], M[..., 1, 1] = -1.0, 1.0, 0.0
    return M


def curved_I_derivative(axis, pt):
    return np.array([[-2.0, 0.0], [0.0, 0.0]]) if axis == 0 else np.zeros((2, 2))


def symmetric_christoffel(pt):
    u, v = pt.coords[..., 0], pt.coords[..., 1]
    G = np.zeros(pt.batch_shape + (2, 2, 2))
    G[..., 0, 0, 1] = G[..., 0, 1, 0] = u
    G[..., 1, 1, 1] = v**2
    G[..., 1, 0, 0] = 0.5
    return G


def asymmetric_christoffel(pt):
    """Gamma^u_uv = u, Gamma^v_vv = v^2: torsion max |u|, curvature nonzero."""
    G = np.zeros(pt.batch_shape + (2, 2, 2))
    G[..., 0, 0, 1] = pt.coords[..., 0]
    G[..., 1, 1, 1] = pt.coords[..., 1] ** 2
    return G


def special_kahler_reports(christoffel, pt):
    """special_symplectic_check on hand-built data on the plane: the
    non-constant area form (0.5 + u^2) du^dv, the curved I and the
    connection with the given Christoffel symbols."""
    Omega = area_form(PLANE, lambda p: 0.5 + p.coords[..., 0] ** 2)
    connection = FlatConnection(PLANE, christoffel)
    data = SpecialKahlerData(Omega, EndomorphismField(PLANE, curved_I), connection)
    return {r.identity_name: r for r in special_symplectic_check(data, pt)}


MODEL = make_model(1)  # total chart (x, y, p, q)


def total_form(entries, name):
    """The 2-form on the total chart with coefficient c(pt) at each (i, j), i < j."""

    def matrix(pt):
        M = np.zeros(pt.batch_shape + (4, 4))
        for (i, j), c in entries.items():
            M[..., i, j] = c(pt)
        return M - np.swapaxes(M, -1, -2)

    return DifferentialForm(MODEL.total_chart, matrix, name)


x_of, q_of = (lambda pt: pt.coords[..., 0]), (lambda pt: pt.coords[..., 3])
# omega and chi stay nondegenerate, which the recursion operators need
HAND_BUILT_TRIPLE = HyperSymplecticTriple(
    omega=total_form({(0, 2): lambda pt: -1.0 - x_of(pt) ** 2, (1, 3): lambda pt: -1.0}, "omega"),
    chi=total_form({(0, 1): lambda pt: 1.0 + q_of(pt), (2, 3): lambda pt: -1.0}, "chi"),
    sigma=total_form({(0, 3): lambda pt: -1.0}, "sigma"),
)
_STANDARD = build_complex_triple(MODEL)
_TILT = np.random.default_rng(4).uniform(-1, 1, (4, 4))
HAND_BUILT_COMPLEXES = HyperComplexTriple(
    J_omega=_STANDARD.J_omega,
    J_chi=EndomorphismField(
        MODEL.total_chart,
        lambda pt: _STANDARD.J_chi.matrix(pt) + x_of(pt)[..., None, None] * _TILT,
        name="J_chi",
    ),
    J_sigma=EndomorphismField.constant(MODEL.total_chart, np.eye(4), name="J_sigma"),
)


def hand_built_reports(pt):
    reports = verify_hypersymplectic(
        MODEL, pt=pt, triple=HAND_BUILT_TRIPLE, complexes=HAND_BUILT_COMPLEXES
    )
    return {r.identity_name: r for r in reports}


def test_d_nabla_endo_matches_the_pairwise_formula():
    """table[a, b] against (nabla_a I) e_b - (nabla_b I) e_a written out pairwise,
    with exact derivatives of I and a connection with nonzero Christoffel symbols."""
    conn = FlatConnection(PLANE, symmetric_christoffel)
    I = EndomorphismField(PLANE, curved_I)
    for pt in PLANE.sample(10, 11):
        table = d_nabla_endo(conn.gamma(pt), I.matrix(pt), I.gradient(pt))
        assert table.shape == (2, 2, 2)
        G, M = symmetric_christoffel(pt), curved_I(pt)

        def nabla_I(a, b):
            e_a, e_b = np.eye(2)[a], np.eye(2)[b]
            d_IY = curved_I_derivative(a, pt) @ e_b
            gamma_IY = np.einsum("kij,i,j->k", G, e_a, M @ e_b)
            gamma_Y = np.einsum("kij,i,j->k", G, e_a, e_b)
            return d_IY + gamma_IY - M @ gamma_Y

        for a in range(2):
            for b in range(2):
                reference = nabla_I(a, b) - nabla_I(b, a)
                assert np.allclose(table[a, b], reference, rtol=0.0, atol=1e-10)
        assert np.array_equal(table, -np.transpose(table, (1, 0, 2)))
        assert np.max(np.abs(table[0, 1])) > 0.1  # the Christoffel terms are exercised


@pytest.mark.parametrize("dim", [2, 6])
def test_fd_identities_evaluate_once_per_stencil_point(dim):
    """At most two evaluator calls, one at the sample and one on the whole
    central stencil, for one point or a stack of dim, 2 * dim or 40: the count
    grows neither with the sample size nor with the dimension."""
    chart = Chart(f"box{dim}", tuple(f"x{i}" for i in range(dim)), (-1.0,) * dim, (1.0,) * dim)
    rng = np.random.default_rng(dim)
    A, B = rng.uniform(-1, 1, (2, dim, dim))
    calls = []

    def matrix(pt):
        calls.append(pt)
        return A + pt.coords[..., 0, None, None] * B

    J = EndomorphismField(chart, matrix)
    counts = {}
    sizes = (1, dim, 2 * dim, 40)
    for n_points in sizes:
        pt = chart.sample(n_points, seed=dim)
        calls.clear()
        d_nabla_endo(FlatConnection.zero(chart).gamma(pt), J.matrix(pt), J.gradient(pt))
        counts[n_points, "d_nabla_endo"] = len(calls)
        calls.clear()
        nijenhuis(J.matrix(pt), J.gradient(pt))
        counts[n_points, "nijenhuis"] = len(calls)
    for name in ("d_nabla_endo", "nijenhuis"):
        assert max(counts[n, name] for n in sizes) <= 2, name


NIJENHUIS_A, NIJENHUIS_B = np.random.default_rng(13).uniform(-1, 1, (2, 4, 4))


def nonconstant_J(pt):
    c = pt.coords
    return c[..., :, None] * NIJENHUIS_A + c[..., 1, None, None] ** 2 * NIJENHUIS_B


nonconstant_X = VectorField(SPACE, lambda pt: np.sin(pt.coords))
nonconstant_Y = VectorField(SPACE, lambda pt: pt.coords**3 - pt.coords[..., :1])


def test_nijenhuis_agrees_with_the_bracket_composition():
    """The coordinate-frame table, contracted with non-constant X and Y,
    reproduces the four-bracket formula up to FD error: the derivatives of X
    and Y cancel analytically in the table but only to rounding in the
    brackets."""
    J = EndomorphismField(SPACE, nonconstant_J)
    X, Y = nonconstant_X, nonconstant_Y
    JX = VectorField(SPACE, lambda p: J.matrix(p) @ X.value(p))
    JY = VectorField(SPACE, lambda p: J.matrix(p) @ Y.value(p))
    for pt in SPACE.sample(5, 12):
        J_pt = J.matrix(pt)
        reference = (
            lie_bracket(JX, JY, pt)
            - J_pt @ lie_bracket(JX, Y, pt)
            - J_pt @ lie_bracket(X, JY, pt)
            + J_pt @ J_pt @ lie_bracket(X, Y, pt)
        )
        table = nijenhuis(J_pt, J.gradient(pt))
        assert table.shape == (4, 4, 4)
        contracted = np.einsum("kab,a,b->k", table, X.value(pt), Y.value(pt))
        assert np.allclose(contracted, reference, rtol=0.0, atol=1e-8)
        assert np.max(np.abs(reference)) > 0.1


def test_stacked_primitives_match_single_points():
    """Each FD primitive on a stack of points returns, row for row, its value
    at each single point: non-constant I, forms, J, X, Y and a connection with
    nonzero symmetric Christoffel symbols.  The stencil itself appends the
    derivative axis after the value axes and keeps a constant unbatched."""
    conn = FlatConnection(PLANE, symmetric_christoffel)
    I = EndomorphismField(PLANE, curved_I)
    u, v = (lambda p: p.coords[..., 0]), (lambda p: p.coords[..., 1])
    area = area_form(PLANE, lambda p: 1.0 + u(p) ** 2 * v(p))
    stacked = PLANE.sample(6, 21)
    primitives = {
        "d_nabla_endo": lambda pt: d_nabla_endo(conn.gamma(pt), I.matrix(pt), I.gradient(pt)),
        "covariant_constancy": lambda pt: covariant_constancy(
            conn.gamma(pt), form_matrix(area, pt), area.gradient(pt)
        ),
        "form_matrix": lambda pt: form_matrix(area, pt),
        "stencil": lambda pt: stencil(I.matrix, pt, (2, 2)),
    }
    for name, primitive in primitives.items():
        rows = primitive(stacked)
        assert rows.shape[0] == len(stacked), name
        for r, pt in enumerate(stacked):
            assert np.array_equal(rows[r], primitive(pt)), name
    # out[..., k, b, a] = d_a I_kb: only I_00 = -2u varies, along u
    dI = stencil(I.matrix, stacked, (2, 2))
    assert dI.shape == (6, 2, 2, 2)
    assert np.allclose(dI[:, 0, 0, 0], -2.0, atol=1e-9) and np.max(np.abs(dI[:, :, :, 1])) == 0.0
    constant = np.arange(3.0)
    assert np.array_equal(stencil(lambda p: constant, stacked, (3,)), np.zeros((3, 2)))
    curvature = conn.curvature_residual(stacked)
    assert curvature == max(conn.curvature_residual(pt) for pt in stacked) > 0.1

    J = EndomorphismField(SPACE, nonconstant_J)
    stacked = SPACE.sample(5, 12)
    rows = nijenhuis(J.matrix(stacked), J.gradient(stacked))
    assert rows.shape == (5, 4, 4, 4)
    for r, pt in enumerate(stacked):
        assert np.array_equal(rows[r], nijenhuis(J.matrix(pt), J.gradient(pt)))

    beta = DifferentialForm(CUBE, cube_form)
    stacked = CUBE.sample(5, 23)
    rows = exterior_derivative(beta.gradient(stacked))
    for r, pt in enumerate(stacked):
        assert np.array_equal(rows[r], exterior_derivative(beta.gradient(pt)))
    u, w = stacked.coords[:, 0], stacked.coords[:, 2]
    assert np.allclose(rows[:, 0, 1, 2], u * w, atol=1e-8)

    # a member axis before the value axes: the model's constant forms and J's
    # at n = 1..4, and the hand-built triples, varying and constant members
    # mixed, each with a varying connection
    models = [make_model(n) for n in (1, 2, 3, 4)]
    families = [
        (m.triple.forms(), build_complex_triple(m).endos(), m.total_chart.sample(4, m.n))
        for m in models
    ]
    families.append(
        (HAND_BUILT_TRIPLE.forms(), HAND_BUILT_COMPLEXES.endos(), MODEL.total_chart.sample(6, 24))
    )
    for forms, endos, pt in families:
        G = FlatConnection(pt.chart, varying_christoffel).gamma(pt)
        M, dM = [form_matrix(f, pt) for f in forms], [f.gradient(pt) for f in forms]
        J, dJ = [E.matrix(pt) for E in endos], [E.gradient(pt) for E in endos]
        assert_members_match(exterior_derivative, [dM], (3,), 3)
        assert_members_match(covariant_constancy, [[G] * 3, M, dM], (3, 2, 3), 3)
        assert_members_match(nijenhuis, [J, dJ], (2, 3), 3)
        assert_members_match(d_nabla_endo, [[G] * 3, J, dJ], (3, 2, 3), 3)


def test_checks_on_a_stack_report_the_worst_single_point():
    """Each report of the two suite entry points, over N points, carries the
    worst of its N single-point residuals, on non-constant hand-built fields:
    the hypersymplectic battery on a hand-built triple, and the special-Kahler
    checks with a non-flat symmetric and a non-flat asymmetric connection."""
    checks = [(hand_built_reports, MODEL.total_chart)] + [
        (lambda pt, christoffel=christoffel: special_kahler_reports(christoffel, pt), PLANE)
        for christoffel in (symmetric_christoffel, asymmetric_christoffel)
    ]
    failed = set()
    for check, chart in checks:
        stacked = chart.sample(7, 22)
        rows = [Point(chart, pt.coords[None]) for pt in stacked]
        singles = [check(row) for row in rows]
        for name, report in check(stacked).items():
            assert report.max_residual == max(s[name].max_residual for s in singles), name
            assert report.passed == all(s[name].passed for s in singles), name
            assert report.n_points == 7 and all(s[name].n_points == 1 for s in singles)
            if not report.passed:
                failed.add(name)
    # every family the wrappers used to cover fails somewhere in these fixtures
    assert {
        "hypersymplectic.closed.chi",
        "hypersymplectic.nondegenerate.sigma",
        "hypersymplectic.nijenhuis.J_chi",
        "special_kahler.connection_flat",
        "special_kahler.connection_torsion_free",
        "special_kahler.squares_to_minus_identity",
    } <= failed


def test_nijenhuis_vanishes_for_constant_structures():
    """A constant J has an exactly zero table, unbatched like J itself."""
    J = EndomorphismField.constant(SPACE, np.random.default_rng(2).uniform(-1, 1, (4, 4)))
    for pt in (SPACE.point([0.2, -0.6, 0.1, 0.9]), SPACE.sample(7, 2)):
        table = nijenhuis(J.matrix(pt), J.gradient(pt))
        assert table.shape == (4, 4, 4)
        assert np.max(np.abs(table)) == 0.0


def test_nijenhuis_detects_non_integrable_structure():
    """J maps e1 -> e2, e2 -> -e1, e3 -> x2 e1 + e4, e4 -> -x2 e2 - e3.

    This squares to minus the identity everywhere, yet N_J(e3, e4) = x2 e1,
    so integrability genuinely fails away from {x2 = 0}.
    """

    def matrix(pt):
        x2 = pt.coords[..., 1]
        M = np.zeros(pt.batch_shape + (4, 4))
        M[..., 0, 1], M[..., 1, 0], M[..., 2, 3], M[..., 3, 2] = -1.0, 1.0, -1.0, 1.0
        M[..., 0, 2], M[..., 1, 3] = x2, -x2
        return M

    J = EndomorphismField(SPACE, matrix)
    pt = SPACE.point([0.1, 0.7, -0.2, 0.3])
    assert np.allclose(J.matrix(pt) @ J.matrix(pt), -np.eye(4), atol=1e-14)
    table = nijenhuis(J.matrix(pt), J.gradient(pt))
    assert np.allclose(table[:, 2, 3], [0.7, 0.0, 0.0, 0.0], atol=1e-8)
    assert np.array_equal(table, -np.swapaxes(table, -1, -2))
    # almost complex everywhere, just not integrable
    assert almost_complex_residual(J.matrix(SPACE.sample(20, 3))) <= 1e-12


def test_closedness_check_pass_and_fail():
    """Through verify_hypersymplectic: the non-constant (1 + x^2) dp^dx + dq^dy
    is closed, (1 + q) dx^dy - dp^dq has d = dq^dx^dy."""
    reports = hand_built_reports(MODEL.total_chart.sample(10, 4))
    closed = reports["hypersymplectic.closed.omega"]
    assert closed.passed and closed.max_residual <= 1e-12
    assert closed.statement == "d(omega) = 0 on the coordinate frame"
    not_closed = reports["hypersymplectic.closed.chi"]
    assert not not_closed.passed
    assert not_closed.max_residual == pytest.approx(1.0, abs=1e-8)


def test_nondegeneracy_check_slack_sign():
    """The report is the signed slack floor - min |det|: negative for the
    nondegenerate forms, the floor itself for the degenerate dq^dx."""
    reports = hand_built_reports(MODEL.total_chart.sample(10, 5))
    for name in ("omega", "chi"):
        report = reports[f"hypersymplectic.nondegenerate.{name}"]
        assert report.passed and report.max_residual <= 0.0 and report.tolerance == 0.0
    degenerate = reports["hypersymplectic.nondegenerate.sigma"]
    assert not degenerate.passed
    assert degenerate.max_residual == 1e-8
    assert degenerate.statement == (
        "|det| of the sigma matrix stays above 1e-08 (minimum seen: 0)"
    )


def test_almost_complex_check_fails_for_involutions():
    """The identity, passed as the third complex structure next to the model's
    first two, commutes with both (J Id + Id J = 2 J), is not their covector
    composite (the composite has a zero diagonal) and maps each coframe pair
    to itself (|a + b| + |b - a| = 2 sqrt 2 for unit a, b)."""
    identity = HAND_BUILT_COMPLEXES.J_sigma
    complexes = HyperComplexTriple(_STANDARD.J_omega, _STANDARD.J_chi, identity)
    reports = verify_hypersymplectic(MODEL, pt=MODEL.total_chart.sample(5, 7), complexes=complexes)
    failed = {r.identity_name: r.max_residual for r in reports if not r.passed}
    assert failed == {
        "hypersymplectic.anticommute.J_omega_J_sigma": 2.0,
        "hypersymplectic.anticommute.J_chi_J_sigma": 2.0,
        "hypersymplectic.composition.sigma_from_omega_chi": 1.0,
        "hypersymplectic.holomorphic_frame.J_sigma": pytest.approx(2.0 * np.sqrt(2.0)),
    }


def test_complex_structures_are_derived_only_from_constant_forms():
    """Without ``complexes`` the battery derives the J's from the triple it is
    given; the hand-built forms vary, so no constant J can be read off them."""
    with pytest.raises(ValueError, match="needs constant forms"):
        verify_hypersymplectic(MODEL, pt=MODEL.total_chart.sample(5, 7), triple=HAND_BUILT_TRIPLE)


def test_a_degenerate_form_stops_the_battery():
    """A degenerate omega or chi (dx^dy alone, |det| = 0 everywhere), the
    two base forms of the recursion pairs, reaches the recursion guard of the
    battery, with complex structures given so that none is derived from it."""
    degenerate = total_form({(0, 1): lambda pt: 1.0}, "degenerate")
    message = r"recursion operator needs a nondegenerate base form; \|det\| = 0\.000e\+00"
    for member in ("omega", "chi"):
        triple = dataclasses.replace(HAND_BUILT_TRIPLE, **{member: degenerate})
        with pytest.raises(DegenerateFormError, match=message):
            verify_hypersymplectic(
                MODEL,
                pt=MODEL.total_chart.sample(5, 7),
                triple=triple,
                complexes=HAND_BUILT_COMPLEXES,
            )


def test_connection_checks_fail_through_the_special_kahler_suite():
    """A torsion-free but curved connection fails flatness and passes torsion;
    Gamma^u_uv = u (asymmetric) fails torsion with residual max |u|."""
    pts = PLANE.sample(10, 8)
    symmetric = special_kahler_reports(symmetric_christoffel, pts)
    assert symmetric["special_kahler.connection_torsion_free"].passed
    assert not symmetric["special_kahler.connection_flat"].passed
    asymmetric = special_kahler_reports(asymmetric_christoffel, pts)
    torsion = asymmetric["special_kahler.connection_torsion_free"]
    assert not torsion.passed
    assert torsion.max_residual == np.max(np.abs(pts.coords[:, 0]))


def counted(fn, shapes):
    """``fn`` as an evaluator that records the batch shape of every point it reads."""

    def evaluate(pt):
        shapes.append(pt.batch_shape)
        return fn(pt)

    return evaluate


def run_derivative_consumers(form, J, conn, pt):
    """Every primitive that differentiates a field, once each."""
    exterior_derivative(form.gradient(pt))
    covariant_constancy(conn.gamma(pt), form_matrix(form, pt), form.gradient(pt))
    nijenhuis(J.matrix(pt), J.gradient(pt))
    d_nabla_endo(conn.gamma(pt), J.matrix(pt), J.gradient(pt))
    conn.curvature_residual(pt)


def test_constant_fields_are_never_evaluated_on_a_stencil_stack():
    """Forms, complex structures and connections built as constants carry
    their exact derivative, so no primitive evaluates them off the sample."""
    shapes: list = []
    rng = np.random.default_rng(31)
    upper = np.triu(rng.normal(size=(4, 4)), 1)
    form = DifferentialForm.constant(SPACE, upper - upper.T)
    J = EndomorphismField.constant(SPACE, rng.normal(size=(4, 4)))
    conn = FlatConnection.zero(SPACE)
    form = dataclasses.replace(form, fn=counted(form.fn, shapes))
    J = dataclasses.replace(J, fn=counted(J.fn, shapes))
    conn = dataclasses.replace(conn, fn=counted(conn.fn, shapes))
    pt = SPACE.sample(40, 6)
    run_derivative_consumers(form, J, conn, pt)
    assert shapes and set(shapes) == {(40,)}


def test_hand_built_fields_are_still_differenced_on_the_stencil():
    """A field without an exact derivative goes through ``stencil``: each
    primitive reads it once on the whole (2, dim, N) stack."""
    shapes: list = []

    def christoffel(pt):
        G = np.zeros(pt.batch_shape + (4, 4, 4))
        G[..., 0, 1, 1] = pt.coords[..., 0]
        return G

    def form_fn(pt):
        M = np.zeros(pt.batch_shape + (4, 4))
        M[..., 0, 1] = 1.0 + pt.coords[..., 2] ** 2
        return M - np.swapaxes(M, -1, -2)

    def J_fn(pt):
        return np.eye(4) * pt.coords[..., :1, None]

    form = DifferentialForm(SPACE, counted(form_fn, shapes))
    J = EndomorphismField(SPACE, counted(J_fn, shapes))
    conn = FlatConnection(SPACE, counted(christoffel, shapes))
    pt = SPACE.sample(40, 6)
    run_derivative_consumers(form, J, conn, pt)
    # exterior_derivative, covariant_constancy (form); nijenhuis, d_nabla_endo (J);
    # curvature_residual (Gamma)
    assert shapes.count((2, 4, 40)) == 5


def per_l_curvature(G, dG):
    """max |R^l_kij| formed one upper index l at a time."""
    worst = 0.0
    for l in range(G.shape[-1]):
        dG_l, G_l = dG[..., l, :, :, :], G[..., l, :, :]
        R = np.einsum("...jki->...kij", dG_l) - np.einsum("...ikj->...kij", dG_l)
        R += np.einsum("...im,...mjk->...kij", G_l, G)
        R -= np.einsum("...jm,...mik->...kij", G_l, G)
        worst = max(worst, float(np.max(np.abs(R))))
    return worst


def test_one_pass_curvature_of_a_constant_connection():
    """A constant, symmetric, nonzero Gamma is torsion-free but curved: the
    one-pass curvature equals the per-index formula, and the special-Kahler
    suite fails its flatness check.  The one-pass curvature also equals the
    per-index formula on a point-dependent Gamma, differenced by the stencil,
    and on a linear Gamma whose exact derivative table has no point axes."""
    rng = np.random.default_rng(17)
    G = rng.uniform(-1, 1, (2, 2, 2))
    G = G + np.swapaxes(G, -1, -2)
    conn = FlatConnection(PLANE, lambda pt: G)
    pts = PLANE.sample(10, 3)
    residual = conn.curvature_residual(pts)
    assert residual == per_l_curvature(G, np.zeros((2, 2, 2, 2))) > 0.1
    Omega = DifferentialForm.constant(PLANE, [[0.0, 1.0], [-1.0, 0.0]])
    I = EndomorphismField.constant(PLANE, [[0.0, -1.0], [1.0, 0.0]])
    reports = {
        r.identity_name: r
        for r in special_symplectic_check(SpecialKahlerData(Omega, I, conn), pts)
    }
    flat = reports["special_kahler.connection_flat"]
    assert not flat.passed and flat.max_residual == residual
    assert reports["special_kahler.connection_torsion_free"].passed
    A, B = (S + np.swapaxes(S, -1, -2) for S in rng.uniform(-1, 1, (2, 2, 2, 2)))

    def christoffel(pt):
        u, v = (pt.coords[..., k, None, None, None] for k in range(2))
        return G + A * u**2 + B * v

    varying = FlatConnection(PLANE, christoffel)
    Gv, dGv = varying.gamma(pts), varying.gradient(pts)
    assert dGv.shape == (10, 2, 2, 2, 2)
    u = pts.coords[:, 0, None, None, None]
    assert np.allclose(dGv[..., 0], 2 * A * u, atol=1e-8) and np.allclose(dGv[..., 1], B, atol=1e-8)
    assert varying.curvature_residual(pts) == per_l_curvature(Gv, dGv) > 0.1
    # a Gamma linear in u, with its exact derivative: a table without point axes
    dA = np.zeros((2, 2, 2, 2))
    dA[..., 0] = A
    linear = FlatConnection(
        PLANE, lambda pt: pt.coords[..., 0, None, None, None] * A, "linear", lambda pt: dA
    )
    linear_residual = linear.curvature_residual(pts)
    assert linear_residual == per_l_curvature(linear.gamma(pts), np.broadcast_to(dA, dGv.shape))
    assert linear_residual == max(linear.curvature_residual(pt) for pt in pts) > 0.1
