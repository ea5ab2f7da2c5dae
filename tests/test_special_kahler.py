from itertools import islice

import numpy as np
import pytest

from hypersymplectic.calculus import EndomorphismField, stencil
from hypersymplectic.charts import Point
from hypersymplectic.errors import DegenerateMetricError, NotAlmostComplexError
from hypersymplectic.fibration import (
    SectionMap,
    gradient_section,
    make_model,
    standard_sigma_section,
    zero_section,
)
from hypersymplectic.polynomials import Polynomial
from hypersymplectic.special_kahler import (
    SpecialKahlerData,
    build_special_kahler,
    induced_complex_structure,
    induced_endomorphism,
    induced_vs_restriction,
    kahler_metric,
    kahler_reports,
    signature,
    special_symplectic_check,
)
from hypersymplectic.structures import d_nabla_endo

MODEL = make_model(1)
POINTS = MODEL.base_chart.sample(25, 42)
FIRST = next(iter(POINTS))

ROTATION_I = np.array([[0.0, -1.0], [1.0, 0.0]])


def section_from(p_terms, q_terms, name):
    return SectionMap(
        MODEL,
        (Polynomial.from_terms(2, p_terms),),
        (Polynomial.from_terms(2, q_terms),),
        name=name,
    )


def test_induced_structure_of_the_rotation_section():
    rot = standard_sigma_section(MODEL)
    for pt in islice(POINTS, 5):
        assert np.array_equal(induced_complex_structure(rot, pt), ROTATION_I)
    # the finite-difference Jacobian agrees with the exact one
    fd = -rot.jacobian_fd(FIRST)[..., 2:, :]
    assert np.allclose(fd, ROTATION_I, atol=1e-9)


def test_rotation_metric_is_the_identity_with_definite_signature():
    data = build_special_kahler(MODEL, standard_sigma_section(MODEL))
    for pt in islice(POINTS, 5):
        g = data.g(pt)
        assert np.array_equal(g, np.eye(2))
        assert signature(g) == (2, 0)


def test_opposite_rotation_is_negative_definite():
    opposite = section_from([((0, 1), -1.0)], [((1, 0), 1.0)], "opposite")
    data = build_special_kahler(MODEL, opposite)
    g = data.g(FIRST)
    assert np.array_equal(g, -np.eye(2))
    assert signature(g) == (0, 2)
    reports = {r.identity_name: r for r in special_symplectic_check(data, POINTS)}
    assert all(r.passed for r in reports.values())


def test_full_report_set_for_the_rotation_section():
    data = build_special_kahler(MODEL, standard_sigma_section(MODEL))
    reports = special_symplectic_check(data, POINTS) + kahler_reports(data, POINTS)
    by_name = {r.identity_name: r for r in reports}
    assert set(by_name) == {
        "special_kahler.connection_flat",
        "special_kahler.connection_torsion_free",
        "special_kahler.base_form_parallel",
        "special_kahler.complex_structure_parallel",
        "special_kahler.squares_to_minus_identity",
        "special_kahler.metric_symmetric",
        "special_kahler.base_form_invariant",
        "special_kahler.signature_constant",
    }
    assert all(r.passed for r in by_name.values())
    assert "(+2, -0)" in by_name["special_kahler.signature_constant"].statement


def test_kahler_metric_requires_an_almost_complex_structure():
    data = build_special_kahler(MODEL, zero_section(MODEL))
    with pytest.raises(NotAlmostComplexError):
        kahler_metric(data.Omega, data.I, FIRST)


def test_signature_zero_guard():
    with pytest.raises(DegenerateMetricError):
        signature(np.zeros((2, 2)))
    with pytest.raises(DegenerateMetricError):
        signature(np.diag([1.0, 5e-11]))
    # on a stack the message names the first degenerate matrix
    with pytest.raises(DegenerateMetricError, match="5.000e-11"):
        signature(np.stack([np.eye(2), np.diag([1.0, 5e-11]), np.diag([1.0, 1e-12])]))
    assert signature(np.diag([1.0, -2e-10])) == (1, 1)


def test_curved_section_keeps_parallelism_but_loses_the_square():
    """For p = y + x^2, q = -x the induced endomorphism varies with x yet its
    exterior covariant derivative still cancels; what breaks is I^2 = -Id."""
    curved = section_from([((0, 1), 1.0), ((2, 0), 1.0)], [((1, 0), -1.0)], "curved")
    data = build_special_kahler(MODEL, curved)
    by_name = {r.identity_name: r for r in special_symplectic_check(data, POINTS)}
    assert by_name["special_kahler.complex_structure_parallel"].passed
    assert not by_name["special_kahler.squares_to_minus_identity"].passed
    assert by_name["special_kahler.squares_to_minus_identity"].max_residual > 0.1


def non_parallel_data() -> SpecialKahlerData:
    """I = [[0, -(1 + x^2)], [1/(1 + x^2), 0]] with the rotation package's Omega."""

    def matrix(pt):
        s = 1.0 + pt.coords[..., 0] ** 2
        M = np.zeros(pt.batch_shape + (2, 2))
        M[..., 0, 1], M[..., 1, 0] = -s, 1.0 / s
        return M

    base = build_special_kahler(MODEL, standard_sigma_section(MODEL))
    I = EndomorphismField(MODEL.base_chart, matrix, name="I[hand-built]")
    return SpecialKahlerData(Omega=base.Omega, I=I, connection=MODEL.connection)


def test_non_parallel_almost_complex_structure_fails_the_parallel_check():
    """With the zero connection a section-induced I always has d_nabla I = 0
    (second partials commute), so the check needs a hand-built field:
    I = [[0, -(1 + x^2)], [1/(1 + x^2), 0]] squares to -Id everywhere, yet
    d_nabla I (e_x, e_y) = (-2x, 0)."""
    data = non_parallel_data()
    I = data.I
    for pt in islice(POINTS, 5):
        table = d_nabla_endo(data.connection.gamma(pt), I.matrix(pt), I.gradient(pt))
        assert np.allclose(table[0, 1], [-2.0 * pt.coords[0], 0.0], rtol=0.0, atol=1e-9)
    by_name = {r.identity_name: r for r in special_symplectic_check(data, POINTS)}
    assert by_name["special_kahler.squares_to_minus_identity"].passed
    parallel = by_name["special_kahler.complex_structure_parallel"]
    assert not parallel.passed
    expected = max(2.0 * abs(pt.coords[0]) for pt in POINTS)
    assert parallel.max_residual == pytest.approx(expected, abs=1e-9)


def test_stacked_checks_report_the_worst_single_point():
    """On the curved section p = y + x^2, q = -x and on the non-parallel I, the
    base-geometry checks over N points report the worst single-point residual,
    and the signature and metric helpers work row for row on a stack."""
    curved = section_from([((0, 1), 1.0), ((2, 0), 1.0)], [((1, 0), -1.0)], "curved")
    stacked = Point(MODEL.base_chart, POINTS.coords[:6])
    rows = [Point(MODEL.base_chart, pt.coords[None]) for pt in stacked]
    for data in (build_special_kahler(MODEL, curved), non_parallel_data()):
        for check in (special_symplectic_check, kahler_reports):
            reports = {r.identity_name: r for r in check(data, stacked)}
            singles = [{r.identity_name: r for r in check(data, row)} for row in rows]
            for name, report in reports.items():
                worst = max(single[name].max_residual for single in singles)
                assert report.max_residual == worst, name
        pos, neg = signature(data.g(stacked))
        assert list(zip(pos, neg)) == [signature(data.g(pt)) for pt in stacked]
    invariance = kahler_metric(data.Omega, data.I, stacked)[1]
    assert invariance == max(kahler_metric(data.Omega, data.I, pt)[1] for pt in stacked)
    report = induced_vs_restriction(MODEL, curved, stacked)
    singles = [induced_vs_restriction(MODEL, curved, row) for row in rows]
    assert report.max_residual == max(r.max_residual for r in singles) > 0.1
    induced = induced_complex_structure(curved, stacked)
    for r, pt in enumerate(stacked):
        assert np.array_equal(induced[r], induced_complex_structure(curved, pt))


def test_metric_symmetry_fails_off_the_sigma_lagrangian_locus():
    tilted = section_from([((1, 0), 1.0)], [], "tilted")
    data = build_special_kahler(MODEL, tilted)
    by_name = {r.identity_name: r for r in kahler_reports(data, POINTS)}
    assert not by_name["special_kahler.metric_symmetric"].passed
    assert by_name["special_kahler.metric_symmetric"].max_residual == pytest.approx(1.0)


def test_degenerate_metric_is_reported_not_raised_on_the_suite_path():
    # p = y, q = 0 gives the symmetric but singular metric diag(0, 1)
    shear = section_from([((0, 1), 1.0)], [], "shear")
    data = build_special_kahler(MODEL, shear)
    assert np.array_equal(data.g(FIRST), np.diag([0.0, 1.0]))
    by_name = {r.identity_name: r for r in kahler_reports(data, POINTS)}
    assert by_name["special_kahler.metric_symmetric"].passed
    report = by_name["special_kahler.signature_constant"]
    assert not report.passed
    assert report.max_residual == 1.0  # as a changing signature reads, and finite
    assert "signature undefined" in report.statement


def test_induced_matches_graph_restriction():
    rot = standard_sigma_section(MODEL)
    report = induced_vs_restriction(MODEL, rot, POINTS)
    assert report.passed
    assert report.max_residual <= 1e-6


def test_restriction_check_catches_non_invariant_graphs():
    tilted = section_from([((1, 0), 1.0)], [], "tilted")
    report = induced_vs_restriction(MODEL, tilted, POINTS)
    assert not report.passed
    assert report.max_residual >= 0.5


def test_every_section_induces_I_with_its_exact_derivative():
    """zero, rotation, opposite, the curved n = 1 and n = 2 sections and a
    degree-8 section: I carries its exact derivative, minus the section's
    second derivatives, and its value is the polynomial I bit for bit.
    Central differences of I agree with that derivative, which cross-checks
    the second derivatives.  The curved I varies."""
    opposite = section_from([((0, 1), -1.0)], [((1, 0), 1.0)], "opposite")
    curved = section_from([((0, 1), 1.0), ((2, 0), 1.0)], [((1, 0), -1.0)], "curved")
    degree8 = section_from(
        [((0, 1), 1.0), ((8, 0), 0.5), ((3, 5), -1.0)], [((1, 0), -1.0), ((0, 8), 0.25)], "deg8"
    )

    def polys(*components):
        return tuple(Polynomial.from_terms(4, terms) for terms in components)

    # p = (y1 + 0.3 x1^2 x2, y2), q = (-x1, -x2 + 0.2 y1^3)
    curved2 = SectionMap(
        make_model(2),
        polys([((0, 0, 1, 0), 1.0), ((2, 1, 0, 0), 0.3)], [((0, 0, 0, 1), 1.0)]),
        polys([((1, 0, 0, 0), -1.0)], [((0, 1, 0, 0), -1.0), ((0, 0, 3, 0), 0.2)]),
        name="curved2",
    )
    rotation = standard_sigma_section(MODEL)
    for section in (zero_section(MODEL), rotation, opposite, curved, curved2, degree8):
        pt = section.model.base_chart.sample(25, 42)
        n2 = 2 * section.model.n
        I = induced_endomorphism(section)
        assert I.derivative is not None
        assert I.matrix(pt).tobytes() == induced_complex_structure(section, pt).tobytes()
        dI = I.gradient(pt)
        assert dI.tobytes() == (-section.fibre_hessian(pt)).tobytes()
        assert np.allclose(dI, stencil(I.value, pt, (n2, n2)), rtol=0.0, atol=1e-6), section.name
    for section in (curved, curved2):
        M = induced_endomorphism(section).matrix(section.model.base_chart.sample(25, 42))
        assert M.shape == (25,) + (2 * section.model.n,) * 2
        assert np.ptp(M[:, 0, 0]) > 0.5
