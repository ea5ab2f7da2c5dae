"""Witnesses that fail identities no other test makes fail: a perturbed
fixture, built through public constructors, fails exactly the identity it
targets, and the unperturbed fixture passes it."""

import numpy as np
import pytest

from hypersymplectic.calculus import DifferentialForm, EndomorphismField, form_matrix
from hypersymplectic.fibration import (
    HyperComplexTriple,
    HyperSymplecticTriple,
    base_symplectic_form,
    build_complex_triple,
    build_structure_triple,
    make_model,
    verify_hypersymplectic,
)
from hypersymplectic.special_kahler import SpecialKahlerData, kahler_reports


def origin(chart):
    return chart.point(np.zeros(chart.dim))


def failed(reports):
    return {r.identity_name: r.max_residual for r in reports if not r.passed}


@pytest.mark.parametrize("n", [1, 2])
def test_negated_j_sigma_fails_only_the_composition(n):
    """-J_sigma still squares to -Id and anticommutes with J_omega and J_chi,
    but it is not their covector composite."""
    model = make_model(n)
    chart = model.total_chart
    standard = build_complex_triple(model)
    negated = HyperComplexTriple(
        J_omega=standard.J_omega,
        J_chi=standard.J_chi,
        J_sigma=EndomorphismField.constant(
            chart, -standard.J_sigma.matrix(origin(chart)), name="J_sigma"
        ),
    )
    assert failed(verify_hypersymplectic(model, complexes=standard)) == {}
    assert failed(verify_hypersymplectic(model, complexes=negated)) == {
        "hypersymplectic.composition.sigma_from_omega_chi": 2.0
    }


@pytest.mark.parametrize("n", [1, 2])
def test_doubled_chi_fails_only_the_recursion_squares_through_chi(n):
    """With the model's complex structures held fixed, 2 chi is still closed
    and nondegenerate, but R(omega, 2 chi) = 2 R squares to -4 Id and
    R(2 chi, sigma) = R / 2 to -Id / 4; R(omega, sigma) is untouched."""
    model = make_model(n)
    triple = build_structure_triple(model)
    chi = 2.0 * form_matrix(triple.chi, origin(model.total_chart))
    doubled = HyperSymplecticTriple(
        omega=triple.omega,
        chi=DifferentialForm.constant(model.total_chart, chi, name="chi"),
        sigma=triple.sigma,
    )
    complexes = build_complex_triple(model)
    reports = verify_hypersymplectic(model, triple=doubled, complexes=complexes)
    assert failed(reports) == {
        "hypersymplectic.recursion_squares.omega_chi": 3.0,
        "hypersymplectic.recursion_squares.chi_sigma": 0.75,
    }


def test_stretched_complex_structure_fails_only_base_form_invariance():
    """I = 2 [[0, -1], [1, 0]] gives the symmetric, definite g = 2 Id, but
    Omega(I., I.) = 4 Omega."""
    model = make_model(1)
    data = SpecialKahlerData(
        Omega=base_symplectic_form(model),
        I=EndomorphismField.constant(model.base_chart, [[0.0, -2.0], [2.0, 0.0]], name="I"),
        connection=model.connection,
    )
    pt = model.base_chart.sample(10, 3)
    assert failed(kahler_reports(data, pt)) == {"special_kahler.base_form_invariant": 3.0}
    rotation = SpecialKahlerData(
        data.Omega,
        EndomorphismField.constant(model.base_chart, [[0.0, -1.0], [1.0, 0.0]], name="I"),
        model.connection,
    )
    assert failed(kahler_reports(rotation, pt)) == {}
