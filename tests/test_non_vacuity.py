"""Witnesses that fail identities no other test makes fail: a perturbed
fixture, built through public constructors, fails exactly the identity it
targets, and the unperturbed fixture passes it."""

import numpy as np
import pytest

from hypersymplectic import action_angle
from hypersymplectic.action_angle import (
    ANGLE_PERIOD,
    Oscillator1DOF,
    ProductSystem,
    verify_action_angle,
)
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


@pytest.mark.parametrize("frequencies", [[1.0, 2.0], [1.0, 0.5, 2.0, 3.0]])
def test_stretched_angles_fail_only_the_canonical_transform(frequencies, monkeypatch):
    """Angles read as 1.001 theta: the map stays a bijection onto its image and
    still inverts through the matching inverse, but it scales the pulled-back
    form by 1.001, so the canonical check fails and every other check passes."""
    system = ProductSystem(frequencies)
    assert failed(verify_action_angle(system)) == {}
    exact_to, exact_from = action_angle.to_action_angle, action_angle.from_action_angle

    def stretched_to(sys, state):
        actions, angles = exact_to(sys, state)
        return actions, 1.001 * angles

    def stretched_from(sys, actions, angles):
        return exact_from(sys, actions, angles / 1.001)

    monkeypatch.setattr(action_angle, "to_action_angle", stretched_to)
    monkeypatch.setattr(action_angle, "from_action_angle", stretched_from)
    mutated = failed(verify_action_angle(system))
    assert list(mutated) == ["action_angle.canonical_transform"]
    assert mutated["action_angle.canonical_transform"] == pytest.approx(1e-3, rel=1e-3)


def scaled(method, factor):
    """``method`` with each returned array multiplied by ``factor``."""

    def wrapper(self, *args):
        return tuple(factor * part for part in method(self, *args))

    return wrapper


@pytest.mark.parametrize("frequencies", [[1.0, 2.0], [1.0, 0.5, 2.0, 3.0]])
def test_dilated_level_curve_fails_only_the_action_oracle(frequencies, monkeypatch):
    """The level curve and its velocity dilated by 1.001 trace a loop whose
    area is 1.001^2 times E/nu, so the action oracle is off by 2.0e-3; the
    angle still turns once around it (d(angle) scales by 1/1.001, the
    velocity by 1.001), and no other check reads the level curve."""
    system = ProductSystem(frequencies)
    assert failed(verify_action_angle(system)) == {}
    monkeypatch.setattr(Oscillator1DOF, "level_curve", scaled(Oscillator1DOF.level_curve, 1.001))
    monkeypatch.setattr(
        Oscillator1DOF, "level_velocity", scaled(Oscillator1DOF.level_velocity, 1.001)
    )
    # a system keeps its oracle residuals: the mutated one is built after the patch
    mutated = failed(verify_action_angle(ProductSystem(frequencies)))
    assert list(mutated) == ["action_angle.action_equals_energy_over_frequency"]
    assert mutated["action_angle.action_equals_energy_over_frequency"] == pytest.approx(
        2.001e-3, rel=1e-9
    )


@pytest.mark.parametrize("frequencies", [[1.0, 2.0], [1.0, 0.5, 2.0, 3.0]])
def test_scaled_angle_gradient_fails_only_the_angle_oracle(frequencies, monkeypatch):
    """d(angle) scaled by 1.001 integrates to 1.001 turns around each level
    curve, so the angle oracle is off by 1.0e-3; no other check reads it."""
    system = ProductSystem(frequencies)
    assert failed(verify_action_angle(system)) == {}
    monkeypatch.setattr(
        Oscillator1DOF, "angle_gradient", scaled(Oscillator1DOF.angle_gradient, 1.001)
    )
    mutated = failed(verify_action_angle(ProductSystem(frequencies)))  # built after the patch
    assert list(mutated) == ["action_angle.angle_normalization"]
    assert mutated["action_angle.angle_normalization"] == pytest.approx(1e-3, rel=1e-9)


ORACLES = ["action_angle.action_equals_energy_over_frequency", "action_angle.angle_normalization"]


@pytest.mark.parametrize("frequencies", [[1.0, 2.0], [1.0, 0.5, 2.0, 3.0]])
def test_a_sign_flipped_angle_fails_the_transform_and_the_round_trip(frequencies, monkeypatch):
    """The angle read as atan2(-nu xi, pi) runs the other way round each
    orbit: the map is anti-canonical, so the pulled-back form is minus the
    canonical one (residual 2), and the exact inverse sends each state to
    its mirror image (round trip 2 orbit amplitudes).  The oracles read the
    level curve and d(angle), not the angle, and still pass."""
    system = ProductSystem(frequencies)
    assert failed(verify_action_angle(system)) == {}
    monkeypatch.setattr(
        Oscillator1DOF,
        "angle",
        lambda self, xi, pi: np.arctan2(-1.0 * (self.frequency * xi), pi) % ANGLE_PERIOD,
    )
    reports = {r.identity_name: r for r in verify_action_angle(ProductSystem(frequencies))}
    mutated = failed(reports.values())
    assert list(mutated) == ["action_angle.canonical_transform", "action_angle.round_trip"]
    assert mutated["action_angle.canonical_transform"] == pytest.approx(2.0, rel=1e-12)
    assert mutated["action_angle.round_trip"] == pytest.approx(2.0, rel=1e-4)
    assert all(reports[name].passed for name in ORACLES)


@pytest.mark.parametrize("frequencies", [[1.0, 2.0], [1.0, 0.5, 2.0, 3.0]])
def test_a_doubled_frequency_in_the_angle_fails_the_transform_and_the_round_trip(
    frequencies, monkeypatch
):
    """The angle read as atan2(2 nu xi, pi), the wrong frequency: the map is
    no longer canonical (residual near 1) and the exact inverse misses the
    state (round trip 0.26 orbit amplitudes).  The oracles still pass."""
    system = ProductSystem(frequencies)
    assert failed(verify_action_angle(system)) == {}
    monkeypatch.setattr(
        Oscillator1DOF,
        "angle",
        lambda self, xi, pi: np.arctan2(2.0 * self.frequency * xi, pi) % ANGLE_PERIOD,
    )
    reports = {r.identity_name: r for r in verify_action_angle(ProductSystem(frequencies))}
    mutated = failed(reports.values())
    assert list(mutated) == ["action_angle.canonical_transform", "action_angle.round_trip"]
    assert 0.99 < mutated["action_angle.canonical_transform"] < 1.0
    assert mutated["action_angle.round_trip"] == pytest.approx(0.26, abs=1e-3)
    assert all(reports[name].passed for name in ORACLES)
