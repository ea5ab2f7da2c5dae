import cProfile
import math
import pstats
import random

import numpy as np
import pytest

from hypersymplectic.action_angle import (
    Oscillator1DOF,
    ProductSystem,
    MIN_QUADRATURE_NODES,
    _loop_angles,
    action_from_energy,
    angle_period_check,
    canonical_check,
    canonical_residual,
    from_action_angle,
    model_from_product_system,
    round_trip_residual,
    sample_states,
    to_action_angle,
    transform_jacobian,
    verify_action_angle,
)
from hypersymplectic.errors import ConfigError, DegenerateOrbitError
from hypersymplectic.scenarios import ScenarioConfig, run_scenario

SYS = ProductSystem.from_frequencies([1.0, 2.0])


def test_oscillator_validation():
    with pytest.raises(ValueError):
        Oscillator1DOF(0.0)
    with pytest.raises(ValueError):
        Oscillator1DOF(-2.0)
    with pytest.raises(ValueError):
        Oscillator1DOF(math.nan)
    # an array of frequencies is rejected if any entry is
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            Oscillator1DOF(np.array([[1.0], [bad], [2.0]]))
    Oscillator1DOF(np.array([[1.0], [1e-6], [1e6]]))
    # oscillators compare and hash by identity, also over equal frequency arrays
    a, b = Oscillator1DOF(np.array([1.0, 2.0])), Oscillator1DOF(np.array([1.0, 2.0]))
    assert a == a and a != b
    assert len({a, b}) == 2


def test_level_curve_stays_on_the_energy_level():
    osc = Oscillator1DOF(3.0)
    for t in np.linspace(0.0, 2 * math.pi, 17):
        xi, pi = osc.level_curve(1.7, t)
        assert osc.hamiltonian(xi, pi) == pytest.approx(1.7, abs=1e-14)


def test_action_quadrature_matches_energy_over_frequency():
    for nu in (1.0, 2.0, 3.0):
        osc = Oscillator1DOF(nu)
        for energy in (0.2, 0.5, 1.0, 2.0):
            assert action_from_energy(osc, energy) == pytest.approx(
                energy / nu, abs=1e-8
            )


def test_action_quadrature_converges():
    osc = Oscillator1DOF(2.0)
    assert abs(
        action_from_energy(osc, 1.3, nodes=64) - action_from_energy(osc, 1.3, nodes=128)
    ) <= 1e-10


@pytest.mark.parametrize("nodes", [16, 64, 128])
def test_loop_angles_are_the_periodic_trapezoidal_rule(nodes):
    """The loop angles split one turn into ``nodes`` equal steps from 0, and
    their mean integrates every trigonometric polynomial of degree below
    ``nodes`` over the turn: (1/2pi) * integral of cos(k t) and sin(k t) is 0
    for 0 < k < nodes.  Degree ``nodes`` aliases onto the constant, so the
    rule is no better than that."""
    t = _loop_angles(nodes)
    assert t.shape == (nodes,) and t[0] == 0.0
    assert np.max(np.abs(np.diff(t) - 2 * math.pi / nodes)) <= 1e-14
    assert t[-1] + 2 * math.pi / nodes == pytest.approx(2 * math.pi, abs=1e-14)
    k = np.arange(1, nodes)[:, None]  # cos(k t) rounds by about k t eps
    assert np.max(np.abs(np.mean(np.cos(k * t), axis=-1))) <= 1e-13
    assert np.max(np.abs(np.mean(np.sin(k * t), axis=-1))) <= 1e-13
    assert np.mean(np.cos(nodes * t)) == pytest.approx(1.0, abs=1e-12)


def test_quadrature_input_guards():
    osc = Oscillator1DOF(1.0)
    with pytest.raises(DegenerateOrbitError):
        action_from_energy(osc, 0.0)
    with pytest.raises(DegenerateOrbitError):
        osc.level_curve(-1.0, 0.0)
    with pytest.raises(ValueError):
        action_from_energy(osc, 1.0, nodes=8)
    with pytest.raises(ValueError, match=f"at least {MIN_QUADRATURE_NODES} nodes"):
        _loop_angles(MIN_QUADRATURE_NODES - 1)
    with pytest.raises(DegenerateOrbitError):
        osc.angle_gradient(0.0, 0.0)
    # one non-positive energy in an array is enough
    with pytest.raises(DegenerateOrbitError):
        action_from_energy(osc, np.array([0.5, 1.0, 0.0]))
    with pytest.raises(DegenerateOrbitError):
        angle_period_check(osc, np.array([-1.0, 2.0]))
    with pytest.raises(DegenerateOrbitError):
        osc.angle_gradient(np.array([0.3, 0.0]), np.array([0.1, 0.0]))


def test_oracles_on_an_energy_array_match_scalar_calls():
    energies = np.array([0.2, 0.5, 1.0, 2.0, 3.7])
    for nu in (0.5, 1.0, 3.0):
        osc = Oscillator1DOF(nu)
        actions = action_from_energy(osc, energies)
        periods = angle_period_check(osc, energies)
        assert actions.shape == periods.shape == energies.shape
        for k, energy in enumerate(energies):
            assert actions[k] == action_from_energy(osc, float(energy))
            assert periods[k] == angle_period_check(osc, float(energy))
        assert np.ndim(action_from_energy(osc, 1.0)) == 0
        assert np.ndim(angle_period_check(osc, 1.0)) == 0


def test_angle_normalization():
    for nu in (1.0, 2.5):
        for energy in (0.3, 1.0, 2.0):
            assert angle_period_check(Oscillator1DOF(nu), energy) <= 1e-8


def test_product_system_needs_an_even_number_of_factors():
    with pytest.raises(ValueError):
        ProductSystem.from_frequencies([1.0])
    with pytest.raises(ValueError):
        ProductSystem.from_frequencies([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        SYS.split_state(np.zeros(3))


@pytest.mark.parametrize(
    "frequencies",
    [[1.0, 2.0, 3.0], [0.0, 1.0], [1.0, -1.0], [math.nan, 1.0], [1.0, math.inf], [1e-310, 1.0], [1.0, 1e160]],
    ids=["odd-count", "zero", "negative", "nan", "inf", "window-overflow", "square-overflow"],
)
def test_product_system_rejects_every_bad_frequency(frequencies):
    """Every frequency rule raises from the constructor: an even count,
    positive finite values, and nu^2, nu^-2 finite normal floats (1e-310
    would also give an infinite action window 2 / nu)."""
    with pytest.raises(ValueError):
        ProductSystem(frequencies)


def test_product_system_is_one_read_only_frequency_array():
    system = ProductSystem([1, 0.5, 2, 3])
    assert system.frequencies.dtype == float and system.frequencies.shape == (4,)
    assert system.oscillator.frequency is system.frequencies
    with pytest.raises(ValueError):
        system.frequencies[0] = 2.0
    # the smallest and largest frequencies the squares allow
    ProductSystem([1.5e-154, 6.7e153])


def test_round_trip():
    states = sample_states(SYS, 50, seed=1)
    assert round_trip_residual(SYS, states) <= 1e-12
    actions, angles = to_action_angle(SYS, states[0])
    assert np.all(actions > 0)
    assert np.all((angles >= 0) & (angles < 2 * math.pi))


def test_stacked_states_match_single_states():
    """The transforms on a stack of states return, row for row, their
    single-state values; the seeded draws are those of one state at a time."""
    system = ProductSystem.from_frequencies([1.0, 0.5, 2.0, 3.0])
    states = sample_states(system, 6, seed=8)
    rng = random.Random(8)

    def uniforms(lower, upper):
        """dof draws of the stream: the top 53 bits of each 8-byte word."""
        words = [int.from_bytes(rng.randbytes(8), "little") for _ in range(system.dof)]
        return lower + (upper - lower) * np.array([(word >> 11) / 2**53 for word in words])

    for state in states:
        energies = uniforms(0.2, 2.0)
        angles = uniforms(0.0, 2 * math.pi)
        actions = energies / system.frequencies
        assert np.array_equal(state, from_action_angle(system, actions, angles))
    # seeds are non-negative integers, numpy's among them
    assert np.array_equal(sample_states(system, 6, np.int64(8)), states)
    with pytest.raises(ValueError, match="non-negative"):
        sample_states(system, 6, -8)
    with pytest.raises(TypeError):
        sample_states(system, 6, 8.0)
    actions, angles = to_action_angle(system, states)
    rebuilt = from_action_angle(system, actions, angles)
    jac = transform_jacobian(system, states)
    for r, state in enumerate(states):
        single = to_action_angle(system, state)
        assert np.array_equal(actions[r], single[0]) and np.array_equal(angles[r], single[1])
        assert np.array_equal(rebuilt[r], from_action_angle(system, *single))
        assert np.array_equal(jac[r], transform_jacobian(system, state))
    assert round_trip_residual(system, states) == max(
        round_trip_residual(system, [state]) for state in states
    )


def closed_form_jacobian(system, states):
    """d(I, theta)/d(xi, pi) written out: with r^2 = pi^2 + nu^2 xi^2 per
    factor, dI/dxi = nu xi, dI/dpi = pi / nu, dtheta/dxi = nu pi / r^2 and
    dtheta/dpi = -nu xi / r^2, each block diagonal over the factors."""
    nu = system.frequencies
    xi, pi = system.split_state(states)
    r2 = pi * pi + nu * nu * xi * xi
    blocks = [[nu * xi, pi / nu], [nu * pi / r2, -nu * xi / r2]]
    return np.block([[b[..., None, :] * np.eye(system.dof) for b in row] for row in blocks])


def central_difference(system, state, h=1e-6):
    """The central difference of state -> (actions, angles), axis j stepped
    by h times the orbit's amplitude along it, two ``to_action_angle`` calls
    per axis, the angle differences wrapped to (-pi, pi]."""
    xi, pi = system.split_state(state)
    amplitude = np.sqrt(2.0 * system.oscillator.hamiltonian(xi, pi))
    scale = np.concatenate([amplitude / system.frequencies, amplitude], axis=-1)
    m = system.dof
    jac = np.empty(state.shape[:-1] + (2 * m, 2 * m))
    for j in range(2 * m):
        step = h * scale[..., j, None]
        plus, minus = state.copy(), state.copy()
        plus[..., j, None] += step
        minus[..., j, None] -= step
        act_plus, ang_plus = to_action_angle(system, plus)
        act_minus, ang_minus = to_action_angle(system, minus)
        width = 2.0 * step
        jac[..., :m, j] = (act_plus - act_minus) / width
        jac[..., m:, j] = ((ang_plus - ang_minus + math.pi) % (2 * math.pi) - math.pi) / width
    return jac, scale


FREQUENCIES = {
    "four": [1.0, 0.5, 2.0, 3.0],
    "1e150": [1.0, 1e150],
    "1e-150": [1e-150, 1.0],
    "both-ends": [1e150, 1e-150],
}


@pytest.mark.parametrize("frequencies", FREQUENCIES.values(), ids=FREQUENCIES.keys())
def test_transform_jacobian_matches_the_closed_form(frequencies):
    """The jet Jacobian of ``to_action_angle`` equals the closed form to a
    few rounding errors per entry, off-diagonal zeros exactly, also at the
    branch cut theta = pi and at nu = 10^+-150."""
    system = ProductSystem.from_frequencies(frequencies)
    states = sample_states(system, 40, seed=5)
    cut = from_action_angle(system, 1.3 / system.frequencies, np.full(system.dof, math.pi))
    for state in (states, cut):
        expected = closed_form_jacobian(system, state)
        jac = transform_jacobian(system, state)
        assert np.all(np.abs(jac - expected) <= 8 * np.finfo(float).eps * np.abs(expected))


@pytest.mark.parametrize("frequencies", FREQUENCIES.values(), ids=FREQUENCIES.keys())
def test_the_central_difference_agrees_within_its_error_model(frequencies):
    """In units of the orbit's amplitude s_j along axis j, the central
    difference of step h errs by at most C (h^2 M3 + eps M0 / h) per entry:
    M0 bounds the value (I for an action, 2 pi for an angle) and M3 the
    third derivative along the step (0 for the quadratic action, 2 for the
    angle, atan2 of two arguments of radius sqrt(2E) in those units);
    C = 4 covers the few roundings of each value.  The wrapped angle
    difference keeps the branch cut out of it."""
    system = ProductSystem.from_frequencies(frequencies)
    states = sample_states(system, 40, seed=9)
    cut = from_action_angle(system, 1.3 / system.frequencies, np.full(system.dof, math.pi))
    h, eps, m = 1e-6, np.finfo(float).eps, system.dof
    for state in (states, cut):
        fd, scale = central_difference(system, state, h)
        exact = transform_jacobian(system, state)
        actions, _ = to_action_angle(system, state)
        m0 = np.concatenate([actions, np.full(actions.shape, 2 * math.pi)], axis=-1)
        m3 = np.concatenate([np.zeros(m), np.full(m, 2.0)])
        bound = 4.0 * (h * h * m3 + eps * m0 / h)[..., :, None]
        error = np.abs(fd - exact) * scale[..., None, :]  # column j in units of s_j
        assert np.all(error <= bound)


def test_action_angle_chart_fails_at_the_equilibrium():
    with pytest.raises(DegenerateOrbitError):
        to_action_angle(SYS, np.zeros(4))
    with pytest.raises(DegenerateOrbitError):
        from_action_angle(SYS, np.array([1.0, 0.0]), np.zeros(2))


def test_transform_jacobian_handles_the_branch_cut():
    # angle pi is where atan2 flips sign; wrapped differences must not blow up
    state = from_action_angle(SYS, np.array([0.8, 0.6]), np.array([math.pi, math.pi]))
    jac = transform_jacobian(SYS, state)
    assert np.all(np.abs(jac) < 10.0)
    m = SYS.dof
    target = np.zeros((2 * m, 2 * m))
    mech = np.zeros((2 * m, 2 * m))
    for k in range(m):
        target[k, m + k] = -1.0
        target[m + k, k] = 1.0
        mech[k, m + k] = 1.0
        mech[m + k, k] = -1.0
    assert np.max(np.abs(jac.T @ target @ jac - mech)) <= 1e-6


def test_canonical_check_passes():
    report = canonical_check(SYS, n_points=100, seed=42)
    assert report.passed
    assert report.max_residual <= 1e-6
    assert report.n_points == 100
    # given states, the report counts them, not the n_points default
    assert canonical_check(SYS, states=sample_states(SYS, 7, 1)).n_points == 7


def test_canonical_check_detects_a_corrupted_transform():
    """The antisymmetric reading ``canonical_check`` uses still fails a
    mis-scaled transform: angle rows x 1.1 scale the pulled-back form by 1.1."""
    state = sample_states(SYS, 1, seed=3)[0]
    jac = transform_jacobian(SYS, state)
    assert canonical_residual(jac) <= 1e-6
    jac[SYS.dof :, :] *= 1.1  # mis-scaled angle rows
    assert canonical_residual(jac) >= 1e-2


@pytest.mark.parametrize(
    "frequencies", [[1.0, 0.5, 2.0, 3.0], [1.0, 1e6], [1e-6, 1.0]], ids=["four", "stiff", "soft"]
)
def test_array_oracles_match_per_factor_calls(frequencies):
    """The oracles over all factors at once equal, bit for bit, one factor at
    a time: the battery's residuals are the worst per-factor call."""
    system = ProductSystem.from_frequencies(frequencies)
    oscillators = [Oscillator1DOF(nu) for nu in system.frequencies.tolist()]
    action_energies, period_energies = np.array([0.2, 0.5, 1.0, 2.0]), np.array([0.5, 1.0])

    def relative_action_error(osc):
        exact = action_energies / osc.frequency
        return np.max(np.abs(action_from_energy(osc, action_energies) - exact) / exact)

    expected = {
        "action_angle.action_equals_energy_over_frequency": max(
            relative_action_error(osc) for osc in oscillators
        ),
        "action_angle.angle_normalization": max(
            np.max(angle_period_check(osc, period_energies)) for osc in oscillators
        ),
    }
    reports = {r.identity_name: r.max_residual for r in verify_action_angle(system, n_points=5)}
    for name, value in expected.items():
        assert reports[name] == value, name


def oracle_calls(system) -> dict:
    """How often one ``verify_action_angle`` call on ``system`` calls each
    quadrature oracle, counted by cProfile."""
    profile = cProfile.Profile()
    profile.runcall(verify_action_angle, system, n_points=5)
    counts = {key[:3]: value[1] for key, value in pstats.Stats(profile).stats.items()}
    codes = {fn.__name__: fn.__code__ for fn in (action_from_energy, angle_period_check)}
    return {
        name: counts.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        for name, code in codes.items()
    }


def test_the_oracles_run_once_per_system():
    """The oracles read the frequencies alone: a second battery on one system
    calls neither, and a fresh system with the same frequencies calls each once."""
    system = ProductSystem([1.0, 0.5, 2.0, 3.0])
    once = {"action_from_energy": 1, "angle_period_check": 1}
    assert oracle_calls(system) == once
    assert oracle_calls(system) == dict.fromkeys(once, 0)
    assert oracle_calls(ProductSystem([1.0, 0.5, 2.0, 3.0])) == once


def test_sampled_states_respect_the_energy_window():
    states = sample_states(SYS, 40, seed=6)
    energies = SYS.oscillator.hamiltonian(*SYS.split_state(states))
    assert energies.shape == (40, SYS.dof)
    assert np.all((0.2 <= energies) & (energies <= 2.0))


def test_derived_model_geometry():
    model = model_from_product_system(SYS)
    assert model.n == 1
    # first factor (nu = 1) feeds x, second (nu = 2) feeds y
    assert model.base_chart.lower == (0.2, 0.1)
    assert model.base_chart.upper == (2.0, 1.0)
    assert model.total_chart.coords == ("x", "y", "p", "q")


def test_full_oscillator_battery():
    reports = verify_action_angle(SYS, n_points=50)
    assert [r.identity_name for r in reports] == sorted(r.identity_name for r in reports)
    assert all(r.passed for r in reports)


@pytest.mark.parametrize(
    "frequencies",
    [[1.0, 1e6], [1e-6, 1.0], [1.0, 1e-7], [1.0, 1e-10], [1e-10, 1.0]],
    ids=["stiff", "soft", "slow", "slower", "slower-first"],
)
def test_extreme_frequency_ratios_pass_every_check(frequencies):
    """States scale as sqrt(2 action / nu) and actions as 1 / nu, so a step,
    a round-trip error or an action error in absolute units would fail one of
    these true theorems."""
    doc = run_scenario(
        ScenarioConfig.from_dict({"scenario": "oscillators", "frequencies": frequencies})
    )
    assert len(doc.checks) == 38
    assert [r.identity_name for r in doc.checks if not r.passed] == []
    assert doc.verdict == "pass"


@pytest.mark.parametrize(
    "nu", [1e12, 1e-12, 1e50, 1e-50, 1e100, 1e-100, 1e150, 1e-150], ids=lambda nu: f"{nu:g}"
)
@pytest.mark.parametrize("slow_first", [False, True], ids=["[1,nu]", "[nu,1]"])
def test_frequencies_across_the_float_range_pass_every_check(nu, slow_first):
    """A pair [1, nu] or [nu, 1] with nu = 10^k, |k| <= 150: every check of
    the full oscillator run passes with no numpy warning.  The pulled-back
    form's symmetric part, pure rounding of size ~ the action, would fail the
    canonical check here if it were compared."""
    frequencies = [nu, 1.0] if slow_first else [1.0, nu]
    doc = run_scenario(
        ScenarioConfig.from_dict({"scenario": "oscillators", "frequencies": frequencies})
    )
    assert len(doc.checks) == 38
    assert [r.identity_name for r in doc.checks if not r.passed] == []


@pytest.mark.parametrize("nu", [1e160, 1e-160, 1e300, 1e-300], ids=lambda nu: f"{nu:g}")
@pytest.mark.parametrize("slow_first", [False, True], ids=["[1,nu]", "[nu,1]"])
def test_frequencies_whose_square_is_not_a_normal_float_are_a_config_error(nu, slow_first):
    frequencies = [nu, 1.0] if slow_first else [1.0, nu]
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"scenario": "oscillators", "frequencies": frequencies})
