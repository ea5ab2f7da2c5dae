"""Action-angle variables for products of 1-DOF harmonic oscillators.

State layout for an m-factor product is (xi_1..xi_m, pi_1..pi_m).  Each
factor has H = (pi^2 + nu^2 xi^2)/2; on the level curve of energy E the
closed-form action is E/nu and the angle atan2(nu xi, pi) advances at rate nu
under the flow.  The quadrature routines below recover these facts
numerically (Gauss-Legendre along the parametrized level curve) so they can
serve as oracles for the closed forms rather than restatements of them.

Every factor's orbit through a state has its own size: amplitude
sqrt(2E)/nu along xi and sqrt(2E) along pi.  The transform's FD Jacobian
steps each axis by ``RELATIVE_STEP`` times that amplitude, and the round trip
measures each axis's error in it, and the quadrature action is compared
with E/nu relative to E/nu, so none depends on the units of the
frequencies, nor on the step of any chart.

A product with an even number of factors doubles as a fibration model: the
first half of the actions become the x-coordinates and the second half the
y-coordinates, with action windows obtained from ``ENERGY_WINDOW`` factor by
factor.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateOrbitError
from .fibration import FibrationModel, make_model
from .structures import QUADRATURE_TOL, CheckReport, Tolerances

TWO_PI = 2.0 * math.pi
MIN_QUADRATURE_NODES = 16
ENERGY_WINDOW = (0.2, 2.0)
RELATIVE_STEP = 1e-6


@functools.lru_cache(maxsize=8)
def _loop_quadrature(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre parameters t on one turn [0, 2pi] and their weights,
    computed once per count and shared read-only."""
    if nodes < MIN_QUADRATURE_NODES:
        raise ValueError(f"need at least {MIN_QUADRATURE_NODES} nodes, got {nodes}")
    u, w = np.polynomial.legendre.leggauss(nodes)
    t = math.pi * (u + 1.0)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


@dataclass(frozen=True)
class Oscillator1DOF:
    """One factor, or several when ``frequency`` is an array; its methods
    take scalars or arrays and broadcast them against the frequency."""

    frequency: float | np.ndarray

    def __post_init__(self) -> None:
        if not np.all(np.asarray(self.frequency) > 0):  # NaN fails the comparison too
            raise ValueError(f"frequency must be positive, got {self.frequency}")

    def hamiltonian(self, xi, pi):
        return 0.5 * (pi * pi + self.frequency**2 * xi * xi)

    def level_curve(self, energy, t) -> tuple[np.ndarray, np.ndarray]:
        """Point on the energy-E orbit at angle t (the parameter IS the angle)."""
        energy = np.asarray(energy, dtype=float)
        if np.any(energy <= 0):
            raise DegenerateOrbitError(
                f"no closed orbit at energy {np.min(energy)}; need a positive energy level"
            )
        r = np.sqrt(2.0 * energy)
        return r / self.frequency * np.sin(t), r * np.cos(t)

    def level_velocity(self, energy, t) -> tuple[np.ndarray, np.ndarray]:
        """d(xi, pi)/dt along ``level_curve`` at parameter t."""
        r = np.sqrt(2.0 * np.asarray(energy, dtype=float))
        return r / self.frequency * np.cos(t), -r * np.sin(t)

    def angle_gradient(self, xi, pi) -> tuple[np.ndarray, np.ndarray]:
        """d(angle) as a covector at (xi, pi); undefined at the equilibrium."""
        denom = pi * pi + self.frequency**2 * xi * xi
        if np.any(denom <= 0):
            raise DegenerateOrbitError("angle gradient undefined at the equilibrium")
        return self.frequency * pi / denom, -self.frequency * xi / denom


def _angle_turns(osc: Oscillator1DOF, energy, t, w, moving=True) -> np.ndarray:
    """(1/2pi) * quadrature of d(angle) applied to the orbit velocity over the
    last axis of t; where ``moving`` is False the factor sits at t with zero
    velocity."""
    gxi, gpi = osc.angle_gradient(*osc.level_curve(energy, t))
    vel_xi, vel_pi = osc.level_velocity(energy, t)
    rate = gxi * (moving * vel_xi) + gpi * (moving * vel_pi)
    return np.sum(w * rate, axis=-1) * math.pi / TWO_PI


def action_from_energy(osc: Oscillator1DOF, energy, nodes: int = 64):
    """(1/2pi) * loop integral of pi d(xi) over the level curve, by quadrature;
    one value per energy of a scalar or an array."""
    t, w = _loop_quadrature(nodes)
    energy = np.asarray(energy, dtype=float)[..., None]
    _, momentum = osc.level_curve(energy, t)
    velocity, _ = osc.level_velocity(energy, t)
    return (np.sum(w * momentum * velocity, axis=-1) * math.pi / TWO_PI)[()]


def angle_period_check(osc: Oscillator1DOF, energy, nodes: int = 128):
    """|(1/2pi) * loop integral of d(angle) - 1| over the level curve, one
    value per energy of a scalar or an array."""
    t, w = _loop_quadrature(nodes)
    turns = _angle_turns(osc, np.asarray(energy, dtype=float)[..., None], t, w)
    return np.abs(turns - 1.0)[()]


@dataclass(frozen=True)
class ProductSystem:
    oscillators: tuple[Oscillator1DOF, ...]

    def __post_init__(self) -> None:
        count = len(self.oscillators)
        if count < 2 or count % 2 != 0:
            raise ValueError(
                f"a product system needs an even number (>= 2) of factors, got {count}"
            )

    @classmethod
    def from_frequencies(cls, frequencies) -> "ProductSystem":
        return cls(tuple(Oscillator1DOF(float(f)) for f in frequencies))

    @property
    def dof(self) -> int:
        return len(self.oscillators)

    def split_state(self, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positions and momenta of one state ``(2 dof,)`` or a stack ``(..., 2 dof)``."""
        state = np.asarray(state, dtype=float)
        if state.shape[-1:] != (2 * self.dof,):
            raise ValueError(
                f"state must have shape (..., {2 * self.dof}), got {state.shape}"
            )
        return state[..., : self.dof], state[..., self.dof :]

    @property
    def frequencies(self) -> np.ndarray:
        return np.array([osc.frequency for osc in self.oscillators])


def to_action_angle(sys: ProductSystem, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Actions and angles, each of shape ``(..., dof)``, of one state or a stack."""
    xi, pi = sys.split_state(state)
    nu = sys.frequencies
    energy = 0.5 * (pi * pi + nu**2 * xi * xi)
    if np.any(energy <= 0):
        k = int(np.argmax(np.any(energy <= 0, axis=tuple(range(energy.ndim - 1)))))
        raise DegenerateOrbitError(
            f"factor {k} sits at the equilibrium; action-angle chart undefined"
        )
    return energy / nu, np.arctan2(nu * xi, pi) % TWO_PI


def from_action_angle(
    sys: ProductSystem, actions: np.ndarray, angles: np.ndarray
) -> np.ndarray:
    """States ``(..., 2 dof)`` from actions and angles of shape ``(..., dof)``."""
    actions = np.asarray(actions, dtype=float)
    angles = np.asarray(angles, dtype=float)
    if actions.shape[-1:] != (sys.dof,) or angles.shape != actions.shape:
        raise ValueError(f"expected {sys.dof} actions and angles")
    if np.any(actions <= 0):
        raise DegenerateOrbitError("actions must be positive away from the equilibrium")
    nu = sys.frequencies
    xi = np.sqrt(2.0 * actions / nu) * np.sin(angles)
    pi = np.sqrt(2.0 * actions * nu) * np.cos(angles)
    return np.concatenate([xi, pi], axis=-1)


def _wrap_angle_difference(delta: np.ndarray) -> np.ndarray:
    return (delta + math.pi) % TWO_PI - math.pi


def _orbit_scale(sys: ProductSystem, state: np.ndarray) -> np.ndarray:
    """Amplitude of each factor's orbit through ``state`` along each axis,
    sqrt(2E)/nu on xi and sqrt(2E) on pi, in the state's shape."""
    xi, pi = sys.split_state(state)
    nu = sys.frequencies
    amplitude = np.sqrt(pi * pi + nu**2 * xi * xi)
    return np.concatenate([amplitude / nu, amplitude], axis=-1)


def transform_jacobian(sys: ProductSystem, state: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of state -> (actions, angles), shape
    ``(..., 2 dof, 2 dof)`` for one state or a stack.

    Axis j is stepped by ``RELATIVE_STEP * _orbit_scale(sys, state)[..., j]``.
    The 2 * 2 dof bumped copies of ``state`` go through one
    ``to_action_angle`` call; the minus bump is formed as (x + step) - 2 step.
    Angle rows use wrapped differences so the branch cut of the angle chart
    does not poison the derivative.
    """
    state = np.asarray(state, dtype=float)
    step = np.moveaxis(RELATIVE_STEP * _orbit_scale(sys, state), -1, 0)  # [j, ...]
    axes = np.arange(2 * sys.dof)
    bumped = np.broadcast_to(state, (2, axes.size) + state.shape).copy()
    bumped[:, axes, ..., axes] += step[:, None]
    bumped[1, axes, ..., axes] -= 2.0 * step
    actions, angles = to_action_angle(sys, bumped)  # [sign, j, ..., k] at bump j
    width = 2.0 * step[..., None]
    jac = np.empty(state.shape[:-1] + (axes.size, axes.size))
    jac[..., : sys.dof, :] = np.moveaxis((actions[0] - actions[1]) / width, 0, -1)
    jac[..., sys.dof :, :] = np.moveaxis(
        _wrap_angle_difference(angles[0] - angles[1]) / width, 0, -1
    )
    return jac


def sample_states(sys: ProductSystem, n_points: int = 100, seed: int = 42) -> np.ndarray:
    """Seeded states, one row each, with per-factor energies inside
    ``ENERGY_WINDOW``.

    Each row draws its dof energies, then its dof angles, from one stream.
    """
    lo, hi = ENERGY_WINDOW
    rng = np.random.default_rng(seed)
    draws = rng.uniform([[lo], [0.0]], [[hi], [TWO_PI]], size=(n_points, 2, sys.dof))
    energies, angles = draws[:, 0], draws[:, 1]
    return from_action_angle(sys, energies / sys.frequencies, angles)


def round_trip_residual(sys: ProductSystem, states) -> float:
    """Worst |rebuilt - state| of the round trip through action-angle
    coordinates, each axis measured in units of the orbit's amplitude along it."""
    states = np.asarray(states, dtype=float)
    rebuilt = from_action_angle(sys, *to_action_angle(sys, states))
    return float(np.max(np.abs(rebuilt - states) / _orbit_scale(sys, states)))


def canonical_check(
    sys: ProductSystem,
    n_points: int = 100,
    seed: int = 42,
    tolerance: float = Tolerances.fd,
    *,
    states: np.ndarray | None = None,
) -> CheckReport:
    """Pull sum d(angle_k) ^ d(action_k) back through the transform and compare
    with sum d(xi_k) ^ d(pi_k) on the mechanical side, at ``states`` when the
    caller already drew ``sample_states(sys, n_points, seed)``, else at a
    fresh draw of them."""
    m = sys.dof
    target = np.zeros((2 * m, 2 * m))
    mechanical = np.zeros((2 * m, 2 * m))
    for k in range(m):
        target[k, m + k] = -1.0  # (d angle ^ d action)(e_action, e_angle) = -1
        target[m + k, k] = 1.0
        mechanical[k, m + k] = 1.0
        mechanical[m + k, k] = -1.0
    if states is None:
        states = sample_states(sys, n_points, seed)
    jac = transform_jacobian(sys, states)
    pulled = np.swapaxes(jac, -1, -2) @ target @ jac
    worst = float(np.max(np.abs(pulled - mechanical)))
    return CheckReport.from_residual(
        "action_angle.canonical_transform",
        len(states),
        worst,
        tolerance,
        statement=(
            "the action-angle map pulls the angle-action symplectic form back to "
            "the mechanical one"
        ),
    )


def angle_cycle_matrix(sys: ProductSystem, energies, nodes: int = 64) -> np.ndarray:
    """Period matrix (1/2pi) * integral of d(angle_i) over cycle_j.

    Cycle j runs factor j once around its level curve while each other
    factor i sits parked at angle 0.3 (i + 1) of its own curve; the result
    should be the identity, and the off-diagonal zeros fall out of the
    quadrature rather than being assumed.
    """
    energies = np.asarray(energies, dtype=float)
    if energies.shape != (sys.dof,):
        raise ValueError(f"need one energy per factor, got shape {energies.shape}")
    t, w = _loop_quadrature(nodes)
    factors = np.arange(sys.dof)[:, None, None]  # [i, j, node]
    moving = factors == np.arange(sys.dof)[:, None]  # cycle j moves factor i only when j == i
    times = np.where(moving, t, 0.3 * (factors + 1))
    osc = Oscillator1DOF(sys.frequencies[:, None, None])
    return _angle_turns(osc, energies[:, None, None], times, w, moving)


def model_from_product_system(
    sys: ProductSystem, name: str = "oscillator-model", fd_step: float | None = None
) -> FibrationModel:
    """Fibration model over the action box of the product system.

    The first half of the factors supply the x-coordinates and the second
    half the y-coordinates; each action window is ``ENERGY_WINDOW`` divided
    by that factor's frequency.  ``fd_step`` is the charts' step, as for
    ``make_model``.
    """
    lo, hi = ENERGY_WINDOW
    bounds = [
        (lo / osc.frequency, hi / osc.frequency) for osc in sys.oscillators
    ]
    return make_model(sys.dof // 2, action_bounds=bounds, name=name, fd_step=fd_step)


def verify_action_angle(
    sys: ProductSystem,
    n_points: int = 100,
    seed: int = 42,
    tolerances: Tolerances = Tolerances(),
) -> list[CheckReport]:
    """The full oscillator battery as a sorted list of reports: the quadrature
    oracles held to ``QUADRATURE_TOL``, the round trip and the canonical
    transform to their entries of ``tolerances``."""
    nu = sys.frequencies[:, None]  # [factor, energy]
    oscillators = Oscillator1DOF(nu[..., None])  # [factor, energy, node]
    energies = np.array([0.2, 0.5, 1.0, 2.0])
    expected = energies / nu
    worst = np.max(np.abs(action_from_energy(oscillators, energies) - expected) / expected)
    reports = [
        CheckReport.from_residual(
            "action_angle.action_equals_energy_over_frequency",
            len(energies) * sys.dof,
            worst,
            QUADRATURE_TOL,
            statement="quadrature of the action integral matches energy / frequency, "
            "relative to energy / frequency",
        )
    ]

    energies = np.array([0.5, 1.0])
    worst = np.max(angle_period_check(oscillators, energies))
    reports.append(
        CheckReport.from_residual(
            "action_angle.angle_normalization",
            len(energies) * sys.dof,
            worst,
            QUADRATURE_TOL,
            statement="the angle advances by exactly one turn around each level curve",
        )
    )

    cycle_energies = np.linspace(0.4, 1.6, sys.dof)
    residual = float(
        np.max(np.abs(angle_cycle_matrix(sys, cycle_energies) - np.eye(sys.dof)))
    )
    reports.append(
        CheckReport.from_residual(
            "action_angle.cycle_matrix_identity",
            sys.dof,
            residual,
            QUADRATURE_TOL,
            statement="the period matrix of the angle differentials is the identity",
        )
    )

    states = sample_states(sys, n_points, seed)
    reports.append(
        CheckReport.from_residual(
            "action_angle.round_trip",
            n_points,
            round_trip_residual(sys, states),
            tolerances.algebraic,
            statement="to_action_angle and from_action_angle invert each other",
        )
    )

    reports.append(canonical_check(sys, n_points, seed, tolerances.fd, states=states))
    return sorted(reports, key=lambda r: r.identity_name)
