"""Action-angle variables for products of 1-DOF harmonic oscillators.

State layout for an m-factor product is (xi_1..xi_m, pi_1..pi_m).  Each
factor has H = (pi^2 + nu^2 xi^2)/2; on the level curve of energy E the
closed-form action is E/nu and the angle atan2(nu xi, pi) advances at rate nu
under the flow.  ``Oscillator1DOF`` writes the energy and the angle once, for
one frequency or an array of them, and a ``ProductSystem`` is one read-only
array of frequencies with one oscillator over it.  The quadrature routines
below recover these facts numerically, by the periodic trapezoidal rule
along the level curve parametrized by its angle, so they can serve as oracles
for the closed forms rather than restatements of them.  Each integrand is
smooth and 2pi-periodic in the angle, so the mean over equally spaced angles
converges geometrically in their number (Trefethen and Weideman, "The
exponentially convergent trapezoidal rule", SIAM Review 56, 2014).  States
are sampled from the seeded stream of ``charts.seeded_uniform``.

The frequency rules live in ``ProductSystem``: an even number (>= 2) of
finite positive frequencies, each with nu^2 and nu^-2 finite normal floats,
because every formula squares nu.  That confines nu to about
[1.5e-154, 6.7e153], which also keeps each action window ``ENERGY_WINDOW / nu``
finite and non-empty.

Every factor's orbit through a state has its own size: amplitude
sqrt(2E)/nu along xi and sqrt(2E) along pi.  The transform's FD Jacobian
steps each axis by ``RELATIVE_STEP`` times that amplitude, and the round trip
measures each axis's error in it, and the quadrature action is compared
with E/nu relative to E/nu, so none depends on the units of the
frequencies, nor on the step of any chart.  The canonical check compares
the antisymmetric part of the pulled-back form with the mechanical one: the
form is antisymmetric, and its symmetric part is rounding that grows with
the action, so a plain comparison would fail a true theorem once a
frequency lies beyond about 1e-11 or 1e11.

A product with an even number of factors doubles as a fibration model: the
first half of the actions become the x-coordinates and the second half the
y-coordinates, with action windows obtained from ``ENERGY_WINDOW`` factor by
factor.

Memoized as in ``fibration``: ``from_frequencies`` on the frequency tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .charts import DEFAULT_POINTS, DEFAULT_SEED, seeded_uniform
from .errors import DegenerateOrbitError
from .fibration import ANGLE_PERIOD, MEMO_SIZE, FibrationModel, canonical, make_model
from .structures import CheckReport, Tolerances, report

MIN_QUADRATURE_NODES = 16
ENERGY_WINDOW = (0.2, 2.0)
RELATIVE_STEP = 1e-6


def _loop_angles(nodes: int) -> np.ndarray:
    """``nodes`` equally spaced angles on one turn [0, 2pi): the nodes of the
    periodic trapezoidal rule, whose weights are all 2pi / nodes."""
    if nodes < MIN_QUADRATURE_NODES:
        raise ValueError(f"need at least {MIN_QUADRATURE_NODES} nodes, got {nodes}")
    return np.arange(nodes) * (ANGLE_PERIOD / nodes)


@dataclass(frozen=True, eq=False)  # an array frequency has no truth value for __eq__
class Oscillator1DOF:
    """One factor, or several when ``frequency`` is an array; its methods
    take scalars or arrays and broadcast them against the frequency."""

    frequency: float | np.ndarray

    def __post_init__(self) -> None:
        if not np.all(np.asarray(self.frequency) > 0):  # NaN fails the comparison too
            raise ValueError(f"frequency must be positive, got {self.frequency}")

    def hamiltonian(self, xi, pi):
        return 0.5 * (pi * pi + self.frequency**2 * xi * xi)

    def angle(self, xi, pi):
        """atan2(nu xi, pi) in [0, 2pi)."""
        return np.arctan2(self.frequency * xi, pi) % ANGLE_PERIOD

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
        denom = 2.0 * self.hamiltonian(xi, pi)
        if np.any(denom <= 0):
            raise DegenerateOrbitError("angle gradient undefined at the equilibrium")
        return self.frequency * pi / denom, -self.frequency * xi / denom


def action_from_energy(osc: Oscillator1DOF, energy, nodes: int = 64):
    """(1/2pi) * loop integral of pi d(xi) over the level curve, by quadrature;
    one value per energy of a scalar or an array."""
    t = _loop_angles(nodes)
    energy = np.asarray(energy, dtype=float)[..., None]
    _, momentum = osc.level_curve(energy, t)
    velocity, _ = osc.level_velocity(energy, t)
    return np.mean(momentum * velocity, axis=-1)[()]


def angle_period_check(osc: Oscillator1DOF, energy, nodes: int = 128):
    """|(1/2pi) * loop integral of d(angle) - 1| over the level curve, one
    value per energy of a scalar or an array."""
    t = _loop_angles(nodes)
    energy = np.asarray(energy, dtype=float)[..., None]
    gxi, gpi = osc.angle_gradient(*osc.level_curve(energy, t))
    vel_xi, vel_pi = osc.level_velocity(energy, t)
    turns = np.mean(gxi * vel_xi + gpi * vel_pi, axis=-1)
    return np.abs(turns - 1.0)[()]


@dataclass(frozen=True, eq=False)
class ProductSystem:
    """An even number of factors, one frequency each, held as one read-only
    array with one ``Oscillator1DOF`` over it; every frequency rule of the
    package is checked here (see the module docstring)."""

    frequencies: np.ndarray
    oscillator: Oscillator1DOF = field(init=False, repr=False)

    def __post_init__(self) -> None:
        nu = np.array(self.frequencies, dtype=float)
        if nu.ndim != 1 or nu.size < 2 or nu.size % 2 != 0:
            raise ValueError(
                f"a product system needs an even number (>= 2) of factors, got {nu.size}"
            )
        with np.errstate(all="ignore"):
            squares = np.stack([nu * nu, 1.0 / (nu * nu)])
        normal = (squares >= np.finfo(float).tiny) & np.isfinite(squares)
        valid = (nu > 0) & np.all(normal, axis=0)  # NaN fails every comparison
        if not np.all(valid):
            k = int(np.argmin(valid))
            raise ValueError(
                f"frequencies[{k}] = {nu[k]} must be positive with nu^2 and nu^-2 "
                "finite normal floats"
            )
        nu.flags.writeable = False
        object.__setattr__(self, "frequencies", nu)
        object.__setattr__(self, "oscillator", Oscillator1DOF(nu))

    @classmethod
    def from_frequencies(cls, frequencies) -> "ProductSystem":
        return _product_system(tuple(map(float, frequencies)))

    @property
    def dof(self) -> int:
        return self.frequencies.size

    def split_state(self, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positions and momenta of one state ``(2 dof,)`` or a stack ``(..., 2 dof)``."""
        state = np.asarray(state, dtype=float)
        if state.shape[-1:] != (2 * self.dof,):
            raise ValueError(
                f"state must have shape (..., {2 * self.dof}), got {state.shape}"
            )
        return state[..., : self.dof], state[..., self.dof :]


_product_system = lru_cache(maxsize=MEMO_SIZE)(ProductSystem)


def to_action_angle(sys: ProductSystem, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Actions and angles, each of shape ``(..., dof)``, of one state or a stack."""
    xi, pi = sys.split_state(state)
    energy = sys.oscillator.hamiltonian(xi, pi)
    if np.any(energy <= 0):
        k = int(np.argmax(np.any(energy <= 0, axis=tuple(range(energy.ndim - 1)))))
        raise DegenerateOrbitError(
            f"factor {k} sits at the equilibrium; action-angle chart undefined"
        )
    return energy / sys.frequencies, sys.oscillator.angle(xi, pi)


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
    return (delta + math.pi) % ANGLE_PERIOD - math.pi


def _orbit_scale(sys: ProductSystem, state: np.ndarray) -> np.ndarray:
    """Amplitude of each factor's orbit through ``state`` along each axis,
    sqrt(2E)/nu on xi and sqrt(2E) on pi, in the state's shape."""
    amplitude = np.sqrt(2.0 * sys.oscillator.hamiltonian(*sys.split_state(state)))
    return np.concatenate([amplitude / sys.frequencies, amplitude], axis=-1)


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


def sample_states(
    sys: ProductSystem, n_points: int = DEFAULT_POINTS, seed: int = DEFAULT_SEED
) -> np.ndarray:
    """Seeded states, one row each, with per-factor energies inside
    ``ENERGY_WINDOW``.

    Each row draws its dof energies, then its dof angles, from one stream.
    """
    lo, hi = ENERGY_WINDOW
    draws = seeded_uniform(seed, [[lo], [0.0]], [[hi], [ANGLE_PERIOD]], (n_points, 2, sys.dof))
    energies, angles = draws[:, 0], draws[:, 1]
    return from_action_angle(sys, energies / sys.frequencies, angles)


def round_trip_residual(sys: ProductSystem, states) -> float:
    """Worst |rebuilt - state| of the round trip through action-angle
    coordinates, each axis measured in units of the orbit's amplitude along it."""
    states = np.asarray(states, dtype=float)
    rebuilt = from_action_angle(sys, *to_action_angle(sys, states))
    return float(np.max(np.abs(rebuilt - states) / _orbit_scale(sys, states)))


def canonical_residual(jac: np.ndarray) -> float:
    """Worst entry of A(jac^T T jac) - mechanical over a stack of transform
    Jacobians, where T is sum d(angle_k) ^ d(action_k), the mechanical form is
    sum d(xi_k) ^ d(pi_k) = -T, and A(P) = (P - P^T) / 2.  The pulled-back
    form is antisymmetric, so its symmetric part is rounding only; it grows
    like the action and is left out."""
    target = canonical(jac.shape[-1] // 2)  # T: (d angle ^ d action)(e_action, e_angle) = -1
    pulled = np.swapaxes(jac, -1, -2) @ target @ jac
    antisymmetric = 0.5 * (pulled - np.swapaxes(pulled, -1, -2))
    return float(np.max(np.abs(antisymmetric + target)))


def canonical_check(
    sys: ProductSystem,
    n_points: int = DEFAULT_POINTS,
    seed: int = DEFAULT_SEED,
    tolerances: Tolerances = Tolerances(),
    *,
    states: np.ndarray | None = None,
) -> CheckReport:
    """Pull sum d(angle_k) ^ d(action_k) back through the transform and compare
    it with sum d(xi_k) ^ d(pi_k) on the mechanical side (``canonical_residual``),
    at ``states`` when the caller already drew ``sample_states(sys, n_points,
    seed)``, else at a fresh draw of them."""
    if states is None:
        states = sample_states(sys, n_points, seed)
    residual = canonical_residual(transform_jacobian(sys, states))
    return report("action_angle.canonical_transform", residual, len(states), tolerances)


def model_from_product_system(sys: ProductSystem, name: str = "oscillator-model") -> FibrationModel:
    """Fibration model over the action box of the product system.

    The first half of the factors supply the x-coordinates and the second
    half the y-coordinates; each action window is ``ENERGY_WINDOW`` divided
    by that factor's frequency.
    """
    lo, hi = ENERGY_WINDOW
    bounds = np.stack([lo / sys.frequencies, hi / sys.frequencies], axis=-1).tolist()
    return make_model(sys.dof // 2, action_bounds=bounds, name=name)


def verify_action_angle(
    sys: ProductSystem,
    n_points: int = DEFAULT_POINTS,
    seed: int = DEFAULT_SEED,
    tolerances: Tolerances = Tolerances(),
) -> list[CheckReport]:
    """The full oscillator battery as a list of reports in name order."""
    nu = sys.frequencies[:, None]  # [factor, energy]
    oscillators = Oscillator1DOF(nu[..., None])  # [factor, energy, node]
    energies, angle_energies = np.array([0.2, 0.5, 1.0, 2.0]), np.array([0.5, 1.0])
    expected = energies / nu
    action = np.max(np.abs(action_from_energy(oscillators, energies) - expected) / expected)
    period = np.max(angle_period_check(oscillators, angle_energies))
    states = sample_states(sys, n_points, seed)
    round_trip = round_trip_residual(sys, states)
    return [
        report("action_angle.action_equals_energy_over_frequency", action, energies.size * sys.dof,
               tolerances),
        report("action_angle.angle_normalization", period, angle_energies.size * sys.dof,
               tolerances),
        canonical_check(sys, n_points, seed, tolerances, states=states),
        report("action_angle.round_trip", round_trip, n_points, tolerances),
    ]
