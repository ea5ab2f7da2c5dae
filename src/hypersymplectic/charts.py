"""Coordinate charts on box domains and points.

A chart is a named box ``[lower_i, upper_i]`` with named coordinates.  Its
central-difference step (``fd_step``) is 1e-5 times its widest half-axis; a
box next to whose bounds that step vanishes (``b + h == b``) is rejected.
No run takes a central difference on a chart: every field a suite reads
carries its exact derivative, so the step serves only ``calculus.stencil``
on hand-built fields and the FD cross-checks of the tests.  All fields
(``calculus.TensorField``) are represented by plain evaluators
(point -> value); nothing is symbolic.  Evaluators must be deterministic:
the same point yields the same value bit for bit, which the report layer
relies on.

Points are array-first.  A ``Point``'s ``coords`` has shape ``(..., dim)``:
one point is the case with no leading axes, and a sample of N points is one
``Point`` with coords of shape ``(N, dim)``, as ``Chart.sample`` draws it.
Every check takes such a sample directly; ``len`` and iteration run over its
first axis, yielding single points.  An evaluator receives a point, reads
coordinate k as ``coords[..., k]``, and returns its value with the point's
leading axes in front, e.g. ``(..., dim)`` for a vector or
``(..., dim, dim)`` for an endomorphism; ``conform`` checks that shape.
The leading axes may be more than a sample's: a field that carries no exact
derivative is differenced by ``calculus.stencil``, which evaluates it once
on all central-difference shifts of a sample, a ``(2, dim, N, dim)`` stack,
so an evaluator reads and writes only through ``...``.  A constant returns
its value without the leading axes, and it stays that way: numpy
broadcasting carries it through every product with batched values, so a
constant tensor costs one copy however many points are sampled.  A field
built by ``TensorField.constant`` also carries its exact derivative, so it
is never evaluated on a stencil stack.

Samples are seeded draws from the standard library's ``random.Random``
(``seeded_uniform``), which ``import numpy`` loads already, so a run needs
no ``numpy.random``.  The seed is a non-negative integer (numpy's integers
included); its stream differs from numpy's, and a report names the stream
by the package version that drew it.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import ChartMismatchError

DEFAULT_POINTS = 100  # the sample every check draws unless told otherwise
DEFAULT_SEED = 42


@dataclass(frozen=True)
class Chart:
    name: str
    coords: tuple[str, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.coords:
            raise ValueError("chart needs at least one coordinate")
        if len(set(self.coords)) != len(self.coords):
            raise ValueError("duplicate coordinate names")
        if len(self.lower) != len(self.coords) or len(self.upper) != len(self.coords):
            raise ValueError("box bounds must match the coordinate count")
        for name, lo, hi in zip(self.coords, self.lower, self.upper):
            if not lo < hi:
                raise ValueError(f"empty box on axis {name}: [{lo}, {hi}]")
        h = self.fd_step()
        for b in self.lower + self.upper:
            if b + h == b or b - h == b:
                raise ValueError(f"step {h:g} is lost in rounding next to the box bound {b:g}")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def widths(self) -> np.ndarray:
        return np.asarray(self.upper) - np.asarray(self.lower)

    def fd_step(self) -> float:
        """The central-difference step of the chart: 1e-5 scaled by its
        widest half-axis."""
        return 1e-5 * float(np.max(self.widths())) / 2.0

    def point(self, coords: Sequence[float]) -> "Point":
        """One point with read-only ``coords``, copied from ``coords``."""
        arr = np.array(coords, dtype=float)
        if arr.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} coordinates, got shape {arr.shape}")
        arr.flags.writeable = False
        return Point(self, arr)

    def sample(self, n_points: int = DEFAULT_POINTS, seed: int = DEFAULT_SEED) -> "Point":
        """Uniform draws from the box as one ``(n_points, dim)`` point with
        read-only ``coords``; seeded so every suite sees the same set."""
        coords = seeded_uniform(seed, self.lower, self.upper, (n_points, self.dim))
        coords.flags.writeable = False
        return Point(self, coords)


def seeded_uniform(seed: int, lower, upper, shape: tuple[int, ...]) -> np.ndarray:
    """Uniform draws ``lower + (upper - lower) * u`` of the given shape, in C
    order from the stream of ``random.Random(seed)``; ``lower`` and ``upper``
    broadcast against ``shape``.

    Each u is one little-endian 64-bit word of ``randbytes``, shifted right
    by 11 and scaled by 2**-53: a 53-bit uniform on [0, 1), formed as numpy's
    Generator forms it.  The seed is a non-negative integer, as numpy's
    seeding asks: TypeError for a non-integer, ValueError for a negative
    one, which ``random.Random`` would otherwise take as its absolute value.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    count = math.prod(shape)
    words = np.frombuffer(random.Random(seed).randbytes(8 * count), dtype="<u8")
    u = ((words >> 11) * 2.0**-53).reshape(shape)
    lower = np.asarray(lower, dtype=float)
    return lower + (np.asarray(upper, dtype=float) - lower) * u


@dataclass(frozen=True, eq=False)
class Point:
    """One point (``coords`` of shape ``(dim,)``) or a stack of them (``(..., dim)``)."""

    chart: Chart
    coords: np.ndarray

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.coords.shape[:-1]

    def shifted(self, axis: int, delta: float) -> "Point":
        moved = self.coords.copy()
        moved[..., axis] += delta
        return Point(self.chart, moved)

    def __len__(self) -> int:
        if not self.batch_shape:
            raise TypeError("len() of an unbatched Point")
        return self.batch_shape[0]

    def __iter__(self) -> Iterator["Point"]:
        """The row points along the first batch axis."""
        len(self)  # an unbatched point is not iterable
        return (Point(self.chart, row) for row in self.coords)

    def __repr__(self) -> str:  # keeps test failure output readable
        if self.batch_shape:
            return f"Point({self.chart.name}: stack of shape {self.batch_shape})"
        inside = ", ".join(f"{n}={v:.6g}" for n, v in zip(self.chart.coords, self.coords))
        return f"Point({self.chart.name}: {inside})"


def require_same_chart(a: Chart, b: Chart) -> None:
    if a != b:
        raise ChartMismatchError(f"chart mismatch: {a.name!r} vs {b.name!r}")


def conform(value, pt: Point, trailing: tuple[int, ...], what: str) -> np.ndarray:
    """An evaluator's value at ``pt`` as an array of shape
    ``pt.batch_shape + trailing``, or of shape ``trailing`` for a value without
    the point axes (a constant), which is returned as it is."""
    arr = np.asarray(value, dtype=float)
    if arr.shape in (trailing, pt.batch_shape + trailing):
        return arr
    raise ValueError(
        f"{what} returned shape {arr.shape}, expected {trailing} after the point axes "
        f"{pt.batch_shape}"
    )
