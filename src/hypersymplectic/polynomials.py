"""Multivariate polynomials stored as explicit (exponent tuple, coefficient) tables.

Sections of the model fibration and the scalar test fields are polynomial, so an
exact derivative is always available next to the finite-difference path.  Terms
with equal exponent tuples are merged on construction and zero coefficients are
dropped, which keeps evaluation deterministic (a fixed term order) and makes
equal polynomials evaluate bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

Term = tuple[tuple[int, ...], float]


@dataclass(frozen=True)
class Polynomial:
    """A real polynomial in ``n_vars`` variables."""

    n_vars: int
    terms: tuple[Term, ...]

    @classmethod
    def from_terms(cls, n_vars: int, terms: Iterable[Sequence]) -> "Polynomial":
        """Build a polynomial, validating, merging and sorting the term table."""
        merged: dict[tuple[int, ...], float] = {}
        for raw in terms:
            powers, coeff = raw
            powers = tuple(int(e) for e in powers)
            if len(powers) != n_vars:
                raise ValueError(
                    f"exponent tuple {powers} has length {len(powers)}, expected {n_vars}"
                )
            if any(e < 0 for e in powers):
                raise ValueError(f"negative exponent in {powers}")
            merged[powers] = merged.get(powers, 0.0) + float(coeff)
        table = tuple(
            (powers, coeff) for powers, coeff in sorted(merged.items()) if coeff != 0.0
        )
        return cls(n_vars=n_vars, terms=table)

    @classmethod
    def zero(cls, n_vars: int) -> "Polynomial":
        return cls(n_vars=n_vars, terms=())

    @classmethod
    def constant(cls, n_vars: int, value: float) -> "Polynomial":
        return cls.from_terms(n_vars, [((0,) * n_vars, value)])

    @classmethod
    def coordinate(cls, n_vars: int, axis: int) -> "Polynomial":
        powers = tuple(1 if i == axis else 0 for i in range(n_vars))
        return cls.from_terms(n_vars, [(powers, 1.0)])

    @property
    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(powers) for powers, _ in self.terms)

    def __call__(self, coords) -> np.ndarray:
        """Value at coordinates of shape ``(..., n_vars)``; the result has the
        leading shape (a numpy scalar for a single point)."""
        x = np.asarray(coords, dtype=float)
        if x.shape[-1:] != (self.n_vars,):
            raise ValueError(f"expected {self.n_vars} coordinates, got shape {x.shape}")
        total = np.zeros(x.shape[:-1])
        for powers, coeff in self.terms:
            value = coeff
            for axis, e in enumerate(powers):
                if e:
                    value = value * x[..., axis] ** e
            total = total + value
        return total[()]

    def derivative(self, axis: int) -> "Polynomial":
        """Exact partial derivative along one variable."""
        if not 0 <= axis < self.n_vars:
            raise ValueError(f"axis {axis} out of range for {self.n_vars} variables")
        new_terms = []
        for powers, coeff in self.terms:
            e = powers[axis]
            if e == 0:
                continue
            dropped = tuple(
                e - 1 if i == axis else p for i, p in enumerate(powers)
            )
            new_terms.append((dropped, coeff * e))
        return Polynomial.from_terms(self.n_vars, new_terms)

    def scaled(self, factor: float) -> "Polynomial":
        return Polynomial.from_terms(
            self.n_vars, [(powers, coeff * factor) for powers, coeff in self.terms]
        )
