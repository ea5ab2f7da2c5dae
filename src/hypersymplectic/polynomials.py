"""Multivariate polynomials stored as explicit (exponent tuple, coefficient) tables.

Sections of the model fibration and the scalar test fields are polynomial, so an
exact derivative is always available next to the finite-difference path.  Terms
with equal exponent tuples are merged on construction and zero coefficients are
dropped, which keeps evaluation deterministic (a fixed term order) and makes
equal polynomials evaluate bit-identically.

A polynomial may also be vector valued: ``Polynomial.stack`` merges the term
tables of scalar polynomials into one whose coefficients hold one float per
component, so all of them are evaluated in one call.
Evaluation performs, for every component, the operations the scalar
polynomial performs, in the same order, a term it lacks adding a zero, so
each component agrees with its scalar polynomial bit for bit wherever the
shared powers are finite; ``fibration.SectionMap`` refuses a non-finite read
whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

Term = tuple[tuple[int, ...], "float | tuple[float, ...]"]


@dataclass(frozen=True)
class Polynomial:
    """A real polynomial in ``n_vars`` variables, or, when ``size`` is set, a
    vector of ``size`` polynomials sharing one term table, each coefficient
    then being a tuple of ``size`` floats.  A scalar polynomial is evaluated
    as one component.  ``derivative`` takes a scalar polynomial, ``jacobian``
    a vector one."""

    n_vars: int
    terms: tuple[Term, ...]
    size: int | None = None
    # per term: coefficient and the (axis, exponent) pairs with a nonzero exponent
    _plan: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        shape = () if self.size is None else (self.size,)
        plan = []
        for powers, coeff in self.terms:
            coeff = np.array(coeff, dtype=float)
            if coeff.shape != shape:
                raise ValueError(f"coefficient of shape {coeff.shape}, expected {shape}")
            coeff = coeff.reshape(-1)  # a scalar polynomial is one component
            coeff.flags.writeable = False
            plan.append((coeff, tuple((axis, e) for axis, e in enumerate(powers) if e)))
        object.__setattr__(self, "_plan", tuple(plan))

    @classmethod
    def from_terms(cls, n_vars: int, terms: Iterable[Sequence]) -> "Polynomial":
        """Build a polynomial, validating, merging and sorting the term table."""
        return cls(n_vars=n_vars, terms=merge_terms(n_vars, terms))

    @classmethod
    def stack(cls, n_vars: int, tables: Sequence[tuple[Term, ...]]) -> "Polynomial":
        """The vector polynomial whose component k has the term table
        ``tables[k]``, as ``merge_terms`` leaves it: one term per monomial of
        the sorted union, with coefficient 0.0 where a table lacks it."""
        tables = [dict(table) for table in tables]
        monomials = sorted(set().union(*tables))
        if any(len(powers) != n_vars for powers in monomials):
            raise ValueError(f"stack takes term tables in {n_vars} variables")
        terms = tuple((m, tuple(t.get(m, 0.0) for t in tables)) for m in monomials)
        return cls(n_vars=n_vars, terms=terms, size=len(tables))

    def __call__(self, coords) -> np.ndarray:
        """Value at coordinates of shape ``(..., n_vars)``: the leading shape,
        then ``(size,)`` for a vector polynomial (a numpy scalar for a scalar
        polynomial at a single point).

        Each term multiplies its coefficient by the powers in axis order and
        adds the product to a total that starts at +0.0.  A vector term does
        this for every component at once, adding a zero where its coefficient
        is zero, so each component equals its scalar polynomial bit for bit
        wherever the powers are finite."""
        x = np.asarray(coords, dtype=float)
        if x.shape[-1:] != (self.n_vars,):
            raise ValueError(f"expected {self.n_vars} coordinates, got shape {x.shape}")
        scalar = self.size is None
        total = np.zeros(x.shape[:-1] + (1 if scalar else self.size,))
        for coeff, factors in self._plan:
            value = coeff
            for axis, e in factors:
                value = value * x[..., axis, None] ** e
            total += value
        return (total[..., 0] if scalar else total)[()]

    def derivative(self, axis: int) -> "Polynomial":
        """Exact partial derivative of a scalar polynomial along one variable:
        component ``axis`` of the Jacobian of its one-component stack."""
        if self.size is not None:
            raise ValueError("derivative takes a scalar polynomial")
        if not 0 <= axis < self.n_vars:
            raise ValueError(f"axis {axis} out of range for {self.n_vars} variables")
        jacobian = Polynomial.stack(self.n_vars, [self.terms]).jacobian()
        return Polynomial.from_terms(self.n_vars, ((m, c[axis]) for m, c in jacobian.terms))

    def jacobian(self) -> "Polynomial":
        """Exact Jacobian of a vector polynomial as one vector polynomial:
        component ``r * n_vars + j`` is the partial derivative of component r
        along variable j.  Built in one pass over the term table: each
        coefficient times its exponent at the lowered monomial, 0.0 where a
        component lacks that monomial, the monomials sorted, as ``stack``
        leaves the per-derivative tables."""
        if self.size is None:
            raise ValueError("jacobian takes a vector polynomial")
        width = self.size * self.n_vars
        table: dict[tuple[int, ...], list[float]] = {}
        for powers, coeffs in self.terms:
            for j, e in enumerate(powers):
                if e == 0:
                    continue
                dropped = powers[:j] + (e - 1,) + powers[j + 1 :]
                row = table.setdefault(dropped, [0.0] * width)
                # Python floats: an overflow gives inf without a numpy warning
                row[j :: self.n_vars] = [float(c) * e for c in coeffs]
        terms = tuple((m, tuple(table[m])) for m in sorted(table))
        return Polynomial(n_vars=self.n_vars, terms=terms, size=width)


def merge_terms(n_vars: int, terms: Iterable[Sequence]) -> tuple[Term, ...]:
    """A term table validated, with equal power vectors merged, zero
    coefficients dropped and the terms sorted by power vector."""
    merged: dict[tuple[int, ...], float] = {}
    for powers, coeff in terms:
        powers = tuple(int(e) for e in powers)
        if len(powers) != n_vars:
            raise ValueError(
                f"exponent tuple {powers} has length {len(powers)}, expected {n_vars}"
            )
        if any(e < 0 for e in powers):
            raise ValueError(f"negative exponent in {powers}")
        merged[powers] = merged.get(powers, 0.0) + float(coeff)
    return tuple((powers, coeff) for powers, coeff in sorted(merged.items()) if coeff != 0.0)
