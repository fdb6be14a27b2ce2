"""Phase-space structure: Poisson brackets and charge splitting.

Coordinates follow the momenta-first convention throughout: the state vector
is xi = (p_1..p_N, q^1..q^N) and the symplectic matrix has the block form
[[0, I], [-I, 0]] in that ordering.  Systems whose Hamiltonian is linear in
every momentum (H = f^a(q) p_a, optionally plus a momentum-free potential)
get their q-dynamics decoupled from the momenta; conserved charges and a
positive combination rho of them drive the splitting H = H_plus - H_minus
with both halves nonnegative wherever rho > 0.

A Poisson bracket sums only the terms whose two factors can be nonzero,
read off each side's free symbols, and is kept per process for each
(f, g, phase space) by a functools.lru_cache of at most 2^12 brackets; a
call that raises stores nothing.  A FlowSystem builds its Hamiltonian and
rho once, on first use, and keeps them for as long as it lives.
"""

from __future__ import annotations

import functools
from typing import Dict, Sequence, Tuple

from .expr import (
    Expr, Const, Sym, Add, Mul, Pow, Div, ZERO,
    ComparisonResult, SampleDomain, differentiate, normalize, numeric_compare,
    DomainError, ExprError, Record,
)

__all__ = [
    "PhaseSpace", "FlowSystem", "HamiltonianSplit",
    "poisson_bracket", "split_hamiltonian",
    "verify_charges",
    "StructureError", "RhoNotConservedError",
]


class StructureError(ExprError):
    """A declared system violates a structural requirement."""


class RhoNotConservedError(StructureError):
    pass


class PhaseSpace(Record):
    """N conjugate pairs; state ordering is momenta first, then coordinates."""

    coordinates: Tuple[str, ...]
    momenta: Tuple[str, ...]

    def __post_init__(self):
        if len(self.coordinates) != len(self.momenta):
            raise StructureError("coordinate/momentum count mismatch")
        names = self.coordinates + self.momenta
        if len(set(names)) != len(names):
            raise StructureError("coordinate and momentum names must be disjoint")

    @classmethod
    def from_coordinates(cls, coordinates: Sequence[str]) -> "PhaseSpace":
        coords = tuple(coordinates)
        return cls(coords, tuple("p_" + c for c in coords))

    @property
    def dof(self) -> int:
        return len(self.coordinates)

    @property
    def xi(self) -> Tuple[str, ...]:
        return self.momenta + self.coordinates

    def omega_entry(self, i: int, j: int) -> int:
        """Entry of the block matrix [[0, I], [-I, 0]] in xi ordering."""
        n = self.dof
        if j == i + n:
            return 1
        if i == j + n:
            return -1
        return 0

    def conjugate_momentum(self, coordinate: str) -> str:
        return self.momenta[self.coordinates.index(coordinate)]


@functools.lru_cache(maxsize=1 << 12)
def poisson_bracket(f: Expr, g: Expr, ps: PhaseSpace) -> Expr:
    """{f, g} = sum_a df/dq^a dg/dp_a - df/dp_a dg/dq^a, normalized.

    A term enters the sum only when both of its factors can be nonzero:
    df/dq dg/dp when f holds q and g holds p, df/dp dg/dq when f holds p
    and g holds q.  The result is the node the full sum normalizes to, and
    is kept per process for each (f, g, ps), at most 2^12 brackets.
    """
    ff, fg = f.free_symbols(), g.free_symbols()
    terms = []
    for q, p in zip(ps.coordinates, ps.momenta):
        if q in ff and p in fg:
            terms.append(Mul((differentiate(f, q), differentiate(g, p))))
        if p in ff and q in fg:
            terms.append(
                Mul((Const(-1), differentiate(f, p), differentiate(g, q))))
    return normalize(Add(terms))


def _is_momentum_free(e: Expr, ps: PhaseSpace) -> bool:
    return not (e.free_symbols() & set(ps.momenta))


class FlowSystem(Record):
    """Momentum-linear system q-dot^a = f^a(q) with declared charges.

    velocities holds one expression per coordinate (the f^a, momentum-free);
    charges are (name, expression) pairs the caller asserts conserved;
    rho_coefficients maps charge names to coefficient expressions (usually
    bare parameters) whose combination rho = sum coeff_i C^i feeds the
    splitting.  potential is an optional momentum-free additive term, so H
    stays affine in every momentum.  chart is the sampling domain on which
    all numeric verification for this system runs.
    """

    space: PhaseSpace
    velocities: Tuple[Expr, ...]
    charges: Tuple[Tuple[str, Expr], ...]
    rho_coefficients: Tuple[Tuple[str, Expr], ...]
    chart: SampleDomain
    potential: Expr = ZERO

    def __post_init__(self):
        ps = self.space
        if len(self.velocities) != ps.dof:
            raise StructureError("need one velocity function per coordinate")
        for v in self.velocities:
            if not _is_momentum_free(v, ps):
                raise StructureError(f"velocity {v} depends on a momentum")
        if not _is_momentum_free(self.potential, ps):
            raise StructureError("potential must be momentum-free")
        names = {name for name, _ in self.charges}
        for name, _ in self.rho_coefficients:
            if name not in names:
                raise StructureError(f"rho references unknown charge {name!r}")

    @functools.cached_property
    def hamiltonian(self) -> Expr:
        terms = [Mul((v, Sym(p))) for v, p in zip(self.velocities, self.space.momenta)]
        return normalize(Add(terms + [self.potential]))

    @functools.cached_property
    def rho(self) -> Expr:
        by_name = dict(self.charges)
        return normalize(Add(Mul((coeff, by_name[name]))
                             for name, coeff in self.rho_coefficients))


def verify_charges(sys: FlowSystem, n: int = 100, tol: float = 1e-12,
                   seed: int = 0) -> Dict[str, ComparisonResult]:
    """Compare {C, H} with 0 for each declared charge, keyed by charge name."""
    H = sys.hamiltonian
    return {name: numeric_compare(poisson_bracket(C, H, sys.space), ZERO,
                                  sys.chart, n=n, tol=tol, seed=seed)
            for name, C in sys.charges}


class HamiltonianSplit(Record):
    h_plus: Expr
    h_minus: Expr
    rho_bracket_err: float      # sampled max scaled |{rho, H}|


def split_hamiltonian(sys: FlowSystem, n: int = 64, tol: float = 1e-9,
                      seed: int = 0) -> HamiltonianSplit:
    """H_plus = (H+rho)^2/(4 rho), H_minus = (H-rho)^2/(4 rho).

    Both halves are nonnegative wherever rho > 0 and H_plus - H_minus = H
    identically; H_minus = 0 is the information-loss surface H = rho.
    Requires {rho, H} = 0 on the chart, else the splitting would not commute.
    """
    H = sys.hamiltonian
    rho = sys.rho
    if rho == ZERO:
        raise RhoNotConservedError("rho is identically zero")
    bracket = poisson_bracket(rho, H, sys.space)
    try:
        cmp = numeric_compare(bracket, ZERO, sys.chart, n=n, tol=tol,
                              seed=seed)
    except DomainError as exc:
        raise RhoNotConservedError(
            f"{{rho, H}} = {bracket} cannot be evaluated on the chart: "
            f"{exc}") from exc
    if not cmp.equal:
        raise RhoNotConservedError(
            f"rho not conserved: {{rho, H}} = {bracket} "
            f"(max scaled err {cmp.max_scaled_err:.3e} at {cmp.worst_point})")
    four_rho = Mul((Const(4), rho))
    h_plus = normalize(Div(Pow(Add((H, rho)), 2), four_rho))
    h_minus = normalize(Div(Pow(Add((H, Mul((Const(-1), rho)))), 2), four_rho))
    return HamiltonianSplit(h_plus=h_plus, h_minus=h_minus,
                            rho_bracket_err=cmp.max_scaled_err)
