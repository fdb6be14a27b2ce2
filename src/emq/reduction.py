"""Constraint elimination, Darboux charts, and the reduced bounded Hamiltonian.

Pipeline: a declared constraint phi = 0 with an explicit solution for one
phase-space variable turns the first-order Lagrangian p q-dot - H into a
reduced Lagrangian on the remaining 2N-1 variables; its antisymmetrized
velocity-coefficient matrix is the presymplectic form, degenerate along one
direction.  A verified canonical map (shipped with each model, never
constructed here) brings the velocity part to canonical block form with one
nondynamical gauge variable z, which the final step removes either as pure
gauge (z absent from the Hamiltonian) or by solving the linear stationarity
condition dH/dz = 0.  The surviving Hamiltonian h_star is bounded below on
the chart; that boundedness is the entire point of the construction.

Maps are checked, not trusted: canonicity brackets, the presymplectic
cross-derivation, and a finite-difference Jacobian identity all run on the
model's sampling chart before any map is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .expr import (
    Expr, Const, Sym, Add, Mul, Pow, Div, ZERO, ONE,
    DomainError, ExprError, SampleDomain,
    ComparisonResult, differentiate, evaluate, expand, normalize,
    numeric_compare, sampled_check, substitute,
)
from .symplectic import PhaseSpace, FlowSystem, poisson_bracket

__all__ = [
    "ConstraintSpec", "CanonicalMap", "PresymplecticForm",
    "ReducedLagrangian", "TransformedLagrangian", "ReducedSystem",
    "EliminationResult",
    "eliminate_primary", "verify_canonicity",
    "apply_darboux", "eliminate_z", "fd_jacobian", "jacobi_liouville_check",
    "run_reduction",
    "CanonicityError", "UnsupportedPatternError", "velocity_symbol",
]


class CanonicityError(ExprError):
    """A proposed map fails a bracket check; message names the bracket."""


class UnsupportedPatternError(ExprError):
    """z-elimination pattern outside the supported (constant/linear) class."""


def velocity_symbol(name: str) -> str:
    return name + "_dot"


@dataclass(frozen=True)
class ConstraintSpec:
    """phi = 0 solved explicitly for one variable.

    phi: the constraint expression; eliminated: the solved-for symbol;
    solution: its expression over the remaining variables; chi: optional
    declared gauge function (models without one get chi derived later).
    """

    phi: Expr
    eliminated: str
    solution: Expr
    chi: Optional[Expr] = None

    def validate(self, sys: FlowSystem, seed: int = 0) -> None:
        if self.eliminated not in sys.space.xi:
            raise DomainError(f"{self.eliminated!r} is not a phase-space symbol")
        if self.eliminated in self.solution.free_symbols():
            raise DomainError("solution must not contain the eliminated symbol")
        residual = substitute(self.phi, {self.eliminated: self.solution})
        cmp = numeric_compare(residual, ZERO, sys.chart, seed=seed)
        if not cmp.equal:
            raise DomainError(
                f"solution does not solve phi = 0: residual {residual} "
                f"(max scaled err {cmp.max_scaled_err:.3e})")
        dphi = differentiate(self.phi, self.eliminated)
        if numeric_compare(dphi, ZERO, sys.chart, seed=seed).equal:
            raise DomainError(
                f"phi does not depend on {self.eliminated}; cannot eliminate")


@dataclass(frozen=True)
class PresymplecticForm:
    variables: Tuple[str, ...]
    matrix: Tuple[Tuple[Expr, ...], ...]

    def evaluate_at(self, point: Dict[str, float]) -> np.ndarray:
        dim = len(self.variables)
        out = np.empty((dim, dim))
        for i in range(dim):
            for j in range(dim):
                out[i, j] = evaluate(self.matrix[i][j], point)
        return out

    def rank_at(self, point: Dict[str, float]) -> int:
        sv = np.linalg.svd(self.evaluate_at(point), compute_uv=False)
        if len(sv) == 0:
            return 0
        return int(np.sum(sv > 1e-9 * max(1.0, sv[0])))


@dataclass(frozen=True)
class ReducedLagrangian:
    """First-order Lagrangian on the constrained chart.

    lagrangian is linear in the velocity symbols; one_form holds the
    velocity coefficients c_j (indexed like variables) and hamiltonian the
    velocity-free remainder with its sign restored.
    """

    variables: Tuple[str, ...]
    lagrangian: Expr
    one_form: Tuple[Expr, ...]
    hamiltonian: Expr

    @property
    def velocities(self) -> Tuple[str, ...]:
        return tuple(velocity_symbol(v) for v in self.variables)


def _one_form_and_hamiltonian(L: Expr, variables: Sequence[str]):
    coeffs = []
    for v in variables:
        coeffs.append(differentiate(L, velocity_symbol(v)))
    rest = substitute(L, {velocity_symbol(v): 0 for v in variables})
    H = normalize(Mul((Const(-1), rest)))
    return tuple(coeffs), H


def _antisymmetrized(one_form: Sequence[Expr], variables: Sequence[str]):
    dim = len(variables)
    rows = []
    for i in range(dim):
        row = []
        for j in range(dim):
            f_ij = normalize(Add((
                differentiate(one_form[j], variables[i]),
                Mul((Const(-1), differentiate(one_form[i], variables[j]))),
            )))
            row.append(f_ij)
        rows.append(tuple(row))
    return tuple(rows)


def eliminate_primary(sys: FlowSystem, c: ConstraintSpec):
    """Substitute the constraint solution into p q-dot - H.

    Returns (ReducedLagrangian, PresymplecticForm) on the 2N-1 surviving
    variables, momenta first.  Eliminating a coordinate rewrites its
    velocity by the chain rule; eliminating a momentum needs no extra term
    because momentum velocities are absent from this form of L.  The
    constraint is taken as given: run_reduction validates it first.
    """
    ps = sys.space
    kin_terms = [Mul((Sym(p), Sym(velocity_symbol(q))))
                 for p, q in zip(ps.momenta, ps.coordinates)]
    L_full = Add(tuple(kin_terms) + (Mul((Const(-1), sys.hamiltonian)),))

    reduced_vars = tuple(v for v in ps.xi if v != c.eliminated)
    mapping: Dict[str, Expr] = {c.eliminated: c.solution}
    if c.eliminated in ps.coordinates:
        chain = [Mul((differentiate(c.solution, v), Sym(velocity_symbol(v))))
                 for v in reduced_vars]
        mapping[velocity_symbol(c.eliminated)] = normalize(Add(tuple(chain))) \
            if len(chain) > 1 else normalize(chain[0])
    L_R = substitute(L_full, mapping)

    one_form, H_R = _one_form_and_hamiltonian(L_R, reduced_vars)
    f = _antisymmetrized(one_form, reduced_vars)
    return (ReducedLagrangian(reduced_vars, L_R, one_form, H_R),
            PresymplecticForm(reduced_vars, f))


@dataclass(frozen=True)
class CanonicalMap:
    """Explicit chart to canonical pairs plus one gauge pair (z, p_z).

    pairs: reduced (coordinate, momentum) name pairs; gauge: (z, p_z) names;
    forward: target-name -> expression over the original phase space;
    inverse: original-name -> expression over the targets.  The inverse is
    part of the map data because the transformed Lagrangian and the
    generating-function machinery both need it explicitly.
    """

    pairs: Tuple[Tuple[str, str], ...]
    gauge: Tuple[str, str]
    forward: Tuple[Tuple[str, Expr], ...]
    inverse: Tuple[Tuple[str, Expr], ...]

    def __post_init__(self):
        fwd = dict(self.forward)
        for coord, mom in self.pairs + (self.gauge,):
            for name in (coord, mom):
                if name not in fwd:
                    raise DomainError(f"map lacks a forward expression for {name!r}")

    @property
    def z(self) -> str:
        return self.gauge[0]

    @property
    def p_z(self) -> str:
        return self.gauge[1]

    @property
    def target_names(self) -> Tuple[str, ...]:
        # momenta first, then coordinates, then the gauge pair
        moms = tuple(m for _, m in self.pairs)
        coords = tuple(c for c, _ in self.pairs)
        return moms + coords + self.gauge

    @property
    def eta(self) -> Tuple[str, ...]:
        """Surface variables: reduced momenta, reduced coordinates, z."""
        return self.target_names[:-1]

    def forward_expr(self, name: str) -> Expr:
        return dict(self.forward)[name]

    def expected_bracket(self, a: str, b: str) -> int:
        for coord, mom in self.pairs + (self.gauge,):
            if (a, b) == (coord, mom):
                return 1
            if (a, b) == (mom, coord):
                return -1
        return 0


def verify_canonicity(map: CanonicalMap, ps: PhaseSpace, chart: SampleDomain,
                      n: int = 200, tol: float = 1e-9, seed: int = 0
                      ) -> Dict[Tuple[str, str], ComparisonResult]:
    """All pairwise target brackets against map.expected_bracket, keyed by
    (left, right) in target_names order."""
    names = map.target_names
    return {(a, b): numeric_compare(
                poisson_bracket(map.forward_expr(a), map.forward_expr(b), ps),
                Const(map.expected_bracket(a, b)), chart, n=n, tol=tol,
                seed=seed)
            for i, a in enumerate(names) for b in names[i + 1:]}


@dataclass(frozen=True)
class TransformedLagrangian:
    """Canonical-form Lagrangian in the (reduced pairs, z) chart."""

    variables: Tuple[str, ...]
    lagrangian: Expr
    hamiltonian: Expr


def apply_darboux(L_R: ReducedLagrangian, map: CanonicalMap, ps: PhaseSpace,
                  chart: SampleDomain, seed: int = 0) -> TransformedLagrangian:
    """Rewrite L_R in map targets; verify the velocity matrix is canonical.

    The constraint momentum p_z vanishes identically on the constrained
    chart, so the inverse map is restricted to p_z = 0 before substitution.
    Velocities transform by the chain rule over eta = (momenta, coords, z).
    The returned Lagrangian uses the antisymmetric kinetic normal form, which
    equals the substituted one up to a total time derivative; legitimacy of
    that rewrite is exactly the velocity-matrix check performed here.
    """
    for (a, b), cmp in verify_canonicity(map, ps, chart, seed=seed).items():
        if not cmp.equal:
            raise CanonicityError(
                f"map rejected: bracket {{{a}, {b}}} = "
                f"{map.expected_bracket(a, b)} fails "
                f"(max scaled err {cmp.max_scaled_err:.3e})")

    eta = map.eta
    surface_inverse = {name: substitute(e, {map.p_z: 0})
                       for name, e in map.inverse}
    mapping: Dict[str, Expr] = {}
    for name in L_R.variables:
        inv = surface_inverse[name]
        mapping[name] = inv
        chain = [Mul((differentiate(inv, m), Sym(velocity_symbol(m))))
                 for m in eta]
        mapping[velocity_symbol(name)] = normalize(Add(tuple(chain)))
    L_t = substitute(L_R.lagrangian, mapping)

    one_form, H_prime = _one_form_and_hamiltonian(L_t, eta)
    f = _antisymmetrized(one_form, eta)

    s = len(map.pairs)
    for i, vi in enumerate(eta):
        for j, vj in enumerate(eta):
            want = 0
            if i < s and j == s + i:
                want = 1          # (momentum, its coordinate) slot
            elif j < s and i == s + j:
                want = -1
            cmp = numeric_compare(f[i][j], Const(want), chart, seed=seed)
            if not cmp.equal:
                raise CanonicityError(
                    f"velocity matrix entry ({vi}, {vj}) = {f[i][j]} "
                    f"!= {want} (max scaled err {cmp.max_scaled_err:.3e}); "
                    f"transform is not canonical up to a total derivative")

    kin_terms = []
    for coord, mom in map.pairs:
        kin_terms.append(Mul((Const(Fraction(1, 2)), Sym(mom),
                              Sym(velocity_symbol(coord)))))
        kin_terms.append(Mul((Const(Fraction(-1, 2)), Sym(coord),
                              Sym(velocity_symbol(mom)))))
    L_canon = normalize(Add(tuple(kin_terms) + (Mul((Const(-1), H_prime)),)))
    return TransformedLagrangian(eta, L_canon, H_prime)


@dataclass(frozen=True)
class ReducedSystem:
    """Emergent unconstrained system on the reduced pairs."""

    space: PhaseSpace
    h_star: Expr
    gauge_condition: Expr
    z_solution: Optional[Expr]
    provenance: Tuple[str, ...]


@dataclass(frozen=True)
class EliminationResult:
    chi: Expr
    z_solution: Optional[Expr]
    system: ReducedSystem


def eliminate_z(H_prime: Expr, map: CanonicalMap, chart: SampleDomain,
                seed: int = 0,
                provenance: Tuple[str, ...] = ()) -> EliminationResult:
    """Remove the gauge variable from the transformed Hamiltonian.

    chi = dH/dz.  chi identically zero: z is pure gauge, fixed as z = 0.
    chi linear in z with nonvanishing slope: solve chi = 0 for z and
    substitute.  Anything else is outside the supported class.
    """
    z = map.z
    zero_ok = lambda e: numeric_compare(e, ZERO, chart, seed=seed).equal

    # expansion collapses the cross terms the factored chart form carries, so
    # chi and h_star come out in closed form
    H_prime = expand(H_prime)
    chi = differentiate(H_prime, z)
    steps = list(provenance)
    if chi == ZERO or zero_ok(chi):
        z_solution = None
        h_star = substitute(H_prime, {z: 0})
        chi_reported = Sym(z)   # the gauge condition is z = 0 itself
        steps.append(f"gauge branch: dH/d{z} vanishes; fixed {z} = 0")
    else:
        slope = differentiate(chi, z)
        curvature = differentiate(slope, z)
        if zero_ok(slope) or not zero_ok(curvature):
            raise UnsupportedPatternError(
                f"unsupported elimination pattern: dH/d{z} = {chi} "
                f"is not linear in {z} with nonzero slope")
        c0 = substitute(chi, {z: 0})
        c1 = substitute(slope, {z: 0})
        z_solution = normalize(Div(Mul((Const(-1), c0)), c1))
        h_star = substitute(H_prime, {z: z_solution})
        chi_reported = chi
        steps.append(f"stationarity branch: solved dH/d{z} = 0 as "
                     f"{z} = {z_solution}")

    leftovers = h_star.free_symbols() & {z, map.p_z}
    if leftovers:
        raise UnsupportedPatternError(
            f"gauge variables {sorted(leftovers)} survive elimination")

    coords = tuple(c for c, _ in map.pairs)
    moms = tuple(m for _, m in map.pairs)
    rs = ReducedSystem(
        space=PhaseSpace(coords, moms),
        h_star=h_star,
        gauge_condition=chi_reported,
        z_solution=z_solution,
        provenance=tuple(steps),
    )
    return EliminationResult(chi=chi_reported, z_solution=z_solution, system=rs)


FD_STEP = 1e-6


def fd_jacobian(exprs: Sequence[Expr], names: Sequence[str],
                cols: Dict[str, np.ndarray]) -> np.ndarray:
    """Central-difference d(exprs)/d(names) at every point of the columns.

    Returns a stack of shape (points, len(exprs), len(names)).
    """
    n_points = len(next(iter(cols.values())))
    jac = np.empty((n_points, len(exprs), len(names)))
    for j, v in enumerate(names):
        up = dict(cols)
        dn = dict(cols)
        up[v] = cols[v] + FD_STEP
        dn[v] = cols[v] - FD_STEP
        for i, e in enumerate(exprs):
            jac[:, i, j] = (evaluate(e, up) - evaluate(e, dn)) / (2.0 * FD_STEP)
    return jac


def jacobi_liouville_check(map: CanonicalMap, c: ConstraintSpec,
                           sys: FlowSystem, tol: float = 1e-7,
                           seed: int = 0) -> bool:
    """Jacobian of the constrained chart map against the constraint slope.

    det d(eta)/d(xi-hat) multiplied by dphi/dxi1 (at xi1 = g) must be a
    chart-wide constant of unit magnitude.  The sign is an orientation
    convention of the particular map, so it is pinned at the first sample
    point and required to persist.  Finite-difference Jacobians, central
    steps.  Too many singular Jacobians raise DomainError, unless an
    orientation mismatch comes first in sample order.  Memoized per process
    (see sampled_check).
    """
    return sampled_check(_jacobi_liouville, map, c, sys, tol, seed)


def _jacobi_liouville(map: CanonicalMap, c: ConstraintSpec, sys: FlowSystem,
                      tol: float, seed: int) -> bool:
    n = 25
    ps = sys.space
    reduced_vars = tuple(v for v in ps.xi if v != c.eliminated)
    surface_targets = [substitute(map.forward_expr(t),
                                  {c.eliminated: c.solution})
                      for t in map.eta]
    dphi = substitute(differentiate(c.phi, c.eliminated),
                      {c.eliminated: c.solution})

    cols = sys.chart.sample_columns(n, seed=seed)
    dets = np.linalg.det(fd_jacobian(surface_targets, reduced_vars, cols))
    singular = np.abs(dets) < 1e-12
    limit = max(3, n // 5)
    # sample index at which more than `limit` singular points have been seen
    give_up = np.flatnonzero(singular)[limit] if singular.sum() > limit else n
    regular = np.flatnonzero(~singular)
    product = dets[regular] * evaluate(
        dphi, {k: v[regular] for k, v in cols.items()})
    orientation = np.copysign(1.0, product[:1])
    mismatch = regular[np.abs(product - orientation)
                       > tol * (1.0 + np.abs(product))]
    first_mismatch = mismatch[0] if len(mismatch) else n
    if give_up < first_mismatch:
        raise DomainError("persistently singular Jacobian on the chart")
    return bool(len(regular) > 0 and first_mismatch == n)


def run_reduction(sys: FlowSystem, c: ConstraintSpec, map: CanonicalMap,
                  seed: int = 0):
    """Full pipeline with a provenance log; returns the pieces and the log."""
    steps = []
    c.validate(sys, seed=seed)
    L_R, f = eliminate_primary(sys, c)
    steps.append(f"eliminated {c.eliminated} = {c.solution}")
    point = {k: float(v[0])
             for k, v in sys.chart.sample_columns(1, seed=seed).items()}
    steps.append(f"presymplectic rank at chart points: "
                 f"{f.rank_at(point)} of {len(f.variables)}")
    transformed = apply_darboux(L_R, map, sys.space, sys.chart, seed=seed)
    steps.append(f"canonical chart ({', '.join(map.eta)}) verified; "
                 f"velocity matrix in normal form")
    result = eliminate_z(transformed.hamiltonian, map, sys.chart, seed=seed,
                         provenance=tuple(steps))
    return L_R, f, transformed, result
