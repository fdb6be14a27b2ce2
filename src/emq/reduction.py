"""Constraint elimination, Darboux charts, and the reduced bounded Hamiltonian.

Pipeline: a declared constraint phi = 0 with an explicit solution for one
phase-space variable pulls the first-order Lagrangian p q-dot - H back to
a reduced Lagrangian on the remaining 2N-1 variables; the two-form of its
velocity coefficients is the presymplectic form, degenerate along one
direction.  A verified canonical map (shipped with each model, never
constructed here) pulls that Lagrangian back again, onto a chart where
the two-form is in canonical block form with one nondynamical gauge
variable z; the velocity-free remainder, sign flipped, is the transformed
Hamiltonian H'.  The final step removes z either as pure gauge (z absent
from H') or by solving the linear stationarity condition dH'/dz = 0.  The
surviving Hamiltonian h_star is bounded below on the chart; that
boundedness is the entire point of the construction.

Both steps share one pull-back (_pull_back: each variable by its
expression, each velocity by the chain rule) and one two-form
(_two_form: f_ij = d_i c_j - d_j c_i of the velocity coefficients c, kept
for i < j only, since f is antisymmetric).  Both are sparse: the chain
rule sums only over the variables an expression holds, and f_ij is worked
out only when v_i is free in c_j or v_j in c_i, every other entry being
ZERO, so their derivatives grow with the nonzeros, not with N^2.

Maps are checked, not trusted: canonicity brackets and the velocity
two-form run on the model's sampling chart inside run_reduction, before
any map is used.  The Jacobian identity of the constrained chart
(jacobi_liouville_check) is a separate check: `emq verify` runs it, and
run_reduction does not.  Both are worked out once per process for their
arguments (see expr.sampled_check): run_reduction for each (system,
constraint, map, seed), so `reduce`, `propagate` and another file with
the same system, constraint and map share one pipeline run.
"""

from __future__ import annotations

import functools
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from .expr import (
    Expr, Const, Sym, Add, Mul, Div, ZERO,
    DomainError, ExprError, Record, SampleDomain,
    ComparisonResult, differentiate, evaluate, expand, normalize,
    numeric_compare, sampled_check, substitute,
)
from .symplectic import PhaseSpace, FlowSystem, poisson_bracket

__all__ = [
    "ConstraintSpec", "CanonicalMap", "PresymplecticForm",
    "ReducedLagrangian", "ReducedSystem",
    "EliminationResult",
    "eliminate_primary", "verify_canonicity",
    "apply_darboux", "eliminate_z", "jacobi_liouville_check",
    "run_reduction",
    "CanonicityError", "UnsupportedPatternError", "velocity_symbol",
]


class CanonicityError(ExprError):
    """A proposed map fails a bracket check; message names the bracket."""


class UnsupportedPatternError(ExprError):
    """z-elimination pattern outside the supported (constant/linear) class."""


def velocity_symbol(name: str) -> str:
    return name + "_dot"


class ConstraintSpec(Record):
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


class PresymplecticForm(Record):
    """The two-form of the reduced Lagrangian above the diagonal: row i of
    upper holds f_ij for j = i+1 .. dim-1, in the order of variables."""

    variables: Tuple[str, ...]
    upper: Tuple[Tuple[Expr, ...], ...]

    def rank_at(self, point: Mapping[str, np.ndarray]) -> int:
        """Rank at the one point of columns from sample_columns(1, seed)."""
        dim = len(self.variables)
        f = np.zeros((dim, dim))
        f[~np.tri(dim, dtype=bool)] = evaluate(
            (entry for row in self.upper for entry in row), point)[:, 0]
        sv = np.linalg.svd(f - f.T, compute_uv=False)
        if len(sv) == 0:
            return 0
        return int(np.sum(sv > 1e-9 * max(1.0, sv[0])))


class ReducedLagrangian(Record):
    """First-order Lagrangian on the constrained chart, linear in the
    velocity symbols."""

    variables: Tuple[str, ...]
    lagrangian: Expr


def _pull_back(L: Expr, exprs: Mapping[str, Expr],
               over: Sequence[str]) -> Expr:
    """L with each named variable replaced by its expression over `over`
    and its velocity by the chain rule: sum over m of d(expr)/dm m-dot,
    taken only over the m that the expression holds."""
    mapping = dict(exprs)
    for name, e in exprs.items():
        free = e.free_symbols()
        mapping[velocity_symbol(name)] = normalize(Add(tuple(
            Mul((differentiate(e, m), Sym(velocity_symbol(m))))
            for m in over if m in free)))
    return substitute(L, mapping)


def _two_form(L: Expr, variables: Sequence[str]
              ) -> Tuple[Tuple[Expr, ...], ...]:
    """f_ij = d_i c_j - d_j c_i of the velocity coefficients c_j of L, for
    i < j only: row i holds j = i+1 .. dim-1.  An entry is worked out only
    when v_i is free in c_j or v_j in c_i; every other one is ZERO."""
    c = [differentiate(L, velocity_symbol(v)) for v in variables]
    free = [cj.free_symbols() for cj in c]
    return tuple(
        tuple(normalize(Add((
            differentiate(c[j], vi),
            Mul((Const(-1), differentiate(c[i], variables[j]))),
        ))) if vi in free[j] or variables[j] in free[i] else ZERO
            for j in range(i + 1, len(variables)))
        for i, vi in enumerate(variables))


def eliminate_primary(sys: FlowSystem, c: ConstraintSpec):
    """Pull p q-dot - H back onto the constraint surface.

    Returns (ReducedLagrangian, PresymplecticForm) on the 2N-1 surviving
    variables, momenta first.  The eliminated variable and its velocity are
    replaced by the one pull-back; a momentum's velocity is absent from
    this form of L, so only a coordinate's chain rule changes anything.
    The form keeps its entries for i < j.  The constraint is taken as
    given: run_reduction validates it first.
    """
    ps = sys.space
    kin_terms = [Mul((Sym(p), Sym(velocity_symbol(q))))
                 for p, q in zip(ps.momenta, ps.coordinates)]
    L_full = Add(tuple(kin_terms) + (Mul((Const(-1), sys.hamiltonian)),))

    reduced_vars = tuple(v for v in ps.xi if v != c.eliminated)
    L_R = _pull_back(L_full, {c.eliminated: c.solution}, reduced_vars)
    return (ReducedLagrangian(reduced_vars, L_R),
            PresymplecticForm(reduced_vars, _two_form(L_R, reduced_vars)))


class CanonicalMap(Record):
    """Explicit chart to canonical pairs plus one gauge pair (z, p_z).

    pairs: reduced (coordinate, momentum) name pairs; gauge: (z, p_z) names;
    forward: target-name -> expression over the original phase space;
    inverse: original-name -> expression over the targets.  The inverse is
    part of the map data because the Darboux pull-back and the
    generating-function machinery both need it explicitly.  The forward
    and bracket tables are built once per map, on first use.
    """

    pairs: Tuple[Tuple[str, str], ...]
    gauge: Tuple[str, str]
    forward: Tuple[Tuple[str, Expr], ...]
    inverse: Tuple[Tuple[str, Expr], ...]

    def __post_init__(self):
        for coord, mom in self.pairs + (self.gauge,):
            for name in (coord, mom):
                if name not in self._forward_table:
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

    @functools.cached_property
    def _forward_table(self) -> Dict[str, Expr]:
        return dict(self.forward)

    @functools.cached_property
    def _bracket_table(self) -> Dict[Tuple[str, str], int]:
        # {coord, mom} = 1, {mom, coord} = -1: the first pair naming both wins
        table = {}
        for coord, mom in self.pairs + (self.gauge,):
            table.setdefault((coord, mom), 1)
            table.setdefault((mom, coord), -1)
        return table

    def forward_expr(self, name: str) -> Expr:
        return self._forward_table[name]

    def expected_bracket(self, a: str, b: str) -> int:
        return self._bracket_table.get((a, b), 0)


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


def apply_darboux(L_R: ReducedLagrangian, map: CanonicalMap, ps: PhaseSpace,
                  chart: SampleDomain, seed: int = 0) -> Expr:
    """Pull L_R back to the map targets; verify its two-form is canonical.

    Returns the transformed Hamiltonian H', the velocity-free remainder of
    the pulled-back Lagrangian with its sign restored.  The constraint
    momentum p_z vanishes identically on the constrained chart, so the
    inverse map is restricted to p_z = 0 before the pull-back over
    eta = (momenta, coords, z).  The two-form, kept for i < j, must equal
    the expected brackets entry by entry in row-major order: then the
    Lagrangian is canonical p q-dot - H' up to a total time derivative.
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
    L_t = _pull_back(L_R.lagrangian,
                     {name: surface_inverse[name] for name in L_R.variables},
                     eta)
    H_prime = normalize(Mul((Const(-1), substitute(
        L_t, {velocity_symbol(v): 0 for v in eta}))))

    for i, row in enumerate(_two_form(L_t, eta)):
        for j, f_ij in enumerate(row, start=i + 1):
            vi, vj = eta[i], eta[j]
            want = map.expected_bracket(vj, vi)
            cmp = numeric_compare(f_ij, Const(want), chart, seed=seed)
            if not cmp.equal:
                raise CanonicityError(
                    f"velocity matrix entry ({vi}, {vj}) = {f_ij} "
                    f"!= {want} (max scaled err {cmp.max_scaled_err:.3e}); "
                    f"transform is not canonical up to a total derivative")
    return H_prime


class ReducedSystem(Record):
    """Emergent unconstrained system on the reduced pairs."""

    space: PhaseSpace
    h_star: Expr
    provenance: Tuple[str, ...]


class EliminationResult(Record):
    """How z left: the gauge condition chi = 0 (chi is z itself on the
    pure-gauge branch), the solved z (None there) and the reduced system."""

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
    rs = ReducedSystem(space=PhaseSpace(coords, moms), h_star=h_star,
                       provenance=tuple(steps))
    return EliminationResult(chi=chi_reported, z_solution=z_solution, system=rs)


def jacobi_liouville_check(map: CanonicalMap, c: ConstraintSpec,
                           sys: FlowSystem, tol: float = 1e-7,
                           seed: int = 0) -> bool:
    """Jacobian of the constrained chart map against the constraint slope.

    det d(eta)/d(xi-hat) multiplied by dphi/dxi1 (at xi1 = g) must be a
    chart-wide constant of unit magnitude.  The sign is an orientation
    convention of the particular map, so it is pinned at the first sample
    point and required to persist.  Each Jacobian entry is a symbolic
    derivative evaluated on the sample columns.  Too many singular
    Jacobians raise DomainError, unless an orientation mismatch comes
    first in sample order.  Memoized per process (see sampled_check).
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
    # lazily, so errors come in the order of a loop over the entries
    jac = evaluate((differentiate(e, v) for e in surface_targets
                    for v in reduced_vars), cols).T.reshape(
        n, len(surface_targets), len(reduced_vars))
    dets = np.linalg.det(jac)
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
    """Full pipeline with a provenance log: returns (L_R, presymplectic
    form, EliminationResult), the log riding on the result's system.

    Memoized per process for each (sys, c, map, seed) (see sampled_check):
    the pipeline reads nothing else, and its result is a tuple of frozen
    records (see expr.Record), which no caller can change.  A call that
    raises stores nothing.
    """
    return sampled_check(_run_reduction, sys, c, map, seed)


def _run_reduction(sys: FlowSystem, c: ConstraintSpec, map: CanonicalMap,
                   seed: int):
    # the stages are looked up as module globals, so a function put in
    # their place after import is the one that runs
    steps = []
    c.validate(sys, seed=seed)
    L_R, f = eliminate_primary(sys, c)
    steps.append(f"eliminated {c.eliminated} = {c.solution}")
    point = sys.chart.sample_columns(1, seed=seed)
    steps.append(f"presymplectic rank at chart points: "
                 f"{f.rank_at(point)} of {len(f.variables)}")
    H_prime = apply_darboux(L_R, map, sys.space, sys.chart, seed=seed)
    steps.append(f"canonical chart ({', '.join(map.eta)}) verified; "
                 f"velocity matrix in normal form")
    result = eliminate_z(H_prime, map, sys.chart, seed=seed,
                         provenance=tuple(steps))
    return L_R, f, result
