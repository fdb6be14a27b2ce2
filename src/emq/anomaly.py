"""Slicing corrections for the reduced action built from a generating function.

The continuum reduction is exact, but a sliced action has to carry the
canonical transformation across each time step through a mixed-variable
generating function F(old momenta; new coordinates).  Doing that consistently
adds per-slice correction terms: four coefficients multiplying the increments
of the reduced pair and of the gauge pair.  This module derives the
transformation relations implied by F, assembles the coefficients, restricts
them to the gauge surface z = p_z = 0, expands the gauge-fixed slice
Hamiltonian to first order in the increments, and measures how the surviving
corrections scale with the slice width (the 3/2-power law that makes them
drop out of the continuum limit).

Every correction term carries a third derivative of F, so for a quadratic
F (every third partial structurally 0, expr.is_quadratic) all four
coefficients vanish identically and the check is structural.  For a
non-quadratic F, such as the free-particle chart, the gauge-coordinate
coefficient ships as reference data in the model file.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .expr import (
    Expr, Const, Sym, Add, Mul, Div, ZERO,
    EvalError, ExprError, Record, SampleDomain, ComparisonResult,
    differentiate, evaluate, is_quadratic, normalize, numeric_compare,
    sampled_values, substitute,
)
from .reduction import CanonicalMap, UnsupportedPatternError
from .symplectic import PhaseSpace

__all__ = [
    "AnomalyError", "ChartSingularityError",
    "GeneratingFunction", "AnomalyCoeffs",
    "SlicedExpansionReport",
    "ScalingFit",
    "increment_symbol", "consistency_report", "anomaly_coefficients",
    "constraint_surface_vanishing", "sliced_expansion_check",
    "correction_scaling",
]

COEFF_NAMES = ("A_zeta", "A_z", "B_zeta", "B_z")


class AnomalyError(ExprError):
    """Generating-function data inconsistent with the chart it claims."""


class ChartSingularityError(AnomalyError):
    """The old momenta cannot be recovered at this parameter point."""


def increment_symbol(name: str) -> str:
    """Symbol holding the inter-slice increment of a chart variable."""
    return "delta_" + name


# ---------------------------------------------------------------------------
# generating function and implied relations
# ---------------------------------------------------------------------------

class GeneratingFunction(Record):
    """Mixed generating function F(old momenta, new coordinates).

    momentum_pairs lists (old momentum, old coordinate it determines) and
    coordinate_pairs lists (new coordinate, new momentum it determines); the
    transformation is read off through

        old coordinate = -dF/d(old momentum)
        new momentum   = -dF/d(new coordinate)

    Only those four derivatives are ever used, so F is defined up to an
    additive function of the parameters.
    """

    expr: Expr
    momentum_pairs: Tuple[Tuple[str, str], ...]
    coordinate_pairs: Tuple[Tuple[str, str], ...]

    @classmethod
    def for_chart(cls, expr: Expr, ps: PhaseSpace,
                  map: CanonicalMap) -> "GeneratingFunction":
        mom_pairs = tuple((ps.conjugate_momentum(c), c) for c in ps.coordinates)
        coord_pairs = tuple(map.pairs) + (map.gauge,)
        gen = cls(expr, mom_pairs, coord_pairs)
        # mixed-type: F may not depend on the variables its relations define
        defined = {q for _, q in mom_pairs} | {m for _, m in coord_pairs}
        bad = set(expr.free_symbols()) & defined
        if bad:
            raise AnomalyError(
                f"generating function depends on the defined variables "
                f"{sorted(bad)}; it must be written in the old momenta and "
                f"new coordinates only")
        return gen

    @property
    def arguments(self) -> Tuple[str, ...]:
        return tuple(v for v, _ in self.momentum_pairs + self.coordinate_pairs)

    def relations(self) -> Tuple[Tuple[str, Expr], ...]:
        """(defined name, expression) pairs, old coordinates first."""
        out = []
        for var, defines in self.momentum_pairs + self.coordinate_pairs:
            d = differentiate(self.expr, var)
            out.append((defines, normalize(Mul((Const(-1), d)))))
        return tuple(out)

    def is_quadratic(self) -> bool:
        return is_quadratic(self.expr, self.arguments)


def consistency_report(gen: GeneratingFunction, map: CanonicalMap,
                       chart: SampleDomain, n: int = 64, tol: float = 1e-8,
                       seed: int = 0) -> Dict[str, ComparisonResult]:
    """Check the relations implied by F against the shipped chart.

    Each relation is pushed to the source chart by substituting the forward
    expressions for the new coordinates, then compared against the forward
    expression it should reproduce (or against the source symbol itself for
    an old coordinate).
    """
    on_shell = {coord: map.forward_expr(coord)
                for coord, _ in gen.coordinate_pairs}
    new_momenta = {m for _, m in gen.coordinate_pairs}
    out = {}
    for defines, rel in gen.relations():
        lhs = normalize(substitute(rel, on_shell))
        if defines in new_momenta:
            rhs = map.forward_expr(defines)
        else:
            rhs = Sym(defines)
        out[defines] = numeric_compare(lhs, rhs, chart, n=n, tol=tol, seed=seed)
    return out


# ---------------------------------------------------------------------------
# correction coefficients
# ---------------------------------------------------------------------------

class AnomalyCoeffs(Record):
    """Per-slice correction coefficients on the target chart.

    A_zeta and A_z multiply the coordinate increments of the reduced pair and
    the gauge pair; B_zeta and B_z multiply the momentum increments.  source
    records how the values were obtained ("third-derivative structure" or
    "reference data"); notes carry caveats that any report built on top
    should surface verbatim.
    """

    A_zeta: Expr
    A_z: Expr
    B_zeta: Expr
    B_z: Expr
    source: str
    notes: Tuple[str, ...] = ()

    def as_pairs(self) -> Tuple[Tuple[str, Expr], ...]:
        return (("A_zeta", self.A_zeta), ("A_z", self.A_z),
                ("B_zeta", self.B_zeta), ("B_z", self.B_z))

    @property
    def all_zero(self) -> bool:
        return all(e == ZERO for _, e in self.as_pairs())


def anomaly_coefficients(gen: GeneratingFunction,
                         reference_A_z: Optional[Expr] = None) -> AnomalyCoeffs:
    """Correction coefficients for the sliced transformation generated by F.

    Quadratic F: all four coefficients are structurally zero because every
    correction term carries a third derivative of F.  Non-quadratic F: the
    gauge-coordinate coefficient is the shipped reference closed form and the
    other three vanish on this chart family; without reference data there is
    nothing to return, so this raises AnomalyError.
    """
    if gen.is_quadratic():
        return AnomalyCoeffs(
            ZERO, ZERO, ZERO, ZERO,
            source="third-derivative structure",
            notes=("quadratic generating function: every correction term "
                   "carries one of its third derivatives, so all four "
                   "coefficients vanish identically",))
    if reference_A_z is None:
        raise AnomalyError(
            "generating function is not quadratic and [anomaly] declares no "
            "reference_A_z; its correction coefficients need that closed form")
    return AnomalyCoeffs(
        ZERO, reference_A_z, ZERO, ZERO,
        source="reference data",
        notes=("non-quadratic generating function: coefficients taken "
               "from shipped reference data for this chart family",
               "an end-to-end derivation of the gauge-coordinate "
               "coefficient from F alone is not settled here"))


# ---------------------------------------------------------------------------
# gauge-surface restriction
# ---------------------------------------------------------------------------

def constraint_surface_vanishing(coeffs: AnomalyCoeffs, map: CanonicalMap,
                                 chart: SampleDomain, seed: int = 0
                                 ) -> Dict[str, ComparisonResult]:
    """Restrict each coefficient to z = p_z = 0 and compare it with zero.

    Every restriction is sampled on the chart; a structural zero compares
    as 0 against 0, with max scaled error 0.  The physical statement is
    that the corrections are pure gauge: they multiply increments of
    variables the gauge fixing freezes, or vanish once the frozen values
    are substituted.
    """
    surface = {map.z: ZERO, map.p_z: ZERO}
    return {name: numeric_compare(normalize(substitute(e, surface)), ZERO,
                                  chart, seed=seed)
            for name, e in coeffs.as_pairs()}


# ---------------------------------------------------------------------------
# sliced expansion of the gauge-fixed Hamiltonian
# ---------------------------------------------------------------------------

class SlicedExpansionReport(Record):
    """derived: each term's form, keyed constant, momentum_shift,
    coordinate_shift; comparisons: the same keys against the expected
    forms, empty when none were given."""

    derived: Dict[str, Expr]
    comparisons: Dict[str, ComparisonResult]


def _midpoint_shift(e: Expr, block: Sequence[str]) -> Expr:
    """e minus half its differential along the block's increments."""
    # a zero differential adds a zero term, which the normal form drops
    terms = [e]
    for name in block:
        terms.append(Mul((Const(Fraction(-1, 2)), differentiate(e, name),
                          Sym(increment_symbol(name)))))
    return normalize(Add(terms))


def sliced_expansion_check(gen: GeneratingFunction, map: CanonicalMap,
                           hamiltonian: Expr, chart: SampleDomain,
                           expected: Optional[Tuple[Expr, Expr, Expr]] = None,
                           n: int = 100, tol: float = 1e-8,
                           seed: int = 0) -> SlicedExpansionReport:
    """Expand the gauge-fixed slice Hamiltonian to first order in increments.

    The midpoint form of each relation shifts it by minus half its
    differential in the conjugate block.  The two new-momentum relations are
    then solved for the old momenta (they must be affine; the 2x2 determinant
    is the chart-regularity certificate), the old coordinates and momenta in
    the Hamiltonian are replaced, the old-momentum increments are expanded
    through the inverse-map differentials, and the gauge surface
    z = p_z = delta_z = delta_p_z = 0 is imposed.  What survives is the
    reduced Hamiltonian plus one correction linear in each remaining
    increment; expected, when given, holds reference forms for
    (constant, delta-momentum coefficient, delta-coordinate coefficient).
    """
    if len(gen.momentum_pairs) != 2 or len(gen.coordinate_pairs) != 2:
        raise UnsupportedPatternError(
            "sliced expansion expects two old pairs and two new pairs")
    moms = tuple(v for v, _ in gen.momentum_pairs)
    newc = tuple(v for v, _ in gen.coordinate_pairs)
    newm = tuple(m for _, m in gen.coordinate_pairs)
    rel = dict(gen.relations())

    # midpoint relations: coordinates shift in the old momenta, momenta in
    # the new coordinates
    sym_rel = {}
    for mom, coord in gen.momentum_pairs:
        sym_rel[coord] = _midpoint_shift(rel[coord], moms)
    for coord, mom in gen.coordinate_pairs:
        sym_rel[mom] = _midpoint_shift(rel[mom], newc)

    # solve the two momentum relations for the old momenta (affine, Cramer)
    zero_moms = {b: ZERO for b in moms}
    matrix = []
    residual = []
    for m in newm:
        row = []
        for b in moms:
            entry = differentiate(sym_rel[m], b)
            for c in moms:
                if differentiate(entry, c) != ZERO:
                    raise UnsupportedPatternError(
                        f"relation for {m} is not affine in the old momenta")
            row.append(entry)
        matrix.append(row)
        residual.append(normalize(substitute(sym_rel[m], zero_moms)))
    det = normalize(Add((Mul((matrix[0][0], matrix[1][1])),
                         Mul((Const(-1), matrix[0][1], matrix[1][0])))))
    if det == ZERO:
        raise ChartSingularityError(
            "the generated relations do not determine the old momenta")
    rhs = [normalize(Add((Sym(m), Mul((Const(-1), r)))))
           for m, r in zip(newm, residual)]
    sol = {
        moms[0]: normalize(Div(Add((Mul((rhs[0], matrix[1][1])),
                                    Mul((Const(-1), rhs[1], matrix[0][1])))),
                               det)),
        moms[1]: normalize(Div(Add((Mul((matrix[0][0], rhs[1])),
                                    Mul((Const(-1), matrix[1][0], rhs[0])))),
                               det)),
    }

    # chart regularity at the sample points used below
    try:
        small = np.abs(sampled_values(det, chart, n, seed)) < 1e-9
    except EvalError as exc:
        raise ChartSingularityError(
            f"old-momentum solve degenerates: {exc}") from exc
    if small.any():
        i = int(small.argmax())
        point = {k: float(v[i])
                 for k, v in chart.sample_columns(n, seed=seed).items()}
        raise ChartSingularityError(
            f"old-momentum solve degenerates at {point}")

    # old-momentum increments through the inverse-map differentials
    inv = dict(map.inverse)
    delta_subs = {}
    for b in moms:
        pieces = []
        for t in map.target_names:
            d = differentiate(inv[b], t)
            if d == ZERO:
                continue
            pieces.append(Mul((d, Sym(increment_symbol(t)))))
        if not pieces:
            raise AnomalyError(f"inverse expression for {b} is constant")
        delta_subs[increment_symbol(b)] = Add(pieces)

    h1 = substitute(hamiltonian,
                    {coord: sym_rel[coord] for _, coord in gen.momentum_pairs})
    h2 = substitute(h1, sol)
    h3 = substitute(h2, delta_subs)
    surface = {newc[1]: ZERO, newm[1]: ZERO,
               increment_symbol(newc[1]): ZERO,
               increment_symbol(newm[1]): ZERO}
    h_surface = normalize(substitute(h3, surface))

    dp = increment_symbol(newm[0])
    dq = increment_symbol(newc[0])
    no_delta = {dp: ZERO, dq: ZERO}
    constant = normalize(substitute(h_surface, no_delta))
    coeff_p = normalize(substitute(differentiate(h_surface, dp), no_delta))
    coeff_q = normalize(substitute(differentiate(h_surface, dq), no_delta))

    derived = {"constant": constant, "momentum_shift": coeff_p,
               "coordinate_shift": coeff_q}
    comparisons = {}
    if expected is not None:
        comparisons = {name: numeric_compare(e, want, chart, n=n, tol=tol,
                                             seed=seed)
                       for (name, e), want in zip(derived.items(), expected)}
    return SlicedExpansionReport(derived, comparisons)


# ---------------------------------------------------------------------------
# scaling of the surviving corrections
# ---------------------------------------------------------------------------

class ScalingFit(Record):
    widths: Tuple[float, ...]
    means: Tuple[float, ...]
    slope: float


def correction_scaling(report: SlicedExpansionReport, chart: SampleDomain,
                       seed: int = 0) -> ScalingFit:
    """Per-slice contribution of the correction terms versus slice width.

    Increments of a thermal path scale like sqrt(width), and the correction
    enters the sliced action multiplied by the width itself, so the mean
    absolute per-slice contribution follows width^(3/2).  The fit returns the
    log-log slope over widths 2^-4 .. 2^-10, 4000 increments each.  The
    increments are drawn with seed |seed|, as the chart draws its points,
    so a negative seed gives the report of its absolute value.
    """
    widths = tuple(2.0 ** -k for k in range(4, 11))
    n_samples = 4000
    c_p = report.derived["momentum_shift"]
    c_q = report.derived["coordinate_shift"]
    point = chart.sample_columns(1, seed=seed)
    vp, vq = evaluate((c_p, c_q), point)[:, 0].tolist()
    rng = np.random.default_rng(abs(seed))
    means = []
    for eps in widths:
        sd = math.sqrt(eps)
        dp = rng.normal(0.0, sd, size=n_samples)
        dq = rng.normal(0.0, sd, size=n_samples)
        means.append(eps * float(np.mean(np.abs(vp * dp + vq * dq))))
    slope = float(np.polyfit(np.log(widths), np.log(means), 1)[0])
    return ScalingFit(tuple(widths), tuple(means), slope)
