import math
import random

import numpy as np
import pytest

from emq.anomaly import (
    COEFF_NAMES, AnomalyError, ChartSingularityError, GeneratingFunction,
    anomaly_coefficients, consistency_report, constraint_surface_vanishing,
    correction_scaling, increment_symbol, sliced_expansion_check,
)
from emq.expr import (
    Add, ComparisonResult, Const, Div, Fraction, Fun, Mul, SampleDomain, Sym,
    ZERO, ONE,
    columns, evaluate, normalize, numeric_compare, parse, substitute,
)
from emq.reduction import UnsupportedPatternError, fd_jacobian
from emq.symplectic import PhaseSpace


def _gen(model):
    return GeneratingFunction.for_chart(model.anomaly_F, model.system.space,
                                        model.darboux)


def _random_quadratic(seed):
    """Quadratic in (p_x, p_y, zeta, z) with an invertible cross block."""
    rng = random.Random(seed)
    p = (Sym("p_x"), Sym("p_y"))
    q = (Sym("zeta"), Sym("z"))
    while True:
        M = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        if M[0][0] * M[1][1] - M[0][1] * M[1][0] != 0:
            break
    terms = []
    for i in range(2):
        for j in range(2):
            if M[i][j]:
                terms.append(Mul((Const(M[i][j]), p[i], q[j])))
    for u in p + q:
        c = rng.randint(-2, 2)
        if c:
            terms.append(Mul((Const(Fraction(c, 2)), u, u)))
        c = rng.randint(-2, 2)
        if c:
            terms.append(Mul((Const(c), u)))
    return normalize(Add(tuple(terms)))


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------

def test_for_chart_builds_the_pairings(ho_model):
    gen = _gen(ho_model)
    assert gen.momentum_pairs == (("p_x", "x"), ("p_y", "y"))
    assert gen.coordinate_pairs == (("zeta", "p_zeta"), ("z", "p_z"))
    assert gen.arguments == ("p_x", "p_y", "zeta", "z")
    assert increment_symbol("zeta") == "delta_zeta"
    assert COEFF_NAMES == ("A_zeta", "A_z", "B_zeta", "B_z")


def test_for_chart_rejects_defined_variables(ho_model):
    bad = normalize(parse("x*zeta", ho_model.symbols))
    with pytest.raises(AnomalyError, match="defined variables"):
        GeneratingFunction.for_chart(bad, ho_model.system.space,
                                     ho_model.darboux)


def test_quadratic_detection(free_model, ho_model):
    assert _gen(ho_model).is_quadratic()
    assert not _gen(free_model).is_quadratic()


def test_bundled_charts_are_consistent_with_their_F(free_model, ho_model):
    for m in (free_model, ho_model):
        rep = consistency_report(_gen(m), m.darboux, m.chart, n=64, tol=1e-8)
        assert set(rep) == {"x", "y", "p_zeta", "p_z"}
        assert all(cmp.equal for cmp in rep.values())


# ---------------------------------------------------------------------------
# correction coefficients
# ---------------------------------------------------------------------------

def test_quadratic_F_gives_structural_zeros(ho_model):
    coeffs = anomaly_coefficients(_gen(ho_model))
    assert coeffs.all_zero
    assert coeffs.source == "third-derivative structure"


def test_twenty_random_quadratics_give_zeros(ho_model):
    ps = ho_model.system.space
    for seed in range(20):
        F = _random_quadratic(seed)
        gen = GeneratingFunction.for_chart(F, ps, ho_model.darboux)
        assert gen.is_quadratic()
        assert anomaly_coefficients(gen).all_zero


def test_reference_route_for_the_free_chart(free_model):
    gen = _gen(free_model)
    coeffs = anomaly_coefficients(gen, reference_A_z=free_model.reference_A_z)
    assert coeffs.source == "reference data"
    assert coeffs.A_z == free_model.reference_A_z
    assert coeffs.A_zeta == ZERO and coeffs.B_zeta == ZERO
    assert coeffs.B_z == ZERO
    assert any("not settled" in note for note in coeffs.notes)

    with pytest.raises(AnomalyError, match=r"\[anomaly\].*reference_A_z"):
        anomaly_coefficients(gen)


def test_reference_A_z_against_a_rebuilt_closed_form(free_model):
    z, pz, pzeta, a1 = Sym("z"), Sym("p_z"), Sym("p_zeta"), Sym("a1")
    sin_z = Fun("sin", (z,))
    cos_z = Fun("cos", (z,))
    bracket = Add((
        Mul((Add((ONE, Mul((Const(2), a1, z, pzeta)))), cos_z)),
        Mul((Add((Div(pz, pzeta), Mul((Const(-1), a1, pzeta)))), sin_z)),
    ))
    oracle = normalize(Mul((Const(Fraction(-1, 2)), bracket, sin_z)))
    dom = SampleDomain(ranges=(("z", -1.2, 1.2), ("p_z", -1.5, 1.5),
                               ("p_zeta", 0.5, 3.0), ("a1", 0.2, 1.2)))
    assert numeric_compare(oracle, free_model.reference_A_z, dom, n=100,
                           tol=1e-10).equal

    probe = {"z": 0.3, "p_zeta": 1.0, "p_z": 0.0, "a1": 0.5}
    val = evaluate(free_model.reference_A_z, probe)
    assert abs(val) > 1e-2
    assert val == pytest.approx(evaluate(oracle, probe), rel=1e-12)
    on_surface = normalize(substitute(free_model.reference_A_z, {"z": ZERO}))
    assert on_surface == ZERO


def test_coefficients_vanish_on_the_gauge_surface(free_model, ho_model):
    for m in (free_model, ho_model):
        coeffs = anomaly_coefficients(_gen(m), reference_A_z=m.reference_A_z)
        rep = constraint_surface_vanishing(coeffs, m.darboux, m.chart)
        assert all(cmp.equal for cmp in rep.values())
        assert tuple(rep) == COEFF_NAMES
        # structural after sin(0): nothing sampled
        assert rep["A_z"] == ComparisonResult(True, 0.0, None, 0)


# ---------------------------------------------------------------------------
# sliced expansion
# ---------------------------------------------------------------------------

EXPECTED_TEXTS = (
    "p_zeta^2/(2*a1) + (a1/2)*zeta^2",
    "-(alpha*p_zeta + zeta)/(4*a1*alpha)",
    "a1*zeta/4 - ((1 + 7*a1^2*alpha^2)/(a1^2*alpha^2 - 1))*p_zeta/(4*a1*alpha)",
)


def _expected(model):
    return tuple(normalize(parse(t, model.symbols)) for t in EXPECTED_TEXTS)


def test_sliced_expansion_matches_reference_forms(ho_model):
    rep = sliced_expansion_check(_gen(ho_model), ho_model.darboux,
                                 ho_model.system.hamiltonian, ho_model.chart,
                                 expected=_expected(ho_model), n=100, tol=1e-8)
    assert all(cmp.equal for cmp in rep.comparisons.values())
    assert tuple(rep.derived) == tuple(rep.comparisons) == (
        "constant", "momentum_shift", "coordinate_shift")
    # the shipped data file carries the same three forms
    assert ho_model.sliced_refs is not None
    for shipped, local in zip(ho_model.sliced_refs, _expected(ho_model)):
        assert numeric_compare(shipped, local, ho_model.chart, n=40,
                               tol=1e-12).equal


def test_sliced_constant_is_the_reduced_hamiltonian(ho_model, ho_reduced):
    rep = sliced_expansion_check(_gen(ho_model), ho_model.darboux,
                                 ho_model.system.hamiltonian, ho_model.chart)
    assert numeric_compare(rep.derived["constant"], ho_reduced.h_star,
                           ho_model.chart, n=60, tol=1e-10).equal
    assert rep.comparisons == {}  # nothing was expected


def test_sliced_expansion_flags_chart_degeneracy(ho_model):
    pinned = SampleDomain(ranges=(
        ("zeta", -1.0, 1.0), ("p_zeta", 0.5, 1.5),
        ("a1", 1.0, 1.0), ("alpha", 1.0, 1.0)))
    with pytest.raises(ChartSingularityError):
        sliced_expansion_check(_gen(ho_model), ho_model.darboux,
                               ho_model.system.hamiltonian, pinned)


def test_sliced_expansion_needs_affine_momentum_relations(ho_model):
    F = normalize(parse("p_x^2*zeta + p_y*z", ho_model.symbols))
    gen = GeneratingFunction.for_chart(F, ho_model.system.space,
                                       ho_model.darboux)
    with pytest.raises(UnsupportedPatternError, match="affine"):
        sliced_expansion_check(gen, ho_model.darboux,
                               ho_model.system.hamiltonian, ho_model.chart)


def test_correction_scaling_slope(ho_model):
    rep = sliced_expansion_check(_gen(ho_model), ho_model.darboux,
                                 ho_model.system.hamiltonian, ho_model.chart)
    fit = correction_scaling(rep, ho_model.chart)
    assert fit.slope == pytest.approx(1.5, abs=0.05)
    assert len(fit.widths) == len(fit.means) == 7


# ---------------------------------------------------------------------------
# finite-difference oracle for the inverse map
# ---------------------------------------------------------------------------

def implicit_partials_fd(map, sources, point):
    """d(source)/d(target) by inverting the differenced forward Jacobian.

    point binds every source variable and parameter.  This never touches the
    shipped inverse expressions, so it works as an oracle for them; a
    non-invertible Jacobian raises instead of silently pseudo-inverting.
    """
    sources = tuple(sources)
    targets = map.target_names
    if len(sources) != len(targets):
        raise AnomalyError(
            f"need a square Jacobian: {len(sources)} sources, "
            f"{len(targets)} targets")
    jac = fd_jacobian([map.forward_expr(t) for t in targets], sources,
                      columns([point]))[0]
    det = float(np.linalg.det(jac))
    if not math.isfinite(det) or abs(det) < 1e-12:
        raise AnomalyError(
            f"forward Jacobian is numerically singular at {point} "
            f"(det = {det:g})")
    inv = np.linalg.inv(jac)
    return {(s, t): float(inv[j, i])
            for j, s in enumerate(sources) for i, t in enumerate(targets)}


def test_fd_partials_match_the_shipped_inverse(ho_model):
    m = ho_model.darboux
    ps = ho_model.system.space
    point = ho_model.chart.sample(1, seed=4)[0]
    fd = implicit_partials_fd(m, ps.xi, point)
    target_point = {t: evaluate(m.forward_expr(t), point)
                    for t in m.target_names}
    target_point.update({k: point[k] for k in ("a1", "alpha")})
    from emq.expr import differentiate
    inverse = dict(m.inverse)
    for s in ps.xi:
        for t in m.target_names:
            sym = evaluate(differentiate(inverse[s], t), target_point)
            assert fd[(s, t)] == pytest.approx(sym, abs=5e-6)


def test_fd_partials_reject_singular_charts(free_model):
    import dataclasses
    m = free_model.darboux
    degenerate_fwd = tuple(
        (k, m.forward_expr("zeta")) if k == "z" else (k, v)
        for k, v in m.forward)
    broken = dataclasses.replace(m, forward=degenerate_fwd)
    point = free_model.chart.sample(1, seed=0)[0]
    with pytest.raises(AnomalyError, match="singular"):
        implicit_partials_fd(broken, free_model.system.space.xi, point)
    with pytest.raises(AnomalyError, match="square"):
        implicit_partials_fd(m, ("x",), point)
