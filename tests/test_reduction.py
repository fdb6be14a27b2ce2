import dataclasses

import pytest

from emq.expr import (
    Add, Const, DomainError, Mul, SampleDomain, Sym, ZERO, differentiate,
    expand, normalize, numeric_compare, parse,
)
from emq.reduction import (
    CanonicalMap, CanonicityError, ConstraintSpec, PresymplecticForm,
    UnsupportedPatternError, apply_darboux, eliminate_primary, eliminate_z,
    jacobi_liouville_check, run_reduction, verify_canonicity,
)
from emq.symplectic import FlowSystem


def _h(model, text):
    return expand(normalize(parse(text, model.symbols)))


# ---------------------------------------------------------------------------
# constraint handling
# ---------------------------------------------------------------------------

def test_constraint_validates_on_bundled_models(free_model, ho_model, lam_model):
    for m in (free_model, ho_model, lam_model):
        m.constraint.validate(m.system)


def test_constraint_rejects_bad_specs(free_model):
    sys = free_model.system
    good = free_model.constraint
    with pytest.raises(DomainError):
        ConstraintSpec(phi=good.phi, eliminated="nope",
                       solution=good.solution).validate(sys)
    with pytest.raises(DomainError, match="eliminated"):
        ConstraintSpec(phi=good.phi, eliminated="p_x",
                       solution=Sym("p_x")).validate(sys)
    with pytest.raises(DomainError, match="does not solve"):
        ConstraintSpec(phi=good.phi, eliminated="p_x",
                       solution=Sym("x")).validate(sys)
    with pytest.raises(DomainError, match="does not depend"):
        ConstraintSpec(phi=ZERO, eliminated="p_x",
                       solution=Sym("x")).validate(sys)


# ---------------------------------------------------------------------------
# primary elimination and the presymplectic matrix
# ---------------------------------------------------------------------------

def test_eliminate_primary_shape_and_rank(free_model):
    L_R, f = eliminate_primary(free_model.system, free_model.constraint)
    assert len(L_R.variables) == 3  # 2N - 1 for N = 2
    assert L_R.variables == ("p_y", "x", "y")  # momenta first, p_x eliminated
    for pt in free_model.system.chart.sample(5, seed=2):
        assert f.rank_at(pt) == 2  # one null direction on the surface


def presymplectic_direct(sys: FlowSystem, c: ConstraintSpec) -> PresymplecticForm:
    """The same matrix from the closed formula instead of the one-form.

    f_ij = w_ij - w_1i dg/dxi^j + w_1j dg/dxi^i, where index 1 is the
    eliminated variable and w the full symplectic matrix: the oracle for
    eliminate_primary.
    """
    ps = sys.space
    xi = ps.xi
    k = xi.index(c.eliminated)
    reduced_vars = tuple(v for v in xi if v != c.eliminated)
    g = c.solution
    rows = []
    for vi in reduced_vars:
        i = xi.index(vi)
        row = []
        for vj in reduced_vars:
            j = xi.index(vj)
            terms = [Const(ps.omega_entry(i, j))]
            w_ki = ps.omega_entry(k, i)
            w_kj = ps.omega_entry(k, j)
            if w_ki != 0:
                terms.append(Mul((Const(-w_ki), differentiate(g, vj))))
            if w_kj != 0:
                terms.append(Mul((Const(w_kj), differentiate(g, vi))))
            row.append(normalize(Add(tuple(terms))) if len(terms) > 1
                       else normalize(terms[0]))
        rows.append(tuple(row))
    return PresymplecticForm(reduced_vars, tuple(rows))


def test_presymplectic_matches_direct_formula(free_model, ho_model):
    for m in (free_model, ho_model):
        _, f = eliminate_primary(m.system, m.constraint)
        g = presymplectic_direct(m.system, m.constraint)
        assert f.variables == g.variables
        dim = len(f.variables)
        for i in range(dim):
            for j in range(dim):
                assert numeric_compare(f.matrix[i][j], g.matrix[i][j],
                                       m.system.chart, n=40, tol=1e-9).equal


def test_presymplectic_is_antisymmetric(ho_model):
    _, f = eliminate_primary(ho_model.system, ho_model.constraint)
    pt = ho_model.system.chart.sample(1, seed=5)[0]
    mat = f.evaluate_at(pt)
    assert abs(mat + mat.T).max() < 1e-12


# ---------------------------------------------------------------------------
# canonical maps
# ---------------------------------------------------------------------------

def test_map_orderings_and_bracket_table(ho_model):
    m = ho_model.darboux
    assert m.pairs == (("zeta", "p_zeta"),)
    assert m.gauge == ("z", "p_z")
    assert m.target_names == ("p_zeta", "zeta", "z", "p_z")
    assert m.eta == ("p_zeta", "zeta", "z")
    assert m.expected_bracket("zeta", "p_zeta") == 1
    assert m.expected_bracket("p_zeta", "zeta") == -1
    assert m.expected_bracket("z", "p_z") == 1
    assert m.expected_bracket("zeta", "z") == 0


def test_map_requires_all_forward_expressions(ho_model):
    m = ho_model.darboux
    trimmed = tuple(kv for kv in m.forward if kv[0] != "p_z")
    with pytest.raises(DomainError, match="p_z"):
        dataclasses.replace(m, forward=trimmed)


def test_canonicity_passes_and_sign_flip_fails(ho_model):
    sys = ho_model.system
    checks = verify_canonicity(ho_model.darboux, sys.space, sys.chart)
    assert all(cmp.equal for cmp in checks.values())
    names = ho_model.darboux.target_names
    # 4 targets choose 2, in target order
    assert list(checks) == [(a, b) for i, a in enumerate(names)
                            for b in names[i + 1:]]

    flipped_fwd = tuple(
        (k, normalize(parse("-(" + str(v) + ")", ho_model.symbols)))
        if k == "zeta" else (k, v)
        for k, v in ho_model.darboux.forward)
    broken = dataclasses.replace(ho_model.darboux, forward=flipped_fwd)
    soft = verify_canonicity(broken, sys.space, sys.chart)
    assert not soft[("p_zeta", "zeta")].equal
    L_R, _ = eliminate_primary(sys, ho_model.constraint)
    with pytest.raises(CanonicityError, match="zeta"):
        apply_darboux(L_R, broken, sys.space, sys.chart)


# ---------------------------------------------------------------------------
# the Darboux step and gauge elimination
# ---------------------------------------------------------------------------

def test_transformed_hamiltonian_lives_on_targets(ho_model):
    L_R, _ = eliminate_primary(ho_model.system, ho_model.constraint)
    transformed = apply_darboux(L_R, ho_model.darboux, ho_model.system.space,
                                ho_model.system.chart)
    allowed = set(ho_model.darboux.target_names) | set(ho_model.system.parameters)
    assert transformed.hamiltonian.free_symbols() <= allowed


def test_reduced_hamiltonian_closed_forms(free_model, ho_model, lam_model):
    cases = (
        (free_model, "a1*p_zeta^2"),
        (ho_model, "p_zeta^2/(2*a1) + (a1/2)*zeta^2"),
        (lam_model, "(a1 + lam)*p_zeta^2"),
    )
    for model, text in cases:
        *_, res = run_reduction(model.system, model.constraint, model.darboux)
        want = _h(model, text)
        assert res.system.h_star == want
        dom = model.system.chart
        assert numeric_compare(res.system.h_star, want, dom, n=60,
                               tol=1e-10).equal


def test_gauge_branches(free_model, ho_model):
    *_, free_res = run_reduction(free_model.system, free_model.constraint,
                                 free_model.darboux)
    assert free_res.z_solution is None
    assert free_res.system.gauge_condition == Sym("z")

    *_, ho_res = run_reduction(ho_model.system, ho_model.constraint,
                               ho_model.darboux)
    assert ho_res.z_solution == ZERO
    assert ho_res.chi == _h(ho_model, "-(2*a1*z)")


def test_eliminate_z_solves_linear_stationarity(ho_model):
    chart = SampleDomain(ranges=(
        ("zeta", -1.0, 1.0), ("p_zeta", 0.5, 1.5), ("z", -1.0, 1.0)))
    H = _h(ho_model, "p_zeta^2 + (z - zeta)^2")
    res = eliminate_z(H, ho_model.darboux, chart)
    assert res.z_solution == Sym("zeta")
    assert res.system.h_star == _h(ho_model, "p_zeta^2")


def test_eliminate_z_rejects_unsupported_patterns(ho_model):
    quartic_chart = SampleDomain(ranges=(("z", 0.5, 1.5),))
    with pytest.raises(UnsupportedPatternError, match="not linear"):
        eliminate_z(_h(ho_model, "z^4"), ho_model.darboux, quartic_chart)
    with pytest.raises(UnsupportedPatternError, match="survive"):
        eliminate_z(_h(ho_model, "p_z^2"), ho_model.darboux,
                    ho_model.system.chart)


def test_run_reduction_provenance(ho_model):
    *_, res = run_reduction(ho_model.system, ho_model.constraint,
                            ho_model.darboux)
    log = " | ".join(res.system.provenance)
    assert "eliminated p_x" in log
    assert "presymplectic rank" in log
    assert "canonical chart" in log
    assert "stationarity branch" in log


# ---------------------------------------------------------------------------
# volume consistency
# ---------------------------------------------------------------------------

def test_jacobi_liouville_on_bundled_models(free_model, ho_model, lam_model):
    for m in (free_model, ho_model, lam_model):
        assert jacobi_liouville_check(m.darboux, m.constraint, m.system)


def test_jacobi_liouville_rejects_scaled_chart(free_model):
    scaled_fwd = tuple(
        (k, normalize(parse("2*(" + str(v) + ")", free_model.symbols)))
        if k == "zeta" else (k, v)
        for k, v in free_model.darboux.forward)
    scaled = dataclasses.replace(free_model.darboux, forward=scaled_fwd)
    assert not jacobi_liouville_check(scaled, free_model.constraint,
                                      free_model.system)
