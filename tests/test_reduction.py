import json

import pytest

from emq import expr as expr_module, reduction
from emq.cli import EXIT_CHECK, EXIT_OK, main
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
from emq.sysfile import bundled_text, load_bundled, load_model, loads_model
from product_models import product_model


def _h(model, text):
    return expand(normalize(parse(text, model.symbols)))


@pytest.fixture(scope="module")
def ho_y_model():
    """harmonic with the coordinate y eliminated in place of p_x: the one
    model whose eliminated velocity occurs in L, so that the chain rule of
    eliminate_primary's pull-back changes it."""
    text = bundled_text("harmonic")
    for old, new in (("eliminate = p_x", "eliminate = y"),
                     ("solution = x/alpha - a1*y",
                      "solution = (x/alpha - p_x)/a1")):
        assert text.count(old) == 1
        text = text.replace(old, new)
    return loads_model(text, name="harmonic_y")


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
    for seed in range(5):
        # one null direction on the surface
        assert f.rank_at(free_model.chart.sample_columns(1, seed)) == 2


def presymplectic_direct(sys: FlowSystem, c: ConstraintSpec) -> PresymplecticForm:
    """The same form from the closed formula instead of the one-form.

    f_ij = w_ij - w_1i dg/dxi^j + w_1j dg/dxi^i for i < j, where index 1 is
    the eliminated variable and w the full symplectic matrix: the oracle
    for eliminate_primary.
    """
    ps = sys.space
    xi = ps.xi
    k = xi.index(c.eliminated)
    reduced_vars = tuple(v for v in xi if v != c.eliminated)
    g = c.solution
    rows = []
    for a, vi in enumerate(reduced_vars):
        i = xi.index(vi)
        row = []
        for vj in reduced_vars[a + 1:]:
            j = xi.index(vj)
            terms = [Const(ps.omega_entry(i, j))]
            w_ki = ps.omega_entry(k, i)
            w_kj = ps.omega_entry(k, j)
            if w_ki != 0:
                terms.append(Mul((Const(-w_ki), differentiate(g, vj))))
            if w_kj != 0:
                terms.append(Mul((Const(w_kj), differentiate(g, vi))))
            row.append(normalize(Add(tuple(terms))))
        rows.append(tuple(row))
    return PresymplecticForm(reduced_vars, tuple(rows))


def test_presymplectic_matches_direct_formula(free_model, ho_model,
                                             ho_y_model):
    for m in (free_model, ho_model, ho_y_model):
        _, f = eliminate_primary(m.system, m.constraint)
        g = presymplectic_direct(m.system, m.constraint)
        assert f.variables == g.variables
        for row_f, row_g in zip(f.upper, g.upper, strict=True):
            for f_ij, g_ij in zip(row_f, row_g, strict=True):
                assert numeric_compare(f_ij, g_ij, m.system.chart, n=40,
                                       tol=1e-9).equal


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


def _scanned_bracket(m, a, b):
    # the scan expected_bracket made on each call before it read a table
    for coord, mom in m.pairs + (m.gauge,):
        if (a, b) == (coord, mom):
            return 1
        if (a, b) == (mom, coord):
            return -1
    return 0


@pytest.mark.parametrize("name", ["free_particle", "harmonic",
                                  "free_particle_lambda", "product4"])
def test_map_tables_give_the_scanned_lookups(name):
    m = (loads_model(product_model(4), name=name) if name == "product4"
         else load_bundled(name)).darboux
    names = m.target_names + ("not_a_target",)
    for a in names:
        for b in names:
            assert m.expected_bracket(a, b) == _scanned_bracket(m, a, b), (a, b)
    forward = dict(m.forward)
    for t in m.target_names:
        assert m.forward_expr(t) is forward[t]


def test_map_requires_all_forward_expressions(ho_model):
    m = ho_model.darboux
    trimmed = tuple(kv for kv in m.forward if kv[0] != "p_z")
    with pytest.raises(DomainError, match="p_z"):
        m.replace(forward=trimmed)


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
    broken = ho_model.darboux.replace(forward=flipped_fwd)
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
    H_prime = apply_darboux(L_R, ho_model.darboux, ho_model.system.space,
                            ho_model.system.chart)
    allowed = set(ho_model.darboux.target_names) | set(ho_model.params)
    assert H_prime.free_symbols() <= allowed


def test_reduced_hamiltonian_closed_forms(free_model, ho_model, lam_model,
                                         ho_y_model):
    cases = (
        (free_model, "a1*p_zeta^2"),
        (ho_model, "p_zeta^2/(2*a1) + (a1/2)*zeta^2"),
        (ho_y_model, "p_zeta^2/(2*a1) + (a1/2)*zeta^2"),
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
    assert free_res.chi == Sym("z")

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
    scaled = free_model.darboux.replace(forward=scaled_fwd)
    assert not jacobi_liouville_check(scaled, free_model.constraint,
                                      free_model.system)


def test_jacobi_liouville_is_memoized_on_its_arguments(free_model,
                                                       monkeypatch):
    runs = []
    check = reduction._jacobi_liouville

    def counting(*args):
        runs.append(args)
        return check(*args)

    monkeypatch.setattr(reduction, "_jacobi_liouville", counting)
    expr_module.sampled_check.cache_clear()
    m = free_model
    for _ in range(2):
        assert jacobi_liouville_check(m.darboux, m.constraint, m.system)
    assert len(runs) == 1
    assert jacobi_liouville_check(m.darboux, m.constraint, m.system, seed=1)
    assert jacobi_liouville_check(m.darboux, m.constraint, m.system,
                                  tol=1e-6)
    assert len(runs) == 3
    # a flat chart map has a singular Jacobian everywhere: it raises on
    # every call and stores nothing
    flat = m.darboux.replace(forward=tuple(
        (k, ZERO if k == "zeta" else v) for k, v in m.darboux.forward))
    for count in (4, 5):
        with pytest.raises(DomainError, match="singular Jacobian"):
            jacobi_liouville_check(flat, m.constraint, m.system)
        assert len(runs) == count
    assert expr_module.sampled_check.cache_info().currsize == 3


# ---------------------------------------------------------------------------
# the reduction memo
# ---------------------------------------------------------------------------

def _edited(tmp_path, name, *edits):
    """harmonic with each (old, new) line replaced once, written to name."""
    text = bundled_text("harmonic")
    for old, new in edits:
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _counted_pipeline(monkeypatch):
    """The arguments of every run of run_reduction's body, from an empty
    sampled-check cache."""
    runs = []
    body = reduction._run_reduction

    def counting(*args):
        runs.append(args)
        return body(*args)

    monkeypatch.setattr(reduction, "_run_reduction", counting)
    expr_module.sampled_check.cache_clear()
    return runs


def _report(argv, capsys):
    code = main(argv + ["--json"])
    report = json.loads(capsys.readouterr().out)
    report.pop("elapsed_s")
    return code, report


def test_a_repeated_reduction_runs_its_pipeline_once(tmp_path, monkeypatch,
                                                     capsys):
    # a classical-mode copy of harmonic: another file, the same system,
    # constraint and map
    classical = _edited(tmp_path, "classical.sys",
                        ("mode = imaginary\n", "mode = classical\n"),
                        ("beta = 1.0\n", "time = 1.0\n"))
    runs = _counted_pipeline(monkeypatch)
    reports = [_report([command, spec, "--seed", "4"], capsys)
               for spec in ("harmonic", classical)
               for command in ("reduce", "propagate", "reduce")]
    assert [code for code, _ in reports] == [EXIT_OK] * 6
    assert len(runs) == 1
    first = reports[0][1]
    for _, rep in reports[2::3]:
        assert (rep["notes"], rep["provenance"]) == \
            (first["notes"], first["provenance"])
    # a new seed runs the pipeline again, and so does an emptied cache
    assert _report(["reduce", "harmonic", "--seed", "5"], capsys)[0] \
        == EXIT_OK
    assert len(runs) == 2
    expr_module.sampled_check.cache_clear()
    assert _report(["reduce", classical, "--seed", "4"], capsys) \
        == reports[5]
    assert len(runs) == 3


def test_the_reduction_memo_keys_on_the_map(tmp_path, monkeypatch, capsys):
    # the zeta sign flip changes the map alone: a memo keyed without it
    # would hand back harmonic's reduction
    flipped = _edited(tmp_path, "flipped.sys",
                      ("zeta = -(p_x - x/alpha - a1*y)/(sqrt(2)*a1)",
                       "zeta = (p_x - x/alpha - a1*y)/(sqrt(2)*a1)"))
    ho, bad = load_bundled("harmonic"), load_model(flipped)
    assert (bad.system, bad.constraint) == (ho.system, ho.constraint)
    assert bad.darboux != ho.darboux
    runs = _counted_pipeline(monkeypatch)
    assert _report(["reduce", "harmonic", "--seed", "6"], capsys)[0] \
        == EXIT_OK
    # a pipeline that raises stores nothing: it raises again on every call
    for count in (2, 3):
        code, rep = _report(["reduce", flipped, "--seed", "6"], capsys)
        assert code == EXIT_CHECK
        assert [(c["name"], c["ok"]) for c in rep["checks"]] == \
            [("reduction pipeline", False)]
        assert rep["checks"][0]["detail"].startswith("CanonicityError:")
        assert len(runs) == count
    for count in (4, 5):
        with pytest.raises(CanonicityError):
            run_reduction(bad.system, bad.constraint, bad.darboux, seed=6)
        assert len(runs) == count
