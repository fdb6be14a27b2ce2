import json
import sys

import pytest

from conftest import clear_memos
from emq import expr, reduction
from emq.cli import EXIT_OK, main
from emq.expr import (Add, Const, Mul, Sym, differentiate, normalize,
                      substitute)
from emq.reduction import eliminate_primary, run_reduction, velocity_symbol
from emq.sysfile import load_bundled, loads_model
from product_models import expected_h_star, product_model


@pytest.mark.parametrize("k", [1, 4])
def test_a_product_model_reduces_to_its_known_hamiltonian(k, tmp_path,
                                                          capsys):
    path = tmp_path / f"product{k}.sys"
    path.write_text(product_model(k))
    assert main(["verify", str(path)]) == EXIT_OK
    capsys.readouterr()
    assert main(["reduce", str(path), "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    expected = expected_h_star(k)
    assert f"reduced hamiltonian: {expected}" in report["notes"]
    assert (f"presymplectic rank at chart points: {4 * k + 2} of {4 * k + 3}"
            in report["provenance"])
    # the printed H* is the expected tree itself, not only its text
    m = loads_model(product_model(k), name=f"product{k}")
    *_, result = run_reduction(m.system, m.constraint, m.darboux)
    assert result.system.h_star is expected


def test_one_rotation_adds_one_pair_of_terms():
    assert str(expected_h_star(1)) == (
        "1/2*a1*zeta^2 - p_s0*t0 + p_t0*s0 + 1/2*p_zeta^2/a1")
    assert str(expected_h_star(0)) == "1/2*a1*zeta^2 + 1/2*p_zeta^2/a1"


@pytest.mark.parametrize("command", ["verify", "reduce"])
def test_evaluate_calls_do_not_grow_with_the_model(command, tmp_path,
                                                   monkeypatch, capsys):
    # the presymplectic form, the chart Jacobian and each compared pair are
    # one evaluate call each; at k = 20 (N = 42) a call per entry would be
    # thousands
    calls = []
    evaluate = expr.evaluate

    def counting(*args):
        calls.append(args)
        return evaluate(*args)

    for name, module in list(sys.modules.items()):
        if (name == "emq" or name.startswith("emq.")) \
                and getattr(module, "evaluate", None) is evaluate:
            monkeypatch.setattr(module, "evaluate", counting)
    path = tmp_path / "product20.sys"
    path.write_text(product_model(20))
    clear_memos()
    assert main([command, str(path)]) == EXIT_OK
    capsys.readouterr()
    assert 0 < len(calls) < 50


@pytest.mark.parametrize("k", [20, 40])
def test_reduce_differentiates_per_nonzero_not_per_pair(k, tmp_path,
                                                         monkeypatch, capsys):
    # the pull-backs and two-forms differentiate only by the variables an
    # expression holds: at N = 2 + 2k the calls grow with the nonzeros of
    # the presymplectic form, not with its dim*(dim - 1)/2 pairs
    calls = []
    differentiate = expr.differentiate

    def counting(*args):
        calls.append(args)
        return differentiate(*args)

    for name, module in list(sys.modules.items()):
        if (name == "emq" or name.startswith("emq.")) \
                and getattr(module, "differentiate", None) is differentiate:
            monkeypatch.setattr(module, "differentiate", counting)
    path = tmp_path / f"product{k}.sys"
    path.write_text(product_model(k))
    clear_memos()
    assert main(["reduce", str(path)]) == EXIT_OK
    capsys.readouterr()
    m = loads_model(product_model(k), name=f"product{k}")
    _, form, _ = run_reduction(m.system, m.constraint, m.darboux)
    dim = len(form.variables)
    nonzeros = sum(entry is not expr.ZERO for row in form.upper
                   for entry in row)
    assert (dim, nonzeros) == (4 * k + 3, 2 * k + 2)
    assert len(calls) <= 16 * nonzeros < dim * (dim - 1) // 2


def _dense_pull_back(L, exprs, over):
    mapping = dict(exprs)
    for name, e in exprs.items():
        mapping[velocity_symbol(name)] = normalize(Add(tuple(
            Mul((differentiate(e, m), Sym(velocity_symbol(m))))
            for m in over)))
    return substitute(L, mapping)


def _dense_two_form(L, variables):
    c = [differentiate(L, velocity_symbol(v)) for v in variables]
    return tuple(
        tuple(normalize(Add((
            differentiate(c[j], vi),
            Mul((Const(-1), differentiate(c[i], variables[j]))),
        ))) for j in range(i + 1, len(variables)))
        for i, vi in enumerate(variables))


@pytest.mark.parametrize("name", ["free_particle", "harmonic",
                                  "free_particle_lambda", "product4"])
def test_the_sparse_steps_keep_every_entry(name):
    # the free-symbol tests skip only derivatives that are 0: both
    # pull-backs and both two-forms are the dense sums' nodes, entry by entry
    m = (loads_model(product_model(4), name=name) if name == "product4"
         else load_bundled(name))
    L_R, form = eliminate_primary(m.system, m.constraint)
    assert form.upper == _dense_two_form(L_R.lagrangian, L_R.variables)
    nonzeros = sum(entry is not expr.ZERO for row in form.upper
                   for entry in row)
    assert nonzeros > 0
    d = m.darboux
    inverse = {v: substitute(e, {d.p_z: 0}) for v, e in d.inverse
               if v in L_R.variables}
    L_t = reduction._pull_back(L_R.lagrangian, inverse, d.eta)
    assert L_t is _dense_pull_back(L_R.lagrangian, inverse, d.eta)
    assert reduction._two_form(L_t, d.eta) == _dense_two_form(L_t, d.eta)
