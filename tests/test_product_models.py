import json
import sys

import pytest

from conftest import clear_memos
from emq import expr
from emq.cli import EXIT_OK, main
from emq.reduction import run_reduction
from emq.sysfile import loads_model
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
