import json

import pytest

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
