"""A second derivation of the reduced Hamiltonian, in sympy.

The oracle reads a .sys file with its own section reader and sympy's
parser, never through emq, and derives

    H   = sum_i f_i p_i + V
    H'  = H at the model's inverse map, with p_z = 0
    z*  from dH'/dz = 0, or z = 0 when that derivative vanishes
    H*  = H' at z = z*

It then compares H* with the "reduced hamiltonian" note of `emq reduce` by
sympy.simplify(a - b) == 0.  On the bundled models it also checks that the
constraint surface is the information-loss surface: H - rho = 0 at p_z = 0
and z = z*, with rho = sum_C coefficient * C over the [rho] section.

The oracle reads the model's own inverse map, so it cannot see a defect of
that map: an inverse that does not invert the forward map passes here as
long as emq reads it the same way.
"""

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

import emq
from conftest import clear_memos
from emq import reduction
from emq.cli import EXIT_OK, main
from emq.expr import Const, Mul, normalize
from product_models import product_model

BUNDLED = ("harmonic", "free_particle", "free_particle_lambda")
DATA = Path(emq.__file__).parent / "data"
_FUNCTIONS = {"sin": sympy.sin, "cos": sympy.cos, "sqrt": sympy.sqrt,
              "atan2": sympy.atan2}
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _sections(text):
    """{section name: [(key, value), ...]}, comments and blank lines dropped;
    a key may repeat (one `reduced` line per pair)."""
    sections, current = {}, None
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], [])
        else:
            key, value = line.split("=", 1)
            current.append((key.strip(), value.strip()))
    return sections


def _sympy(text):
    # every identifier is a Symbol: zeta, beta and friends name sympy
    # functions, and emq reads them as plain symbols
    names = {name: sympy.Symbol(name) for name in _IDENTIFIER.findall(text)
             if name not in _FUNCTIONS}
    return sympy.sympify(text.replace("^", "**"),
                         locals={**_FUNCTIONS, **names}, rational=True)


def derive(text):
    """(H*, H - rho on the surface) of a model's text, derived in sympy."""
    sec = _sections(text)
    system = dict(sec["system"])
    coords = [c.strip() for c in system["coordinates"].split(",")]
    H = sum(_sympy(system[f"f_{c}"]) * sympy.Symbol(f"p_{c}")
            for c in coords) + _sympy(system.get("potential", "0"))
    charges = dict(sec["charges"])
    rho = sum(_sympy(coeff) * _sympy(charges[name])
              for name, coeff in sec["rho"])
    darboux = sec["darboux"]
    z, p_z = sympy.symbols(dict(darboux)["gauge"].replace(":", ","))
    inverse = {sympy.Symbol(key[len("inv_"):]): _sympy(value)
               for key, value in darboux if key.startswith("inv_")}

    def on_surface(e):
        return e.subs(inverse, simultaneous=True).subs(p_z, 0)

    H1 = on_surface(H)
    chi = sympy.simplify(sympy.diff(H1, z))
    if chi == 0:
        z_star = sympy.Integer(0)
    else:
        (z_star,) = sympy.solve(chi, z)
    return (sympy.simplify(H1.subs(z, z_star)),
            sympy.simplify(on_surface(H - rho).subs(z, z_star)))


def _emq_h_star(target, capsys):
    assert main(["reduce", target, "--json"]) == EXIT_OK
    notes = json.loads(capsys.readouterr().out)["notes"]
    (printed,) = [n for n in notes if n.startswith("reduced hamiltonian: ")]
    return _sympy(printed[len("reduced hamiltonian: "):])


def _text(name):
    return (DATA / f"{name}.sys").read_text()


@pytest.mark.parametrize("name", BUNDLED + ("product4",))
def test_emq_prints_the_reduced_hamiltonian_sympy_derives(name, tmp_path,
                                                          capsys):
    if name in BUNDLED:
        target, text = name, _text(name)
    else:
        text = product_model(4)
        target = tmp_path / "product4.sys"
        target.write_text(text)
    h_star, _ = derive(text)
    assert sympy.simplify(h_star - _emq_h_star(str(target), capsys)) == 0


@pytest.mark.parametrize("name", BUNDLED)
def test_the_constraint_surface_is_the_information_loss_surface(name):
    _, residual = derive(_text(name))
    assert residual == 0


@pytest.mark.parametrize("factor", [Fraction(11, 10), Fraction(-1)],
                         ids=["times-1.1", "negated"])
def test_a_changed_reduced_hamiltonian_fails_the_oracle(factor, monkeypatch,
                                                        capsys):
    eliminate_z = reduction.eliminate_z

    def changed(*args, **kwargs):
        result = eliminate_z(*args, **kwargs)
        h_star = normalize(Mul((Const(factor), result.system.h_star)))
        return result.replace(system=result.system.replace(h_star=h_star))

    monkeypatch.setattr(reduction, "eliminate_z", changed)
    clear_memos()
    try:
        printed = _emq_h_star("harmonic", capsys)
    finally:
        clear_memos()
    h_star, _ = derive(_text("harmonic"))
    assert sympy.simplify(h_star - printed) != 0
    assert sympy.simplify(factor * h_star - printed) == 0
