import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emq.expr import (
    Add, Const, Mul, Pow, SampleDomain, Sym, ZERO, differentiate, evaluate,
    normalize, numeric_compare, parse, substitute,
)
from emq.symplectic import (
    FlowSystem, PhaseSpace, RhoNotConservedError, StructureError,
    poisson_bracket, split_hamiltonian, verify_charges,
)
from emq.sysfile import load_bundled

PS2 = PhaseSpace.from_coordinates(("x", "y"))
# the drawn trees hold x, y and their momenta only, so the pair (w, p_w)
# never occurs in them
PS3 = PhaseSpace.from_coordinates(("x", "w", "y"))
DOM2 = SampleDomain(ranges=(
    ("x", -2.0, 2.0), ("y", -2.0, 2.0),
    ("p_x", -2.0, 2.0), ("p_y", -2.0, 2.0),
))


def _phase_polys():
    leaves = st.one_of(
        st.integers(-3, 3).map(Const),
        st.sampled_from(("x", "y", "p_x", "p_y")).map(Sym),
    )
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.tuples(kids, kids).map(Add),
            st.tuples(kids, kids).map(Mul),
            st.tuples(kids, st.integers(0, 2)).map(lambda be: Pow(*be)),
        ),
        max_leaves=8,
    )


def _agree(a, b, n=25, tol=1e-7, seed=3):
    rng = random.Random(seed)
    for _ in range(n):
        pt = {s: rng.uniform(-1.5, 1.5) for s in ("x", "y", "p_x", "p_y")}
        va, vb = evaluate(a, pt), evaluate(b, pt)
        if abs(va - vb) > tol * (1.0 + abs(va)):
            return False
    return True


# ---------------------------------------------------------------------------
# phase space bookkeeping
# ---------------------------------------------------------------------------

def test_xi_ordering_is_momenta_first():
    assert PS2.xi == ("p_x", "p_y", "x", "y")
    assert PS2.dof == 2
    assert PS2.conjugate_momentum("y") == "p_y"


def test_omega_block_structure():
    om = PS2.omega_entry
    dim = 4
    # antisymmetric, and omega^2 = -identity
    for i in range(dim):
        for j in range(dim):
            assert om(i, j) == -om(j, i)
            sq = sum(om(i, k) * om(k, j) for k in range(dim))
            assert sq == (-1 if i == j else 0)


def test_phase_space_rejects_bad_names():
    with pytest.raises(StructureError):
        PhaseSpace(("x",), ("p_x", "p_y"))
    with pytest.raises(StructureError):
        PhaseSpace(("x", "p_x"), ("p_x", "q"))


# ---------------------------------------------------------------------------
# bracket axioms
# ---------------------------------------------------------------------------

def test_canonical_brackets():
    for q, p in zip(PS2.coordinates, PS2.momenta):
        assert poisson_bracket(Sym(q), Sym(p), PS2) == Const(1)
    assert poisson_bracket(Sym("x"), Sym("y"), PS2) == ZERO
    assert poisson_bracket(Sym("p_x"), Sym("p_y"), PS2) == ZERO
    assert poisson_bracket(Sym("x"), Sym("p_y"), PS2) == ZERO


def _dense_bracket(f, g, ps):
    # every term of every pair, unnormalized
    terms = []
    for q, p in zip(ps.coordinates, ps.momenta):
        terms.append(Mul((differentiate(f, q), differentiate(g, p))))
        terms.append(Mul((Const(-1), differentiate(f, p), differentiate(g, q))))
    return Add(tuple(terms))


_X, _Y, _PX, _PY = (Sym(n) for n in ("x", "y", "p_x", "p_y"))


@given(_phase_polys(), _phase_polys(), st.sampled_from((PS2, PS3)))
@settings(max_examples=150, deadline=None, derandomize=True)
# no pair that f holds a half of has its other half in g: no term is left
@example(Mul((_X, _PX)), Mul((_Y, _PY)), PS2)
@example(_X, _Y, PS3)
# one surviving term, df/dx dg/dp_x, and one whose derivative is 0 once
# normalized
@example(Pow(_X, 2), Mul((_PX, _Y)), PS3)
@example(Add((_X, Mul((Const(-1), _X)))), _PX, PS2)
def test_sparse_bracket_is_the_dense_sum(f, g, ps):
    assert poisson_bracket(f, g, ps) is normalize(_dense_bracket(f, g, ps))


@given(_phase_polys(), _phase_polys())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_bracket_antisymmetry(f, g):
    fg = poisson_bracket(f, g, PS2)
    gf = poisson_bracket(g, f, PS2)
    assert _agree(fg, normalize(Mul((Const(-1), gf))))


@given(_phase_polys(), _phase_polys(), _phase_polys())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_bracket_leibniz(f, g, h):
    left = poisson_bracket(Mul((f, g)), h, PS2)
    right = Add((Mul((f, poisson_bracket(g, h, PS2))),
                 Mul((poisson_bracket(f, h, PS2), g))))
    assert _agree(left, normalize(right))


@given(_phase_polys(), _phase_polys(), _phase_polys())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_bracket_jacobi(f, g, h):
    cyc = Add((
        poisson_bracket(f, poisson_bracket(g, h, PS2), PS2),
        poisson_bracket(g, poisson_bracket(h, f, PS2), PS2),
        poisson_bracket(h, poisson_bracket(f, g, PS2), PS2),
    ))
    assert _agree(normalize(cyc), ZERO)


def _table():
    from emq.expr import SymbolTable
    t = SymbolTable()
    for c in PS2.coordinates:
        t.add(c, "coordinate")
    for p in PS2.momenta:
        t.add(p, "momentum")
    t.add("a1", "parameter")
    return t


# ---------------------------------------------------------------------------
# momentum-linear systems
# ---------------------------------------------------------------------------

def _rotor():
    """Planar rotation flow xdot = -y, ydot = x with its two basic charges."""
    t = _table()
    chart = SampleDomain(ranges=(
        ("x", 0.3, 1.5), ("y", 0.3, 1.5),
        ("p_x", -1.0, 1.0), ("p_y", -1.0, 1.0),
        ("a1", 0.5, 1.5),
    ))
    return FlowSystem(
        space=PS2,
        velocities=(parse("-(y)", t), parse("x", t)),
        charges=(("radius", parse("x^2 + y^2", t)),
                 ("angular", parse("x*p_y - y*p_x", t))),
        rho_coefficients=(("radius", parse("a1", t)),),
        chart=chart,
    )


def test_hamiltonian_assembly_is_momentum_linear():
    sys = _rotor()
    H = sys.hamiltonian
    assert numeric_compare(H, parse("x*p_y - y*p_x", _table()),
                           sys.chart).equal
    assert sys.rho == normalize(parse("a1*(x^2 + y^2)", _table()))
    assert dict(sys.charges)["radius"] == normalize(parse("x^2 + y^2",
                                                          _table()))


@pytest.mark.parametrize("name", ["harmonic", "free_particle",
                                  "free_particle_lambda"])
def test_hamiltonian_and_rho_are_built_once(name):
    sys = load_bundled(name).system
    assert sys.hamiltonian is sys.hamiltonian
    assert sys.rho is sys.rho
    # the construction each read used to repeat
    def total(terms):
        if not terms:
            return ZERO
        return normalize(terms[0] if len(terms) == 1 else Add(tuple(terms)))

    terms = [Mul((v, Sym(p))) for v, p in zip(sys.velocities,
                                               sys.space.momenta)]
    if normalize(sys.potential) != ZERO:
        terms.append(sys.potential)
    assert sys.hamiltonian is total(terms)
    by_name = dict(sys.charges)
    assert sys.rho is total([Mul((coeff, by_name[c]))
                             for c, coeff in sys.rho_coefficients])


def test_structure_errors():
    t = _table()
    with pytest.raises(StructureError, match="velocity"):
        FlowSystem(space=PS2, velocities=(parse("p_x", t), parse("x", t)),
                    charges=(), rho_coefficients=(), chart=DOM2)
    with pytest.raises(StructureError, match="one velocity"):
        FlowSystem(space=PS2, velocities=(parse("x", t),),
                    charges=(), rho_coefficients=(), chart=DOM2)
    with pytest.raises(StructureError, match="potential"):
        FlowSystem(space=PS2, velocities=(parse("-(y)", t), parse("x", t)),
                    charges=(), rho_coefficients=(), chart=DOM2,
                    potential=parse("p_x", t))
    # these guards alone keep H = f^a(q) p_a + V(q) affine in the momenta
    for f_y, potential, match in (("x + sin(p_y)", "0", "velocity"),
                                  ("x/p_x", "0", "velocity"),
                                  ("x*p_y", "0", "velocity"),
                                  ("x", "x^2 + p_y^2", "potential"),
                                  ("x", "p_x*p_y", "potential")):
        with pytest.raises(StructureError, match=match):
            FlowSystem(space=PS2, velocities=(parse("-(y)", t), parse(f_y, t)),
                        charges=(), rho_coefficients=(), chart=DOM2,
                        potential=parse(potential, t))
    with pytest.raises(StructureError, match="unknown charge"):
        FlowSystem(space=PS2, velocities=(parse("-(y)", t), parse("x", t)),
                    charges=(("radius", parse("x^2 + y^2", t)),),
                    rho_coefficients=(("other", parse("a1", t)),), chart=DOM2)


def test_verify_charges_flags_nonconserved():
    sys = _rotor()
    rep = verify_charges(sys)
    assert list(rep) == ["radius", "angular"]
    assert all(cmp.equal for cmp in rep.values())

    bad = FlowSystem(
        space=PS2,
        velocities=(parse("-(y)", _table()), parse("x", _table())),
        charges=(("off", parse("x", _table())),),
        rho_coefficients=(),
        chart=sys.chart,
    )
    bad_rep = verify_charges(bad)
    assert not bad_rep["off"].equal
    assert bad_rep["off"].max_scaled_err > 1e-3
    assert set(bad_rep["off"].worst_point) == {r[0] for r in sys.chart.ranges}


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

def test_split_identities(free_model, ho_model):
    for model in (free_model, ho_model):
        sys = model.system
        split = split_hamiltonian(sys)
        H = sys.hamiltonian
        diff = normalize(Add((split.h_plus, Mul((Const(-1), split.h_minus)))))
        assert numeric_compare(diff, H, sys.chart, n=100, tol=1e-9).equal
        bracket = poisson_bracket(split.h_plus, split.h_minus, sys.space)
        assert numeric_compare(bracket, ZERO, sys.chart, n=100, tol=1e-9).equal


def test_split_halves_are_nonnegative(ho_model):
    sys = ho_model.system
    split = split_hamiltonian(sys)
    rho = sys.rho
    for pt in sys.chart.sample(200, seed=11):
        assert evaluate(split.h_plus, pt) >= -1e-12
        assert evaluate(split.h_minus, pt) >= -1e-12
        assert evaluate(rho, pt) > 0.0


def test_split_rejects_nonconserved_rho():
    t = _table()
    sys = _rotor()
    bad = FlowSystem(
        space=sys.space, velocities=sys.velocities,
        charges=(("drift", parse("x", t)),),
        rho_coefficients=(("drift", parse("a1", t)),),
        chart=sys.chart,
    )
    with pytest.raises(RhoNotConservedError):
        split_hamiltonian(bad)
    empty = FlowSystem(
        space=sys.space, velocities=sys.velocities,
        charges=sys.charges, rho_coefficients=(), chart=sys.chart,
    )
    with pytest.raises(RhoNotConservedError, match="identically zero"):
        split_hamiltonian(empty)


def test_gauge_pair_bracket_is_plain_bracket(ho_model):
    phi = ho_model.constraint.phi
    chi = ho_model.constraint.chi
    assert chi is not None
    # {phi, chi} = 2*a1: the pair is second class wherever a1 != 0
    got = poisson_bracket(phi, chi, ho_model.system.space)
    assert got == normalize(parse("2*a1", ho_model.symbols))
