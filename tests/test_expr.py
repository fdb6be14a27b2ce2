import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import clear_memos
from emq import expr as expr_module
from emq.expr import (
    Add, Const, Div, DivisionByZeroError, DomainError, EvalError, Expr,
    ExprError, Fun, Mul, NegativeSqrtError, ParseError, Pow, SampleDomain,
    Sym, SymbolTable, UnboundSymbolError, UnknownIdentifierError, ONE, ZERO,
    columns, differentiate, evaluate, expand, is_quadratic, normalize,
    numeric_compare, parse, sampled_values, sort_key, substitute,
)
from emq.cli import main
from emq.pathint import bind_reduced_hamiltonian

NAMES = ("a", "b", "x", "y")
TABLE = SymbolTable()
for _s in NAMES:
    TABLE.add(_s, "parameter")

POINT = {"a": 0.7, "b": -1.3, "x": 0.4, "y": 1.9}


def _leaves():
    return st.one_of(
        st.integers(-4, 4).map(Const),
        st.sampled_from(NAMES).map(Sym),
    )


def _nodes(kids):
    return st.one_of(
        st.tuples(kids, kids).map(Add),
        st.tuples(kids, kids).map(Mul),
        st.tuples(kids, kids).map(lambda ab: Div(ab[0], ab[1])),
        st.tuples(kids, st.integers(-2, 3)).map(lambda be: Pow(*be)),
        kids.map(lambda k: Fun("sin", (k,))),
        kids.map(lambda k: Fun("cos", (k,))),
    )


def _trees():
    # a node at the root, never a bare leaf: trees of about 8 nodes, large
    # enough to raise a quotient to a power now and then
    return _nodes(st.recursive(_leaves(), _nodes, max_leaves=16))


def _rich_nodes(kids):
    # _nodes, and the shapes it does not build: square roots, atan2, sums and
    # products of more than two parts, and a constant times a raw sum
    return st.one_of(
        _nodes(kids),
        kids.map(lambda k: Fun("sqrt", (k,))),
        st.tuples(kids, kids).map(lambda uv: Fun("atan2", uv)),
        st.lists(kids, min_size=3, max_size=4).map(Add),
        st.lists(kids, min_size=3, max_size=4).map(Mul),
        st.tuples(st.integers(-3, 3), kids, kids).map(
            lambda cuv: Mul((Const(cuv[0]), Add(cuv[1:])))),
    )


def _rich_trees():
    return _rich_nodes(st.recursive(_leaves(), _rich_nodes, max_leaves=12))


# _rich_trees() seldom builds an odd power of a square root, or an atan2
# whose first argument normalizes to 0
_FOLDS = Add((Div(Sym("a"), Pow(Fun("sqrt", (Sym("x"),)), 3)),
              Fun("atan2", (Add((Sym("x"), Mul((Const(-1), Sym("x"))))),
                            Const(2)))))


def _polys():
    return st.recursive(
        _leaves(),
        lambda kids: st.one_of(
            st.tuples(kids, kids).map(Add),
            st.tuples(kids, kids).map(Mul),
            st.tuples(kids, st.integers(0, 3)).map(lambda be: Pow(*be)),
        ),
        max_leaves=10,
    )


def _normalized_or_discard(e):
    try:
        return normalize(e)
    except (DivisionByZeroError, NegativeSqrtError):
        assume(False)


def _subtrees(e):
    yield e
    for kid in e._parts()[1]:
        yield from _subtrees(kid)


def _outcome(fn, *args):
    """fn(*args), or the class of the typed error it raised."""
    try:
        return fn(*args)
    except (DivisionByZeroError, NegativeSqrtError) as exc:
        return type(exc)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_precedence_and_associativity():
    assert evaluate(parse("a + b*x^2", TABLE), POINT) == pytest.approx(
        0.7 + (-1.3) * 0.4 ** 2)
    assert evaluate(parse("a-b-x", TABLE), POINT) == pytest.approx(
        0.7 - (-1.3) - 0.4)
    assert evaluate(parse("a/b/x", TABLE), POINT) == pytest.approx(
        0.7 / (-1.3) / 0.4)
    assert evaluate(parse("a*b/x*y", TABLE), POINT) == pytest.approx(
        0.7 * (-1.3) / 0.4 * 1.9)


def test_flat_chains_parse_at_any_length():
    # a +/- chain is one n-ary Add, so its depth does not grow with length
    def power_sum(count):
        return " + ".join(f"x^{k}" for k in range(1, count + 1))

    long_sum = parse(power_sum(2000), TABLE)
    extended = normalize(Add((parse(power_sum(10), TABLE),)
                             + tuple(Pow(Sym("x"), k)
                                     for k in range(11, 2001))))
    assert long_sum == extended
    assert evaluate(long_sum, {"x": 0.5}) == pytest.approx(1.0)
    assert parse(" - ".join(["x"] * 2001), TABLE) == normalize(
        Mul((Const(-1999), Sym("x"))))
    assert parse("*".join(["x"] * 2000), TABLE) == Pow(Sym("x"), 2000)


def test_unary_minus_binds_inside_the_power():
    # "-x^2" reads as (-x)^2; a negated square needs explicit parentheses
    assert evaluate(parse("-x^2", TABLE), {"x": 3.0}) == 9.0
    assert evaluate(parse("-(x^2)", TABLE), {"x": 3.0}) == -9.0
    assert evaluate(parse("-((x + 1)^2)/2", TABLE), {"x": 1.0}) == -2.0


def test_decimal_literals_are_exact():
    half = parse("0.5", TABLE)
    assert isinstance(half, Const) and half.value * 2 == 1
    milli = parse("1.5e-3", TABLE)
    assert isinstance(milli, Const) and milli.value * 2000 == 3


@pytest.mark.parametrize("text, folded", [
    ("sqrt(9/4)", "3/2"),
    ("sqrt(x)^3", "x*sqrt(x)"),
    ("atan2(0, 2)", "0"),
    # a zero mantissa is 0 at once: 10^400000 is never built
    ("0e400000", "0"),
    # two quotients over x fold to one, whose numerator sum is flattened
    # into the outer sum
    ("(2*x*(a+b) + y)/x - y/x", "2*a + 2*b"),
])
def test_exact_folds(text, folded):
    assert parse(text, TABLE) is parse(folded, TABLE)


def test_power_requires_integer_literal_exponent():
    with pytest.raises(ParseError):
        parse("x^(1/2)", TABLE)
    with pytest.raises(ParseError):
        parse("x^2^3", TABLE)


def test_unknown_identifier_is_reported_by_name():
    with pytest.raises(UnknownIdentifierError, match="zz"):
        parse("x + zz", TABLE)


def test_unknown_function_and_arity():
    with pytest.raises(ParseError):
        parse("tan(x)", TABLE)
    with pytest.raises(ParseError):
        parse("sin(x, y)", TABLE)
    assert evaluate(parse("atan2(x, y)", TABLE), POINT) == pytest.approx(
        math.atan2(0.4, 1.9))


def test_atan2_at_the_origin_is_a_typed_error_naming_the_point():
    e = parse("atan2(x, y)", TABLE)
    with pytest.raises(EvalError,
                       match=r"^atan2 of \(0, 0\) in atan2\(x, y\)$"):
        evaluate(e, {"x": 0.0, "y": 0.0})
    cols = {"x": np.array([0.4, 0.0, 0.0]), "y": np.array([1.9, -1.0, 0.0])}
    with pytest.raises(EvalError, match=r"atan2\(x, y\) at \{'x': 0.0, "
                                        r"'y': 0.0\}$"):
        evaluate(e, cols)
    # either argument alone may be 0
    assert evaluate(e, {"x": 0.0, "y": -1.0}) == math.pi
    assert evaluate(e, {"x": -1.0, "y": 0.0}) == -math.pi / 2
    # normalize keeps a constant atan2(0, 0) as it is, and evaluating it
    # raises the same error
    origin = normalize(parse("atan2(x - x, 0)", TABLE))
    assert origin == Fun("atan2", (ZERO, ZERO))
    with pytest.raises(EvalError, match=r"^atan2 of \(0, 0\)"):
        evaluate(origin, {})


def test_unbalanced_parenthesis_positions():
    with pytest.raises(ParseError):
        parse("(x + y", TABLE)
    with pytest.raises(ParseError):
        parse("x + y)", TABLE)


def test_symbol_table_rules():
    t = SymbolTable()
    t.add("q", "coordinate")
    with pytest.raises(ValueError):
        t.add("q", "momentum")
    with pytest.raises(ValueError):
        t.add("sin", "parameter")
    assert t.role("q") == "coordinate"


@pytest.mark.parametrize("build, error, message", [
    (lambda: Sym("sin"), ValueError, "reserved function name"),
    (lambda: Fun("tan", (Sym("x"),)), ValueError, "unknown function"),
    (lambda: Fun("sin", (Sym("x"), Sym("y"))), ValueError,
     "expects 1 argument"),
    (lambda: SymbolTable().add("q", "bad"), ValueError, "unknown role"),
    (lambda: substitute(Sym("x"), {"x": "1"}), TypeError,
     "cannot build an expression"),
    (lambda: normalize(5), TypeError, "not an Expr"),
], ids=["reserved-symbol", "unknown-function", "arity", "role",
        "string-value", "not-a-tree"])
def test_misbuilt_input_raises_its_typed_error(build, error, message):
    with pytest.raises(error, match=message):
        build()


# ---------------------------------------------------------------------------
# normalization properties
# ---------------------------------------------------------------------------

@given(st.one_of(_trees(), _rich_trees()))
# _trees() seldom nests powers over quotients and powers
@example(Pow(Div(Sym("x"), Add((Sym("y"), ONE))), 3))
@example(Pow(Pow(Add((Sym("x"), Sym("y"))), 2), 3))
@example(_FOLDS)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_normalize_is_idempotent(e):
    n = _normalized_or_discard(e)
    clear_memos()  # normalize(n) must recompute, not find e's entry
    assert normalize(n) == n
    # the integer-only Pow relies on this: a power in a normal form, and in
    # its expansion, is of a base that is not folded into it any further
    forms = (n, _outcome(expand, n))
    assert all(type(p.exponent) is int and p.exponent >= 2
               and not isinstance(p.base, (Div, Pow, Const))
               for form in forms if isinstance(form, Expr)
               for p in _subtrees(form) if isinstance(p, Pow)), forms


def _normal_form_faults(e):
    """The subtrees of e that break an invariant of the normal form, each
    with the invariant it breaks."""
    faults = []
    for sub in _subtrees(e):
        if isinstance(sub, (Add, Mul)):
            parts = sub.terms if isinstance(sub, Add) else sub.factors
            consts = [p.value for p in parts if isinstance(p, Const)]
            if len(consts) > 1:
                faults.append(("two constants", sub))
            if isinstance(sub, Add) and (
                    0 in consts or any(isinstance(p, Add) for p in parts)):
                faults.append(("a sum holds a sum or 0", sub))
            if isinstance(sub, Mul) and (
                    1 in consts or any(isinstance(p, (Mul, Div))
                                       for p in parts)):
                faults.append(("a product holds a product, a quotient or 1",
                               sub))
            if isinstance(sub, Mul) and len(parts) == 2 and consts \
                    and any(isinstance(p, Add) for p in parts):
                faults.append(("a constant times one sum", sub))
        if isinstance(sub, Pow) and (
                sub.exponent < 2
                or isinstance(sub.base, (Const, Pow, Mul, Div))):
            faults.append(("a power below 2 or of a folding base", sub))
        if isinstance(sub, Div) and (isinstance(sub.den, (Const, Div))
                                     or isinstance(sub.num, Div)):
            faults.append(("a quotient of a quotient or by a constant", sub))
    return faults


@given(_rich_trees())
@example(Mul((Const(3), Add((Sym("x"), Mul((Const(-3), Sym("x"))))))))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_normal_forms_keep_the_invariants_normalize_relies_on(e):
    # _normalize_add, _normalize_mul, _rebuild_product and _normalize_fun
    # hold no branch for the shapes these invariants exclude
    for form in (normalize, expand):
        try:
            out = form(e)
        except (DivisionByZeroError, NegativeSqrtError):
            continue
        assert _normal_form_faults(out) == []


@given(_trees())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_print_then_parse_round_trips(e):
    n = _normalized_or_discard(e)
    assert normalize(parse(str(n), TABLE)) == n


@given(_trees())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_a_printed_tree_is_its_render_warm_and_cold(e):
    text = expr_module._render(e, 0)
    str(e)
    hits = expr_module._text.cache_info().hits
    assert str(e) == text
    assert expr_module._text.cache_info().hits == hits + 1
    clear_memos()
    assert str(e) == text


@given(st.one_of(_trees(), _rich_trees()))
@example(_FOLDS)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_normalize_preserves_value(e):
    n = _normalized_or_discard(e)
    try:
        raw = evaluate(e, POINT)
        cooked = evaluate(n, POINT)
    except EvalError:
        assume(False)
    assert cooked == pytest.approx(raw, rel=1e-9, abs=1e-9)


@given(st.one_of(_trees(), _rich_trees()))
@example(_FOLDS)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_expand_preserves_value(e):
    n = _normalized_or_discard(e)
    try:
        x = expand(n)
        raw = evaluate(n, POINT)
        flat = evaluate(x, POINT)
    except EvalError:
        assume(False)
    assert flat == pytest.approx(raw, rel=1e-8, abs=1e-8)


_SYMPY_FUNCTIONS = {"sin": sympy.sin, "cos": sympy.cos, "sqrt": sympy.sqrt,
                    "atan2": sympy.atan2}


def _to_sympy(e):
    """e as a sympy expression, built without emq's normal form."""
    if isinstance(e, Const):
        return sympy.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, Sym):
        return sympy.Symbol(e.name)
    if isinstance(e, Add):
        return sympy.Add(*map(_to_sympy, e.terms))
    if isinstance(e, Mul):
        return sympy.Mul(*map(_to_sympy, e.factors))
    if isinstance(e, Pow):
        return _to_sympy(e.base) ** e.exponent
    if isinstance(e, Div):
        return _to_sympy(e.num) / _to_sympy(e.den)
    return _SYMPY_FUNCTIONS[e.name](*map(_to_sympy, e.args))


@given(st.one_of(_trees(), _rich_trees()))
# _trees() seldom nests powers over quotients and powers
@example(Pow(Div(Sym("x"), Add((Sym("y"), ONE))), 3))
@example(Pow(Pow(Add((Sym("x"), Sym("y"))), 2), 3))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_the_exact_core_agrees_with_sympy(e):
    # an independent oracle: each identity the core claims reduces to 0.
    # A tree with no float value at POINT is discarded: there sympy and
    # the core may pick different values for an undefined one, such as
    # atan2(0, 0), which sympy reads as nan
    try:
        evaluate(e, POINT)
    except EvalError:
        assume(False)
    try:
        claims = [(normalize(e), e), (expand(e), e),
                  (differentiate(e, "x"), sympy.diff(_to_sympy(e), "x"))]
    except ExprError:
        return
    for got, want in claims:
        if isinstance(want, Expr):
            want = _to_sympy(want)
        assert sympy.simplify(_to_sympy(got) - want) == 0, (e, got)


def test_expand_collapses_cross_terms():
    e = parse("(x+y)^2 - x^2 - y^2", TABLE)
    assert expand(e) == normalize(parse("2*x*y", TABLE))
    assert expand(parse("((x+y)^2 - (x-y)^2)/(4*y)", TABLE)) == Sym("x")


def test_quotients_cancel_and_rationalize():
    assert normalize(parse("(a*x)/(a*y)", TABLE)) == normalize(
        parse("x/y", TABLE))
    # a lone sqrt in the denominator moves up
    e = normalize(parse("x/sqrt(y)", TABLE))
    assert evaluate(e, POINT) == pytest.approx(0.4 / math.sqrt(1.9))
    assert "sqrt" not in str(e).split("/")[-1]


def test_a_constant_too_long_to_print_is_a_typed_error():
    # Python's own limit on int-to-text conversion bounds a constant
    limit = sys.get_int_max_str_digits()
    assert str(Const(10 ** limit - 1)) == "9" * limit
    for value in (10 ** limit, -10 ** limit, Fraction(1, 10 ** limit)):
        with pytest.raises(ExprError, match=f"more than {limit} digits"):
            Const(value)
    # a power or a decimal exponent is refused before it is worked out,
    # which for these would take minutes
    assert str(parse(f"10^{limit - 1} + 1e{limit - 1}", TABLE)) == (
        "2" + "0" * (limit - 1))
    for text in (f"10^{limit}", f"1e{limit}", f"1e-{limit}",
                 "3^99999999", "(1/3)^99999999", "1e99999999", "1e-99999999"):
        with pytest.raises(ExprError, match=f"more than {limit} digits"):
            parse(text, TABLE)


def test_a_constant_is_an_int_or_a_fraction():
    for value in (0.5, 1.0, float("nan"), math.inf, True, "1", None):
        with pytest.raises(TypeError, match="bad constant"):
            Const(value)
    assert Const(3) is Const(Fraction(3)) and Const(3).value == 3


def test_a_substituted_float_enters_as_its_exact_value():
    x = Sym("x")
    assert substitute(x, {x: 0.1}) is Const(Fraction(0.1))
    assert Fraction(0.1) != Fraction(1, 10)
    # the smallest subnormal is 2^-1074, and its reciprocal is exact too
    assert substitute(parse("1/x", TABLE), {"x": 5e-324}) is Const(2 ** 1074)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ExprError, match="non-finite"):
            substitute(x, {x: value})
    with pytest.raises(TypeError, match="bad constant True"):
        substitute(x, {x: True})


def test_a_value_beyond_float_range_is_exact_until_evaluated():
    # 1e300^2 is a rational of 600 digits; only evaluate() needs a float
    square = substitute(parse("x^2", TABLE), {"x": 1e300})
    assert square is Const(Fraction(1e300) ** 2)
    with pytest.raises(EvalError, match="value does not fit a float"):
        evaluate(square, {})


# the exact second derivatives (d2H*/dp_zeta^2, d2H*/dzeta^2) of the three
# bundled reduced Hamiltonians, in the bound parameters
_EXACT_CURVATURES = {
    "free": lambda a1, lam: (2 * a1, Fraction(0)),
    "ho": lambda a1, lam: (1 / a1, a1),
    "lam": lambda a1, lam: (2 * (a1 + lam), Fraction(0)),
}


def _float_or_none(value: Fraction):
    try:
        return float(value)
    except OverflowError:
        return None


_PARAMETERS = st.floats(min_value=5e-324, max_value=1e300)


@given(st.sampled_from(sorted(_EXACT_CURVATURES)), _PARAMETERS, _PARAMETERS)
@example("ho", 5e-324, 1.0)
@example("ho", 1e300, 1.0)
@example("lam", 1e300, 1e300)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_bound_coefficients_are_the_exact_ones_rounded_once(
        free_reduced, ho_reduced, lam_reduced, model, a1, lam):
    reduced = {"free": free_reduced, "ho": ho_reduced,
               "lam": lam_reduced}[model]
    params = {"a1": a1, "lam": lam, "alpha": 0.5, "m": 1.0, "hbar": 1.0}
    q_p, q_q = _EXACT_CURVATURES[model](Fraction(a1), Fraction(lam))
    fp, fq = _float_or_none(q_p), _float_or_none(q_q)
    # every coefficient of H* is at most the larger curvature, so the
    # binding fails exactly when a curvature is beyond float range
    if fp is None or fq is None:
        with pytest.raises(ExprError):
            bind_reduced_hamiltonian(reduced, params)
        return
    quad = bind_reduced_hamiltonian(reduced, params)
    assert quad.c_p == 0.5 * fp and quad.c_q == 0.5 * fq


def test_division_by_zero_constant_is_structural():
    with pytest.raises(DivisionByZeroError):
        normalize(Div(Sym("x"), ZERO))


@pytest.mark.parametrize("node, attr", [
    (Const(2), "value"), (Sym("x"), "name"),
    (Add((Sym("x"), Sym("y"))), "terms"), (Mul((Sym("x"), Sym("y"))), "factors"),
    (Pow(Sym("x"), 2), "exponent"), (Div(Sym("x"), Sym("y")), "num"),
    (Fun("sin", (Sym("x"),)), "args"),
])
def test_nodes_are_immutable(node, attr):
    before = getattr(node, attr)
    with pytest.raises(AttributeError, match="immutable"):
        setattr(node, attr, Sym("a"))
    assert getattr(node, attr) == before


# ---------------------------------------------------------------------------
# memoized normal forms and derivatives
# ---------------------------------------------------------------------------

@given(_trees(), st.lists(_trees(), max_size=3))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_warm_memo_gives_the_cold_normal_form(e, others):
    clear_memos()
    cold = _outcome(normalize, e)
    clear_memos()
    # warm the memo with trees that share e's subtrees
    for sub in _subtrees(e):
        for o in others:
            _outcome(normalize, Add((o, sub)))
            _outcome(normalize, Mul((sub, o)))
        _outcome(normalize, sub)
    warm = _outcome(normalize, e)
    assert warm == cold and str(warm) == str(cold)


@given(_trees(), st.sampled_from(NAMES), st.lists(_trees(), max_size=3))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_warm_memo_gives_the_cold_derivative(e, name, others):
    clear_memos()
    cold = _outcome(differentiate, e, name)
    clear_memos()
    for sub in _subtrees(e):
        for o in others:
            _outcome(differentiate, Mul((sub, o)), name)
        for other in NAMES:
            _outcome(differentiate, sub, other)
        _outcome(normalize, sub)
    warm = _outcome(differentiate, e, name)
    assert warm == cold and str(warm) == str(cold)


def test_typed_errors_raise_on_every_call():
    for e, error in ((Div(Sym("x"), ZERO), DivisionByZeroError),
                     (Mul((Sym("x"), Fun("sqrt", (Const(-1),)))),
                      NegativeSqrtError),
                     (Pow(Add((Sym("x"), Mul((Const(-1), Sym("x"))))), -1),
                      DivisionByZeroError)):
        for _ in range(2):
            with pytest.raises(error):
                normalize(e)
        with pytest.raises(error):
            differentiate(e, "x")
        with pytest.raises(error):
            differentiate(e, "x")


# ---------------------------------------------------------------------------
# the node table
# ---------------------------------------------------------------------------

def _fresh_sort_key(e):
    """sort_key worked out from scratch, as a recursive walk."""
    if isinstance(e, Const):
        return (0, e.value)
    if isinstance(e, Sym):
        return (1, e.name)
    if isinstance(e, Fun):
        return (2, e.name, tuple(_fresh_sort_key(a) for a in e.args))
    if isinstance(e, Pow):
        return (3, _fresh_sort_key(e.base), e.exponent)
    if isinstance(e, Div):
        return (4, _fresh_sort_key(e.num), _fresh_sort_key(e.den))
    if isinstance(e, Mul):
        return (5, tuple(_fresh_sort_key(f) for f in e.factors))
    return (6, tuple(_fresh_sort_key(t) for t in e.terms))


def _blueprint(e):
    """e as nested tuples of plain values, which keep no node alive."""
    if isinstance(e, Const):
        return Const, e.value
    if isinstance(e, Sym):
        return Sym, e.name
    if isinstance(e, Pow):
        return Pow, _blueprint(e.base), e.exponent
    if isinstance(e, Div):
        return Div, _blueprint(e.num), _blueprint(e.den)
    if isinstance(e, Fun):
        return Fun, e.name, tuple(map(_blueprint, e.args))
    return type(e), tuple(map(_blueprint, e._parts()[1]))


def _built(plan):
    """The tree of a blueprint, built by the constructors alone."""
    cls = plan[0]
    if cls in (Const, Sym):
        return cls(plan[1])
    if cls is Pow:
        return Pow(_built(plan[1]), plan[2])
    if cls is Div:
        return Div(_built(plan[1]), _built(plan[2]))
    if cls is Fun:
        return Fun(plan[1], map(_built, plan[2]))
    return cls(map(_built, plan[1]))


def _rebuilt(e):
    """e built again by the constructors alone, past every memo."""
    return _built(_blueprint(e))


def _same_structure(a, b):
    """Structural equality as a walk, without identity: the oracle for ==.
    An explicit stack, not recursion: a long sum nests one level per term."""
    pending = [(a, b)]
    while pending:
        a, b = pending.pop()
        if type(a) is not type(b):
            return False
        label_a, kids_a = a._parts()
        label_b, kids_b = b._parts()
        if label_a != label_b or len(kids_a) != len(kids_b):
            return False
        pending.extend(zip(kids_a, kids_b))
    return True


def test_equal_trees_are_one_node():
    clear_memos()
    x, y = Sym("x"), Sym("y")
    assert Sym("x") is x and Const(2) is Const(Fraction(2))
    for exponent in (Fraction(4, 2), True):
        with pytest.raises(TypeError, match="exponent must be an int"):
            Pow(x, exponent)
    built = Add((Mul((Const(3), x)), Fun("sin", (Div(y, Pow(x, 2)),))))
    assert Add((Mul((Const(3), x)), Fun("sin", (Div(y, Pow(x, 2)),)))) is built
    # the parser, normalize and the constructors meet in one node
    parsed = parse("sin(y/x^2) + 3*x", TABLE)
    assert normalize(built) is parsed
    assert normalize(parse("x*3 + sin(y/(x*x))", TABLE)) is parsed
    assert substitute(parse("sin(y/a^2) + 3*a", TABLE), {"a": x}) is parsed
    assert expand(parse("(x + 1)^2", TABLE)) is normalize(
        parse("x^2 + 2*x + 1", TABLE))


@given(_trees(), _trees())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_one_live_node_per_structure(e, other):
    assert _rebuilt(e) is e
    n = _normalized_or_discard(e)
    assert _rebuilt(n) is n
    subtrees = list(_subtrees(e)) + list(_subtrees(n))
    for a in subtrees:
        for b in _subtrees(other):
            assert _same_structure(a, b) == (a is b) == (a == b), (a, b)


def test_a_dropped_node_leaves_the_table():
    clear_memos()
    nodes = expr_module._NODES
    probe = Sym("dropped_probe")
    tree = Fun("cos", (Div(probe, Const(Fraction(7, 13))),))
    keys = [(Fun, "cos", id(tree.args[0])),
            (Div, id(probe), id(tree.args[0].den)),
            (Sym, "dropped_probe")]
    refs = [nodes[key] for key in keys]
    assert refs[0]() is tree and refs[2]() is probe
    del tree
    # the tree and its quotient die with the last reference to them
    assert refs[0]() is None and refs[1]() is None
    assert keys[0] not in nodes and keys[1] not in nodes
    assert nodes[keys[2]] is refs[2]
    del probe
    assert refs[2]() is None and keys[2] not in nodes
    # a node that a memo holds stays in the table, and goes with the memo
    normalize(Add((Sym("kept_probe"), Const(1))))
    key = (Sym, "kept_probe")
    ref = nodes[key]
    assert ref() is Sym("kept_probe")
    clear_memos()
    assert ref() is None and key not in nodes


def test_a_late_callback_leaves_a_newer_entry_alone():
    # the callback of a dead node's reference, run again after a node was
    # built under the same key, as when another thread builds it before the
    # callback has run
    nodes = expr_module._NODES
    key = (Sym, "late_probe")
    probe = Sym("late_probe")
    stale = nodes[key]
    forget = stale.__callback__
    del probe
    assert key not in nodes
    probe = Sym("late_probe")
    live = nodes[key]
    assert live is not stale and live() is probe
    forget(stale)
    assert nodes[key] is live and Sym("late_probe") is probe


def _sum_by_count(ts):
    # the branch callers wrote around Add before the constructor decided it
    if not ts:
        return ZERO
    if len(ts) == 1:
        return normalize(ts[0])
    return normalize(Add(tuple(ts)))


@given(st.lists(_trees(), max_size=4))
@example([])
@example([Const(3)])
@settings(max_examples=150, deadline=None, derandomize=True)
def test_a_sum_or_product_of_under_two_parts_is_no_node(ts):
    for cls, empty, parts in ((Add, ZERO, "terms"), (Mul, ONE, "factors")):
        built = cls(ts)
        if not ts:
            assert built is empty, cls
        elif len(ts) == 1:
            assert built is ts[0], cls
        else:
            assert type(built) is cls and getattr(built, parts) == tuple(ts)
    assert _outcome(lambda: normalize(Add(ts))) == _outcome(_sum_by_count, ts)


def test_a_zero_or_one_constant_is_the_shared_node():
    for value in (0, Fraction(0, 7), -0):
        assert Const(value) is ZERO
    for value in (1, Fraction(3, 3)):
        assert Const(value) is ONE


@given(_trees())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_cached_sort_key_is_the_recursive_one(e):
    assert sort_key(e) == _fresh_sort_key(e)
    n = _normalized_or_discard(e)
    for sub in _subtrees(n):
        assert sort_key(sub) == _fresh_sort_key(sub)


# ---------------------------------------------------------------------------
# memoized parse and substitute
# ---------------------------------------------------------------------------

def _size(cache):
    return cache.cache_info().currsize


def _table(names, role="parameter"):
    table = SymbolTable()
    for name in names:
        table.add(name, role)
    return table


def test_parse_memo_hands_out_the_identical_tree():
    clear_memos()
    text = "a*x^2 + sin(b*y)/2"
    first = parse(text, TABLE)
    assert parse(text, TABLE) is first
    # the names key the entry, not the table object or its roles
    assert parse(text, _table(NAMES, role="coordinate")) is first
    untabled = parse(text)
    assert untabled == first and parse(text) is untabled
    assert _size(expr_module._parse) == 2
    # a table that lacks a name still rejects the text it once accepted
    for table in (_table(("a", "b", "x")), SymbolTable()):
        with pytest.raises(UnknownIdentifierError, match="'y'|'a'"):
            parse(text, table)
    assert _size(expr_module._parse) == 2


def test_parse_errors_raise_on_every_call():
    clear_memos()
    deep = "(" * 3000 + "x" + ")" * 3000
    for text, error in (("a +", ParseError), ("x*(y", ParseError),
                        ("2 $ 3", ParseError), ("sin(x, y)", ParseError),
                        ("q + x", UnknownIdentifierError),
                        ("1/(x - x)", DivisionByZeroError),
                        (deep, ParseError)):
        messages = set()
        for _ in range(3):
            with pytest.raises(error) as info:
                parse(text, TABLE)
            messages.add(str(info.value))
        assert len(messages) == 1
    assert _size(expr_module._parse) == 0


def test_substitute_memo_keys_coerced_values():
    clear_memos()
    e = parse("atan2(x, -1) + x*y", TABLE)
    two = substitute(e, {Sym("x"): 2})
    assert substitute(e, {"x": Const(2)}) is two
    assert substitute(e, {"x": Fraction(2)}) is two
    assert _size(expr_module._substitute) == 1
    # a float binds its exact value: 1 and 1.0 give one constant, and so
    # do 0.0 and -0.0, so each pair is one entry
    values = (1, 1.0, 0.0, -0.0)
    results = [substitute(e, {"x": v}) for v in values]
    assert _size(expr_module._substitute) == 3
    assert results[0] is results[1] and results[2] is results[3]
    assert results[2] == substitute(e, {"x": ZERO})
    assert evaluate(results[2], {}) == pytest.approx(math.pi)
    for v, warm in zip(values, results):
        clear_memos()
        cold = substitute(e, {"x": v})
        assert cold == warm and str(cold) == str(warm)


@given(_trees(), st.sampled_from(NAMES), _trees())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_warm_memo_gives_the_cold_substitution(e, name, value):
    clear_memos()
    cold = _outcome(substitute, e, {name: value})
    # warm every memo on pieces of the same work, then ask again
    for sub in _subtrees(e):
        _outcome(substitute, sub, {name: value})
        _outcome(substitute, sub, {Sym(name): value, "b": Const(-1)})
    _outcome(parse, str(e), TABLE)
    warm = _outcome(substitute, e, {Sym(name): value})
    assert warm == cold and str(warm) == str(cold)


def test_expand_memo_hands_out_the_identical_tree():
    clear_memos()
    e = parse("(x + y)^2 - (x - y)^2", TABLE)
    first = expand(e)
    assert first == normalize(parse("4*x*y", TABLE))
    assert expand(e) is first
    # keyed by the tree, so an equal tree parsed from another text hits it
    assert expand(parse("(x+y)^2-(x-y)^2", TABLE)) is first
    assert _size(expr_module.expand) == 1
    # a raising call stores nothing and raises again
    bad = Div(Mul((Sym("x"), Add((Sym("x"), Sym("y"))))), Add((
        Sym("x"), Mul((Const(-1), Sym("x"))))))
    for _ in range(2):
        with pytest.raises(DivisionByZeroError):
            expand(bad)
    assert _size(expr_module.expand) == 1


@given(_trees(), st.lists(_trees(), max_size=3))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_warm_memo_gives_the_cold_expansion(e, others):
    clear_memos()
    cold = _outcome(expand, e)
    clear_memos()
    # warm every memo on pieces of the same work, then ask again
    for sub in _subtrees(e):
        for o in others:
            _outcome(expand, Mul((sub, o)))
        _outcome(expand, sub)
    warm = _outcome(expand, e)
    assert warm == cold and str(warm) == str(cold)


def test_deep_trees_compare_without_recursion():
    # a long parsed sum nests one level per term; parsed again after its
    # tree is gone, it is a new node with the first one's structure
    text = " + ".join(f"x^{i % 5 + 1}" for i in range(450))
    first = parse(text, TABLE)
    plan, printed = _blueprint(first), str(first)
    clear_memos()
    del first
    again = parse(text, TABLE)
    assert str(again) == printed and _built(plan) is again


# ---------------------------------------------------------------------------
# calculus
# ---------------------------------------------------------------------------

@given(_polys(), st.sampled_from(NAMES))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_derivative_matches_finite_difference(e, name):
    d = differentiate(e, name)
    h = 1e-6
    up = dict(POINT)
    dn = dict(POINT)
    up[name] += h
    dn[name] -= h
    fd = (evaluate(e, up) - evaluate(e, dn)) / (2 * h)
    exact = evaluate(d, POINT)
    assert exact == pytest.approx(fd, rel=1e-5, abs=1e-5)


def test_function_derivatives():
    x = POINT["x"]
    cases = {
        "sin(x)": math.cos(x),
        "cos(x)": -math.sin(x),
        "sqrt(x)": 0.5 / math.sqrt(x),
        "atan2(x, y)": POINT["y"] / (x * x + POINT["y"] ** 2),
        "sin(x^2)": 2 * x * math.cos(x * x),
    }
    for text, want in cases.items():
        got = evaluate(differentiate(parse(text, TABLE), "x"), POINT)
        assert got == pytest.approx(want, rel=1e-12)


def test_substitute_is_simultaneous():
    e = parse("x*y", TABLE)
    swapped = substitute(e, {"x": Sym("y"), "y": Sym("x")})
    assert normalize(swapped) == normalize(e)


def _full_diff(e, name):
    """The product, quotient and chain rules on every subtree, with no skip
    for subtrees that lack the variable."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Sym):
        return ONE if e.name == name else ZERO
    if isinstance(e, Add):
        return Add(tuple(_full_diff(t, name) for t in e.terms))
    if isinstance(e, Mul):
        fs = e.factors
        return Add(tuple(Mul(fs[:i] + (_full_diff(f, name),) + fs[i + 1:])
                         for i, f in enumerate(fs)))
    if isinstance(e, Pow):
        n = e.exponent
        return Mul((Const(n), Pow(e.base, n - 1), _full_diff(e.base, name)))
    if isinstance(e, Div):
        du, dv = _full_diff(e.num, name), _full_diff(e.den, name)
        return Div(Add((Mul((du, e.den)), Mul((Const(-1), e.num, dv)))),
                   Pow(e.den, 2))
    (u,) = e.args
    if e.name == "sin":
        return Mul((Fun("cos", (u,)), _full_diff(u, name)))
    if e.name == "cos":
        return Mul((Const(-1), Fun("sin", (u,)), _full_diff(u, name)))
    raise TypeError(f"no rule for {e}")


def _quotients_without(e, name):
    """Quotients whose numerator holds name and whose denominator does not."""
    return [s for s in _subtrees(e) if isinstance(s, Div)
            and name in s.num.free_symbols()
            and name not in s.den.free_symbols()]


@given(_trees(), st.sampled_from(NAMES + ("w",)))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_skipping_subtrees_without_the_variable_keeps_the_full_rule(e, name):
    n = _normalized_or_discard(e)
    skipped = _outcome(differentiate, n, name)
    full = _outcome(lambda: normalize(_full_diff(n, name)))
    if name == "w":
        assert skipped == full == ZERO
    if skipped == full:
        return
    # the one rule that may change the normal form: du/den in place of the
    # quotient rule, whose (du*den)/den^2 does not always cancel
    assert _quotients_without(n, name)
    for pt in COLUMN_POINTS:
        try:
            want = evaluate(full, pt)
        except EvalError:
            continue
        assert evaluate(skipped, pt) == pytest.approx(want, rel=1e-9,
                                                      abs=1e-12)


def test_a_denominator_without_the_variable_keeps_its_quotient():
    for text, name, want, full in (
            ("x/(a + b)", "x", "1/(a + b)", "(a + b)/(a + b)^2"),
            ("sin(2*b/(1 + a))", "b", "2*cos(2*b/(1 + a))/(1 + a)",
             "(2 + 2*a)*cos(2*b/(1 + a))/(1 + a)^2"),
            ("x^2/(a*(a + b))", "x", "2*x/(a*(a + b))", "2*x/(a*(a + b))")):
        e = parse(text, TABLE)
        assert differentiate(e, name) == parse(want, TABLE)
        assert normalize(_full_diff(e, name)) == parse(full, TABLE)


def _fresh_free_symbols(e):
    """free_symbols() worked out from scratch, as a recursive walk."""
    if isinstance(e, Sym):
        return {e.name}
    return set().union(*map(_fresh_free_symbols, e._parts()[1]))


@given(_trees())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_cached_free_symbols_are_the_recursive_ones(e):
    n = _normalized_or_discard(e)
    for tree in (e, n):
        for sub in _subtrees(tree):
            assert sub.free_symbols() == _fresh_free_symbols(sub)
    # nodes built again after the memos and n let them go work out their
    # own sets
    plan = _blueprint(n)
    clear_memos()
    del n
    for sub in _subtrees(_built(plan)):
        assert sub.free_symbols() == _fresh_free_symbols(sub)


def test_substitute_keeps_subtrees_without_mapped_names(monkeypatch):
    clear_memos()
    e = parse("x*sin(a*b) + cos(y)/a", TABLE)
    e.free_symbols()
    # the walk asks each node it visits for its symbols; it does not look
    # inside a subtree without x
    visited = []
    free_symbols = Expr.free_symbols
    monkeypatch.setattr(Expr, "free_symbols",
                        lambda node: visited.append(node) or free_symbols(node))
    out = substitute(e, {"x": Const(3)})
    monkeypatch.undo()
    assert out is parse("3*sin(a*b) + cos(y)/a", TABLE)
    assert sorted(map(str, visited)) == sorted(
        [str(e), "x*sin(a*b)", "cos(y)/a", "x", "sin(a*b)"])
    assert substitute(e, {"p": Const(3), "q": Sym("x")}) is e


_COEFFICIENTS = st.fractions(min_value=-5, max_value=5,
                             max_denominator=7).filter(bool)


@given(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                       _COEFFICIENTS, max_size=6),
       st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_is_quadratic_is_total_degree_at_most_two(monomials, rng):
    # sum of c * zeta^i * p_zeta^j over distinct (i, j), in a random order
    zeta, p = Sym("zeta"), Sym("p_zeta")
    terms = [Mul((Const(c), Pow(zeta, i), Pow(p, j)))
             for (i, j), c in monomials.items()]
    rng.shuffle(terms)
    e = Add(tuple(terms)) if len(terms) > 1 else (terms + [ZERO])[0]
    degree = max((i + j for i, j in monomials), default=0)
    assert is_quadratic(e, ("zeta", "p_zeta")) == (degree <= 2)
    assert is_quadratic(e, ("p_zeta", "zeta")) == (degree <= 2)


# ---------------------------------------------------------------------------
# evaluation errors
# ---------------------------------------------------------------------------

def test_evaluate_error_classes():
    with pytest.raises(UnboundSymbolError):
        evaluate(parse("x + a", TABLE), {"x": 1.0})
    with pytest.raises(DivisionByZeroError):
        evaluate(parse("x/y", TABLE), {"x": 1.0, "y": 0.0})
    with pytest.raises(NegativeSqrtError):
        evaluate(parse("sqrt(x)", TABLE), {"x": -1.0})


_RNG = random.Random(5)
COLUMN_POINTS = [{name: _RNG.uniform(-2.0, 2.0) for name in NAMES}
                 for _ in range(16)]


@given(_trees())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_column_evaluation_matches_pointwise(e):
    values, errors = [], set()
    for pt in COLUMN_POINTS:
        try:
            values.append(evaluate(e, pt))
        except EvalError as exc:
            errors.add(type(exc))
    try:
        col = evaluate(e, columns(COLUMN_POINTS))
    except EvalError as exc:
        # the batch stops at the first singular node; some point hit it too
        assert type(exc) in errors
        assert " at {" in str(exc) or type(exc) is EvalError
        return
    assert not errors
    assert all(isinstance(v, float) for v in values)
    assert col.shape == (len(COLUMN_POINTS),)
    np.testing.assert_array_max_ulp(col, np.array(values), maxulp=4)


def test_column_errors_name_the_first_offending_point():
    pts = [{"x": 1.0, "y": 2.0}, {"x": -4.0, "y": 0.5}, {"x": -1.0, "y": 0.0}]
    with pytest.raises(NegativeSqrtError, match="'x': -4.0"):
        evaluate(parse("sqrt(x)", TABLE), columns(pts))
    with pytest.raises(DivisionByZeroError, match="'y': 0.0"):
        evaluate(parse("x/y", TABLE), columns(pts))
    with pytest.raises(UnboundSymbolError):
        evaluate(parse("x + a", TABLE), columns(pts))
    # a constant still gives one value per point
    assert evaluate(parse("2", TABLE), columns(pts)).tolist() == [2.0] * 3


# sample columns with singular points: a zero in every name, a negative
# value under a square root
_SINGULAR_COLUMNS = columns(
    COLUMN_POINTS[:5] + [{"a": 0.0, "b": 1.5, "x": 0.0, "y": -1.0},
                         {"a": -1.0, "b": 0.0, "x": 1.0, "y": 0.0}]
    + COLUMN_POINTS[5:9])


def _per_tree(trees, bindings):
    """The per-tree values in order, up to the first error, and that error."""
    values = []
    for e in trees:
        try:
            values.append(evaluate(e, bindings))
        except EvalError as exc:
            return values, exc
    return values, None


@given(st.lists(st.one_of(_trees(), _trees().map(lambda e: Fun("sqrt", (e,)))),
                max_size=5))
@example([Div(Sym("x"), Sym("y")), Fun("sqrt", (Sym("y"),))])
@example([Fun("sqrt", (Sym("y"),)), Div(Sym("x"), Sym("y"))])
@example([Pow(Sym("x"), 3), Div(Sym("a"), Sym("y"))])
@settings(max_examples=200, deadline=None, derandomize=True)
def test_a_batch_is_the_per_tree_calls_in_order(trees):
    # columns, then float points: a regular one, a singular one, and one
    # where x^3 overflows before a/y divides by zero
    for bindings in (_SINGULAR_COLUMNS, POINT,
                     {"a": 0.0, "b": -1.0, "x": 0.0, "y": 2.0},
                     {"a": 1.0, "b": 2.0, "x": 1e200, "y": 0.0}):
        values, error = _per_tree(trees, bindings)
        if error is not None:
            # the error the per-tree calls meet first: same class and text
            with pytest.raises(EvalError) as info:
                evaluate(trees, bindings)
            assert type(info.value) is type(error)
            assert str(info.value) == str(error)
            continue
        batch = evaluate(trees, bindings)
        assert batch.shape == (len(trees),) + np.shape(bindings["x"])
        assert batch.dtype == np.float64
        assert [row.tobytes() for row in batch] == [
            np.float64(v).tobytes() if isinstance(v, float) else v.tobytes()
            for v in values]
        # a fresh array of the caller's: no row aliases a bound column, and
        # writing every row changes no later result
        assert batch.flags.writeable
        assert not any(np.shares_memory(batch, v) for v in bindings.values()
                       if isinstance(v, np.ndarray))
        before = batch.tobytes()
        batch[...] = -7.0
        assert evaluate(trees, bindings).tobytes() == before


# ---------------------------------------------------------------------------
# sampling and comparison
# ---------------------------------------------------------------------------

def _sample_one_at_a_time(dom, n, rng):
    """Reference sampler: one candidate per draw, guards tried in order."""
    points = []
    while len(points) < n:
        pt = {name: rng.uniform(lo, hi) for name, lo, hi in dom.ranges}
        if all(lo <= evaluate(g, pt) <= hi for g, lo, hi in dom.guards):
            points.append(pt)
    return points


def test_block_sampling_matches_one_at_a_time(free_model, ho_model,
                                               lam_model):
    # the first guard rejects about half the candidates; the second is
    # singular (sqrt of a negative) exactly where the first rejects
    halves = SampleDomain(ranges=(("x", -1.0, 1.0), ("y", 0.5, 2.0)),
                          guards=((parse("x", TABLE), 0.0, 1.0),
                                  (parse("sqrt(x)*y", TABLE), 0.0, 1.5)))
    charts = [halves] + [m.system.chart for m in (free_model, ho_model,
                                                  lam_model)]
    assert any(chart.guards for chart in charts[1:])
    for dom in charts:
        for n in (1, 25, 64, 200):
            for seed in (0, 3, -7, 2**31 - 5, 2**70 + 3):
                want = _sample_one_at_a_time(dom, n, random.Random(seed))
                assert dom.sample(n, seed=seed) == want
                cols = dom.sample_columns(n, seed=seed)
                assert {k: v.tolist() for k, v in cols.items()} == {
                    k: [pt[k] for pt in want] for k in want[0]}
                # a caller's generator gives the points of its own draw
                assert dom.sample(n, rng=random.Random(seed)) == want


def test_sample_domain_bounds_and_determinism():
    dom = SampleDomain(ranges=(("x", -1.0, 2.0), ("y", 0.5, 0.6)))
    pts = dom.sample(50, seed=7)
    assert len(pts) == 50
    assert all(-1.0 <= p["x"] <= 2.0 and 0.5 <= p["y"] <= 0.6 for p in pts)
    assert pts == dom.sample(50, seed=7)
    assert pts != dom.sample(50, seed=8)


def test_sample_domain_guard_band():
    dom = SampleDomain(ranges=(("x", -1.0, 1.0),),
                       guards=((parse("x^2", TABLE), 0.25, 1.0),))
    pts = dom.sample(40, seed=0)
    assert all(abs(p["x"]) >= 0.5 for p in pts)


def test_sample_domain_impossible_guard():
    dom = SampleDomain(ranges=(("x", 0.0, 1.0),),
                       guards=((parse("x", TABLE), 5.0, 6.0),))
    with pytest.raises(DomainError):
        dom.sample(5, seed=0)


def test_a_count_below_one_is_a_domain_error():
    dom = SampleDomain(ranges=(("x", -1.0, 1.0),))
    for n, call in ((0, lambda: dom.sample(0)),
                    (0, lambda: dom.sample_columns(0)),
                    (-3, lambda: dom.sample_columns(-3, 2))):
        with pytest.raises(DomainError,
                           match=f"^need at least 1 sample point, "
                                 f"asked for {n}$"):
            call()
    # the stream the refused requests reached still serves a count of 1
    assert dom.sample_columns(1, 2)["x"].tolist() == \
        [pt["x"] for pt in dom.sample(1, seed=2)]


def test_sample_columns_are_drawn_once_and_read_only(monkeypatch):
    dom = SampleDomain(ranges=(("x", -1.0, 1.0), ("y", 0.5, 2.0)),
                       guards=((parse("x*y", TABLE), -0.5, 1.0),))
    fresh = dom.sample(30, seed=4)
    drawn = []
    uniforms = expr_module._uniforms

    def counting(rng, k):
        drawn.append(rng)
        return uniforms(rng, k)

    monkeypatch.setattr(expr_module, "_uniforms", counting)
    expr_module._stream.cache_clear()
    expr_module.sampled_check.cache_clear()
    a, b = parse("x*y", TABLE), parse("x*y + x^3/1000", TABLE)
    results = [numeric_compare(a, b, dom, n=30, seed=4) for _ in range(3)]
    # one generator, seeded once, drew every candidate
    assert drawn and all(rng is drawn[0] for rng in drawn)
    blocks = len(drawn)
    # the worst point and error are those of a fresh draw
    va, vb = (evaluate(e, columns(fresh)) for e in (a, b))
    scaled = np.abs(va - vb) / (1.0 + np.abs(va))
    for res in results:
        assert res.worst_point == fresh[int(np.argmax(scaled))]
        assert res.max_scaled_err == float(np.max(scaled))
        assert not res.equal and res.n_points == 30
    cols = dom.sample_columns(30, seed=4)
    assert all(cols[k].tolist() == [pt[k] for pt in fresh] for k in ("x", "y"))
    with pytest.raises(ValueError):
        cols["x"][0] = 0.0
    # a smaller set is a prefix of the same stream: no candidate is drawn
    assert dom.sample_columns(7, seed=4)["y"].tolist() == \
        [pt["y"] for pt in fresh[:7]]
    assert len(drawn) == blocks
    # a caller's own generator always draws
    assert dom.sample(30, rng=random.Random(4)) == fresh
    assert len(drawn) > blocks
    assert dom.sample_columns(30, seed=5)["x"].tolist() != cols["x"].tolist()


# the halves domain of test_block_sampling_matches_one_at_a_time
_HALVES = SampleDomain(ranges=(("x", -1.0, 1.0), ("y", 0.5, 2.0)),
                       guards=((parse("x", TABLE), 0.0, 1.0),
                               (parse("sqrt(x)*y", TABLE), 0.0, 1.5)))


def _drawn(dom, n, seed):
    """A one-at-a-time draw of n points of dom from random.Random(seed), as
    bytes per column, or its error's text: one rng.uniform per range, the
    guards in order on 1-point columns, at most max(1000, 200*n)
    candidates."""
    if n < 1:
        return f"need at least 1 sample point, asked for {n}"
    rng = random.Random(seed)
    points = []
    limit = max(1000, 200 * n)
    for _ in range(limit):
        pt = {name: np.array([rng.uniform(lo, hi)])
              for name, lo, hi in dom.ranges}
        for guard, lo, hi in dom.guards:
            try:
                value = evaluate(guard, pt)[0]
            except EvalError as exc:
                return f"guard {guard} failed: {exc}"
            if not lo <= value <= hi:
                break
        else:
            points.append(pt)
            if len(points) == n:
                return {name: np.concatenate([pt[name] for pt in points])
                        .tobytes() for name, _, _ in dom.ranges}
    return f"guard rejection too high: {len(points)} of {n} points after " \
        f"{limit} attempts"


def _served(dom, n, seed):
    """dom.sample_columns(n, seed) as bytes per column, or its error's
    text; the columns are read-only."""
    try:
        cols = dom.sample_columns(n, seed=seed)
    except DomainError as exc:
        return str(exc)
    assert not any(v.flags.writeable for v in cols.values())
    return {k: v.tobytes() for k, v in cols.items()}


@given(st.lists(st.tuples(
    st.integers(0, 3),
    st.one_of(st.sampled_from((1, 25, 32, 64, 100, 200)), st.integers(1, 300)),
    st.one_of(st.sampled_from((0, 3, -7, 2**70 + 3)), st.integers(-50, 50))),
    min_size=1, max_size=8))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_every_sample_count_is_the_fresh_draw(free_model, ho_model,
                                              lam_model, requests):
    # whatever was asked before on the same (chart, seed), n points are
    # bit for bit those of a fresh draw of n
    charts = [_HALVES] + [m.system.chart for m in (free_model, ho_model,
                                                   lam_model)]
    expr_module._stream.cache_clear()
    for chart, n, seed in requests:
        dom = charts[chart]
        assert _served(dom, n, seed) == _drawn(dom, n, seed)


def _singular_at(point):
    """x, y in [0, 1]; a guard keeps x <= 1/2, and a second one is singular
    (a division by zero) only at this point's y."""
    return SampleDomain(
        ranges=(("x", 0.0, 1.0), ("y", 0.0, 1.0)),
        guards=((Sym("x"), 0.0, 0.5),
                (Div(ONE, Add((Sym("y"), Const(Fraction(-point["y"]))))),
                 -1e300, 1e300)))


def _passed_while_drawing(n, seed, monkeypatch):
    """The candidates x <= 1/2, in order, among those a stream of seed
    draws for n points of the domain of _singular_at without its second
    guard: past the n-th they were drawn ahead for later requests."""
    plain = SampleDomain(ranges=(("x", 0.0, 1.0), ("y", 0.0, 1.0)),
                         guards=((Sym("x"), 0.0, 0.5),))
    drawn = []
    uniforms = expr_module._uniforms

    def counting(rng, k):
        drawn.append(k)
        return uniforms(rng, k)

    with monkeypatch.context() as patched:
        patched.setattr(expr_module, "_uniforms", counting)
        plain.sample(n, seed=seed)
    rng = random.Random(seed)
    candidates = [{"x": rng.uniform(0.0, 1.0), "y": rng.uniform(0.0, 1.0)}
                  for _ in range(sum(drawn) // 2)]
    return [pt for pt in candidates if pt["x"] <= 0.5]


def test_a_guard_error_is_met_where_a_fresh_draw_meets_it(monkeypatch):
    n = 20
    seed = next(s for s in range(100)
                if len(_passed_while_drawing(n, s, monkeypatch)) > n)
    passed = _passed_while_drawing(n, seed, monkeypatch)
    # singular only past the n-th point: the stream meets the error while
    # it draws ahead, and n points are still served
    late = _singular_at(passed[n])
    expr_module._stream.cache_clear()
    assert _served(late, n, seed) == _drawn(late, n, seed)
    assert isinstance(_drawn(late, n, seed), dict)
    assert _served(late, n - 1, seed) == _drawn(late, n - 1, seed)
    message = _drawn(late, n + 1, seed)
    assert message.startswith("guard 1/(y - ") and "division" in message
    # the error ended the stream: each request past it raises a new error
    raised = []
    for _ in range(2):
        with pytest.raises(DomainError) as caught:
            late.sample_columns(n + 1, seed=seed)
        assert str(caught.value) == message
        raised.append(caught.value)
    assert raised[0] is not raised[1]
    # singular before the n-th point: the error of a fresh draw of n,
    # however many points were asked for before
    early = _singular_at(passed[n // 2])
    for asked in ((), (n // 2,), (n // 2 + 1,), (n, n // 2)):
        expr_module._stream.cache_clear()
        for m in asked + (n,):
            assert _served(early, m, seed) == _drawn(early, m, seed)
        message = _drawn(early, n, seed)
        assert message.startswith("guard 1/(y - ") and "division" in message
        assert _served(early, n // 2, seed) == _drawn(early, n // 2, seed)


def test_the_first_candidate_a_guard_fails_on_is_the_error():
    # sqrt(y) is tried first, on every candidate of a block, but the first
    # candidate has y >= 0 > x and the second y < 0: a one-at-a-time draw
    # fails on the first, at sqrt(x)
    dom = SampleDomain(ranges=(("x", -1.0, 1.0), ("y", -1.0, 1.0)),
                       guards=((parse("sqrt(y)", TABLE), 0.0, 9.0),
                               (parse("sqrt(x)", TABLE), 0.0, 9.0)))

    def first_two(seed):
        rng = random.Random(seed)
        return [(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
                for _ in range(2)]

    seed = next(s for s in range(1000)
                if first_two(s)[0][1] >= 0 > first_two(s)[0][0]
                and first_two(s)[1][1] < 0)
    x = first_two(seed)[0][0]
    message = _drawn(dom, 4, seed)
    assert message.startswith("guard sqrt(x) failed: sqrt of negative value "
                              f"in sqrt(x) at {{'x': {x!r}, ")
    expr_module._stream.cache_clear()
    for n in (4, 1, 4):
        assert _served(dom, n, seed) == message
        with pytest.raises(DomainError, match=r"^guard sqrt\(x\) failed"):
            dom.sample(n, seed=seed)


def test_a_point_past_its_attempt_limit_is_not_served():
    # a sparse guard whose first point lies past attempt 1000 (the limit of
    # a draw of 1) but within 2000 (that of a draw of 10)
    sparse = SampleDomain(ranges=(("x", 0.0, 1.0),),
                          guards=((Sym("x"), 0.0, 0.0007),))

    def first_accepted(seed):
        rng = random.Random(seed)
        return next(i for i in range(1, 10**6)
                    if rng.uniform(0.0, 1.0) <= 0.0007)

    seed = next(s for s in range(1000) if 1000 < first_accepted(s) <= 2000)
    expr_module._stream.cache_clear()
    assert _served(sparse, 10, seed) == _drawn(sparse, 10, seed)
    message = _drawn(sparse, 1, seed)
    assert message == "guard rejection too high: 0 of 1 points after 1000 " \
        "attempts"
    assert _served(sparse, 1, seed) == message


def test_a_fresh_stream_serves_the_usual_counts_in_few_blocks(ho_model,
                                                              monkeypatch):
    # a block takes at least 256 candidates, so the counts the checks ask
    # for (64, 100 and 200 points) need one block each at most
    chart = ho_model.system.chart
    drawn = []
    uniforms = expr_module._uniforms

    def counting(rng, k):
        drawn.append(k)
        return uniforms(rng, k)

    monkeypatch.setattr(expr_module, "_uniforms", counting)
    for seed in (0, 3, 5001):
        drawn.clear()
        expr_module._stream.cache_clear()
        for n in (64, 100, 200):
            assert _served(chart, n, seed) == _drawn(chart, n, seed)
        assert 1 <= len(drawn) <= 3


@given(st.permutations((1, 25, 64, 100, 200)),
       st.one_of(st.sampled_from((0, 3, -7, 2**70 + 3)),
                 st.integers(-50, 50)))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_any_order_of_counts_gives_the_points_of_sample(ho_model, counts,
                                                        seed):
    for dom in (_HALVES, ho_model.system.chart):
        expr_module._stream.cache_clear()
        for n in counts:
            cols = dom.sample_columns(n, seed=seed)
            assert {k: v.tolist() for k, v in cols.items()} == {
                k: [pt[k] for pt in dom.sample(n, seed=seed)] for k in cols}


def test_a_sparse_guard_gives_the_rejection_text_of_a_fresh_draw():
    # about 1 candidate in 300 passes: fewer than n points among the
    # max(1000, 200*n) candidates a draw of n may take
    sparse = SampleDomain(ranges=(("x", 0.0, 1.0), ("y", 0.0, 1.0)),
                          guards=((Sym("x"), 0.0, 1.0 / 300.0),))
    rejected = 0
    for seed in range(4):
        expr_module._stream.cache_clear()
        for n in (1, 3, 5, 10, 3):
            want = _drawn(sparse, n, seed)
            assert _served(sparse, n, seed) == want
            rejected += isinstance(want, str)
            if isinstance(want, str):
                assert want.startswith("guard rejection too high: ")
                assert want.endswith(f" of {n} points after "
                                     f"{max(1000, 200 * n)} attempts")
    assert rejected > 0


def test_a_guard_error_drawn_ahead_raises_only_when_needed():
    # the second guard is singular only on the (n + 6)-th candidate that
    # the first guard passes, which the first block for n draws: counts up
    # to n + 5 are served, a larger one raises, and the smaller ones are
    # served again after it
    n, seed = 20, 11
    rng = random.Random(seed)
    candidates = [{"x": rng.uniform(0.0, 1.0), "y": rng.uniform(0.0, 1.0)}
                  for _ in range(256)]
    late = _singular_at([pt for pt in candidates if pt["x"] <= 0.5][n + 5])
    expr_module._stream.cache_clear()
    for m in (n, n + 5, 1, n + 6, n + 5, n, n + 30):
        want = _drawn(late, m, seed)
        assert isinstance(want, dict) == (m <= n + 5)
        assert _served(late, m, seed) == want


_BOX = SampleDomain(ranges=tuple((name, -2.0, 2.0) for name in NAMES))


def test_kept_values_are_read_only_and_shared():
    # the kept sample columns are shared, so read-only; a value worked out
    # above the leaves is a fresh array, the caller's to edit
    cols = _BOX.sample_columns(20, seed=6)
    x = evaluate(parse("x", TABLE), cols)
    assert x is cols["x"]
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        x += 1.0
    product = parse("x*y", TABLE)
    value = evaluate(product, cols)
    assert evaluate(product, cols) is not value
    value[0] = 7.0
    assert evaluate(product, cols).tolist() == (cols["x"] * cols["y"]).tolist()


def test_a_singular_subtree_raises_the_same_error_each_time():
    cols = _BOX.sample_columns(20, seed=6)
    singular = parse("sqrt(1 - x)", TABLE)
    e = parse("x*y + sqrt(1 - x)", TABLE)
    first_bad = int(np.argmax(cols["x"] > 1.0))
    assert first_bad > 0
    messages = []
    for bindings in (cols, cols, dict(cols)):
        with pytest.raises(NegativeSqrtError) as info:
            evaluate(e, bindings)
        messages.append(str(info.value))
    assert messages[0] == messages[1] == messages[2]
    assert messages[0].startswith(f"sqrt of negative value in {singular} at ")
    assert f"'x': {float(cols['x'][first_bad])!r}," in messages[0]


def test_numeric_compare_reports_worst_point():
    dom = SampleDomain(ranges=(("x", 0.0, 1.0),))
    res = numeric_compare(parse("x", TABLE), parse("x + 0.001", TABLE), dom,
                          n=20, tol=1e-9)
    assert not res.equal and not res
    assert res.worst_point is not None
    assert res.max_scaled_err > 1e-4
    same = numeric_compare(parse("(x+1)^2", TABLE),
                           parse("x^2 + 2*x + 1", TABLE), dom)
    assert same.equal and same


def test_values_that_differ_past_float_range_compare_unequal_quietly():
    # 2e308 overflows the subtraction; pytest's filter turns numpy's
    # overflow RuntimeWarning into an error
    dom = SampleDomain(ranges=(("x", 0.5, 1.0),))
    res = numeric_compare(parse("10^308*x", TABLE), parse("-(10^308)*x", TABLE),
                          dom, n=16, seed=1)
    assert not res.equal
    assert res.max_scaled_err == math.inf
    assert 0.5 <= res.worst_point["x"] <= 1.0


def _compared_by_sampling(a, b, dom, n, tol, seed):
    """The sampled formulas of numeric_compare on evaluate((a, b), cols):
    (equal, max_scaled_err, worst_point, n_points), or the error's text."""
    cols = dom.sample_columns(n, seed=seed)
    try:
        va, vb = evaluate((a, b), cols)
    except EvalError as exc:
        return f"sampling hit a singular point: {exc}"
    err = np.abs(va - vb)
    scale = 1.0 + np.abs(va)
    scaled = err / scale
    worst = int(np.argmax(scaled))
    return (not np.any(err > tol * scale), float(scaled[worst]),
            {k: float(v[worst]) for k, v in cols.items()}, n)


_VALUES = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(max_denominator=10**6),
    st.floats(-1e300, 1e300, allow_nan=False).map(Fraction))


@given(_VALUES,
       st.sampled_from((0, 1e-14, 1e-12, 1e-10, 1e-9, 1e-8, 1e-6, 1.0)),
       st.sampled_from(("plus", "minus", "negated", "next")),
       st.sampled_from((1e-12, 1e-9, 1e-8)), st.sampled_from((1, 64, 200)),
       st.integers(-5, 5))
@example(Fraction(10**400), 0, "next", 1e-9, 64, 0)
@example(Fraction(3), 0, "negated", 1e-9, 64, 0)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_a_pair_of_constants_is_decided_as_sampling_decides_it(
        value, offset, how, tol, n, seed):
    # b sits offset*(1 + |a|) either side of a, or is -a or a + 1; 10**400
    # (past float range) beside 10**400 + 1 takes the sampled path's error
    a = Const(value)
    step = Fraction(offset) * (1 + abs(value))
    b = Const({"plus": value + step, "minus": value - step,
               "negated": -value, "next": value + 1}[how])
    want = _compared_by_sampling(a, b, _BOX, n, tol, seed)
    try:
        res = expr_module._compare(a, b, _BOX, n, tol, seed)
    except DomainError as exc:
        got = str(exc)
    else:
        assert type(res.equal) is bool and type(res.max_scaled_err) is float
        got = (res.equal, res.max_scaled_err, res.worst_point, res.n_points)
    assert got == want


def test_verify_compares_no_pair_of_constants_by_evaluation(monkeypatch,
                                                            capsys):
    # the bracket table, the velocity matrix and the constraint residual
    # compare many constants: each pair is decided from its values
    evaluate, compare = expr_module.evaluate, expr_module._compare.__code__
    pairs = []

    def counting(e, bindings):
        if sys._getframe(1).f_code is compare:
            pairs.append(tuple(e))
        return evaluate(e, bindings)

    monkeypatch.setattr(expr_module, "evaluate", counting)
    runs = _counting_compare(monkeypatch)
    clear_memos()
    assert main(["verify", "harmonic", "--seed", "3", "--json"]) == 0
    capsys.readouterr()
    constant = [args for args in runs
                if type(args[0]) is Const and type(args[1]) is Const]
    assert constant and len(pairs) + len(constant) == len(runs)
    assert not any(type(a) is Const and type(b) is Const for a, b in pairs)


# ---------------------------------------------------------------------------
# the memo of sampled comparisons
# ---------------------------------------------------------------------------

def _counting_compare(monkeypatch):
    runs = []
    compare = expr_module._compare

    def counting(*args):
        runs.append(args)
        return compare(*args)

    monkeypatch.setattr(expr_module, "_compare", counting)
    expr_module.sampled_check.cache_clear()
    return runs


def test_sampled_comparisons_miss_on_every_key_part(monkeypatch):
    runs = _counting_compare(monkeypatch)
    a, b = parse("x*y", TABLE), parse("x*y + x^3/1000", TABLE)
    ranges = (("x", -1.0, 1.0), ("y", 0.5, 2.0))
    dom = SampleDomain(ranges=ranges)
    first = numeric_compare(a, b, dom, n=30, tol=1e-9, seed=4)
    # equal trees and an equal chart built afresh hit, however passed
    for again in (numeric_compare(a, b, dom, n=30, tol=1e-9, seed=4),
                  numeric_compare(parse("x*y", TABLE), b,
                                  SampleDomain(ranges=ranges), 30, 1e-9, 4)):
        assert again == first
    assert len(runs) == 1
    wider = SampleDomain(ranges=(("x", -1.0, 1.0), ("y", 0.5, 2.5)))
    variants = [
        ((b, a, dom), {}),            # the error is scaled by |a|
        ((a, b, dom), {"seed": 5}),
        ((a, b, dom), {"n": 31}),
        ((a, b, dom), {"tol": 1e-3}),
        ((a, b, wider), {}),
    ]
    results = []
    for count, (args, changed) in enumerate(variants, start=2):
        kwargs = {"n": 30, "tol": 1e-9, "seed": 4, **changed}
        results.append(numeric_compare(*args, **kwargs))
        assert numeric_compare(*args, **kwargs) == results[-1]
        assert len(runs) == count
    # each miss worked out its own answer
    assert results[0].max_scaled_err != first.max_scaled_err
    assert results[3].equal and not first.equal


def test_a_comparison_that_raises_raises_again(monkeypatch):
    runs = _counting_compare(monkeypatch)
    dom = SampleDomain(ranges=(("x", -1.0, 1.0),))
    for _ in range(2):
        with pytest.raises(DomainError):
            numeric_compare(parse("sqrt(x)", TABLE), ZERO, dom, n=20)
    assert len(runs) == 2
    assert _size(expr_module.sampled_check) == 0


def test_a_returned_worst_point_is_the_callers_own():
    expr_module.sampled_check.cache_clear()
    dom = SampleDomain(ranges=(("x", 0.0, 1.0),))
    a, b = parse("x", TABLE), parse("x + 0.001", TABLE)
    first = numeric_compare(a, b, dom, n=20)
    point = dict(first.worst_point)
    first.worst_point["x"] = 99.0
    first.worst_point["junk"] = 1.0
    again = numeric_compare(a, b, dom, n=20)
    assert again.worst_point == point
    assert str(again.worst_point) == str(point)
    assert again.worst_point is not first.worst_point


def test_sampled_values_are_worked_out_once_and_read_only(monkeypatch):
    runs = []
    work = expr_module._sampled_values

    def counting(*args):
        runs.append(args)
        return work(*args)

    monkeypatch.setattr(expr_module, "_sampled_values", counting)
    expr_module.sampled_check.cache_clear()
    cols = _BOX.sample_columns(20, seed=6)
    with pytest.raises(TypeError):
        cols["x"] = cols["y"]
    text = "x*y + cos(x)/(y^2 + 1)"
    e = parse(text, TABLE)
    first = sampled_values(e, _BOX, 20, 6)
    assert np.array_equal(first, evaluate(e, dict(cols)))
    with pytest.raises(ValueError):
        first[0] = 0.0
    # equal trees and an equal chart built afresh hit
    again = sampled_values(parse(text, TABLE),
                           SampleDomain(ranges=_BOX.ranges), 20, 6)
    assert again is first
    assert len(runs) == 1
    wider = SampleDomain(ranges=_BOX.ranges[:-1] + (("y", -2.0, 3.0),))
    for count, args in enumerate([(parse("x*y", TABLE), _BOX, 20, 6),
                                  (e, _BOX, 21, 6), (e, _BOX, 20, 7),
                                  (e, wider, 20, 6)], start=2):
        assert sampled_values(*args) is sampled_values(*args)
        assert len(runs) == count
    # a tree that raises stores nothing, so it raises again
    expr_module.sampled_check.cache_clear()
    singular = parse("x*y + sqrt(1 - x)", TABLE)
    for count in (6, 7):
        with pytest.raises(NegativeSqrtError):
            sampled_values(singular, _BOX, 20, 6)
        assert len(runs) == count
    assert _size(expr_module.sampled_check) == 0
