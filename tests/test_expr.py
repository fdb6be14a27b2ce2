import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from emq import expr as expr_module
from emq.expr import (
    Add, Const, Div, DivisionByZeroError, DomainError, EvalError, Fun, Mul,
    NegativeSqrtError, ParseError, Pow, SampleDomain, Sym, SymbolTable,
    UnboundSymbolError, UnknownIdentifierError, ONE, ZERO, columns,
    differentiate, evaluate, expand, normalize, numeric_compare, parse,
    sort_key, substitute,
)

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


def _trees():
    return st.recursive(
        _leaves(),
        lambda kids: st.one_of(
            st.tuples(kids, kids).map(Add),
            st.tuples(kids, kids).map(Mul),
            st.tuples(kids, kids).map(lambda ab: Div(ab[0], ab[1])),
            st.tuples(kids, st.integers(-2, 3)).map(lambda be: Pow(*be)),
            kids.map(lambda k: Fun("sin", (k,))),
            kids.map(lambda k: Fun("cos", (k,))),
        ),
        max_leaves=12,
    )


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
    except DivisionByZeroError:
        assume(False)


def _clear_memos():
    expr_module._NORMAL_FORMS.clear()
    expr_module._DERIVATIVES.clear()


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


# ---------------------------------------------------------------------------
# normalization properties
# ---------------------------------------------------------------------------

@given(_trees())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_normalize_is_idempotent(e):
    n = _normalized_or_discard(e)
    _clear_memos()  # normalize(n) must recompute, not find e's entry
    assert normalize(n) == n


@given(_trees())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_print_then_parse_round_trips(e):
    n = _normalized_or_discard(e)
    assert normalize(parse(str(n), TABLE)) == n


@given(_trees())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_normalize_preserves_value(e):
    n = _normalized_or_discard(e)
    try:
        raw = evaluate(e, POINT)
        cooked = evaluate(n, POINT)
    except EvalError:
        assume(False)
    assert cooked == pytest.approx(raw, rel=1e-9, abs=1e-9)


@given(_trees())
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
    _clear_memos()
    cold = _outcome(normalize, e)
    _clear_memos()
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
    _clear_memos()
    cold = _outcome(differentiate, e, name)
    _clear_memos()
    for sub in _subtrees(e):
        for o in others:
            _outcome(differentiate, Mul((sub, o)), name)
        for other in NAMES:
            _outcome(differentiate, sub, other)
        _outcome(normalize, sub)
    warm = _outcome(differentiate, e, name)
    assert warm == cold and str(warm) == str(cold)


def test_memo_keeps_exact_and_float_constants_apart():
    x = Sym("x")
    cases = [
        # 1*x is x, but 1.0*x keeps its float coefficient
        [Mul((Const(1), x)), Mul((Const(1.0), x))],
        # (+-0.0)^3 keeps the sign, which atan2 then sees
        [Fun("atan2", (Pow(Const(0.0), 3), Const(-1))),
         Fun("atan2", (Pow(Const(-0.0), 3), Const(-1)))],
    ]
    for pair in cases:
        cold = []
        for e in pair:
            _clear_memos()
            cold.append(normalize(e))
        assert str(cold[0]) != str(cold[1])
        for order in (pair, pair[::-1]):
            _clear_memos()
            for e in order:
                assert str(normalize(e)) == str(cold[pair.index(e)])
    assert evaluate(normalize(cases[1][0]), {}) == pytest.approx(math.pi)
    assert evaluate(normalize(cases[1][1]), {}) == pytest.approx(-math.pi)


def test_terms_and_factors_with_signed_zeros_stay_apart():
    # atan2(0.0, -1) is pi and atan2(-0.0, -1) is -pi, but their sort keys
    # are equal; collecting them as one term or factor changes the value
    pos = Fun("atan2", (Const(0.0), Const(-1)))
    neg = Fun("atan2", (Const(-0.0), Const(-1)))
    x = Sym("x")
    for e in (Add((pos, neg)), Mul((pos, neg)), Div(pos, neg),
              Add((Div(x, pos), Div(x, neg)))):
        _clear_memos()
        n = normalize(e)
        assert n == normalize(n)
        assert evaluate(n, {"x": 0.4}) == pytest.approx(
            evaluate(e, {"x": 0.4}), abs=1e-12)


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


def test_memo_refills_after_reaching_its_bound():
    _clear_memos()
    x = Sym("x")
    square = normalize(Mul((x, x)))
    cube_slope = differentiate(Pow(x, 3), "x")
    limit = expr_module._MEMO_LIMIT
    for i in range(limit + 10):
        normalize(Fun("sin", (Const(i),)))
        differentiate(Sym(f"v{i}"), "x")
    assert 0 < len(expr_module._NORMAL_FORMS) <= limit
    assert 0 < len(expr_module._DERIVATIVES) <= limit
    assert normalize(Mul((x, x))) == square == Pow(x, 2)
    assert differentiate(Pow(x, 3), "x") == cube_slope == normalize(
        Mul((Const(3), Pow(x, 2))))
    assert normalize(Fun("sin", (Const(0),))) == ZERO
    assert normalize(Fun("sin", (Const(limit),))) == Fun("sin", (Const(limit),))


# ---------------------------------------------------------------------------
# the node table
# ---------------------------------------------------------------------------

def _fresh_sort_key(e):
    """sort_key worked out from scratch, as a recursive walk."""
    if isinstance(e, Const):
        return (0, e.value, isinstance(e.value, float))
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


def _rebuilt(e):
    """e built again by the constructors alone, past every memo."""
    if isinstance(e, Const):
        return Const(e.value)
    if isinstance(e, Sym):
        return Sym(e.name)
    if isinstance(e, Pow):
        return Pow(_rebuilt(e.base), e.exponent)
    if isinstance(e, Div):
        return Div(_rebuilt(e.num), _rebuilt(e.den))
    if isinstance(e, Fun):
        return Fun(e.name, map(_rebuilt, e.args))
    return type(e)(map(_rebuilt, e._parts()[1]))


def test_equal_trees_are_one_node():
    _clear_every_memo()
    x, y = Sym("x"), Sym("y")
    assert Sym("x") is x and Const(2) is Const(Fraction(2))
    assert Pow(x, Fraction(4, 2)) is Pow(x, 2)
    built = Add((Mul((Const(3), x)), Fun("sin", (Div(y, Pow(x, 2)),))))
    assert Add((Mul((Const(3), x)), Fun("sin", (Div(y, Pow(x, 2)),)))) is built
    # the parser, normalize and the constructors meet in one node
    parsed = parse("sin(y/x^2) + 3*x", TABLE)
    assert normalize(built) is parsed
    assert normalize(parse("x*3 + sin(y/(x*x))", TABLE)) is parsed
    assert substitute(parse("sin(y/a^2) + 3*a", TABLE), {"a": x}) is parsed
    assert expand(parse("(x + 1)^2", TABLE)) is normalize(
        parse("x^2 + 2*x + 1", TABLE))


def test_trees_built_after_the_table_empties_are_equal_not_identical():
    text = "(a*x + sin(b))^2/(y^2 + 1)"
    _clear_every_memo()
    cold = [parse(text, TABLE)]
    cold += [normalize(cold[0]), expand(cold[0]), differentiate(cold[0], "x"),
             substitute(cold[0], {"x": Const(Fraction(1, 3))})]
    old_tree = cold[0]
    expr_module._NODES.clear()
    rebuilt = _rebuilt(old_tree)
    assert rebuilt == old_tree and rebuilt is not old_tree
    assert hash(rebuilt) == hash(old_tree)
    # every memo, keyed by the old tree, still gives the cold answer
    warm = [parse(text, TABLE), normalize(rebuilt), expand(rebuilt),
            differentiate(rebuilt, "x"),
            substitute(rebuilt, {"x": Const(Fraction(1, 3))})]
    for w, c in zip(warm, cold):
        assert w == c and str(w) == str(c)


def test_constants_that_equal_differently_are_distinct_nodes():
    assert Const(1) is not Const(1.0) and Const(1) != Const(1.0)
    assert Const(0.0) is not Const(-0.0) and Const(0.0) != Const(-0.0)
    assert Const(-0.0) is Const(-0.0) and Const(1.0) is Const(1.0)
    assert str(Const(-0.0)) == "-0.0"
    nan = float("nan")
    assert Const(nan) is Const(nan)
    other = Const(float("nan"))
    assert other is not Const(nan) and other != Const(nan)
    assert all(Const(nan) is not Const(v) for v in (0.0, 1.0, math.inf))
    assert Mul((Const(1), Sym("x"))) is not Mul((Const(1.0), Sym("x")))


@given(_trees())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_cached_sort_key_is_the_recursive_one(e):
    assert sort_key(e) == _fresh_sort_key(e)
    n = _normalized_or_discard(e)
    for sub in _subtrees(n):
        assert sort_key(sub) == _fresh_sort_key(sub)


def test_node_table_refills_after_reaching_its_bound():
    _clear_every_memo()
    x = Sym("x")
    square = normalize(Mul((x, x)))
    limit = expr_module._NODE_LIMIT
    for i in range(limit + 10):
        Sym(f"v{i}")
    assert 0 < len(expr_module._NODES) <= limit
    again = normalize(Mul((Sym("x"), Sym("x"))))
    assert again == square == Pow(x, 2) and sort_key(again) == sort_key(square)
    assert Sym("x") is Sym("x") and Sym("x") == x


# ---------------------------------------------------------------------------
# memoized parse and substitute
# ---------------------------------------------------------------------------

def _clear_every_memo():
    _clear_memos()
    expr_module._PARSED.clear()
    expr_module._SUBSTITUTED.clear()
    expr_module._EXPANDED.clear()


def _table(names, role="parameter"):
    table = SymbolTable()
    for name in names:
        table.add(name, role)
    return table


def test_parse_memo_hands_out_the_identical_tree():
    _clear_every_memo()
    text = "a*x^2 + sin(b*y)/2"
    first = parse(text, TABLE)
    assert parse(text, TABLE) is first
    # the names key the entry, not the table object or its roles
    assert parse(text, _table(NAMES, role="coordinate")) is first
    untabled = parse(text)
    assert untabled == first and parse(text) is untabled
    assert len(expr_module._PARSED) == 2
    # a table that lacks a name still rejects the text it once accepted
    for table in (_table(("a", "b", "x")), SymbolTable()):
        with pytest.raises(UnknownIdentifierError, match="'y'|'a'"):
            parse(text, table)
    assert len(expr_module._PARSED) == 2


def test_parse_errors_raise_on_every_call():
    _clear_every_memo()
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
    assert expr_module._PARSED == {}


def test_parse_and_substitute_memos_empty_when_full(monkeypatch):
    _clear_every_memo()
    monkeypatch.setattr(expr_module, "_MEMO_LIMIT", 4)
    parsed = [parse(f"x + {i}", TABLE) for i in range(4)]
    assert len(expr_module._PARSED) == 4
    assert parse("x + 4", TABLE) == normalize(Add((Sym("x"), Const(4))))
    assert len(expr_module._PARSED) == 1
    # the emptied memo parses the text again and stores it again; the node
    # table hands back the node the first parse built
    again = parse("x + 0", TABLE)
    assert len(expr_module._PARSED) == 2
    assert again is parsed[0] == Sym("x")

    e = parse("a*x + y", TABLE)
    results = [substitute(e, {"x": i}) for i in range(4)]
    assert len(expr_module._SUBSTITUTED) == 4
    substitute(e, {"x": 4})
    assert len(expr_module._SUBSTITUTED) == 1
    assert substitute(e, {"x": 0}) == results[0] == Sym("y")


def test_substitute_memo_keys_coerced_values():
    _clear_every_memo()
    e = parse("atan2(x, -1) + x*y", TABLE)
    two = substitute(e, {Sym("x"): 2})
    assert substitute(e, {"x": Const(2)}) is two
    assert substitute(e, {"x": Fraction(2)}) is two
    assert len(expr_module._SUBSTITUTED) == 1
    # 1 and 1.0, 0.0 and -0.0 are distinct constants, so distinct entries
    values = (1, 1.0, 0.0, -0.0)
    results = [substitute(e, {"x": v}) for v in values]
    assert len(expr_module._SUBSTITUTED) == 1 + len(values)
    assert len({str(r) for r in results}) == len(values)
    assert evaluate(results[2], {}) == pytest.approx(math.pi)
    assert evaluate(results[3], {}) == pytest.approx(-math.pi)
    for v, warm in zip(values, results):
        _clear_every_memo()
        cold = substitute(e, {"x": v})
        assert cold == warm and str(cold) == str(warm)


@given(_trees(), st.sampled_from(NAMES), _trees())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_warm_memo_gives_the_cold_substitution(e, name, value):
    _clear_every_memo()
    cold = _outcome(substitute, e, {name: value})
    # warm every memo on pieces of the same work, then ask again
    for sub in _subtrees(e):
        _outcome(substitute, sub, {name: value})
        _outcome(substitute, sub, {Sym(name): value, "b": Const(-1)})
    _outcome(parse, str(e), TABLE)
    warm = _outcome(substitute, e, {Sym(name): value})
    assert warm == cold and str(warm) == str(cold)


def test_expand_memo_hands_out_the_identical_tree(monkeypatch):
    _clear_every_memo()
    e = parse("(x + y)^2 - (x - y)^2", TABLE)
    first = expand(e)
    assert first == normalize(parse("4*x*y", TABLE))
    assert expand(e) is first
    # keyed by the tree, so an equal tree parsed from another text hits it
    assert expand(parse("(x+y)^2-(x-y)^2", TABLE)) is first
    assert len(expr_module._EXPANDED) == 1
    # a raising call stores nothing and raises again
    bad = Div(Mul((Sym("x"), Add((Sym("x"), Sym("y"))))), Add((
        Sym("x"), Mul((Const(-1), Sym("x"))))))
    for _ in range(2):
        with pytest.raises(DivisionByZeroError):
            expand(bad)
    assert len(expr_module._EXPANDED) == 1

    monkeypatch.setattr(expr_module, "_MEMO_LIMIT", 4)
    expanded = [expand(parse(f"(x + {i})^2", TABLE)) for i in (1, 2, 3)]
    assert len(expr_module._EXPANDED) == 4
    expand(parse("(x + 4)^2", TABLE))
    assert len(expr_module._EXPANDED) == 1
    # the emptied memo expands the tree again and stores it again
    again = expand(parse("(x + 1)^2", TABLE))
    assert len(expr_module._EXPANDED) == 2
    assert again == expanded[0] == normalize(parse("x^2 + 2*x + 1", TABLE))


@given(_trees(), st.lists(_trees(), max_size=3))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_warm_memo_gives_the_cold_expansion(e, others):
    _clear_every_memo()
    cold = _outcome(expand, e)
    _clear_every_memo()
    # warm every memo on pieces of the same work, then ask again
    for sub in _subtrees(e):
        for o in others:
            _outcome(expand, Mul((sub, o)))
        _outcome(expand, sub)
    warm = _outcome(expand, e)
    assert warm == cold and str(warm) == str(cold)


def test_deep_trees_compare_without_recursion():
    def chain(depth, last):
        e = Sym("x")
        for i in range(depth):
            e = Add((e, Const(i)))
        return Add((e, last))

    # equal trees built on either side of a clear of the node table are two
    # objects, so == walks them
    first = chain(3000, Sym("y"))
    expr_module._NODES.clear()
    again = chain(3000, Sym("y"))
    assert again is not first and again == first
    assert chain(3000, Sym("a")) != first
    # a long parsed sum nests one level per term; parsing it again after
    # the clear finds the first parse's normal form through that comparison
    text = " + ".join(f"x^{i % 5 + 1}" for i in range(450))
    first = parse(text, TABLE)
    expr_module._NODES.clear()
    expr_module._PARSED.clear()
    assert parse(text, TABLE) == first


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
        less = Fraction(n) - 1
        return Mul((Const(Fraction(n)),
                    Pow(e.base, int(less) if less.denominator == 1 else less),
                    _full_diff(e.base, name)))
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
    # nodes built after the table empties work out their own sets
    expr_module._NODES.clear()
    rebuilt = _rebuilt(n)
    for sub in _subtrees(rebuilt):
        assert sub.free_symbols() == _fresh_free_symbols(sub)


def test_substitute_keeps_subtrees_without_mapped_names():
    e = parse("x*sin(a*b) + cos(y)/a", TABLE)
    kept = [s for s in _subtrees(e) if "x" not in s.free_symbols()]
    # trees built from here on are new objects, unless substitute keeps
    # the old ones
    expr_module._NODES.clear()
    _clear_every_memo()
    out = substitute(e, {"x": Const(3)})
    assert out == parse("3*sin(a*b) + cos(y)/a", TABLE)
    found = {id(s) for s in _subtrees(out)}
    assert {str(s) for s in kept if id(s) in found} >= {
        "sin(a*b)", "a*b", "cos(y)/a", "cos(y)"}
    assert substitute(e, {"p": Const(3), "q": Sym("x")}) is e


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


# ---------------------------------------------------------------------------
# sampling and comparison
# ---------------------------------------------------------------------------

def _sample_one_at_a_time(dom, n, seed):
    """Reference sampler: one candidate per draw, guards tried in order."""
    rng = random.Random(seed)
    points = []
    while len(points) < n:
        pt = {name: rng.uniform(lo, hi) for name, lo, hi in dom.ranges}
        if all(lo <= evaluate(g, pt) <= hi for g, lo, hi in dom.guards):
            points.append(pt)
    return points


def test_block_sampling_matches_one_at_a_time():
    # the first guard rejects about half the candidates; the second is
    # singular (sqrt of a negative) exactly where the first rejects
    dom = SampleDomain(ranges=(("x", -1.0, 1.0), ("y", 0.5, 2.0)),
                       guards=((parse("x", TABLE), 0.0, 1.0),
                               (parse("sqrt(x)*y", TABLE), 0.0, 1.5)))
    for n, seed in ((1, 0), (7, 3), (64, 11)):
        assert dom.sample(n, seed=seed) == _sample_one_at_a_time(dom, n, seed)


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


def test_sample_columns_are_drawn_once_and_read_only(monkeypatch):
    dom = SampleDomain(ranges=(("x", -1.0, 1.0), ("y", 0.5, 2.0)),
                       guards=((parse("x*y", TABLE), -0.5, 1.0),))
    fresh = dom.sample(30, seed=4)
    draws = []
    sample = SampleDomain.sample

    def counting(self, n, seed=0, rng=None):
        draws.append((n, seed))
        return sample(self, n, seed=seed, rng=rng)

    monkeypatch.setattr(SampleDomain, "sample", counting)
    expr_module._SAMPLES.clear()
    expr_module._CHECKS.clear()
    a, b = parse("x*y", TABLE), parse("x*y + x^3/1000", TABLE)
    results = [numeric_compare(a, b, dom, n=30, seed=4) for _ in range(3)]
    assert draws == [(30, 4)]
    # the worst point and error are those of a fresh draw
    va, vb = (evaluate(e, columns(fresh)) for e in (a, b))
    scaled = np.abs(va - vb) / (1.0 + np.abs(va))
    for res in results:
        assert res.worst_point == fresh[int(np.argmax(scaled))]
        assert res.max_scaled_err == float(np.max(scaled))
        assert not res.equal and res.n_points == 30
    cols = dom.sample_columns(30, seed=4)
    assert draws == [(30, 4)]
    assert all(cols[k].tolist() == [pt[k] for pt in fresh] for k in ("x", "y"))
    with pytest.raises(ValueError):
        cols["x"][0] = 0.0
    # a caller's own generator always draws
    assert dom.sample(30, rng=random.Random(4)) == fresh
    assert len(draws) == 2
    assert dom.sample_columns(30, seed=5)["x"].tolist() != cols["x"].tolist()


def test_numeric_compare_reports_worst_point():
    dom = SampleDomain(ranges=(("x", 0.0, 1.0),))
    res = numeric_compare(parse("x", TABLE), parse("x + 0.001", TABLE), dom,
                          n=20, tol=1e-9)
    assert not res.equal
    assert res.worst_point is not None
    assert res.max_scaled_err > 1e-4
    assert numeric_compare(parse("(x+1)^2", TABLE),
                           parse("x^2 + 2*x + 1", TABLE), dom).equal


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
    expr_module._CHECKS.clear()
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
    assert not expr_module._CHECKS


def test_a_returned_worst_point_is_the_callers_own():
    expr_module._CHECKS.clear()
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


def test_check_memo_refills_after_reaching_its_bound():
    expr_module._CHECKS.clear()
    dom = SampleDomain(ranges=(("x", 0.0, 1.0),))
    x = Sym("x")
    same = numeric_compare(x, x, dom, n=1)
    limit = expr_module._CHECK_LIMIT
    for i in range(limit + 10):
        numeric_compare(x, Const(i + 2), dom, n=1)
    assert 0 < len(expr_module._CHECKS) <= limit
    assert numeric_compare(x, x, dom, n=1) == same
    assert same.equal
    assert not numeric_compare(x, Const(limit), dom, n=1).equal
