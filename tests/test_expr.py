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
    UnboundSymbolError, UnknownIdentifierError, ZERO, columns, differentiate,
    evaluate, expand, normalize, numeric_compare, parse,
    substitute,
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
    again = parse("x + 0", TABLE)
    assert again == parsed[0] and again is not parsed[0]

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
    again = expand(parse("(x + 1)^2", TABLE))
    assert again == expanded[0] == normalize(parse("x^2 + 2*x + 1", TABLE))
    assert again is not expanded[0]


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

    assert chain(3000, Sym("y")) == chain(3000, Sym("y"))
    assert chain(3000, Sym("y")) != chain(3000, Sym("a"))
    # a long parsed sum nests one level per term; parsing it again finds
    # the first parse's memo entry through that comparison
    text = " + ".join(f"x^{i % 5 + 1}" for i in range(450))
    assert parse(text, TABLE) == parse(text, TABLE)


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
