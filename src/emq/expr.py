"""Symbolic expression core and text front end.

Expressions are immutable trees over exact rational constants, named symbols,
n-ary sums and products, integer/rational powers, quotients and a small set of
functions (sin, cos, sqrt, atan2).  The text grammar is

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ('^' integer)?
    atom   := number | identifier | fun '(' expr (',' expr)* ')'
            | '(' expr ')' | '-' atom

Decimal literals are converted to exact fractions; floats only appear if a
caller constructs them directly.  normalize() flattens sums/products, merges
constants and collects identical terms/factors, and is idempotent.  There is
deliberately no trig or polynomial canonicalizer: semantic equality is decided
by sampled numeric comparison (numeric_compare), structural equality by ==.

Nodes are interned (hash-consed): a constructor returns the existing node
for the same type, label and child objects, so structurally equal trees are
one object, however they were built.  == stays structural, with an identity
fast path that answers almost every call; each node computes its hash and
its sort_key() once, at construction, and its free_symbols() set on first
use, from its children's sets.  differentiate() returns 0 for a subtree
without the variable and applies the product and sum rules only to the
factors and terms that hold it; a quotient whose denominator lacks the
variable differentiates as du/den.  substitute() keeps a subtree without
any mapped name as it is.  The node table holds at most
_NODE_LIMIT (2^16) nodes and is emptied when full, after which a new tree
is equal to an old one but not the same object.  parse(), normalize(),
expand(), differentiate() and substitute() are memoized per process, so an
equal subtree is worked out once and a memo hit is found by identity.
Each memo holds at most _MEMO_LIMIT (2^16) entries and is emptied when
full; a call that raises stores nothing, so it raises again next time.
SampleDomain.sample_columns() likewise draws each (domain, n, seed) once,
and sampled_check() works out each seeded sampled check once for its
arguments: numeric_compare() for each (a, b, domain, n, tol, seed), and
the chart volume check of emq.reduction.

evaluate() walks a tree once, for floats or for a batch of points given as
equal-length numpy columns (see columns()).  It never returns NaN/inf
silently: division by zero, even roots of negative values, unbound symbols
and values beyond float range raise distinct exceptions naming the first
bad point, so chart violations surface as errors, not poisoned numerics.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

__all__ = [
    "Expr", "Const", "Sym", "Add", "Mul", "Pow", "Div", "Fun",
    "ExprError", "ParseError", "UnknownIdentifierError", "EvalError",
    "UnboundSymbolError", "DivisionByZeroError", "NegativeSqrtError",
    "DomainError",
    "SymbolTable", "SampleDomain",
    "parse", "normalize", "expand", "differentiate", "substitute", "evaluate",
    "numeric_compare", "ComparisonResult", "columns", "sampled_check",
    "ZERO", "ONE",
]

FUNCTIONS = {"sin": 1, "cos": 1, "sqrt": 1, "atan2": 2}

Rational = Union[int, Fraction]
Number = Union[int, float, Fraction]


class ExprError(Exception):
    """Base class for expression-layer failures."""


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class UnknownIdentifierError(ParseError):
    pass


class EvalError(ExprError):
    pass


class UnboundSymbolError(EvalError):
    pass


class DivisionByZeroError(EvalError):
    pass


class NegativeSqrtError(EvalError):
    pass


class DomainError(ExprError):
    """Sampling domain is malformed or overlaps a singular set."""


# ---------------------------------------------------------------------------
# expression nodes
# ---------------------------------------------------------------------------

class Expr:
    # a node is interned at construction (see _intern) and keeps its
    # structural hash and its sort key, each computed once from its
    # children's; its free-symbol set is computed on first use (see
    # free_symbols)
    __slots__ = ("_hash", "_key", "_free")

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        # equal interned trees are one object, so the identity test answers
        # almost every call; the walk decides trees built on either side of
        # a clear of the node table.  An explicit stack, not recursion: a
        # long parsed sum is one nesting level per term
        pending = [(self, other)]
        while pending:
            a, b = pending.pop()
            if a is b:
                continue
            if type(a) is not type(b) or a._hash != b._hash:
                return False
            label_a, kids_a = a._parts()
            label_b, kids_b = b._parts()
            if label_a != label_b or len(kids_a) != len(kids_b):
                return False
            pending.extend(zip(kids_a, kids_b))
        return True

    def __str__(self):
        return _render(self, 0)

    def __repr__(self):
        return f"<{type(self).__name__} {self}>"

    def free_symbols(self) -> frozenset:
        """The names of the symbols in the tree, worked out once per node
        from its children's sets."""
        free = self._free
        if free is None:
            if isinstance(self, Sym):
                free = frozenset((self.name,))
            else:
                free = frozenset().union(
                    *(kid.free_symbols() for kid in self._parts()[1]))
            object.__setattr__(self, "_free", free)
        return free


# The node table: one node per (type, label, child identities).  A child's
# id is a safe key because the entry's node keeps the child alive.  The
# table is emptied when full; a tree built after that is equal to an older
# one but not the same object.
_NODE_LIMIT = 1 << 16
_NODES: Dict[tuple, Expr] = {}


def _remember(memo: dict, key, value, limit: int):
    if len(memo) >= limit:
        memo.clear()
    memo[key] = value
    return value


def _intern(cls, key, hash_value, sort_value, **fields) -> Expr:
    node = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(node, name, value)
    object.__setattr__(node, "_hash", hash_value)
    object.__setattr__(node, "_key", sort_value)
    object.__setattr__(node, "_free", None)
    return _remember(_NODES, key, node, _NODE_LIMIT)


def _coerce(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction)):
        return Const(Fraction(value))
    if isinstance(value, float):
        return Const(value)
    raise TypeError(f"cannot build an expression from {value!r}")


def _const_label(v: Number) -> tuple:
    # 1 and 1.0 differ, and so do 0.0 and -0.0: atan2 and the printed form
    # tell the signed zeros apart
    return type(v), v, math.copysign(1.0, v) if type(v) is float else 0


class Const(Expr):
    __slots__ = ("value",)

    def __new__(cls, value: Number):
        if isinstance(value, bool):
            raise TypeError("boolean is not a constant")
        if isinstance(value, int):
            value = Fraction(value)
        elif not isinstance(value, (Fraction, float)):
            raise TypeError(f"bad constant {value!r}")
        key = (cls,) + _const_label(value)
        node = _NODES.get(key)
        if node is None:
            # the sort key compares exactly: float() would overflow on
            # huge rationals
            node = _intern(cls, key,
                           hash(("Const", type(value).__name__, value)),
                           (0, value, isinstance(value, float)), value=value)
        return node

    def _parts(self):
        return _const_label(self.value), ()


class Sym(Expr):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        key = (cls, name)
        node = _NODES.get(key)
        if node is None:
            if not _IDENT_RE.fullmatch(name):
                raise ValueError(f"bad symbol name {name!r}")
            if name in FUNCTIONS:
                raise ValueError(f"{name!r} is a reserved function name")
            node = _intern(cls, key, hash(("Sym", name)), (1, name),
                           name=name)
        return node

    def _parts(self):
        return self.name, ()


class Add(Expr):
    __slots__ = ("terms",)

    def __new__(cls, terms: Iterable[Expr]):
        terms = tuple(terms)
        key = (cls,) + tuple(map(id, terms))
        node = _NODES.get(key)
        if node is None:
            if len(terms) < 2:
                raise ValueError("Add needs at least two terms")
            node = _intern(cls, key, hash(("Add", terms)),
                           (6, tuple(t._key for t in terms)), terms=terms)
        return node

    def _parts(self):
        return None, self.terms


class Mul(Expr):
    __slots__ = ("factors",)

    def __new__(cls, factors: Iterable[Expr]):
        factors = tuple(factors)
        key = (cls,) + tuple(map(id, factors))
        node = _NODES.get(key)
        if node is None:
            if len(factors) < 2:
                raise ValueError("Mul needs at least two factors")
            node = _intern(cls, key, hash(("Mul", factors)),
                           (5, tuple(f._key for f in factors)),
                           factors=factors)
        return node

    def _parts(self):
        return None, self.factors


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __new__(cls, base: Expr, exponent: Rational):
        if isinstance(exponent, Fraction) and exponent.denominator == 1:
            exponent = int(exponent)
        if not isinstance(exponent, (int, Fraction)):
            raise TypeError("exponent must be an integer or Fraction")
        key = (cls, id(base), exponent)
        node = _NODES.get(key)
        if node is None:
            node = _intern(cls, key, hash(("Pow", base, exponent)),
                           (3, base._key, exponent),
                           base=base, exponent=exponent)
        return node

    def _parts(self):
        return self.exponent, (self.base,)


class Div(Expr):
    __slots__ = ("num", "den")

    def __new__(cls, num: Expr, den: Expr):
        key = (cls, id(num), id(den))
        node = _NODES.get(key)
        if node is None:
            node = _intern(cls, key, hash(("Div", num, den)),
                           (4, num._key, den._key), num=num, den=den)
        return node

    def _parts(self):
        return None, (self.num, self.den)


class Fun(Expr):
    __slots__ = ("name", "args")

    def __new__(cls, name: str, args: Iterable[Expr]):
        args = tuple(args)
        key = (cls, name) + tuple(map(id, args))
        node = _NODES.get(key)
        if node is None:
            if name not in FUNCTIONS:
                raise ValueError(f"unknown function {name!r}")
            if len(args) != FUNCTIONS[name]:
                raise ValueError(
                    f"{name} expects {FUNCTIONS[name]} argument(s)")
            node = _intern(cls, key, hash(("Fun", name, args)),
                           (2, name, tuple(a._key for a in args)),
                           name=name, args=args)
        return node

    def _parts(self):
        return self.name, self.args


ZERO = Const(0)
ONE = Const(1)


# ---------------------------------------------------------------------------
# canonical ordering
# ---------------------------------------------------------------------------

def sort_key(e: Expr):
    """Total order on expressions; used for deterministic argument ordering.

    Constants < symbols < functions < powers < quotients < products < sums,
    then by label and children's keys.  Each node builds its key once, at
    construction, from its children's.
    """
    return e._key


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def _is_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0


def _is_one(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 1


def _const_mul(a: Number, b: Number) -> Number:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a * b
    return float(a) * float(b)


def _const_add(a: Number, b: Number) -> Number:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    return float(a) + float(b)


def _split_coefficient(term: Expr):
    """term -> (constant coefficient, tuple of non-constant factors)."""
    if isinstance(term, Const):
        return term.value, ()
    if isinstance(term, Mul):
        coeff: Number = Fraction(1)
        rest = []
        for f in term.factors:
            if isinstance(f, Const):
                coeff = _const_mul(coeff, f.value)
            else:
                rest.append(f)
        return coeff, tuple(rest)
    return Fraction(1), (term,)


def _rebuild_product(coeff: Number, factors: Sequence[Expr]) -> Expr:
    if coeff == 0:
        return Const(coeff if isinstance(coeff, Fraction) else 0.0)
    parts = list(factors)
    if not parts:
        return Const(coeff)
    if coeff != 1 or (isinstance(coeff, float)):
        parts = [Const(coeff)] + parts
    if len(parts) == 1:
        return parts[0]
    return Mul(tuple(parts))


def _combine_fractions(flat):
    """Merge Div terms sharing a denominator; folds like a/c - b/c -> (a-b)/c."""
    groups = {}
    for i, t in enumerate(flat):
        if isinstance(t, Div):
            groups.setdefault(t.den, []).append(i)
    out = list(flat)
    drop = set()
    for idxs in groups.values():
        if len(idxs) < 2:
            continue
        den = out[idxs[0]].den
        num = _normalize_add([out[i].num for i in idxs])
        combined = normalize(Div(num, den))
        out[idxs[0]] = combined
        drop.update(idxs[1:])
    return [t for i, t in enumerate(out) if i not in drop]


def _normalize_add(terms) -> Expr:
    flat = []
    for t in terms:
        if isinstance(t, Add):
            flat.extend(t.terms)
        else:
            flat.append(t)
    if sum(1 for t in flat if isinstance(t, Div)) > 1:
        flat = _combine_fractions(flat)
        reflat = []
        for t in flat:
            if isinstance(t, Add):
                reflat.extend(t.terms)
            else:
                reflat.append(t)
        flat = reflat
    # terms collect by their factor nodes, not by sort key, which does not
    # tell 0.0 from -0.0
    const_sum: Number = Fraction(0)
    by_rest = {}
    for t in flat:
        coeff, rest = _split_coefficient(t)
        if not rest:
            const_sum = _const_add(const_sum, coeff)
            continue
        prev_coeff = by_rest.get(rest)
        by_rest[rest] = (coeff if prev_coeff is None
                         else _const_add(prev_coeff, coeff))
    out = []
    pending = []
    for rest in sorted(by_rest, key=lambda r: tuple(sort_key(f) for f in r)):
        coeff = by_rest[rest]
        if coeff == 0:
            continue
        if len(rest) == 1 and isinstance(rest[0], Add) and coeff != 1:
            # collection built a constant multiple of a sum; distribute and
            # remerge so the pieces can combine with sibling terms
            for sub in rest[0].terms:
                sc, sf = _split_coefficient(sub)
                pending.append(_normalize_mul(
                    [Const(_const_mul(coeff, sc))] + list(sf)))
        else:
            out.append(_rebuild_product(coeff, rest))
    if pending:
        extra = [Const(const_sum)] if const_sum != 0 else []
        return _normalize_add(out + pending + extra)
    if const_sum != 0 or not out:
        out.insert(0, Const(const_sum))
    if len(out) == 1:
        return out[0]
    return Add(tuple(out))


def _as_base_exp(f: Expr):
    if isinstance(f, Pow):
        return f.base, f.exponent
    return f, 1


def _div_split(f: Expr):
    """(numerator piece, denominator piece) when f carries a quotient."""
    if isinstance(f, Div):
        return f.num, f.den
    if isinstance(f, Pow) and isinstance(f.base, Div) and isinstance(f.exponent, int):
        if f.exponent > 0:
            return Pow(f.base.num, f.exponent), Pow(f.base.den, f.exponent)
        return Pow(f.base.den, -f.exponent), Pow(f.base.num, -f.exponent)
    return None


def _raw_product(factors) -> Expr:
    if not factors:
        return ONE
    if len(factors) == 1:
        return factors[0]
    return Mul(tuple(factors))


def _normalize_mul(factors) -> Expr:
    flat = []
    for f in factors:
        if isinstance(f, Mul):
            flat.extend(f.factors)
        else:
            flat.append(f)
    if any(_div_split(f) is not None for f in flat):
        nums, dens = [], []
        for f in flat:
            piece = _div_split(f)
            if piece is None:
                nums.append(f)
            else:
                nums.append(piece[0])
                dens.append(piece[1])
        return normalize(Div(_raw_product(nums), _raw_product(dens)))
    # factors collect by their base node, as terms do in _normalize_add
    coeff: Number = Fraction(1)
    by_base = {}
    for f in flat:
        if isinstance(f, Const):
            coeff = _const_mul(coeff, f.value)
            continue
        base, exp = _as_base_exp(f)
        prev_exp = by_base.get(base)
        by_base[base] = (exp if prev_exp is None
                         else _add_exponents(prev_exp, exp))
    if coeff == 0:
        return Const(coeff if isinstance(coeff, Fraction) else 0.0)
    out = []
    rerun = []
    for base in sorted(by_base, key=sort_key):
        piece = _normalize_pow(base, by_base[base])
        if _is_one(piece):
            continue
        if isinstance(piece, Const):
            coeff = _const_mul(coeff, piece.value)
        elif isinstance(piece, Mul) or _as_base_exp(piece)[0] != base:
            # a power fold expanded or changed its base; remerge from scratch
            rerun.append(piece)
        else:
            out.append(piece)
    if rerun:
        return _normalize_mul([Const(coeff)] + out + rerun)
    # a merged constant can be 0 (e.g. sin(0) folded inside a product)
    if coeff == 0:
        return Const(coeff if isinstance(coeff, Fraction) else 0.0)
    if len(out) == 1 and isinstance(out[0], Add) and coeff != 1:
        # distribute plain constants over a lone sum so that -(a+b) can
        # cancel against a and b; genuine products of sums stay factored
        scaled = []
        for t in out[0].terms:
            tc, tf = _split_coefficient(t)
            scaled.append(_normalize_mul([Const(_const_mul(coeff, tc))] + list(tf)))
        return _normalize_add(scaled)
    return _rebuild_product(coeff, out)


def _add_exponents(a: Rational, b: Rational) -> Rational:
    total = Fraction(a) + Fraction(b)
    return int(total) if total.denominator == 1 else total


def _exact_rational_power(value: Fraction, exp: Fraction) -> Optional[Fraction]:
    """value**exp as an exact Fraction, or None when that is not exact."""
    if value == 0:
        return Fraction(0) if exp > 0 else None
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    p, q = exp.numerator, exp.denominator
    rn = _iroot(num, q)
    rd = _iroot(den, q)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd) ** p


def _iroot(n: int, q: int) -> Optional[int]:
    if n < 0:
        return None
    try:
        r = math.isqrt(n) if q == 2 else round(n ** (1.0 / q))
    except OverflowError:
        return None
    for cand in (r - 1, r, r + 1):
        if cand >= 0 and cand ** q == n:
            return cand
    return None


def _rationalize(num: Expr, den: Expr) -> Optional[Expr]:
    """sqrt factors moved out of the denominator, or None for no change."""
    d_coeff, d_factors = _split_coefficient(den)
    moved = []
    new_den = []
    for f in d_factors:
        if isinstance(f, Fun) and f.name == "sqrt":
            moved.append(f)
            new_den.append(f.args[0])
        else:
            new_den.append(f)
    if not moved:
        return None
    return normalize(Div(_raw_product([num] + moved),
                         _raw_product([Const(d_coeff)] + new_den)))


def _cancel_quotient(num: Expr, den: Expr) -> Optional[Expr]:
    """Shared product factors of num/den cancelled, or None for no change.

    Product-level only (Add numerators are left alone); cancellation is the
    usual off-the-zero-set identification, which the sampling charts
    respect by construction.
    """
    if isinstance(num, Add) or isinstance(den, Add):
        return None
    n_coeff, n_factors = _split_coefficient(num)
    d_coeff, d_factors = _split_coefficient(den)
    d_map = {}
    for f in d_factors:
        base, exp = _as_base_exp(f)
        d_map[base] = Fraction(exp)
    changed = d_coeff != 1 or isinstance(d_coeff, float)
    new_num = []
    for f in n_factors:
        base, exp = _as_base_exp(f)
        exp = Fraction(exp)
        if d_map.get(base, 0) != 0:
            m = min(exp, d_map[base])
            exp -= m
            d_map[base] -= m
            changed = True
        if exp != 0:
            new_num.append(_normalize_pow(
                base, int(exp) if exp.denominator == 1 else exp))
    if not changed:
        return None
    if isinstance(n_coeff, Fraction) and isinstance(d_coeff, Fraction):
        coeff = n_coeff / d_coeff
    else:
        coeff = float(n_coeff) / float(d_coeff)
    num_expr = _normalize_mul([Const(coeff)] + new_num)
    den_parts = []
    for base in sorted(d_map, key=sort_key):
        exp = d_map[base]
        if exp != 0:
            den_parts.append(_normalize_pow(
                base, int(exp) if exp.denominator == 1 else exp))
    if not den_parts:
        return num_expr
    return normalize(Div(num_expr, _raw_product(den_parts)))


def _normalize_pow(base: Expr, exp: Rational) -> Expr:
    if exp == 0:
        return ONE
    if exp == 1:
        return base
    # sqrt(u)^n collapses on the u >= 0 domain where sqrt is defined at all
    if isinstance(base, Fun) and base.name == "sqrt" and isinstance(exp, int):
        (u,) = base.args
        if exp % 2 == 0:
            return _normalize_pow(u, exp // 2)
        return _normalize_mul([_normalize_pow(u, (exp - 1) // 2), base])
    if isinstance(base, Const):
        v = base.value
        if isinstance(v, Fraction):
            if isinstance(exp, int):
                if v == 0 and exp < 0:
                    raise DivisionByZeroError("0 raised to a negative power")
                return Const(v ** exp)
            exact = _exact_rational_power(v, Fraction(exp))
            if exact is not None:
                return Const(exact)
        else:
            if isinstance(exp, int):
                if v == 0.0 and exp < 0:
                    raise DivisionByZeroError("0.0 raised to a negative power")
                return Const(v ** exp)
    if isinstance(base, Pow):
        merged = Fraction(base.exponent) * Fraction(exp)
        return _normalize_pow(base.base, int(merged) if merged.denominator == 1 else merged)
    if isinstance(base, Mul) and isinstance(exp, int):
        return _normalize_mul(tuple(Pow(f, exp) for f in base.factors))
    if isinstance(base, Div) and isinstance(exp, int):
        if exp > 0:
            return normalize(Div(Pow(base.num, exp), Pow(base.den, exp)))
        return normalize(Div(Pow(base.den, -exp), Pow(base.num, -exp)))
    if exp < 0:
        # negative exponents take the quotient normal form, same as a/b/x does
        return normalize(Div(ONE, Pow(base, -exp)))
    return Pow(base, exp)


_EXACT_FUN_VALUES = {
    ("sin", Fraction(0)): Fraction(0),
    ("cos", Fraction(0)): Fraction(1),
}


def _normalize_fun(name: str, args) -> Expr:
    if name == "sqrt":
        (a,) = args
        if isinstance(a, Const) and isinstance(a.value, Fraction):
            if a.value < 0:
                raise NegativeSqrtError(f"sqrt of negative constant {a.value}")
            exact = _exact_rational_power(a.value, Fraction(1, 2))
            if exact is not None:
                return Const(exact)
        return Fun("sqrt", (a,))
    if name in ("sin", "cos"):
        (a,) = args
        if isinstance(a, Const) and isinstance(a.value, Fraction):
            hit = _EXACT_FUN_VALUES.get((name, a.value))
            if hit is not None:
                return Const(hit)
        return Fun(name, (a,))
    if name == "atan2":
        u, v = args
        if (isinstance(u, Const) and isinstance(u.value, Fraction) and u.value == 0
                and isinstance(v, Const) and isinstance(v.value, Fraction) and v.value > 0):
            return ZERO
        return Fun("atan2", (u, v))
    return Fun(name, tuple(args))


# per-process memos (see the module docstring), each emptied when full
_MEMO_LIMIT = 1 << 16
_PARSED: Dict[tuple, Expr] = {}
_NORMAL_FORMS: Dict[Expr, Expr] = {}
_EXPANDED: Dict[Expr, Expr] = {}
_DERIVATIVES: Dict[tuple, Expr] = {}
_SUBSTITUTED: Dict[tuple, Expr] = {}
# sample columns are larger, so fewer (domain, n, seed) sets are kept
_SAMPLE_LIMIT = 1 << 6
_SAMPLES: Dict[tuple, Dict[str, np.ndarray]] = {}
# seeded sampled checks, keyed by (check, its arguments); see sampled_check
_CHECK_LIMIT = 1 << 12
_CHECKS: Dict[tuple, object] = {}


def sampled_check(check, *args):
    """check(*args), worked out once per process for each argument tuple.

    For seeded sampled checks, whose result is fixed by their (hashable,
    immutable) arguments.  A call that raises stores nothing, so it raises
    again next time.
    """
    key = (check,) + args
    out = _CHECKS.get(key)
    if out is None:
        out = _remember(_CHECKS, key, check(*args), _CHECK_LIMIT)
    return out


def normalize(e: Expr) -> Expr:
    """Canonical form: flattened, constant-merged, deterministically ordered."""
    if isinstance(e, (Const, Sym)):
        return e
    out = _NORMAL_FORMS.get(e)
    if out is not None:
        return out
    if isinstance(e, Add):
        out = _normalize_add([normalize(t) for t in e.terms])
    elif isinstance(e, Mul):
        out = _normalize_mul([normalize(f) for f in e.factors])
    elif isinstance(e, Pow):
        out = _normalize_pow(normalize(e.base), e.exponent)
    elif isinstance(e, Div):
        out = _normalize_div(normalize(e.num), normalize(e.den))
    elif isinstance(e, Fun):
        out = _normalize_fun(e.name, [normalize(a) for a in e.args])
    else:
        raise TypeError(f"not an Expr: {e!r}")
    # an input already in normal form is stored as its own value: one copy
    return _remember(_NORMAL_FORMS, e, e if out == e else out, _MEMO_LIMIT)


def _normalize_div(num: Expr, den: Expr) -> Expr:
    if isinstance(den, Const):
        if den.value == 0:
            raise DivisionByZeroError("division by a zero constant")
        if isinstance(den.value, Fraction):
            return _normalize_mul([num, Const(Fraction(1) / den.value)])
        return _normalize_mul([num, Const(1.0 / den.value)])
    if _is_zero(num):
        return num
    if num == den:
        # valid off the zero set of den; charts exclude it anyway
        return ONE
    if isinstance(num, Div):
        return normalize(Div(num.num, Mul((num.den, den))))
    if isinstance(den, Div):
        return normalize(Div(Mul((num, den.den)), den.num))
    rationalized = _rationalize(num, den)
    if rationalized is not None:
        return rationalized
    reduced = _cancel_quotient(num, den)
    if reduced is not None:
        return reduced
    return Div(num, den)


def _expand_node(e: Expr) -> Expr:
    if isinstance(e, (Const, Sym)):
        return e
    if isinstance(e, Add):
        return _normalize_add([_expand_node(t) for t in e.terms])
    if isinstance(e, Mul):
        factors = [_expand_node(f) for f in e.factors]
        for i, f in enumerate(factors):
            if isinstance(f, Add):
                rest = factors[:i] + factors[i + 1:]
                return _normalize_add(
                    [_expand_node(_raw_product(rest + [t])) for t in f.terms])
        return _normalize_mul(factors)
    if isinstance(e, Pow):
        base = _expand_node(e.base)
        exp = e.exponent
        if isinstance(base, Add) and isinstance(exp, int) and 2 <= exp <= 16:
            out = base
            for _ in range(exp - 1):
                out = _expand_node(_raw_product([out, base]))
            return out
        return _normalize_pow(base, exp)
    if isinstance(e, Div):
        num = _expand_node(e.num)
        den = _expand_node(e.den)
        if isinstance(num, Add):
            return _normalize_add(
                [_expand_node(normalize(Div(t, den))) for t in num.terms])
        return normalize(Div(num, den))
    if isinstance(e, Fun):
        return _normalize_fun(e.name, [_expand_node(a) for a in e.args])
    raise TypeError(f"not an Expr: {e!r}")


def expand(e: Expr) -> Expr:
    """Distribute products and small integer powers over sums; normalized.

    Normalization alone keeps products of sums factored (cheap, and usually
    what symbolic intermediates want); expansion is the opt-in step that
    collapses cross-term cancellations down to closed forms.
    """
    out = _EXPANDED.get(e)
    if out is None:
        out = _remember(_EXPANDED, e, _expand_node(normalize(e)), _MEMO_LIMIT)
    return out


# ---------------------------------------------------------------------------
# calculus and substitution
# ---------------------------------------------------------------------------

def _diff(e: Expr, name: str) -> Expr:
    # a subtree without the variable differentiates to 0: sums and products
    # take only the terms and factors that hold it, and a quotient whose
    # denominator lacks it is du/den, not the quotient rule
    if name not in e.free_symbols():
        return ZERO
    if isinstance(e, Sym):
        return ONE
    if isinstance(e, Add):
        terms = tuple(_diff(t, name) for t in e.terms
                      if name in t.free_symbols())
        return Add(terms) if len(terms) > 1 else terms[0]
    if isinstance(e, Mul):
        fs = e.factors
        terms = tuple(Mul(fs[:i] + (_diff(f, name),) + fs[i + 1:])
                      for i, f in enumerate(fs) if name in f.free_symbols())
        return Add(terms) if len(terms) > 1 else terms[0]
    if isinstance(e, Pow):
        n = e.exponent
        db = _diff(e.base, name)
        return Mul((Const(Fraction(n)), Pow(e.base, _add_exponents(n, -1)), db))
    if isinstance(e, Div):
        du = _diff(e.num, name)
        if name not in e.den.free_symbols():
            return Div(du, e.den)
        dv = _diff(e.den, name)
        return Div(Add((Mul((du, e.den)), Mul((Const(-1), e.num, dv)))), Pow(e.den, 2))
    if isinstance(e, Fun):
        if e.name == "sin":
            (u,) = e.args
            return Mul((Fun("cos", (u,)), _diff(u, name)))
        if e.name == "cos":
            (u,) = e.args
            return Mul((Const(-1), Fun("sin", (u,)), _diff(u, name)))
        if e.name == "sqrt":
            (u,) = e.args
            return Div(_diff(u, name), Mul((Const(2), Fun("sqrt", (u,)))))
        if e.name == "atan2":
            u, v = e.args
            num = Add((Mul((v, _diff(u, name))), Mul((Const(-1), u, _diff(v, name)))))
            den = Add((Pow(u, 2), Pow(v, 2)))
            return Div(num, den)
    raise TypeError(f"not an Expr: {e!r}")


def differentiate(e: Expr, sym: Union[str, Sym]) -> Expr:
    name = sym.name if isinstance(sym, Sym) else sym
    key = (e, name)
    out = _DERIVATIVES.get(key)
    if out is None:
        # normalize first: the raw power rule would build base^-1 from literal
        # constructions like 0^0 that normalization folds away
        out = _remember(_DERIVATIVES, key,
                        normalize(_diff(normalize(e), name)), _MEMO_LIMIT)
    return out


def substitute(e: Expr, mapping: Mapping) -> Expr:
    """Simultaneous substitution of symbols, then normalization."""
    table = {}
    for k, v in mapping.items():
        name = k.name if isinstance(k, Sym) else k
        table[name] = _coerce(v)
    # coerced values key the memo: 1, 1.0 and -0.0 are distinct constants
    key = (e, tuple(sorted(table.items())))
    out = _SUBSTITUTED.get(key)
    if out is not None:
        return out

    def walk(node: Expr) -> Expr:
        # a subtree that holds none of the mapped names is kept as it is
        if node.free_symbols().isdisjoint(table):
            return node
        if isinstance(node, Sym):
            return table[node.name]
        if isinstance(node, Add):
            return Add(tuple(walk(t) for t in node.terms))
        if isinstance(node, Mul):
            return Mul(tuple(walk(f) for f in node.factors))
        if isinstance(node, Pow):
            return Pow(walk(node.base), node.exponent)
        if isinstance(node, Div):
            return Div(walk(node.num), walk(node.den))
        if isinstance(node, Fun):
            return Fun(node.name, tuple(walk(a) for a in node.args))
        raise TypeError(f"not an Expr: {node!r}")

    return _remember(_SUBSTITUTED, key, normalize(walk(e)), _MEMO_LIMIT)


_NUMPY_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "sqrt": np.sqrt,
                    "atan2": np.arctan2}


def evaluate(e: Expr, bindings: Mapping[str, Union[float, np.ndarray]]):
    """Float evaluation with singularity guards instead of NaN propagation.

    Bindings are floats or equal-length numpy columns (see columns()).  Float
    bindings give a float; any column gives one value per point, computed in
    one tree walk.  Errors name the first offending point.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value = _eval(e, bindings)
    except OverflowError as exc:
        raise EvalError(f"value does not fit a float: {exc}") from None
    batch = [v for v in bindings.values() if isinstance(v, np.ndarray)]
    if batch and not isinstance(value, np.ndarray):
        value = np.full(batch[0].shape, value)
    _check(~np.isfinite(value), EvalError, "non-finite value", e, bindings)
    return value if batch else float(value)


def _check(bad, error, what: str, e: Expr, bindings) -> None:
    """Raise error if bad holds at any point, naming the first such point."""
    if not (bad.any() if isinstance(bad, np.ndarray) else bad):
        return
    where = ""
    if any(isinstance(v, np.ndarray) for v in bindings.values()):
        i = int(np.argmax(bad))
        point = {k: float(v[i] if isinstance(v, np.ndarray) else v)
                 for k, v in bindings.items()}
        where = f" at {point}"
    raise error(f"{what} in {e}{where}")


def _eval(e: Expr, b):
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, Sym):
        try:
            v = b[e.name]
        except KeyError:
            raise UnboundSymbolError(f"symbol {e.name!r} is unbound") from None
        return v if isinstance(v, np.ndarray) else float(v)
    if isinstance(e, Add):
        out = _eval(e.terms[0], b)
        for t in e.terms[1:]:
            out = out + _eval(t, b)
        return out
    if isinstance(e, Mul):
        out = _eval(e.factors[0], b)
        for f in e.factors[1:]:
            out = out * _eval(f, b)
        return out
    if isinstance(e, Pow):
        base = _eval(e.base, b)
        n = e.exponent
        if not isinstance(n, int):
            _check(base < 0.0, NegativeSqrtError,
                   "fractional power of a negative value", e, b)
            n = float(n)
        if n < 0:
            _check(base == 0.0, DivisionByZeroError,
                   "zero base with negative exponent", e, b)
        return np.power(base, n)
    if isinstance(e, Div):
        den = _eval(e.den, b)
        _check(den == 0.0, DivisionByZeroError, "division by zero", e, b)
        return _eval(e.num, b) / den
    if isinstance(e, Fun):
        vals = [_eval(a, b) for a in e.args]
        if e.name == "sqrt":
            _check(vals[0] < 0.0, NegativeSqrtError, "sqrt of negative value",
                   e, b)
        return _NUMPY_FUNCTIONS[e.name](*vals)
    raise TypeError(f"not an Expr: {e!r}")


# ---------------------------------------------------------------------------
# symbol table
# ---------------------------------------------------------------------------

ROLES = ("coordinate", "momentum", "parameter")


class SymbolTable:
    """Ordered symbol registry with role tags."""

    def __init__(self):
        self._roles = {}

    def add(self, name: str, role: str) -> Sym:
        if role not in ROLES:
            raise ValueError(f"unknown role {role!r}")
        if name in FUNCTIONS:
            raise ValueError(f"{name!r} is a reserved function name")
        if name in self._roles and self._roles[name] != role:
            raise ValueError(f"symbol {name!r} already registered as {self._roles[name]}")
        self._roles[name] = role
        return Sym(name)

    def role(self, name: str) -> str:
        return self._roles[name]

    def __contains__(self, name: str) -> bool:
        return name in self._roles


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(r"[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?")
_INT_RE = re.compile(r"[0-9]+")


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    offset: int


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in "+-*/^(),":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m and ch.isdigit():
            tokens.append(_Token("number", m.group(0), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(_Token("ident", m.group(0), i))
            i = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


def _number_value(text: str) -> Fraction:
    # decimal literals become exact fractions; 1.5e-3 -> 3/2000
    if "e" in text or "E" in text:
        mantissa, exp = re.split(r"[eE]", text)
        return Fraction(mantissa) * Fraction(10) ** int(exp)
    return Fraction(text)


class _Parser:
    def __init__(self, tokens, table: Optional[SymbolTable]):
        self.tokens = tokens
        self.pos = 0
        self.table = table

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            what = tok.text or "end of input"
            raise ParseError(f"expected {kind!r}, found {what!r}", tok.offset)
        return self.advance()

    # a +/- chain becomes one n-ary Add and a * run one n-ary Mul, so a
    # long flat sum or product is one level deep, not one level per term
    def parse_expr(self) -> Expr:
        terms = [self.parse_term()]
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.parse_term()
            terms.append(rhs if op.kind == "+" else Mul((Const(-1), rhs)))
        return terms[0] if len(terms) == 1 else Add(tuple(terms))

    def parse_term(self) -> Expr:
        factors = [self.parse_factor()]
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            rhs = self.parse_factor()
            if op.kind == "*":
                factors.append(rhs)
            else:
                # Div stays binary and left-associative: a*b/c*d is
                # ((a*b)/c)*d
                lhs = factors[0] if len(factors) == 1 else Mul(tuple(factors))
                factors = [Div(lhs, rhs)]
        return factors[0] if len(factors) == 1 else Mul(tuple(factors))

    def parse_factor(self) -> Expr:
        node = self.parse_atom()
        if self.peek().kind == "^":
            self.advance()
            tok = self.peek()
            if tok.kind != "number" or not _INT_RE.fullmatch(tok.text):
                what = tok.text or "end of input"
                raise ParseError(f"exponent must be an integer literal, found {what!r}",
                                 tok.offset)
            self.advance()
            node = Pow(node, int(tok.text))
        return node

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Const(_number_value(tok.text))
        if tok.kind == "-":
            self.advance()
            return Mul((Const(-1), self.parse_atom()))
        if tok.kind == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")")
            return node
        if tok.kind == "ident":
            self.advance()
            if tok.text in FUNCTIONS:
                self.expect("(")
                args = [self.parse_expr()]
                while self.peek().kind == ",":
                    self.advance()
                    args.append(self.parse_expr())
                closing = self.expect(")")
                if len(args) != FUNCTIONS[tok.text]:
                    raise ParseError(
                        f"{tok.text} expects {FUNCTIONS[tok.text]} argument(s), got {len(args)}",
                        closing.offset)
                return Fun(tok.text, tuple(args))
            if self.table is not None and tok.text not in self.table:
                raise UnknownIdentifierError(f"unknown identifier {tok.text!r}", tok.offset)
            return Sym(tok.text)
        what = tok.text or "end of input"
        raise ParseError(f"unexpected {what!r}", tok.offset)


def parse(text: str, table: Optional[SymbolTable] = None) -> Expr:
    """Parse the DSL into a normalized expression tree."""
    # the table decides only which identifiers are known, so its names key
    # the memo; a text that fails to parse is not stored and fails again
    key = (text, None if table is None else frozenset(table._roles))
    out = _PARSED.get(key)
    if out is not None:
        return out
    parser = _Parser(_tokenize(text), table)
    try:
        node = parser.parse_expr()
        tail = parser.peek()
        if tail.kind != "end":
            raise ParseError(f"trailing input {tail.text!r}", tail.offset)
        return _remember(_PARSED, key, normalize(node), _MEMO_LIMIT)
    except RecursionError:
        raise ParseError("expression nested too deeply",
                         parser.peek().offset) from None


# ---------------------------------------------------------------------------
# printing (precedence-aware; output reparses to an equal tree)
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4


def _render_const(value: Number) -> str:
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    return repr(value)


def _render(e: Expr, parent_prec: int) -> str:
    if isinstance(e, Const):
        text = _render_const(e.value)
        if text.startswith("-"):
            prec = _PREC_ADD   # leading unary minus binds loosely
        elif "/" in text:
            prec = _PREC_MUL
        else:
            prec = _PREC_ATOM
        return _wrap(text, prec, parent_prec)
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Add):
        parts = [_render(e.terms[0], _PREC_ADD)]
        for t in e.terms[1:]:
            coeff, rest = _split_coefficient(t)
            if coeff < 0:
                flipped = _rebuild_product(-coeff, rest)
                parts.append(" - " + _render(flipped, _PREC_ADD + 1))
            else:
                parts.append(" + " + _render(t, _PREC_ADD + 1))
        return _wrap("".join(parts), _PREC_ADD, parent_prec)
    if isinstance(e, Mul):
        coeff, rest = _split_coefficient(e)
        if coeff < 0 and rest:
            inner = _rebuild_product(-coeff, rest)
            return _wrap("-" + _render(inner, _PREC_MUL), _PREC_ADD, parent_prec)
        parts = [_render(f, _PREC_MUL + 0 if i == 0 else _PREC_MUL + 1)
                 for i, f in enumerate(e.factors)]
        return _wrap("*".join(parts), _PREC_MUL, parent_prec)
    if isinstance(e, Div):
        num = _render(e.num, _PREC_MUL)
        den = _render(e.den, _PREC_MUL + 1)
        return _wrap(f"{num}/{den}", _PREC_MUL, parent_prec)
    if isinstance(e, Pow):
        n = e.exponent
        if isinstance(n, int):
            base = _render(e.base, _PREC_ATOM)
            if n < 0:
                return _wrap(f"1/{base}^{-n}", _PREC_MUL, parent_prec)
            return _wrap(f"{base}^{n}", _PREC_POW, parent_prec)
        frac = Fraction(n)
        if frac.denominator == 2:
            inner = _normalize_pow(e.base, frac.numerator) if frac.numerator != 1 else e.base
            if frac.numerator < 0:
                body = _render(Div(ONE, Fun("sqrt", (_normalize_pow(e.base, -frac.numerator),))),
                               parent_prec)
                return body
            return _render(Fun("sqrt", (inner,)), parent_prec)
        raise ExprError(f"cannot render exponent {n} in the grammar")
    if isinstance(e, Fun):
        args = ", ".join(_render(a, 0) for a in e.args)
        return f"{e.name}({args})"
    raise TypeError(f"not an Expr: {e!r}")


def _wrap(text: str, prec: int, parent_prec: int) -> str:
    if prec < parent_prec:
        return f"({text})"
    return text


# ---------------------------------------------------------------------------
# sampled numeric comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleDomain:
    """Box constraints plus guard bands; sampling rejects guard violations.

    ranges: (symbol, lo, hi) triples; guards: (expr, lo, hi) with the guard
    accepted when lo <= value <= hi.  Guards keep samples clear of declared
    singular sets (denominators, branch cuts, degenerate parameters).
    """

    ranges: tuple
    guards: tuple = ()

    def sample(self, n: int, seed: int = 0, rng: Optional[random.Random] = None):
        """n accepted points as dicts, drawn in blocks of the number still
        missing; every seed gives the points a one-at-a-time draw would."""
        if rng is None:
            rng = random.Random(seed)
        points = []
        attempts = 0
        limit = max(1000, 200 * n)
        while len(points) < n:
            take = min(n - len(points), limit - attempts)
            if take == 0:
                raise DomainError(
                    f"guard rejection too high: {len(points)} of {n} points "
                    f"after {attempts} attempts")
            attempts += take
            block = [{name: rng.uniform(lo, hi) for name, lo, hi in self.ranges}
                     for _ in range(take)]
            cols = columns(block)
            keep = np.ones(take, dtype=bool)
            for guard, lo, hi in self.guards:
                # each guard sees only the points the earlier guards passed
                idx = np.flatnonzero(keep)
                try:
                    val = evaluate(guard, {k: v[idx] for k, v in cols.items()})
                except EvalError as exc:
                    raise DomainError(f"guard {guard} failed: {exc}") from exc
                keep[idx] = (lo <= val) & (val <= hi)
            points.extend(block[i] for i in np.flatnonzero(keep))
        return points

    def sample_columns(self, n: int, seed: int = 0) -> Dict[str, np.ndarray]:
        """columns(self.sample(n, seed)), drawn once per process for each
        (domain, n, seed); the arrays are read-only."""
        key = (self, n, seed)
        cols = _SAMPLES.get(key)
        if cols is None:
            cols = columns(self.sample(n, seed=seed))
            for col in cols.values():
                col.flags.writeable = False
            _remember(_SAMPLES, key, cols, _SAMPLE_LIMIT)
        return dict(cols)


def columns(points: Sequence[Mapping[str, float]]) -> Dict[str, np.ndarray]:
    """Sample points (dicts over the same names) as one column per name."""
    return {name: np.array([pt[name] for pt in points]) for name in points[0]}


@dataclass(frozen=True)
class ComparisonResult:
    equal: bool
    max_scaled_err: float
    worst_point: Optional[dict]
    n_points: int

    def __bool__(self):
        return self.equal


def numeric_compare(a: Expr, b: Expr, domain: SampleDomain, n: int = 64,
                    tol: float = 1e-9, seed: int = 0) -> ComparisonResult:
    """Sampled comparison: |a-b| <= tol*(1+|a|) at every sampled point.

    max_scaled_err is the largest |a-b|/(1+|a|), taken at worst_point.
    Memoized per process (see sampled_check); each call gets its own copy
    of worst_point.
    """
    res = sampled_check(_compare, a, b, domain, n, tol, seed)
    return ComparisonResult(res.equal, res.max_scaled_err,
                            dict(res.worst_point), res.n_points)


def _compare(a: Expr, b: Expr, domain: SampleDomain, n: int, tol: float,
             seed: int) -> ComparisonResult:
    cols = domain.sample_columns(n, seed=seed)
    try:
        va = evaluate(a, cols)
        vb = evaluate(b, cols)
    except EvalError as exc:
        raise DomainError(f"sampling hit a singular point: {exc}") from exc
    err = np.abs(va - vb)
    scale = 1.0 + np.abs(va)
    scaled = err / scale
    worst = int(np.argmax(scaled))
    equal = not np.any(err > tol * scale)
    return ComparisonResult(equal, float(scaled[worst]),
                            {k: float(v[worst]) for k, v in cols.items()}, n)
