"""Symbolic expression core and text front end.

Expressions are immutable trees over exact rational constants, named symbols,
n-ary sums and products, integer powers, quotients and a small set of
functions (sin, cos, sqrt, atan2).  The text grammar is

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ('^' integer)?
    atom   := number | identifier | fun '(' expr (',' expr)* ')'
            | '(' expr ')' | '-' atom

Every constant is an exact rational: decimal literals are converted to exact
fractions, and a float that substitute() binds enters as its exact binary
value, Fraction(value).  A fraction whose numerator or denominator has more
digits than sys.get_int_max_str_digits() lets str() print is an ExprError
where its Const is built.  normalize() flattens sums/products, merges
constants and collects identical terms/factors, and is idempotent.  There is
deliberately no trig or polynomial canonicalizer: semantic equality is decided
by sampled numeric comparison (numeric_compare), structural equality by ==.

Nodes are interned (hash-consed): a constructor returns the live node for
the same type, label and child objects, so there is one live node per
structure, however it was built, and == is identity (a zero constant is
always ZERO, a one ONE).  Add and Mul take any number of parts: one part is
that part, and none is 0 for a sum, 1 for a product.  The node table holds
each node weakly and loses an entry when its node dies, so it needs no
bound.  Each node computes its sort_key() once, at construction, and its
free_symbols() set on first use, from its children's sets.
differentiate() returns 0 for a subtree without the variable and applies
the product and sum rules only to the factors and terms that hold it; a
quotient whose denominator lacks the variable differentiates as du/den.
substitute() keeps a subtree without any mapped name as it is.  parse(),
normalize(), expand(), differentiate() and substitute() are memoized per
process by a functools.lru_cache each, so an equal subtree is worked out
once and a cache hit is found by identity.  Each cache holds at most 2^16
entries and drops its least recently used one when full; a call that
raises stores nothing, so it raises again next time.
SampleDomain.sample_columns() reads one candidate stream per (domain,
seed), drawn from random.Random(seed) once per process and only as far
as requests have needed (at most 2^4 streams): every sample count n is
the first n points of that stream, or the error a one-at-a-time draw of
n points meets, and a guard error ends the stream.  sampled_check() works
out each seeded sampled result once for its arguments (at most 2^12
results): numeric_compare() for each (a, b, domain, n, tol, seed),
sampled_values() for each (e, domain, n, seed), and the chart volume
check and the reduction pipeline of emq.reduction.  str() prints each
tree once per process (at most 2^12 texts).  Each cache counts its hits
and misses in cache_info().

One loop draws sample points in vectorized blocks of at least 256
candidates, bit for bit the points and the error of a one-at-a-time
rng.uniform draw (see SampleDomain); they come back as read-only numpy
columns, one per symbol, in a read-only mapping.
evaluate() works out each distinct subtree above the leaves once per
call, for floats or for a batch of points given as equal-length columns
(see columns()), of one tree or of a batch of trees walked together, and
keeps nothing after the call.

evaluate() never returns NaN/inf silently: division by zero, square roots
of negative values, atan2 at the origin (0, 0), unbound symbols and values
beyond float range raise distinct exceptions naming the first bad point,
so chart violations surface as errors, not poisoned numerics.  normalize()
keeps a constant atan2(0, 0) as a tree, which evaluates to that error.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import random
import re
import sys
import types
import weakref
from fractions import Fraction
from typing import (Dict, Iterable, Mapping, NamedTuple, Optional, Sequence,
                    Union)

import numpy as np

__all__ = [
    "Expr", "Const", "Sym", "Add", "Mul", "Pow", "Div", "Fun",
    "ExprError", "ParseError", "UnknownIdentifierError", "EvalError",
    "UnboundSymbolError", "DivisionByZeroError", "NegativeSqrtError",
    "DomainError",
    "Record", "SymbolTable", "SampleDomain",
    "parse", "normalize", "expand", "differentiate", "is_quadratic",
    "substitute", "evaluate",
    "numeric_compare", "ComparisonResult", "columns", "sampled_check",
    "sampled_values",
    "ZERO", "ONE",
]

FUNCTIONS = {"sin": 1, "cos": 1, "sqrt": 1, "atan2": 2}


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
# records
# ---------------------------------------------------------------------------

class Record:
    """An immutable value made of named fields: the base of emq's records.

    A subclass lists its fields as class annotations, in order, and gives
    a default as a class attribute.  A record is built from its fields by
    position, by keyword or both, then checked by the class's
    __post_init__, if it has one.  Two records are equal when they are of
    one class and their field tuples are equal; a record hashes its field
    tuple on first use and keeps the hash.  Assignment and deletion raise
    AttributeError, and replace(**changes) builds a changed copy.  The
    fields live in the instance __dict__, so functools.cached_property
    works on a record.  No code is compiled when a record class is made.
    """

    __slots__ = ("_hash", "__dict__")
    _fields = ()
    _names = frozenset()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__dict__.get("__annotations__", ()))
        fields = cls._fields + own
        cls._fields = fields
        cls._defaults = {**cls._defaults, **{
            name: cls.__dict__[name] for name in own if name in cls.__dict__}}
        # the field tuple of an instance __dict__
        cls._values = staticmethod(
            operator.itemgetter(*fields) if len(fields) > 1
            else lambda d: tuple(d[name] for name in fields))
        count = len(fields)
        names = cls._names = frozenset(fields)
        post_init = getattr(cls, "__post_init__", None)

        # one function per class, so that it reads these from its closure
        def __init__(self, *args, **kwargs):
            values = self.__dict__
            if args:
                values.update(zip(fields, args))
            if kwargs or len(args) != count:
                values.update(kwargs)
                if len(args) + len(kwargs) != count or values.keys() != names:
                    self._complete(len(args) + len(kwargs))
            if post_init is not None:
                post_init(self)

        cls.__init__ = __init__

    def _complete(self, given: int) -> None:
        """Check the fields of a call that gave `given` values, and fill
        in the defaults of the fields it left out."""
        values, name = self.__dict__, type(self).__qualname__
        # fewer fields than values: too many positions, or a field twice
        if len(values) != given:
            raise TypeError(f"{name}() got too many arguments or a field "
                            f"twice")
        for field, default in self._defaults.items():
            values.setdefault(field, default)
        if values.keys() != self._names:
            raise TypeError(f"{name}() got unexpected "
                            f"{sorted(values.keys() - self._names)} and lacks "
                            f"{sorted(self._names - values.keys())}")

    def replace(self, **changes) -> "Record":
        """A copy with the named fields changed, checked as a new record."""
        fields = dict(zip(self._fields, self._values(self.__dict__)))
        return type(self)(**{**fields, **changes})

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self.__dict__) == other._values(other.__dict__)
        return NotImplemented

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            value = hash(self._values(self.__dict__))
            object.__setattr__(self, "_hash", value)
            return value

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in
                           zip(self._fields, self._values(self.__dict__)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle build the record afresh: restoring the kept hash
        # would meet __setattr__, and another process hashes differently
        return type(self), self._values(self.__dict__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# expression nodes
# ---------------------------------------------------------------------------

class Expr:
    # a node is interned at construction (see _intern) and keeps its sort
    # key, computed once from its children's; its free-symbol set is
    # computed on first use (see free_symbols).  One live node per
    # structure makes object's identity == and hash the structural ones
    __slots__ = ("_key", "_free", "__weakref__")

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

    def __str__(self):
        return _text(self)

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


# The node table: a weak reference to the one live node for each (type,
# label, child identities).  A child's id is a safe key because the node
# keeps its children alive, and an entry goes when its node dies, so the
# table needs no bound.  A constructor looks its key up and calls the
# reference: `ref and ref()` is None when no such node lives.
class _Ref(weakref.ref):
    # a table entry knows its key, so one callback serves every entry
    __slots__ = ("key",)


_NODES: Dict[tuple, _Ref] = {}


def _forget(ref: _Ref) -> None:
    # a node built under the same key after this one died is not this
    # reference's to delete
    if _NODES.get(ref.key) is ref:
        del _NODES[ref.key]


def _intern(cls, key, sort_value, **fields) -> Expr:
    node = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(node, name, value)
    object.__setattr__(node, "_key", sort_value)
    object.__setattr__(node, "_free", None)
    ref = _Ref(node, _forget)
    ref.key = key
    _NODES[key] = ref
    return node


def _coerce(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, float):
        # a float is a dyadic rational, and Fraction(value) is that value
        # exactly; NaN and inf are none
        if not math.isfinite(value):
            raise ExprError(f"cannot bind the non-finite value {value!r}")
        return Const(Fraction(value))
    if isinstance(value, (int, Fraction)):
        return Const(value)
    raise TypeError(f"cannot build an expression from {value!r}")


def _too_long_to_print() -> ExprError:
    return ExprError(f"constant too long to print: more than "
                     f"{sys.get_int_max_str_digits()} digits")


def _check_printable(value: Fraction) -> None:
    """Raise ExprError for a constant that str() cannot print: one whose
    numerator or denominator has more decimal digits than
    sys.get_int_max_str_digits() allows (0 means no limit)."""
    limit = sys.get_int_max_str_digits()
    for part in (abs(value.numerator), value.denominator):
        # d digits take more than 3*(d - 1) bits, so a part of at most
        # 3*limit bits fits the limit without the exact test
        if limit and part.bit_length() > 3 * limit and part >= 10 ** limit:
            raise _too_long_to_print()


class Const(Expr):
    __slots__ = ("value",)

    def __new__(cls, value: Union[int, Fraction]):
        if type(value) is int:
            value = Fraction(value)
        elif type(value) is not Fraction:
            raise TypeError(f"bad constant {value!r}")
        key = (cls, value)
        ref = _NODES.get(key)
        node = ref and ref()
        if node is None:
            _check_printable(value)
            # the sort key compares exactly: float() would overflow on
            # huge rationals
            node = _intern(cls, key, (0, value), value=value)
        return node

    def _parts(self):
        return self.value, ()


class Sym(Expr):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        key = (cls, name)
        ref = _NODES.get(key)
        node = ref and ref()
        if node is None:
            if not _IDENT_RE.fullmatch(name):
                raise ValueError(f"bad symbol name {name!r}")
            if name in FUNCTIONS:
                raise ValueError(f"{name!r} is a reserved function name")
            node = _intern(cls, key, (1, name), name=name)
        return node

    def _parts(self):
        return self.name, ()


class Add(Expr):
    __slots__ = ("terms",)

    def __new__(cls, terms: Iterable[Expr]):
        terms = tuple(terms)
        key = (cls,) + tuple(map(id, terms))
        ref = _NODES.get(key)
        node = ref and ref()
        if node is None:
            if len(terms) < 2:
                return terms[0] if terms else ZERO
            node = _intern(cls, key, (6, tuple(t._key for t in terms)),
                           terms=terms)
        return node

    def _parts(self):
        return None, self.terms


class Mul(Expr):
    __slots__ = ("factors",)

    def __new__(cls, factors: Iterable[Expr]):
        factors = tuple(factors)
        key = (cls,) + tuple(map(id, factors))
        ref = _NODES.get(key)
        node = ref and ref()
        if node is None:
            if len(factors) < 2:
                return factors[0] if factors else ONE
            node = _intern(cls, key, (5, tuple(f._key for f in factors)),
                           factors=factors)
        return node

    def _parts(self):
        return None, self.factors


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __new__(cls, base: Expr, exponent: int):
        # the grammar writes only integer powers; sqrt is the one root
        if type(exponent) is not int:
            raise TypeError(f"exponent must be an int, got {exponent!r}")
        key = (cls, id(base), exponent)
        ref = _NODES.get(key)
        node = ref and ref()
        if node is None:
            node = _intern(cls, key, (3, base._key, exponent),
                           base=base, exponent=exponent)
        return node

    def _parts(self):
        return self.exponent, (self.base,)


class Div(Expr):
    __slots__ = ("num", "den")

    def __new__(cls, num: Expr, den: Expr):
        key = (cls, id(num), id(den))
        ref = _NODES.get(key)
        node = ref and ref()
        if node is None:
            node = _intern(cls, key, (4, num._key, den._key),
                           num=num, den=den)
        return node

    def _parts(self):
        return None, (self.num, self.den)


class Fun(Expr):
    __slots__ = ("name", "args")

    def __new__(cls, name: str, args: Iterable[Expr]):
        args = tuple(args)
        key = (cls, name) + tuple(map(id, args))
        ref = _NODES.get(key)
        node = ref and ref()
        if node is None:
            if name not in FUNCTIONS:
                raise ValueError(f"unknown function {name!r}")
            if len(args) != FUNCTIONS[name]:
                raise ValueError(
                    f"{name} expects {FUNCTIONS[name]} argument(s)")
            node = _intern(cls, key, (2, name, tuple(a._key for a in args)),
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

def _split_coefficient(term: Expr):
    """term -> (constant coefficient, tuple of non-constant factors)."""
    if isinstance(term, Const):
        return term.value, ()
    if isinstance(term, Mul):
        coeff = Fraction(1)
        rest = []
        for f in term.factors:
            if isinstance(f, Const):
                coeff *= f.value
            else:
                rest.append(f)
        return coeff, tuple(rest)
    return Fraction(1), (term,)


def _rebuild_product(coeff: Fraction, factors: Sequence[Expr]) -> Expr:
    # every caller passes a nonzero coefficient
    if coeff != 1:
        factors = (Const(coeff),) + tuple(factors)
    return Mul(factors)


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
    # terms collect by their factor nodes
    const_sum = Fraction(0)
    by_rest = {}
    for t in flat:
        coeff, rest = _split_coefficient(t)
        if not rest:
            const_sum += coeff
            continue
        prev_coeff = by_rest.get(rest)
        by_rest[rest] = coeff if prev_coeff is None else prev_coeff + coeff
    # no normal form is a constant other than 1 times one sum (_normalize_mul
    # distributes it), so no term collects into one either
    out = []
    for rest in sorted(by_rest, key=lambda r: tuple(sort_key(f) for f in r)):
        if by_rest[rest] != 0:
            out.append(_rebuild_product(by_rest[rest], rest))
    if const_sum != 0:
        out.insert(0, Const(const_sum))
    return Add(out)


def _as_base_exp(f: Expr):
    if isinstance(f, Pow):
        return f.base, f.exponent
    return f, 1


def _normalize_mul(factors) -> Expr:
    flat = []
    for f in factors:
        if isinstance(f, Mul):
            flat.extend(f.factors)
        else:
            flat.append(f)
    # a normal form holds no power of a quotient (_normalize_pow makes it
    # a quotient), so a factor carries a quotient only as a Div
    if any(isinstance(f, Div) for f in flat):
        nums = [f.num if isinstance(f, Div) else f for f in flat]
        dens = [f.den for f in flat if isinstance(f, Div)]
        return normalize(Div(Mul(nums), Mul(dens)))
    # factors collect by their base node, as terms do in _normalize_add
    coeff = Fraction(1)
    by_base = {}
    for f in flat:
        if isinstance(f, Const):
            coeff *= f.value
            continue
        base, exp = _as_base_exp(f)
        prev_exp = by_base.get(base)
        by_base[base] = exp if prev_exp is None else prev_exp + exp
    if coeff == 0:
        return ZERO
    out = []
    rerun = []
    for base in sorted(by_base, key=sort_key):
        piece = _normalize_pow(base, by_base[base])
        if piece == ONE:
            continue
        if isinstance(piece, Const):
            coeff *= piece.value
        elif isinstance(piece, Mul) or _as_base_exp(piece)[0] != base:
            # a power fold expanded or changed its base; remerge from scratch
            rerun.append(piece)
        else:
            out.append(piece)
    if rerun:
        return _normalize_mul([Const(coeff)] + out + rerun)
    if len(out) == 1 and isinstance(out[0], Add) and coeff != 1:
        # distribute plain constants over a lone sum so that -(a+b) can
        # cancel against a and b; genuine products of sums stay factored
        scaled = []
        for t in out[0].terms:
            tc, tf = _split_coefficient(t)
            scaled.append(_normalize_mul([Const(coeff * tc)] + list(tf)))
        return _normalize_add(scaled)
    return _rebuild_product(coeff, out)


def _exact_sqrt(value: Fraction) -> Optional[Fraction]:
    """sqrt(value) of a value >= 0 as an exact Fraction, or None when it is
    irrational."""
    num, den = math.isqrt(value.numerator), math.isqrt(value.denominator)
    if num * num == value.numerator and den * den == value.denominator:
        return Fraction(num, den)
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
    return normalize(Div(Mul([num] + moved),
                         Mul([Const(d_coeff)] + new_den)))


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
        d_map[base] = exp
    changed = d_coeff != 1
    new_num = []
    for f in n_factors:
        base, exp = _as_base_exp(f)
        if d_map.get(base, 0) != 0:
            m = min(exp, d_map[base])
            exp -= m
            d_map[base] -= m
            changed = True
        if exp != 0:
            new_num.append(_normalize_pow(base, exp))
    if not changed:
        return None
    num_expr = _normalize_mul([Const(n_coeff / d_coeff)] + new_num)
    den_parts = []
    for base in sorted(d_map, key=sort_key):
        exp = d_map[base]
        if exp != 0:
            den_parts.append(_normalize_pow(base, exp))
    if not den_parts:
        return num_expr
    return normalize(Div(num_expr, Mul(den_parts)))


def _normalize_pow(base: Expr, exp: int) -> Expr:
    if exp == 0:
        return ONE
    if exp == 1:
        return base
    # sqrt(u)^n collapses on the u >= 0 domain where sqrt is defined at all
    if isinstance(base, Fun) and base.name == "sqrt":
        (u,) = base.args
        if exp % 2 == 0:
            return _normalize_pow(u, exp // 2)
        return _normalize_mul([_normalize_pow(u, (exp - 1) // 2), base])
    if isinstance(base, Const):
        v = base.value
        if v == 0 and exp < 0:
            raise DivisionByZeroError("0 raised to a negative power")
        # refused unbuilt when sure to be too long: a part of b bits to the
        # power exp has more than (b - 1)*|exp| bits, and 4 bits a digit is
        # more than a decimal digit takes
        bits = max(abs(v.numerator), v.denominator).bit_length() - 1
        if bits * abs(exp) > 4 * sys.get_int_max_str_digits() > 0:
            raise _too_long_to_print()
        return Const(v ** exp)
    if isinstance(base, Pow):
        return _normalize_pow(base.base, base.exponent * exp)
    if isinstance(base, Mul):
        return _normalize_mul(tuple(Pow(f, exp) for f in base.factors))
    if isinstance(base, Div):
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
        if isinstance(a, Const):
            if a.value < 0:
                raise NegativeSqrtError(f"sqrt of negative constant {a.value}")
            exact = _exact_sqrt(a.value)
            if exact is not None:
                return Const(exact)
        return Fun("sqrt", (a,))
    if name in ("sin", "cos"):
        (a,) = args
        if isinstance(a, Const):
            hit = _EXACT_FUN_VALUES.get((name, a.value))
            if hit is not None:
                return Const(hit)
        return Fun(name, (a,))
    u, v = args  # atan2, the one function left
    if u == ZERO and isinstance(v, Const) and v.value > 0:
        return ZERO
    return Fun("atan2", (u, v))


# per-process caches (see the module docstring): a public function that
# shapes its key calls one private cached function positionally, one that
# shapes none is its own cache (the benchmark tracer wraps either form
# alike), and recursive calls go through the public names
@functools.lru_cache(maxsize=1 << 12)
def sampled_check(check, *args):
    """check(*args), worked out once per process for each argument tuple.

    For seeded sampled checks, whose result is fixed by their (hashable,
    immutable) arguments.  A call that raises stores nothing, so it raises
    again next time.
    """
    return check(*args)


def sampled_values(e: Expr, domain: SampleDomain, n: int,
                   seed: int) -> np.ndarray:
    """evaluate(e) on domain.sample_columns(n, seed), read-only, worked out
    once per process for each (e, domain, n, seed) (see sampled_check)."""
    return sampled_check(_sampled_values, e, domain, n, seed)


def _sampled_values(e: Expr, domain: SampleDomain, n: int,
                    seed: int) -> np.ndarray:
    value = evaluate(e, domain.sample_columns(n, seed=seed))
    value.flags.writeable = False
    return value


def normalize(e: Expr) -> Expr:
    """Canonical form: flattened, constant-merged, deterministically ordered."""
    if isinstance(e, (Const, Sym)):
        return e
    return _normalize_node(e)


@functools.lru_cache(maxsize=1 << 16)
def _normalize_node(e: Expr) -> Expr:
    if isinstance(e, Add):
        return _normalize_add([normalize(t) for t in e.terms])
    if isinstance(e, Mul):
        return _normalize_mul([normalize(f) for f in e.factors])
    if isinstance(e, Pow):
        return _normalize_pow(normalize(e.base), e.exponent)
    if isinstance(e, Div):
        return _normalize_div(normalize(e.num), normalize(e.den))
    if isinstance(e, Fun):
        return _normalize_fun(e.name, [normalize(a) for a in e.args])
    raise TypeError(f"not an Expr: {e!r}")


def _normalize_div(num: Expr, den: Expr) -> Expr:
    if isinstance(den, Const):
        if den.value == 0:
            raise DivisionByZeroError("division by a zero constant")
        return _normalize_mul([num, Const(1 / den.value)])
    if num == ZERO:
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
                    [_expand_node(Mul(rest + [t])) for t in f.terms])
        return _normalize_mul(factors)
    if isinstance(e, Pow):
        base = _expand_node(e.base)
        exp = e.exponent
        if isinstance(base, Add) and 2 <= exp <= 16:
            out = base
            for _ in range(exp - 1):
                out = _expand_node(Mul([out, base]))
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


@functools.lru_cache(maxsize=1 << 16)
def expand(e: Expr) -> Expr:
    """Distribute products and small integer powers over sums; normalized.

    Normalization alone keeps products of sums factored (cheap, and usually
    what symbolic intermediates want); expansion is the opt-in step that
    collapses cross-term cancellations down to closed forms.
    """
    return _expand_node(normalize(e))


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
        return Add(terms)
    if isinstance(e, Mul):
        fs = e.factors
        terms = tuple(Mul(fs[:i] + (_diff(f, name),) + fs[i + 1:])
                      for i, f in enumerate(fs) if name in f.free_symbols())
        return Add(terms)
    if isinstance(e, Pow):
        n = e.exponent
        db = _diff(e.base, name)
        return Mul((Const(n), Pow(e.base, n - 1), db))
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
    return _differentiate(e, sym.name if isinstance(sym, Sym) else sym)


@functools.lru_cache(maxsize=1 << 16)
def _differentiate(e: Expr, name: str) -> Expr:
    # normalize first: the raw power rule would build base^-1 from literal
    # constructions like 0^0 that normalization folds away
    return normalize(_diff(normalize(e), name))


def is_quadratic(e: Expr, names: Sequence[str]) -> bool:
    """True when every third partial of e in names is structurally 0."""
    for i, a in enumerate(names):
        da = differentiate(e, a)
        for j in range(i, len(names)):
            dab = differentiate(da, names[j])
            for k in range(j, len(names)):
                if differentiate(dab, names[k]) != ZERO:
                    return False
    return True


def substitute(e: Expr, mapping: Mapping) -> Expr:
    """Simultaneous substitution of symbols, then normalization."""
    table = {}
    for k, v in mapping.items():
        name = k.name if isinstance(k, Sym) else k
        table[name] = _coerce(v)
    # coerced values key the cache: 1, 1.0 and Fraction(1) give one entry
    return _substitute(e, tuple(sorted(table.items())))


@functools.lru_cache(maxsize=1 << 16)
def _substitute(e: Expr, items: tuple) -> Expr:
    table = dict(items)

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

    return normalize(walk(e))


_NUMPY_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "sqrt": np.sqrt,
                    "atan2": np.arctan2}


def evaluate(e: Union[Expr, Iterable[Expr]], bindings: Mapping):
    """Float evaluation with singularity guards instead of NaN propagation.

    Bindings are floats or equal-length numpy columns (see columns()).  Float
    bindings give a float, any column one value per point; an iterable of
    trees gives a fresh array of one such row per tree, each tree checked
    before the next is taken.  Each distinct subtree above the leaves is
    worked out once per call.  Errors name the first offending point.
    """
    column = next((v for v in bindings.values() if isinstance(v, np.ndarray)),
                  None)
    known, rows = {}, []
    with np.errstate(over="ignore", invalid="ignore"):
        for t in ((e,) if isinstance(e, Expr) else e):
            try:
                value = _eval(t, bindings, known)
            except OverflowError as exc:
                raise EvalError(f"value does not fit a float: {exc}") from None
            if column is not None and not isinstance(value, np.ndarray):
                value = np.full(column.shape, value)
            _check(~np.isfinite(value), EvalError, "non-finite value", t,
                   bindings)
            rows.append(value if column is not None else float(value))
    if isinstance(e, Expr):
        return rows[0]
    return np.array(rows).reshape(len(rows), *getattr(column, "shape", ()))


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


def _eval(e: Expr, b, known: dict):
    # a leaf costs no more to work out than to look up
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, Sym):
        try:
            v = b[e.name]
        except KeyError:
            raise UnboundSymbolError(f"symbol {e.name!r} is unbound") from None
        return v if isinstance(v, np.ndarray) else float(v)
    # hash-consing makes repeated subtrees common, so each is worked out
    # once per call and kept in known
    out = known.get(e)
    if out is not None:
        return out
    if isinstance(e, Add):
        out = _eval(e.terms[0], b, known)
        for t in e.terms[1:]:
            out = out + _eval(t, b, known)
    elif isinstance(e, Mul):
        out = _eval(e.factors[0], b, known)
        for f in e.factors[1:]:
            out = out * _eval(f, b, known)
    elif isinstance(e, Pow):
        base = _eval(e.base, b, known)
        n = e.exponent
        if n < 0:
            _check(base == 0.0, DivisionByZeroError,
                   "zero base with negative exponent", e, b)
        out = np.power(base, n)
    elif isinstance(e, Div):
        den = _eval(e.den, b, known)
        _check(den == 0.0, DivisionByZeroError, "division by zero", e, b)
        out = _eval(e.num, b, known) / den
    elif isinstance(e, Fun):
        vals = [_eval(a, b, known) for a in e.args]
        if e.name == "sqrt":
            _check(vals[0] < 0.0, NegativeSqrtError, "sqrt of negative value",
                   e, b)
        elif e.name == "atan2":
            # the angle of the origin is undefined, not numpy's 0
            _check((vals[0] == 0.0) & (vals[1] == 0.0), EvalError,
                   "atan2 of (0, 0)", e, b)
        out = _NUMPY_FUNCTIONS[e.name](*vals)
    else:
        raise TypeError(f"not an Expr: {e!r}")
    known[e] = out
    return out


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

# levels of parentheses, calls and unary minus: a count, not the stack depth
MAX_NESTING = 64


class _Token(NamedTuple):
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
        value, exp = Fraction(mantissa), int(exp)
        # a nonzero mantissa of k characters is within 10^k of 1, so past
        # that 10^exp decides the length and the constant is refused unbuilt
        if not value:
            return value
        if abs(exp) - len(mantissa) > sys.get_int_max_str_digits() > 0:
            raise _too_long_to_print()
        return value * Fraction(10) ** exp
    return Fraction(text)


class _Parser:
    def __init__(self, tokens, names: Optional[frozenset]):
        self.tokens = tokens
        self.pos = 0
        self.names = names
        self.depth = 0

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
        return Add(terms)

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
                factors = [Div(Mul(factors), rhs)]
        return Mul(factors)

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
        if self.depth > MAX_NESTING:
            raise ParseError(f"expression nested too deeply (more than "
                             f"{MAX_NESTING} levels)", self.peek().offset)
        self.depth += 1
        node = self._atom()
        self.depth -= 1
        return node

    def _atom(self) -> Expr:
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
            if self.names is not None and tok.text not in self.names:
                raise UnknownIdentifierError(f"unknown identifier {tok.text!r}", tok.offset)
            return Sym(tok.text)
        what = tok.text or "end of input"
        raise ParseError(f"unexpected {what!r}", tok.offset)


def parse(text: str, table: Optional[SymbolTable] = None) -> Expr:
    """Parse the DSL into a normalized expression tree."""
    # the table decides only which identifiers are known, so its names key
    # the cache; a text that fails to parse is not stored and fails again
    return _parse(text, None if table is None else frozenset(table._roles))


@functools.lru_cache(maxsize=1 << 16)
def _parse(text: str, names: Optional[frozenset]) -> Expr:
    parser = _Parser(_tokenize(text), names)
    try:
        node = parser.parse_expr()
        tail = parser.peek()
        if tail.kind != "end":
            raise ParseError(f"trailing input {tail.text!r}", tail.offset)
        return normalize(node)
    except RecursionError:  # a backstop: MAX_NESTING stops a deep text first
        raise ParseError("expression nested too deeply",
                         parser.peek().offset) from None


# ---------------------------------------------------------------------------
# printing (precedence-aware; output reparses to an equal tree)
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4


def _render_const(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


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
        base = _render(e.base, _PREC_ATOM)
        if n < 0:
            return _wrap(f"1/{base}^{-n}", _PREC_MUL, parent_prec)
        return _wrap(f"{base}^{n}", _PREC_POW, parent_prec)
    if isinstance(e, Fun):
        args = ", ".join(_render(a, 0) for a in e.args)
        return f"{e.name}({args})"
    raise TypeError(f"not an Expr: {e!r}")


@functools.lru_cache(maxsize=1 << 12)
def _text(e: Expr) -> str:
    # str() of a tree, printed once per process: a report prints the same
    # interned trees on every run
    return _render(e, 0)


def _wrap(text: str, prec: int, parent_prec: int) -> str:
    if prec < parent_prec:
        return f"({text})"
    return text


# ---------------------------------------------------------------------------
# sampled numeric comparison
# ---------------------------------------------------------------------------

class SampleDomain(Record):
    """Box constraints plus guard bands; sampling rejects guard violations.

    ranges: (symbol, lo, hi) triples; guards: (expr, lo, hi) with the guard
    accepted when lo <= value <= hi.  Guards keep samples clear of declared
    singular sets (denominators, branch cuts, degenerate parameters).

    A point takes rng.uniform(lo, hi) for each range in order, and a draw
    stops at the n-th accepted point; it fails when that point is not among
    the first max(1000, 200*n) candidates, at the first candidate a guard
    cannot be evaluated on (guards tried in order) if that comes first, and
    at once for n below 1.  One loop draws every candidate (see _Stream),
    in blocks of at least 256 candidates (fewer only where the attempt
    limit ends the draw), each from one rng.getrandbits(64*k) call rebuilt
    into the k doubles that k rng.random() calls give, so the points and
    the error are those of a one-at-a-time draw.  A caller's rng is used only
    through getrandbits(): a random.Random, or a subclass that keeps its
    random() and getrandbits(), gives the points its uniform() would; a
    block may draw candidates past the n-th point, so the rng is not left
    where a one-at-a-time draw leaves it.

    sample_columns() reads one candidate stream per (domain, seed) and
    process: the one-at-a-time candidate sequence of random.Random(seed),
    drawn only as far as requests have needed, so n points are the first n
    accepted ones whatever was asked before.
    """

    ranges: tuple
    guards: tuple = ()

    def _block(self, rng: random.Random, take: int
               ) -> tuple[np.ndarray, np.ndarray, Optional[DomainError]]:
        """The next take candidates of rng, one row per range, the mask of
        those every guard accepts, and None.  When a guard cannot be
        evaluated on one of them: the candidates before the first such one
        (guards tried in order), their mask, and that guard's error."""
        names = [name for name, _, _ in self.ranges]
        # spans are taken in Python floats, as rng.uniform takes them: one
        # that overflows is inf, not a numpy warning
        low = np.array([[float(lo)] for _, lo, _ in self.ranges])
        span = np.array([[float(hi - lo)] for _, lo, hi in self.ranges])
        with np.errstate(over="ignore", invalid="ignore"):
            block = low + span * _uniforms(
                rng, take * len(names)).reshape(take, len(names)).T
        try:
            return block, self._accepted(names, block), None
        except DomainError:
            # a guard may raise on a later candidate than another one does,
            # so the first failing candidate is found one at a time
            for i in range(take):
                try:
                    self._accepted(names, block[:, i:i + 1])
                except DomainError as exc:
                    head = block[:, :i]
                    return head, self._accepted(names, head), exc
            raise

    def _accepted(self, names: list, block: np.ndarray) -> np.ndarray:
        """The mask of the candidates of block every guard accepts."""
        keep = np.ones(block.shape[1], dtype=bool)
        for guard, g_lo, g_hi in self.guards:
            # each guard sees only the points the earlier guards passed
            idx = np.flatnonzero(keep)
            try:
                val = evaluate(guard, dict(zip(names, block[:, idx])))
            except EvalError as exc:
                raise DomainError(f"guard {guard} failed: {exc}") from exc
            keep[idx] = (g_lo <= val) & (val <= g_hi)
        return keep

    def sample(self, n: int, seed: int = 0,
               rng: Optional[random.Random] = None):
        """n accepted points as dicts, drawn from rng, or from
        random.Random(seed) when rng is None (see the class docstring)."""
        rng = random.Random(seed) if rng is None else rng
        cols = _Stream(self, rng).columns(n)
        rows = zip(*(col.tolist() for col in cols.values()))
        return [dict(zip(cols, row)) for row in rows]

    def sample_columns(self, n: int, seed: int = 0) -> Mapping[str, np.ndarray]:
        """The points of self.sample(n, seed) as read-only columns in a
        read-only mapping, read from this domain's stream for seed (see the
        class docstring) and kept for each n."""
        return _stream(self, seed).columns(n)


# a stream keeps every point it accepted, so its cache has a smaller bound
@functools.lru_cache(maxsize=1 << 4)
def _stream(domain: SampleDomain, seed: int) -> _Stream:
    return _Stream(domain, random.Random(seed))


class _Stream:
    """The accepted candidates of rng on one domain, drawn as far as
    requests have needed them, and the read-only mapping served for each n
    since the points last grew.  A guard error ends the stream: a request
    that needs the candidate the guard failed on raises that error again."""

    def __init__(self, domain: SampleDomain, rng: random.Random):
        self.domain, self.rng = domain, rng
        self.points = np.empty((len(domain.ranges), 0))
        # candidates drawn in all, and up to and including each accepted point
        self.attempts = 0
        self.tries = []
        self.views = {}
        self.error = None

    def columns(self, n: int) -> Mapping[str, np.ndarray]:
        view = self.views.get(n)
        if view is not None:
            return view
        if n < 1:
            raise DomainError(f"need at least 1 sample point, asked for {n}")
        limit = max(1000, 200 * n)
        while len(self.tries) < n and self.attempts < limit \
                and self.error is None:
            count = len(self.tries)
            # the first block is the number missing; later ones scale it by
            # the candidates drawn per accepted point so far, or double the
            # draw while none was accepted; a block takes at least 256
            # candidates, so one block usually serves a request for 64, 100
            # or 200 points, and points drawn past n stay for later requests
            take = (-(-(n - count) * self.attempts // count) if count
                    else max(n, self.attempts))
            take = min(max(take, 256), limit - self.attempts)
            block, keep, error = self.domain._block(self.rng, take)
            # the text only: the error's traceback holds the whole block
            self.error = None if error is None else str(error)
            self.tries += (np.flatnonzero(keep) + self.attempts + 1).tolist()
            self.attempts += block.shape[1]
            self.points = np.concatenate((self.points, block[:, keep]), axis=1)
            self.points.flags.writeable = False
            # a view of a shorter array would keep it alive; each n is
            # served again from the longer one
            self.views.clear()
        if len(self.tries) < n or self.tries[n - 1] > limit:
            if self.error is not None and self.attempts < limit:
                # a fresh error: one raised again grows its traceback
                raise DomainError(self.error)
            raise DomainError(
                f"guard rejection too high: "
                f"{bisect.bisect_right(self.tries, limit)} of {n} points "
                f"after {limit} attempts")
        cols = {name: row[:n] for (name, _, _), row
                in zip(self.domain.ranges, self.points)}
        view = self.views[n] = types.MappingProxyType(cols)
        return view


def _uniforms(rng: random.Random, k: int) -> np.ndarray:
    """k doubles, bit for bit those of k rng.random() calls, from one
    rng.getrandbits(64*k): CPython builds each from two 32-bit words as
    ((w0 >> 5)*2^26 + (w1 >> 6))*2^-53, and getrandbits puts the first
    word in the lowest bits."""
    words = np.frombuffer(rng.getrandbits(64 * k).to_bytes(8 * k, "little"),
                          dtype="<u4").reshape(k, 2)
    return ((words[:, 0] >> 5) * 67108864.0 + (words[:, 1] >> 6)) \
        * (1.0 / 9007199254740992.0)


def columns(points: Sequence[Mapping[str, float]]) -> Dict[str, np.ndarray]:
    """Sample points (dicts over the same names) as one column per name."""
    return {name: np.array([pt[name] for pt in points]) for name in points[0]}


class ComparisonResult(Record):
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
    A pair of constants is decided from its exact values once the points
    are drawn, with the result the sampled formulas give.  Memoized per
    process (see sampled_check); each call gets its own copy of
    worst_point.
    """
    res = sampled_check(_compare, a, b, domain, n, tol, seed)
    return ComparisonResult(res.equal, res.max_scaled_err,
                            dict(res.worst_point), res.n_points)


def _compare(a: Expr, b: Expr, domain: SampleDomain, n: int, tol: float,
             seed: int) -> ComparisonResult:
    """numeric_compare's result, worked out afresh.  The points are drawn
    first, so a chart that cannot be sampled raises its error for any
    pair; a pair of constants is then decided from its exact values."""
    cols = domain.sample_columns(n, seed=seed)
    if type(a) is Const and type(b) is Const:
        # the sampled formulas on n equal values, worst at the first point;
        # a constant beyond float range takes the sampled path's error
        try:
            va, vb = float(a.value), float(b.value)
        except OverflowError:
            pass
        else:
            err, scale = abs(va - vb), 1.0 + abs(va)
            return ComparisonResult(not err > tol * scale, err / scale,
                                    {k: float(v[0]) for k, v in cols.items()},
                                    n)
    try:
        va, vb = evaluate((a, b), cols)
    except EvalError as exc:
        raise DomainError(f"sampling hit a singular point: {exc}") from exc
    err = np.abs(va - vb)
    scale = 1.0 + np.abs(va)
    scaled = err / scale
    worst = int(np.argmax(scaled))
    equal = not np.any(err > tol * scale)
    return ComparisonResult(equal, float(scaled[worst]),
                            {k: float(v[worst]) for k, v in cols.items()}, n)
