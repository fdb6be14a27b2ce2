"""Loader for the .sys model format.

A .sys file is a line-oriented INI-like description of one momentum-linear
system together with its constraint, its Darboux chart, sampling ranges,
lattice settings and generating-function data.  Sections:

  [system]      coordinates = x, y ; one f_<name> velocity per coordinate;
                optional momentum-free potential
  [charges]     named conserved combinations
  [rho]         coefficient expression per selected charge
  [params]      numeric parameter values used by the lattice layer; each
                must be finite, and hbar, if set, must also be > 0
  [constraint]  phi, eliminate, solution, optional chi
  [darboux]     reduced = <coord> : <mom> (repeatable), gauge = <coord> : <mom>,
                one forward expression per target name, one inv_<name> per
                source variable
  [domain]      finite sampling ranges per symbol plus repeatable guard =
                <expr> in <lo>, <hi> lines, which may have an infinite bound
  [lattice]     optional; grid, slicing and tolerance settings, each
                checked by LatticeConfig
  [anomaly]     optional; F = generating function, reference_A_z = printed
                drift form kept as cross-check data; an F written in the
                variables it defines, or a non-quadratic F without
                reference_A_z, is an error at F's line

'#' starts a comment.  All expressions are parsed against a declared-symbol
table, so a typo fails at load time with a file:line position rather than
during a numeric sweep.  Every load error names a line (a bad value or an
unknown or repeated key its own, a missing key its section's header) except
a missing section or unreadable file; a test fails on a raise site that no
row of USAGE_ERRORS in tests/test_cli.py reaches.

load_model and load_bundled read and decode the file on every call, so an
edited file is always seen; load_model reads UTF-8 and drops a leading
byte-order mark.  Two per-process memos, each a functools.lru_cache of at
most 2^6 entries that drops the least recently used one when full (its
cache_info() counts the hits and misses), stand behind loads_model.  The
text memo assembles each distinct (text, name, path) once and hands the
same read-only Model back after that.  Behind it, the content memo keys
the symbolic records on what they are read from: every section but
[lattice], with the names of [params] in file order but not their values.
On a content hit only the [params] values and [lattice] are read, by the
same readers and checks as in a full assembly, and the Model shares the
system, constraint, chart map, generating function, reference data and
symbol table of the kept one, with its own name, path, params and
lattice; so an edit of [lattice] or of a parameter value costs only what
changed.  A miss assembles the whole file, so an error and the line it
names do not depend on what the process loaded before.  A text that fails
to load is kept in neither memo, so it fails again.
"""

from __future__ import annotations

import functools
import math
from importlib import resources
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

from .expr import (Expr, ExprError, Record, SampleDomain, SymbolTable, ZERO,
                   parse, substitute)
from .symplectic import FlowSystem, PhaseSpace
from .reduction import CanonicalMap, ConstraintSpec
from .pathint import LatticeConfig
from .anomaly import GeneratingFunction, anomaly_coefficients

__all__ = ["SysFileError", "Model", "load_model", "loads_model",
           "load_bundled", "bundled_names", "bundled_text"]

BUNDLED = ("free_particle", "harmonic", "free_particle_lambda")

_REQUIRED_SECTIONS = ("system", "charges", "rho", "params", "constraint",
                      "darboux", "domain")
_SECTIONS = frozenset(_REQUIRED_SECTIONS + ("lattice", "anomaly"))
# the sections that the symbolic records are read from
_SYMBOLIC_SECTIONS = _REQUIRED_SECTIONS + ("anomaly",)
# the one key of a section that may appear on several lines
_REPEATABLE = {"darboux": "reduced", "domain": "guard"}
_SLICED_KEYS = ("sliced_constant", "sliced_delta_p", "sliced_delta_q")
_REQUIRED = object()


class SysFileError(Exception):
    """Malformed .sys content; message carries file:line context."""


class Model(Record):
    """One fully wired system: dynamics, constraint, chart and settings."""

    name: str
    system: FlowSystem
    constraint: ConstraintSpec
    darboux: CanonicalMap
    params: Mapping[str, float]    # read-only: one Model serves every load
    lattice: Optional[LatticeConfig]
    generating_function: Optional[GeneratingFunction]
    reference_A_z: Optional[Expr]
    symbols: SymbolTable
    sliced_refs: Optional[Tuple[Expr, Expr, Expr]] = None
    path: Optional[str] = None

    @property
    def chart(self) -> SampleDomain:
        return self.system.chart


# ---------------------------------------------------------------------------
# reading
# ---------------------------------------------------------------------------

class _Section:
    """One [section]: its header line and its entries, each read once and
    reported at its own line."""

    __slots__ = ("where", "name", "header", "lines", "values", "repeats")

    def __init__(self, where: str, name: str, header: int):
        self.where, self.name, self.header = where, name, header
        self.lines: Dict[str, int] = {}
        self.values: Dict[str, str] = {}     # the entries not yet taken
        self.repeats: List[Tuple[int, str]] = []

    def error(self, message, key: Optional[str] = None) -> SysFileError:
        """An error at key's line, or at the header line without a key."""
        return SysFileError(f"{self.where}:{self.lines.get(key, self.header)}: "
                            f"{message}")

    def take(self, key: str, convert=str, *args, default=_REQUIRED,
             missing: Optional[str] = None):
        """convert(value, *args) for key; a bad value is reported at the
        key's line, and a missing key without a default at the header."""
        value = self.values.pop(key, None)
        if value is None:
            if default is not _REQUIRED:
                return default
            raise self.error(missing or f"[{self.name}] missing {key}")
        try:
            return convert(value, *args)
        except (ExprError, ValueError) as exc:
            # parse errors, constant folds such as 1/(x - x), bad numbers
            # and declared names the symbol tables reject alike
            raise self.error(exc, key) from exc

    def take_repeats(self, convert, *args) -> list:
        """take() for each line of the section's repeatable key."""
        out = []
        for lineno, value in self.repeats:
            try:
                out.append(convert(value, *args))
            except (ExprError, ValueError) as exc:
                raise SysFileError(f"{self.where}:{lineno}: {exc}") from exc
        return out

    def finish(self) -> None:
        for key in self.values:
            raise self.error(f"unknown [{self.name}] key {key!r}", key)


def _split_sections(text: str, where: str) -> Dict[str, _Section]:
    sections: Dict[str, _Section] = {}
    current: Optional[_Section] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise SysFileError(f"{where}:{lineno}: empty section name")
            if name in sections:
                raise SysFileError(f"{where}:{lineno}: duplicate section [{name}]")
            if name not in _SECTIONS:
                raise SysFileError(f"{where}:{lineno}: unknown section [{name}]")
            current = sections[name] = _Section(where, name, lineno)
            lines, values = current.lines, current.values
            repeatable = _REPEATABLE.get(name)
            continue
        if current is None:
            raise SysFileError(f"{where}:{lineno}: content before any section")
        key, eq, value = line.partition("=")
        if not eq:
            raise SysFileError(f"{where}:{lineno}: expected 'key = value', "
                               f"got {line!r}")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise SysFileError(f"{where}:{lineno}: empty key or value")
        if key == repeatable:
            current.repeats.append((lineno, value))
        elif key in lines:
            what = "charge" if current.name == "charges" else "key"
            raise SysFileError(f"{where}:{lineno}: duplicate {what} {key!r} "
                               f"in [{current.name}]")
        else:
            lines[key] = lineno
            values[key] = value
    return sections


# converters for _Section.take: each raises ValueError or ExprError

def _number(text: str, kind=float):
    try:
        return kind(text)
    except ValueError:
        noun = "integer" if kind is int else "number"
        raise ValueError(f"bad {noun} {text!r}") from None


def _bounds(text: str) -> Tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected '<lo>, <hi>', got {text!r}")
    return _number(parts[0].strip()), _number(parts[1].strip())


def _guard(text: str, table: SymbolTable) -> Tuple[Expr, float, float]:
    expr_text, sep, bounds = text.rpartition(" in ")
    if not sep:
        raise ValueError("guard needs '<expr> in <lo>, <hi>'")
    expr_text = expr_text.strip()
    lo, hi = _bounds(bounds)
    if not lo < hi:
        raise ValueError(f"empty range for guard {expr_text!r}")
    return parse(expr_text, table), lo, hi


def _declare(tables, role: str, *names: str) -> None:
    for table in tables:
        for name in names:
            table.add(name, role)


def _coordinates(text: str, source, full) -> PhaseSpace:
    coords = tuple(c.strip() for c in text.split(","))
    if not all(coords):
        raise ValueError("bad coordinates list")
    space = PhaseSpace.from_coordinates(coords)
    _declare((source, full), "coordinate", *space.coordinates)
    _declare((full,), "momentum", *space.momenta)
    return space


def _parameter(text: str, name: str, tables) -> float:
    _declare(tables, "parameter", name)
    value = _number(text)
    if name == "hbar" and not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"hbar must be finite and > 0, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"parameter {name} must be finite, got {value!r}")
    return value


def _pair(text: str, full, target) -> Tuple[str, str]:
    coord, sep, mom = text.partition(":")
    coord, mom = coord.strip(), mom.strip()
    if not (sep and coord and mom):
        raise ValueError(f"expected '<coord> : <mom>', got {text!r}")
    # target holds only parameters and the pairs declared so far
    for name in (coord, mom):
        if name in target and target.role(name) != "parameter":
            raise ValueError(f"duplicate reduced pair: {name!r} is already "
                             f"paired")
    _declare((full, target), "coordinate", coord)
    _declare((full, target), "momentum", mom)
    return coord, mom


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def loads_model(text: str, name: str, path: Optional[str] = None) -> Model:
    """The Model of a .sys text, assembled once per process for each
    (text, name, path); a text that raises is not kept.  A text whose
    sections other than [lattice] and the [params] values match an
    assembled model's shares that model's symbolic records."""
    return _assemble(text, name, path)


@functools.lru_cache(maxsize=1 << 6)
def _assemble(text: str, name: str, path: Optional[str]) -> Model:
    where = path or f"<{name}>"
    sections = _split_sections(text, where)
    for sec in _REQUIRED_SECTIONS:
        if sec not in sections:
            raise SysFileError(f"{where}: missing required section [{sec}]")
    content = _Content(sections, name, path)
    model = _records(content)
    if content.sections is None:
        # a miss: the model was assembled from these very sections
        return model
    params = _read_params(sections["params"])
    return model.replace(name=name, path=path,
                         params=MappingProxyType(params),
                         lattice=_read_lattice(sections.get("lattice"),
                                               params))


class _Content:
    """The key of the symbolic records: every section but [lattice], with
    the names of [params] in file order but not their values.  It carries
    the split sections and the file's name and path for a miss to assemble
    from; the miss takes the sections, so a key left without them has
    just built its own model."""

    __slots__ = ("key", "hash", "sections", "name", "path")

    def __init__(self, sections: Dict[str, _Section], name: str,
                 path: Optional[str]):
        self.sections, self.name, self.path = sections, name, path
        key = []
        for sec in map(sections.get, _SYMBOLIC_SECTIONS):
            if sec is None:
                key.append(None)
            elif sec.name == "params":
                key.append(tuple(sec.values))    # the names, not the values
            else:
                key.append((tuple(sec.values.items()),
                            tuple([value for _, value in sec.repeats])))
        self.key = tuple(key)
        self.hash = hash(self.key)

    def __hash__(self):
        return self.hash

    def __eq__(self, other):
        return self.key == other.key


@functools.lru_cache(maxsize=1 << 6)
def _records(content: _Content) -> Model:
    sections, content.sections = content.sections, None
    return _build(sections, content.name, content.path)


def _read_params(par: _Section, tables=()) -> Dict[str, float]:
    """The [params] values in file order, each name declared in tables."""
    return {key: par.take(key, _parameter, key, tables)
            for key in tuple(par.values)}


def _read_lattice(lat: Optional[_Section],
                  params: Mapping[str, float]) -> Optional[LatticeConfig]:
    """The [lattice] settings, or None without the section."""
    if lat is None:
        return None
    mode = lat.take("mode", default="real")
    duration, other = (("beta", "time") if mode == "imaginary"
                       else ("time", "beta"))
    if "time" in lat.values and "beta" in lat.values:
        raise lat.error("[lattice] sets both time and beta", other)
    # a key the file leaves out keeps LatticeConfig's default
    settings = {
        "n": lat.take("n", _number, int, default=None),
        "length": lat.take("length", _number, default=None),
        "slices": lat.take("slices", _number, int, default=None),
        "duration": lat.take(duration, _number),
        "source_center": lat.take("source_center", _number, default=None),
        "source_sigma_cells": lat.take("source_sigma_cells", _number,
                                       default=None),
        "tolerance": lat.take("tolerance", _number, default=None),
    }
    try:
        lattice = LatticeConfig(
            mode=mode, hbar=params.get("hbar", 1.0),
            **{k: v for k, v in settings.items() if v is not None})
    except ValueError as exc:
        # the defaults are valid, so the rejected field is in the file
        message, field = exc.args
        key = duration if field == "duration" else field
        raise lat.error(f"bad [lattice] settings: {message}", key) from exc
    lat.finish()
    return lattice


def _build(sections: Dict[str, _Section], name: str,
           path: Optional[str]) -> Model:
    # symbol tables: source expressions see the source chart, target
    # (inverse map) expressions the [darboux] pairs, and full expressions
    # (guards, chi, [anomaly]) both charts.  Parameters precede the pairs,
    # so a pair named like one clashes at its own line.
    source, full, target = SymbolTable(), SymbolTable(), SymbolTable()
    sysec = sections["system"]
    space = sysec.take("coordinates", _coordinates, source, full,
                       missing="[system] needs a coordinates line")
    params = _read_params(sections["params"], (source, full, target))

    # --- [system] expressions, read before source declares the momenta, so
    # a momentum there is an unknown identifier
    potential = sysec.take("potential", parse, source, default=ZERO)
    velocities = tuple([sysec.take(f"f_{c}", parse, source,
                                   missing=f"[system] missing velocity f_{c}")
                        for c in space.coordinates])
    # full accepted these names at the coordinates line, so this cannot fail
    _declare((source,), "momentum", *space.momenta)
    sysec.finish()

    # --- [charges] and [rho]
    chsec = sections["charges"]
    charges = tuple([(key, chsec.take(key, parse, source))
                     for key in tuple(chsec.values)])
    rhosec = sections["rho"]
    rho_coeffs = []
    for key in tuple(rhosec.values):
        if key not in chsec.lines:
            raise rhosec.error(f"[rho] references unknown charge {key!r}", key)
        rho_coeffs.append((key, rhosec.take(key, parse, source)))
    if not rho_coeffs:
        raise rhosec.error("[rho] needs a coefficient for at least one charge")

    # --- [darboux] pairs, before guards and chi mention the targets
    dar = sections["darboux"]
    pairs = tuple(dar.take_repeats(_pair, full, target))
    if not pairs:
        raise dar.error("[darboux] needs a reduced pair line")
    gauge = dar.take("gauge", _pair, full, target,
                     missing="[darboux] needs a gauge pair line")

    # --- [domain]
    dom = sections["domain"]
    guards = tuple(dom.take_repeats(_guard, full))
    for v in space.xi:
        if v not in dom.values:
            raise dom.error(f"[domain] missing a range for {v!r}")
    ranges = []
    for key in tuple(dom.values):
        if key not in full:
            raise dom.error(f"[domain] range for undeclared symbol {key!r}",
                            key)
        lo, hi = dom.take(key, _bounds)
        if not lo < hi:
            raise dom.error(f"empty range for {key!r}", key)
        if not math.isfinite(hi - lo):
            raise dom.error(f"range for {key!r} needs finite bounds and a "
                            f"finite width, got {lo!r}, {hi!r}", key)
        ranges.append((key, lo, hi))
    chart = SampleDomain(ranges=tuple(ranges), guards=guards)

    system = FlowSystem(space=space, velocities=velocities, charges=charges,
                        rho_coefficients=tuple(rho_coeffs), chart=chart,
                        potential=potential)

    # --- [darboux] expressions
    targets = [m for _, m in pairs] + [c for c, _ in pairs] + list(gauge)
    forward, inverse = [], []
    for t in targets:
        missing = f"[darboux] missing forward expression for {t!r}"
        forward.append((t, dar.take(t, parse, source, missing=missing)))
    for v in space.xi:
        missing = f"[darboux] missing inverse expression inv_{v}"
        inverse.append((v, dar.take(f"inv_{v}", parse, target,
                                    missing=missing)))
    dar.finish()
    darboux = CanonicalMap(pairs=pairs, gauge=gauge, forward=tuple(forward),
                           inverse=tuple(inverse))

    # --- [constraint]
    con = sections["constraint"]
    phi = con.take("phi", parse, source)
    eliminated = con.take("eliminate")
    if eliminated not in space.xi:
        raise con.error(f"eliminate target {eliminated!r} is not a "
                        f"phase-space variable", "eliminate")
    solution = con.take("solution", parse, source)
    chi = con.take("chi", parse, full, default=None)
    if chi is not None:
        # chi may be written over the target chart; push it back to the
        # source chart through the forward map
        chi = substitute(chi, dict(forward))
    con.finish()
    constraint = ConstraintSpec(phi=phi, eliminated=eliminated,
                                solution=solution, chi=chi)

    # --- [lattice]
    lattice = _read_lattice(sections.get("lattice"), params)

    # --- [anomaly]
    generating_function = reference_A_z = sliced_refs = None
    an = sections.get("anomaly")
    if an is not None:
        F = an.take("F", parse, full, default=None)
        reference_A_z = an.take("reference_A_z", parse, full, default=None)
        present = [k for k in _SLICED_KEYS if k in an.values]
        if present and len(present) != len(_SLICED_KEYS):
            raise an.error(f"sliced reference data needs all of "
                           f"{', '.join(_SLICED_KEYS)}", present[0])
        if present:
            sliced_refs = tuple([an.take(k, parse, full)
                                 for k in _SLICED_KEYS])
        an.finish()
        if F is not None:
            try:
                generating_function = GeneratingFunction.for_chart(
                    F, space, darboux)
                # raises for a non-quadratic F without reference_A_z
                anomaly_coefficients(generating_function, reference_A_z)
            except ExprError as exc:
                raise an.error(exc, "F") from exc

    return Model(name=name, system=system, constraint=constraint,
                 darboux=darboux, params=MappingProxyType(params),
                 lattice=lattice,
                 generating_function=generating_function,
                 reference_A_z=reference_A_z,
                 symbols=full, sliced_refs=sliced_refs, path=path)


def load_model(path: str) -> Model:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        # a leading byte-order mark is dropped, as editors write one
        text = data.decode("utf-8-sig")
    except OSError as exc:
        raise SysFileError(f"{path}: cannot read: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        # exc.start counts from after a dropped byte-order mark
        start = exc.start + len(data) - len(exc.object)
        line = data.count(b"\n", 0, start) + 1
        raise SysFileError(f"{path}:{line}: not UTF-8 text") from exc
    name = path.rsplit("/", 1)[-1]
    if name.endswith(".sys"):
        name = name[:-4]
    return loads_model(text, name=name, path=path)


def bundled_names() -> Tuple[str, ...]:
    return BUNDLED


def bundled_text(name: str) -> str:
    if name not in BUNDLED:
        raise KeyError(f"no bundled system named {name!r}")
    return resources.files("emq").joinpath("data", f"{name}.sys").read_text()


def load_bundled(name: str) -> Model:
    return loads_model(bundled_text(name), name=name,
                       path=f"emq/data/{name}.sys")
