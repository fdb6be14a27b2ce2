"""Loader for the .sys model format.

A .sys file is a line-oriented INI-like description of one momentum-linear
system together with its constraint, its Darboux chart, sampling ranges,
lattice settings and generating-function data.  Sections:

  [system]      coordinates = x, y ; one f_<name> velocity per coordinate;
                optional momentum-free potential
  [charges]     named conserved combinations
  [rho]         coefficient expression per selected charge
  [params]      numeric parameter values used by the lattice layer; hbar,
                if set, must be finite and > 0
  [constraint]  phi, eliminate, solution, optional chi
  [darboux]     reduced = <coord> : <mom> (repeatable), gauge = <coord> : <mom>,
                one forward expression per target name, one inv_<name> per
                source variable
  [domain]      sampling ranges per symbol plus repeatable
                guard = <expr> in <lo>, <hi> lines
  [lattice]     optional; grid, slicing and tolerance settings, each
                checked by LatticeConfig
  [anomaly]     optional; F = generating function, reference_A_z = printed
                drift form kept as cross-check data

'#' starts a comment.  All expressions are parsed against a declared-symbol
table, so a typo fails at load time with a file:line position rather than
during a numeric sweep.  Every load error names a line: a bad value or an
unknown or repeated key its own, a missing key its section's header, and
only a missing required section, which has no line, names the section.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from typing import Dict, List, Optional, Tuple

from .expr import (Expr, ExprError, SampleDomain, SymbolTable, ZERO, parse,
                   substitute)
from .symplectic import FlowSystem, PhaseSpace
from .reduction import CanonicalMap, ConstraintSpec
from .pathint import LatticeConfig

__all__ = ["SysFileError", "Model", "load_model", "loads_model",
           "load_bundled", "bundled_names", "bundled_text"]

BUNDLED = ("free_particle", "harmonic", "free_particle_lambda")

_REQUIRED_SECTIONS = ("system", "charges", "rho", "params", "constraint",
                      "darboux", "domain")
_SECTIONS = frozenset(_REQUIRED_SECTIONS + ("lattice", "anomaly"))
# the one key of a section that may appear on several lines
_REPEATABLE = {"darboux": "reduced", "domain": "guard"}
_SLICED_KEYS = ("sliced_constant", "sliced_delta_p", "sliced_delta_q")
_REQUIRED = object()


class SysFileError(Exception):
    """Malformed .sys content; message carries file:line context."""


@dataclass(frozen=True)
class Model:
    """One fully wired system: dynamics, constraint, chart and settings."""

    name: str
    system: FlowSystem
    constraint: ConstraintSpec
    darboux: CanonicalMap
    params: Dict[str, float]
    lattice: Optional[LatticeConfig]
    anomaly_F: Optional[Expr]
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
    where = path or f"<{name}>"
    sections = _split_sections(text, where)
    for sec in _REQUIRED_SECTIONS:
        if sec not in sections:
            raise SysFileError(f"{where}: missing required section [{sec}]")

    # symbol tables: source expressions see the source chart, target
    # (inverse map) expressions the [darboux] pairs, and full expressions
    # (guards, chi, [anomaly]) both charts.  Parameters precede the pairs,
    # so a pair named like one clashes at its own line.
    source, full, target = SymbolTable(), SymbolTable(), SymbolTable()
    sysec = sections["system"]
    space = sysec.take("coordinates", _coordinates, source, full,
                       missing="[system] needs a coordinates line")
    par = sections["params"]
    params = {key: par.take(key, _parameter, key, (source, full, target))
              for key in tuple(par.values)}

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
        ranges.append((key, lo, hi))
    chart = SampleDomain(ranges=tuple(ranges), guards=guards)

    system = FlowSystem(space=space, velocities=velocities, charges=charges,
                        rho_coefficients=tuple(rho_coeffs), chart=chart,
                        potential=potential, parameters=tuple(params))

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
    lattice = None
    lat = sections.get("lattice")
    if lat is not None:
        mode = lat.take("mode", default="real")
        duration, other = (("beta", "time") if mode == "imaginary"
                           else ("time", "beta"))
        if "time" in lat.values and "beta" in lat.values:
            raise lat.error("[lattice] sets both time and beta", other)
        try:
            lattice = LatticeConfig(
                mode=mode,
                n=lat.take("n", _number, int, default=256),
                length=lat.take("length", _number, default=16.0),
                slices=lat.take("slices", _number, int, default=128),
                duration=lat.take(duration, _number),
                hbar=params.get("hbar", 1.0),
                source_center=lat.take("source_center", _number, default=0.0),
                source_sigma_cells=lat.take("source_sigma_cells", _number,
                                            default=6.0),
                tolerance=lat.take("tolerance", _number, default=1e-4),
            )
        except ValueError as exc:
            # the defaults are valid, so the rejected field is in the file
            message, field = exc.args
            key = duration if field == "duration" else field
            raise lat.error(f"bad [lattice] settings: {message}", key) from exc
        lat.finish()

    # --- [anomaly]
    anomaly_F = reference_A_z = sliced_refs = None
    an = sections.get("anomaly")
    if an is not None:
        anomaly_F = an.take("F", parse, full, default=None)
        reference_A_z = an.take("reference_A_z", parse, full, default=None)
        present = [k for k in _SLICED_KEYS if k in an.values]
        if present and len(present) != len(_SLICED_KEYS):
            raise an.error(f"sliced reference data needs all of "
                           f"{', '.join(_SLICED_KEYS)}", present[0])
        if present:
            sliced_refs = tuple([an.take(k, parse, full)
                                 for k in _SLICED_KEYS])
        an.finish()

    return Model(name=name, system=system, constraint=constraint,
                 darboux=darboux, params=params, lattice=lattice,
                 anomaly_F=anomaly_F, reference_A_z=reference_A_z,
                 symbols=full, sliced_refs=sliced_refs, path=path)


def load_model(path: str) -> Model:
    with open(path, "r") as fh:
        text = fh.read()
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
