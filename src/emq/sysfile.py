"""Loader for the .sys model format.

A .sys file is a line-oriented INI-like description of one momentum-linear
system together with its constraint, its Darboux chart, sampling ranges,
lattice settings and generating-function data.  Sections:

  [system]      coordinates = x, y ; one f_<name> velocity per coordinate;
                optional momentum-free potential
  [charges]     named conserved combinations
  [rho]         coefficient expression per selected charge
  [params]      numeric parameter values used by the lattice layer
  [constraint]  phi, eliminate, solution, optional chi
  [darboux]     reduced = <coord> : <mom> (repeatable), gauge = <coord> : <mom>,
                one forward expression per target name, one inv_<name> per
                source variable
  [domain]      sampling ranges per symbol plus repeatable
                guard = <expr> in <lo>, <hi> lines
  [lattice]     optional; grid, slicing and tolerance settings
  [anomaly]     optional; F = generating function, reference_A_z = printed
                drift form kept as cross-check data

'#' starts a comment.  All expressions are parsed against a declared-symbol
table, so a typo fails at load time with a file:line position rather than
during a numeric sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Dict, List, Optional, Tuple

from .expr import (Expr, ExprError, SampleDomain, SymbolTable, ZERO, parse,
                   substitute)
from .symplectic import FlowSystem, PhaseSpace, StructureError
from .reduction import CanonicalMap, ConstraintSpec
from .pathint import LatticeConfig

__all__ = ["SysFileError", "Model", "load_model", "loads_model",
           "load_bundled", "bundled_names", "bundled_text"]

BUNDLED = ("free_particle", "harmonic", "free_particle_lambda")

_REQUIRED_SECTIONS = ("system", "charges", "rho", "params", "constraint",
                      "darboux", "domain")
_OPTIONAL_SECTIONS = ("lattice", "anomaly")

_LATTICE_KEYS = {"mode", "n", "length", "slices", "time", "beta",
                 "source_center", "source_sigma_cells", "tolerance"}


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
# low-level reading
# ---------------------------------------------------------------------------

def _split_sections(text: str, where: str):
    """-> ordered {section: [(lineno, key, value), ...]}"""
    sections: Dict[str, List[Tuple[int, str, str]]] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise SysFileError(f"{where}:{lineno}: empty section name")
            if name in sections:
                raise SysFileError(f"{where}:{lineno}: duplicate section [{name}]")
            sections[name] = []
            current = name
            continue
        if current is None:
            raise SysFileError(f"{where}:{lineno}: content before any section")
        if "=" not in line:
            raise SysFileError(f"{where}:{lineno}: expected 'key = value', "
                               f"got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise SysFileError(f"{where}:{lineno}: empty key or value")
        sections[current].append((lineno, key, value))
    return sections


def _as_map(entries, where, section, repeatable=()):
    out: Dict[str, Tuple[int, str]] = {}
    repeats: Dict[str, List[Tuple[int, str]]] = {k: [] for k in repeatable}
    for lineno, key, value in entries:
        if key in repeats:
            repeats[key].append((lineno, value))
            continue
        if key in out:
            raise SysFileError(f"{where}:{lineno}: duplicate key {key!r} "
                               f"in [{section}]")
        out[key] = (lineno, value)
    return out, repeats


def _parse_expr(text: str, table: SymbolTable, where: str, lineno: int) -> Expr:
    try:
        return parse(text, table)
    except ExprError as exc:
        # parse errors and constant folds such as 1/(x - x) alike
        raise SysFileError(f"{where}:{lineno}: {exc}") from exc


def _require_momentum_free(e: Expr, space: PhaseSpace, what: str, where: str,
                           lineno: int) -> None:
    """The [system] rule FlowSystem enforces, reported at its line."""
    found = sorted(e.free_symbols() & set(space.momenta))
    if found:
        raise SysFileError(f"{where}:{lineno}: {what} = {e} depends on "
                           f"momentum {', '.join(found)}")


def _parse_float(text: str, where: str, lineno: int) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise SysFileError(f"{where}:{lineno}: bad number {text!r}") from exc


def _parse_int(text: str, where: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise SysFileError(f"{where}:{lineno}: bad integer {text!r}") from exc


def _register(table: SymbolTable, name: str, role: str, where: str,
              lineno: int) -> None:
    # a bad identifier, a function name or a role clash is the file's fault
    try:
        table.add(name, role)
    except ValueError as exc:
        raise SysFileError(f"{where}:{lineno}: {exc}") from exc


def _split_pair(value: str, where: str, lineno: int) -> Tuple[str, str]:
    if ":" not in value:
        raise SysFileError(f"{where}:{lineno}: expected '<coord> : <mom>', "
                           f"got {value!r}")
    left, right = value.split(":", 1)
    left, right = left.strip(), right.strip()
    if not left or not right:
        raise SysFileError(f"{where}:{lineno}: expected '<coord> : <mom>', "
                           f"got {value!r}")
    return left, right


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def loads_model(text: str, name: str, path: Optional[str] = None) -> Model:
    where = path or f"<{name}>"
    sections = _split_sections(text, where)
    for sec in _REQUIRED_SECTIONS:
        if sec not in sections:
            raise SysFileError(f"{where}: missing required section [{sec}]")
    for sec in sections:
        if sec not in _REQUIRED_SECTIONS + _OPTIONAL_SECTIONS:
            raise SysFileError(f"{where}: unknown section [{sec}]")

    # --- [params]: names first, so expressions can reference them
    params_map, _ = _as_map(sections["params"], where, "params")
    params: Dict[str, float] = {}
    for key, (lineno, value) in params_map.items():
        params[key] = _parse_float(value, where, lineno)

    # --- [system]
    system_map, _ = _as_map(sections["system"], where, "system")
    if "coordinates" not in system_map:
        raise SysFileError(f"{where}: [system] needs a coordinates line")
    coord_line, coord_value = system_map.pop("coordinates")
    coords = tuple(c.strip() for c in coord_value.split(","))
    if any(not c for c in coords):
        raise SysFileError(f"{where}:{coord_line}: bad coordinates list")
    try:
        space = PhaseSpace.from_coordinates(coords)
    except StructureError as exc:
        raise SysFileError(f"{where}:{coord_line}: {exc}") from exc

    source_table = SymbolTable()
    for c in space.coordinates:
        _register(source_table, c, "coordinate", where, coord_line)
    for m in space.momenta:
        _register(source_table, m, "momentum", where, coord_line)
    for p, (lineno, _) in params_map.items():
        _register(source_table, p, "parameter", where, lineno)

    potential = None
    if "potential" in system_map:
        lineno, value = system_map.pop("potential")
        potential = _parse_expr(value, source_table, where, lineno)
        _require_momentum_free(potential, space, "potential", where, lineno)

    velocities = []
    for c in coords:
        key = f"f_{c}"
        if key not in system_map:
            raise SysFileError(f"{where}: [system] missing velocity {key}")
        lineno, value = system_map.pop(key)
        velocity = _parse_expr(value, source_table, where, lineno)
        _require_momentum_free(velocity, space, f"velocity {key}", where, lineno)
        velocities.append(velocity)
    if system_map:
        stray = next(iter(system_map))
        raise SysFileError(f"{where}:{system_map[stray][0]}: unknown [system] "
                           f"key {stray!r}")

    # --- [charges]
    charges = []
    seen = set()
    for lineno, key, value in sections["charges"]:
        if key in seen:
            raise SysFileError(f"{where}:{lineno}: duplicate charge {key!r}")
        seen.add(key)
        charges.append((key, _parse_expr(value, source_table, where, lineno)))

    # --- [rho]
    rho_coeffs = []
    for lineno, key, value in sections["rho"]:
        if key not in seen:
            raise SysFileError(f"{where}:{lineno}: [rho] references unknown "
                               f"charge {key!r}")
        rho_coeffs.append((key, _parse_expr(value, source_table, where, lineno)))

    # --- [domain]
    dom_map, dom_rep = _as_map(sections["domain"], where, "domain",
                               repeatable=("guard",))
    ranges = []
    range_names = set()
    for key, (lineno, value) in dom_map.items():
        parts = [p.strip() for p in value.split(",")]
        if len(parts) != 2:
            raise SysFileError(f"{where}:{lineno}: range needs 'lo, hi'")
        lo = _parse_float(parts[0], where, lineno)
        hi = _parse_float(parts[1], where, lineno)
        if not lo < hi:
            raise SysFileError(f"{where}:{lineno}: empty range for {key!r}")
        ranges.append((key, lo, hi))
        range_names.add(key)

    # table covering both source and target space for guard/chi parsing
    full_table = SymbolTable()
    for c in space.coordinates:
        full_table.add(c, "coordinate")
    for m in space.momenta:
        full_table.add(m, "momentum")
    for p in params:
        full_table.add(p, "parameter")

    # --- [darboux] roles must be known before guards mention targets
    dar_map, dar_rep = _as_map(sections["darboux"], where, "darboux",
                               repeatable=("reduced",))
    if not dar_rep["reduced"]:
        raise SysFileError(f"{where}: [darboux] needs a reduced pair line")
    pairs = []
    for lineno, value in dar_rep["reduced"]:
        coord, mom = _split_pair(value, where, lineno)
        pairs.append((coord, mom))
        _register(full_table, coord, "coordinate", where, lineno)
        _register(full_table, mom, "momentum", where, lineno)
    if "gauge" not in dar_map:
        raise SysFileError(f"{where}: [darboux] needs a gauge pair line")
    g_lineno, g_value = dar_map.pop("gauge")
    gauge = _split_pair(g_value, where, g_lineno)
    _register(full_table, gauge[0], "coordinate", where, g_lineno)
    _register(full_table, gauge[1], "momentum", where, g_lineno)

    guards = []
    for lineno, value in dom_rep["guard"]:
        if " in " not in value:
            raise SysFileError(f"{where}:{lineno}: guard needs "
                               f"'<expr> in <lo>, <hi>'")
        expr_text, bounds = value.rsplit(" in ", 1)
        parts = [p.strip() for p in bounds.split(",")]
        if len(parts) != 2:
            raise SysFileError(f"{where}:{lineno}: guard bounds need 'lo, hi'")
        guard_expr = _parse_expr(expr_text.strip(), full_table, where, lineno)
        guards.append((guard_expr,
                       _parse_float(parts[0], where, lineno),
                       _parse_float(parts[1], where, lineno)))

    chart = SampleDomain(ranges=tuple(ranges), guards=tuple(guards))
    for v in space.xi:
        if v not in range_names:
            raise SysFileError(f"{where}: [domain] missing a range for {v!r}")
    for key in range_names:
        if key not in full_table:
            raise SysFileError(f"{where}: [domain] range for undeclared "
                               f"symbol {key!r}")

    system = FlowSystem(space=space, velocities=tuple(velocities),
                         charges=tuple(charges),
                         rho_coefficients=tuple(rho_coeffs), chart=chart,
                         potential=potential if potential is not None else ZERO,
                         parameters=tuple(params))

    # --- [darboux] expressions
    target_names = tuple(m for _, m in pairs) + tuple(c for c, _ in pairs) \
        + (gauge[0], gauge[1])
    forward = []
    for t in target_names:
        if t not in dar_map:
            raise SysFileError(f"{where}: [darboux] missing forward "
                               f"expression for {t!r}")
        lineno, value = dar_map.pop(t)
        forward.append((t, _parse_expr(value, source_table, where, lineno)))

    target_table = SymbolTable()
    for c, m in pairs:
        target_table.add(c, "coordinate")
        target_table.add(m, "momentum")
    target_table.add(gauge[0], "coordinate")
    target_table.add(gauge[1], "momentum")
    for p in params:
        target_table.add(p, "parameter")

    inverse = []
    for v in space.xi:
        key = f"inv_{v}"
        if key not in dar_map:
            raise SysFileError(f"{where}: [darboux] missing inverse "
                               f"expression {key}")
        lineno, value = dar_map.pop(key)
        inverse.append((v, _parse_expr(value, target_table, where, lineno)))
    if dar_map:
        stray = next(iter(dar_map))
        raise SysFileError(f"{where}:{dar_map[stray][0]}: unknown [darboux] "
                           f"key {stray!r}")

    darboux = CanonicalMap(pairs=tuple(pairs), gauge=gauge,
                           forward=tuple(forward), inverse=tuple(inverse))

    # --- [constraint]
    con_map, _ = _as_map(sections["constraint"], where, "constraint")
    for req in ("phi", "eliminate", "solution"):
        if req not in con_map:
            raise SysFileError(f"{where}: [constraint] missing {req}")
    phi_line, phi_value = con_map.pop("phi")
    phi = _parse_expr(phi_value, source_table, where, phi_line)
    el_line, eliminated = con_map.pop("eliminate")
    if eliminated not in space.xi:
        raise SysFileError(f"{where}:{el_line}: eliminate target "
                           f"{eliminated!r} is not a phase-space variable")
    sol_line, sol_value = con_map.pop("solution")
    solution = _parse_expr(sol_value, source_table, where, sol_line)
    chi = None
    if "chi" in con_map:
        chi_line, chi_value = con_map.pop("chi")
        chi_expr = _parse_expr(chi_value, full_table, where, chi_line)
        # chi may be written over the target chart; push it back to the
        # source chart through the forward map
        chi = substitute(chi_expr, dict(darboux.forward))
    if con_map:
        stray = next(iter(con_map))
        raise SysFileError(f"{where}:{con_map[stray][0]}: unknown "
                           f"[constraint] key {stray!r}")
    constraint = ConstraintSpec(phi=phi, eliminated=eliminated,
                                solution=solution, chi=chi)

    # --- [lattice]
    lattice = None
    if "lattice" in sections:
        lat_map, _ = _as_map(sections["lattice"], where, "lattice")
        for key, (lineno, _v) in lat_map.items():
            if key not in _LATTICE_KEYS:
                raise SysFileError(f"{where}:{lineno}: unknown [lattice] "
                                   f"key {key!r}")
        def lat(key, default, convert):
            # each value is read, and reported, at its own line
            if key not in lat_map:
                return default
            lineno, value = lat_map[key]
            return convert(value, where, lineno)
        mode = lat_map.get("mode", (0, "real"))[1]
        if "time" in lat_map and "beta" in lat_map:
            raise SysFileError(f"{where}: [lattice] sets both time and beta")
        dur_key = "beta" if mode == "imaginary" else "time"
        if dur_key not in lat_map:
            raise SysFileError(f"{where}: [lattice] missing {dur_key}")
        try:
            lattice = LatticeConfig(
                mode=mode,
                n=lat("n", 256, _parse_int),
                length=lat("length", 16.0, _parse_float),
                slices=lat("slices", 128, _parse_int),
                duration=lat(dur_key, None, _parse_float),
                hbar=params.get("hbar", 1.0),
                source_center=lat("source_center", 0.0, _parse_float),
                source_sigma_cells=lat("source_sigma_cells", 6.0,
                                       _parse_float),
                tolerance=lat("tolerance", 1e-4, _parse_float),
            )
        except ValueError as exc:
            # the defaults are valid, so the rejected field is in the file
            message, key = exc.args
            raise SysFileError(f"{where}:{lat_map[key][0]}: bad [lattice] "
                               f"settings: {message}") from exc

    # --- [anomaly]
    anomaly_F = None
    reference_A_z = None
    sliced_refs = None
    if "anomaly" in sections:
        an_map, _ = _as_map(sections["anomaly"], where, "anomaly")
        if "F" in an_map:
            lineno, value = an_map.pop("F")
            anomaly_F = _parse_expr(value, full_table, where, lineno)
        if "reference_A_z" in an_map:
            lineno, value = an_map.pop("reference_A_z")
            reference_A_z = _parse_expr(value, full_table, where, lineno)
        sliced_keys = ("sliced_constant", "sliced_delta_p", "sliced_delta_q")
        present = [k for k in sliced_keys if k in an_map]
        if present and len(present) != len(sliced_keys):
            lineno = an_map[present[0]][0]
            raise SysFileError(f"{where}:{lineno}: sliced reference data needs "
                               f"all of {', '.join(sliced_keys)}")
        if present:
            parsed = []
            for key in sliced_keys:
                lineno, value = an_map.pop(key)
                parsed.append(_parse_expr(value, full_table, where, lineno))
            sliced_refs = tuple(parsed)
        if an_map:
            stray = next(iter(an_map))
            raise SysFileError(f"{where}:{an_map[stray][0]}: unknown "
                               f"[anomaly] key {stray!r}")

    return Model(name=name, system=system, constraint=constraint,
                 darboux=darboux, params=params, lattice=lattice,
                 anomaly_F=anomaly_F, reference_A_z=reference_A_z,
                 symbols=full_table, sliced_refs=sliced_refs, path=path)


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
