"""Expected verdicts, written by hand, and independent arithmetic checks.

The table is taken from the README and the acceptance claims, not recorded
from the program's output.  Each row gives the exit code and the ``ok`` flag
of every check the claims name; a report must carry each listed check with
that flag.  Checks the report adds beyond the list are covered by the exit
code.  Three checks are left out of the lists on purpose: "rho conserved
along the flow" is reported as a constant, and "sliced measure exponentiates
on the gauge surface" and "off-surface deviation is second order" do not
read the model, so no claim about a model rests on them.

Negative cases are genuine verdicts.  The harmonic file with the zeta sign
flipped must fail the bracket table naming {p_zeta, zeta}; a file with an
undeclared identifier must exit 2 with file:line; ``propagate
free_particle_lambda`` exits 1 with CoverageError, because its bundled grid
covers 6.2 of the 8 envelope widths the reference needs.

On top of the verdicts the benchmark checks the numbers with its own
arithmetic, never calling ``emq.expr.evaluate``: H* printed by ``reduce``
against the README closed forms at sampled points, the partition value
against 1/(2 sinh(beta/2)), and the classical determinant against
sin(omega T)/omega.
"""

from __future__ import annotations

import ast
import math
import operator
import random
from typing import Dict, List

_CHARGES_2 = {"charge C1 conserved": True, "charge C2 conserved": True}
_STRUCTURE = {
    "constraint solution solves phi = 0": True,
    "H_plus - H_minus reproduces H": True,
    "both halves nonnegative on the chart": True,
    "canonical bracket table": True,
    "gauge pair second class": True,
    "constrained chart volume constant": True,
}
_RELATIONS = {f"relation for {v} consistent with the chart": True
              for v in ("x", "y", "p_zeta", "p_z")}
_SURFACE = {f"{c} vanishes on the gauge surface": True
            for c in ("A_zeta", "A_z", "B_zeta", "B_z")}
_PIPELINE = {"reduction pipeline": True}
_LATTICE_OK = {"reduction pipeline": True, "lattice propagation": True}

EXPECTED: Dict[str, dict] = {
    "verify:free_particle": {"exit": 0, "checks": {**_STRUCTURE, **_CHARGES_2}},
    "verify:harmonic": {"exit": 0, "checks": {**_STRUCTURE, **_CHARGES_2}},
    "verify:free_particle_lambda": {
        "exit": 0, "checks": {**_STRUCTURE, "charge C1 conserved": True}},
    "verify:harmonic_zeta_flipped": {
        "exit": 1,
        "checks": {**_STRUCTURE, **_CHARGES_2,
                   "canonical bracket table": False},
        "detail": {"canonical bracket table": "{p_zeta, zeta}"}},
    "verify:unknown_identifier": {"exit": 2, "checks": {}},
    "reduce:free_particle": {"exit": 0, "checks": _PIPELINE,
                             "h_star": "free_particle"},
    "reduce:harmonic": {"exit": 0, "checks": _PIPELINE, "h_star": "harmonic"},
    "reduce:free_particle_lambda": {"exit": 0, "checks": _PIPELINE,
                                    "h_star": "free_particle_lambda"},
    "propagate:free_particle": {
        "exit": 0,
        "checks": {**_LATTICE_OK, "error within declared tolerance": True},
        "real": {"a1": 0.5, "n": 1024, "length": 40.0, "sigma_cells": 6.0,
                 "tolerance": 1e-4}},
    "propagate:harmonic": {
        "exit": 0,
        "checks": {**_LATTICE_OK, "error within declared tolerance": True},
        "partition": {"beta": 1.0, "tolerance": 1e-3}},
    "propagate:free_particle_lambda": {
        "exit": 1,
        "checks": {"reduction pipeline": True, "lattice propagation": False},
        "detail": {"lattice propagation": "CoverageError"}},
    "propagate:harmonic_imaginary": {
        "exit": 0,
        "checks": {**_LATTICE_OK, "error within declared tolerance": True},
        "partition": "context"},
    "propagate:free_particle_real": {
        "exit": 0,
        "checks": {**_LATTICE_OK, "error within declared tolerance": True},
        "real": "context"},
    "propagate:classical": {"exit": 0, "checks": _LATTICE_OK,
                            "determinant": "context"},
    "anomaly:free_particle": {
        "exit": 0,
        "checks": {**_RELATIONS, **_SURFACE,
                   "gauge-coordinate coefficient nonzero off the surface":
                       True}},
    "anomaly:harmonic": {
        "exit": 0,
        "checks": {**_RELATIONS, **_SURFACE,
                   "all coefficients vanish identically": True,
                   "sliced expansion constant matches reference": True,
                   "sliced expansion momentum_shift matches reference": True,
                   "sliced expansion coordinate_shift matches reference": True,
                   "correction contribution scales as width^1.5": True}},
    "anomaly:free_particle_lambda": {
        "exit": 0,
        "checks": {**_RELATIONS, **_SURFACE,
                   "gauge-coordinate coefficient nonzero off the surface":
                       True}},
    # acceptance criterion 09: variance within 5 percent, slopes near 1/2, 1
    "paths:brownian": {"exit": 0, "variance_rel_tol": 0.05},
    "paths:holder": {"exit": 0, "quantum_slope": (0.5, 0.06),
                     "classical_slope": (1.0, 0.05)},
}

# README closed forms for H*(zeta, p_zeta)
CLOSED_FORMS = {
    "free_particle": lambda v: v["a1"] * v["p_zeta"] ** 2,
    "harmonic": lambda v: (v["p_zeta"] ** 2 / (2.0 * v["a1"])
                           + v["a1"] / 2.0 * v["zeta"] ** 2),
    "free_particle_lambda": lambda v: (v["a1"] + v["lam"]) * v["p_zeta"] ** 2,
}
_POINT_RANGES = {"zeta": (-2.0, 2.0), "p_zeta": (0.5, 3.0), "a1": (0.4, 1.6),
                 "lam": (0.05, 0.6), "alpha": (0.25, 0.85)}


# ---------------------------------------------------------------------------
# independent evaluation of printed expressions
# ---------------------------------------------------------------------------

_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv,
           ast.Pow: operator.pow}
_FUNCS = {"sqrt": math.sqrt, "sin": math.sin, "cos": math.cos,
          "atan2": math.atan2}


def eval_printed(text: str, env: Dict[str, float]) -> float:
    """Evaluate emq's printed infix form with Python floats."""
    tree = ast.parse(text.replace("^", "**"), mode="eval")

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value,
                                                         (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name):
            return float(env[node.id])
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return _BINOPS[type(node.op)](ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in _FUNCS:
            return _FUNCS[node.func.id](*(ev(a) for a in node.args))
        raise ValueError(f"unexpected syntax in {text!r}")

    return ev(tree)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# verdict checking
# ---------------------------------------------------------------------------

def check(job, outcome: dict, table: Dict[str, dict] = EXPECTED) -> List[str]:
    """Mismatches between one job's outcome and the expected table."""
    try:
        return _check(job, outcome, table[job.expect])
    except (KeyError, TypeError) as exc:
        return [f"report lacks an expected field: {exc!r}"]


def _check(job, outcome: dict, want: dict) -> List[str]:
    if outcome.get("crash"):
        return [f"crashed: {outcome['crash'].strip().splitlines()[-1]}"]
    problems = []
    if outcome["exit"] != want["exit"]:
        problems.append(f"exit {outcome['exit']}, expected {want['exit']}")
    if job.kind == "paths":
        return problems + _check_paths(job, outcome["result"], want)
    if want["exit"] == 2:
        where = f"{job.context['path']}:{job.context['line']}:"
        if where not in outcome.get("stderr", ""):
            problems.append(f"exit-2 message lacks {where}")
        return problems
    report = outcome.get("report")
    if report is None:
        return problems + ["no JSON report"]
    got = {c["name"]: c for c in report["checks"]}
    for name, ok in want["checks"].items():
        if name not in got:
            problems.append(f"check {name!r} missing")
        elif got[name]["ok"] != ok:
            problems.append(f"check {name!r} ok={got[name]['ok']}, "
                            f"expected {ok}")
    for name, needle in want.get("detail", {}).items():
        if name in got and needle not in got[name]["detail"]:
            problems.append(f"check {name!r} detail lacks {needle!r}")
    if "h_star" in want:
        problems += _check_h_star(report, want["h_star"], job.context["seed"])
    if "partition" in want:
        spec = job.context if want["partition"] == "context" \
            else want["partition"]
        problems += _check_partition(report["metrics"], spec)
    if "real" in want:
        spec = job.context if want["real"] == "context" else want["real"]
        problems += _check_real(report["metrics"], spec)
    if "determinant" in want:
        problems += _check_determinant(report["metrics"], job.context)
    return problems


def _check_h_star(report: dict, model: str, seed: int) -> List[str]:
    prefix = "reduced hamiltonian: "
    notes = [n[len(prefix):] for n in report["notes"] if n.startswith(prefix)]
    if len(notes) != 1:
        return ["no reduced hamiltonian in the report"]
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(16):
        point = {k: rng.uniform(lo, hi) for k, (lo, hi) in _POINT_RANGES.items()}
        try:
            got = eval_printed(notes[0], point)
        except (KeyError, ValueError, ZeroDivisionError) as exc:
            return [f"H* {notes[0]!r} not evaluable: {exc!r}"]
        worst = max(worst, _rel(got, CLOSED_FORMS[model](point)))
    # acceptance: closed-form H* at 1e-10
    if worst > 1e-10:
        return [f"H* {notes[0]!r} off the closed form by {worst:.2e}"]
    return []


def _check_partition(metrics: dict, spec: dict) -> List[str]:
    z_ref = 1.0 / (2.0 * math.sinh(spec["beta"] / 2.0))
    problems = []
    if _rel(metrics["partition_ref"], z_ref) > 1e-12:
        problems.append(f"partition_ref {metrics['partition_ref']!r} "
                        f"!= {z_ref!r}")
    err = _rel(metrics["partition_value"], z_ref)
    if err > spec["tolerance"]:
        problems.append(f"partition value off 1/(2 sinh(beta/2)) by {err:.2e}")
    return problems


def _check_real(metrics: dict, spec: dict) -> List[str]:
    problems = []
    sigma = spec["sigma_cells"] * spec["length"] / spec["n"]
    if _rel(metrics["sigma"], sigma) > 1e-12:
        problems.append(f"source width {metrics['sigma']!r} != {sigma!r}")
    if _rel(metrics["mass"], 1.0 / (2.0 * spec["a1"])) > 1e-12:
        problems.append(f"mass {metrics['mass']!r} != 1/(2 a1)")
    if metrics["omega"] != 0.0:
        problems.append(f"free particle omega {metrics['omega']!r}")
    if not metrics["max_rel_err_central"] <= spec["tolerance"]:
        problems.append(f"kernel error {metrics['max_rel_err_central']:.2e}")
    return problems


def _check_determinant(metrics: dict, spec: dict) -> List[str]:
    w, T = spec["omega"], spec["time"]
    want = math.sin(w * T) / w if w else T
    # acceptance: fluctuation determinants at 1e-8
    if abs(metrics["fluctuation_det"] - want) > 1e-8 * max(1.0, abs(want)):
        return [f"D({T}) = {metrics['fluctuation_det']!r}, "
                f"sin(wT)/w = {want!r}"]
    return []


def _check_paths(job, result: dict, want: dict) -> List[str]:
    spec = job.paths
    if spec["fn"] == "brownian":
        n, beta = spec["n_slices"], spec["beta"]
        m, w = spec["mass"], spec["omega"]
        eps = beta / n
        continuum = eps / m                      # hbar = 1
        lattice = 0.0
        for j in range(n):
            c = 1.0 - math.cos(2.0 * math.pi * j / n)
            lattice += 2.0 * c / ((2.0 * m / eps) * c + eps * m * w * w)
        lattice /= n
        problems = []
        if _rel(result["var"], continuum) > want["variance_rel_tol"]:
            problems.append(f"Var(d zeta) {result['var']:.4g} vs (hbar/m) eps "
                            f"{continuum:.4g}")
        if _rel(result["exact_lattice"], lattice) > 1e-10:
            problems.append(f"exact lattice variance {result['exact_lattice']!r}"
                            f" != {lattice!r}")
        return problems
    problems = []
    for key in ("quantum_slope", "classical_slope"):
        centre, tol = want[key]
        if abs(result[key] - centre) > tol:
            problems.append(f"{key} {result[key]:.3f} not within {tol} "
                            f"of {centre}")
    return problems


def verdict(outcome: dict):
    """What must agree between the traced and untraced run of one job."""
    if outcome.get("crash"):
        return ("crash",)
    if "result" in outcome:
        return (outcome["exit"], tuple(sorted(outcome["result"].items())))
    report = outcome.get("report")
    checks = tuple((c["name"], c["ok"]) for c in report["checks"]) \
        if report else ()
    return (outcome["exit"], checks)
