"""Batch front end: verify, reduce, propagate and anomaly runs over .sys files.

Each subcommand loads one system definition, drives the matching pipeline and
prints a report (human text by default, JSON with --json).  Exit codes are a
stable contract: 0 all checks passed, 1 at least one check failed, 2 the
invocation or the file itself was unusable.  All sampling is seeded, so a
report is reproducible given the same file and --seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import __version__
from .expr import (Add, ComparisonResult, Const, ExprError, Mul, evaluate,
                   numeric_compare)
from .sysfile import Model, SysFileError, bundled_names, load_bundled, load_model
from .symplectic import poisson_bracket, split_hamiltonian, verify_charges
from .reduction import jacobi_liouville_check, run_reduction, verify_canonicity
from .pathint import propagate_quantum, write_kernel
from .anomaly import (AnomalyError, GeneratingFunction, anomaly_coefficients,
                      consistency_report, constraint_surface_vanishing,
                      correction_scaling, sliced_expansion_check)

__all__ = [
    "RunReport", "CheckLine",
    "cmd_verify", "cmd_reduce", "cmd_propagate", "cmd_anomaly",
    "build_parser", "main",
    "EXIT_OK", "EXIT_CHECK", "EXIT_USAGE",
]

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

@dataclass
class CheckLine:
    name: str
    ok: bool
    detail: str = ""

    def render(self) -> str:
        mark = "ok " if self.ok else "FAIL"
        line = f"  [{mark}] {self.name}"
        if self.detail:
            line += f": {self.detail}"
        return line


@dataclass
class RunReport:
    command: str
    model: str
    seed: int
    checks: List[CheckLine] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    provenance: List[str] = field(default_factory=list)
    outputs: Dict[str, str] = field(default_factory=dict)
    version: str = __version__
    elapsed_s: float = 0.0

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append(CheckLine(name, bool(ok), detail))
        return bool(ok)

    def compared(self, name: str, cmp: ComparisonResult) -> bool:
        return self.check(name, cmp.equal,
                          f"max scaled err {cmp.max_scaled_err:.2e}")

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def exit_code(self) -> int:
        return EXIT_OK if self.ok else EXIT_CHECK

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "model": self.model,
            "seed": self.seed,
            "version": self.version,
            "ok": self.ok,
            "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail}
                       for c in self.checks],
            "metrics": self.metrics,
            "notes": self.notes,
            "provenance": self.provenance,
            "outputs": self.outputs,
            "elapsed_s": self.elapsed_s,
        }

    def render(self) -> str:
        lines = [f"emq {self.command} {self.model} "
                 f"(seed {self.seed}, v{self.version})"]
        lines += [c.render() for c in self.checks]
        if self.metrics:
            lines.append("  metrics:")
            for k in sorted(self.metrics):
                lines.append(f"    {k} = {self.metrics[k]:.6g}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        for step in self.provenance:
            lines.append(f"  step: {step}")
        for label, path in self.outputs.items():
            lines.append(f"  wrote {label}: {path}")
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(f"result: {verdict} ({len(self.checks)} checks, "
                     f"{self.elapsed_s:.2f}s)")
        return "\n".join(lines)


def _load(spec: str) -> Model:
    if os.path.exists(spec):
        return load_model(spec)
    if spec in bundled_names():
        return load_bundled(spec)
    raise SysFileError(
        f"{spec!r} is neither a file nor a bundled model "
        f"(bundled: {', '.join(bundled_names())})")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

@contextmanager
def _stage(rep: RunReport, name: str):
    """Run one sampled stage; an ExprError fails the named check instead of
    escaping, so an unevaluable chart ends in exit 1, not a traceback."""
    try:
        yield
    except ExprError as exc:
        rep.check(name, False, f"{type(exc).__name__}: {exc}")


def cmd_verify(path: str, seed: int = 0) -> Tuple[int, RunReport]:
    """Structural checks: charges, splitting, canonicity, gauge pair, volume."""
    model = _load(path)
    rep = RunReport("verify", model.name, seed)
    t0 = time.perf_counter()
    system = model.system
    chart = model.chart

    with _stage(rep, "constraint solution solves phi = 0"):
        model.constraint.validate(system, seed=seed)
        rep.check("constraint solution solves phi = 0", True)

    with _stage(rep, "charges conserved"):
        for name, cmp in verify_charges(system, seed=seed).items():
            rep.compared(f"charge {name} conserved", cmp)

    split = None
    with _stage(rep, "rho conserved along the flow"):
        split = split_hamiltonian(system, seed=seed)
        rep.check("rho conserved along the flow", True,
                  f"max scaled err {split.rho_bracket_err:.2e}")
    if split is not None:
        with _stage(rep, "H_plus - H_minus reproduces H"):
            diff = Add((split.h_plus, Mul((Const(-1), split.h_minus))))
            rep.compared("H_plus - H_minus reproduces H",
                         numeric_compare(diff, system.hamiltonian, chart,
                                         n=64, tol=1e-9, seed=seed))
        with _stage(rep, "both halves nonnegative on the chart"):
            cols = chart.sample_columns(64, seed=seed)
            worst = min(0.0, float(np.min(evaluate(split.h_plus, cols))),
                        float(np.min(evaluate(split.h_minus, cols))))
            rep.check("both halves nonnegative on the chart", worst >= -1e-10,
                      f"min value {worst:.2e}")

    with _stage(rep, "canonical bracket table"):
        brackets = verify_canonicity(model.darboux, system.space, chart,
                                     seed=seed)
        bad = [pair for pair, cmp in brackets.items() if not cmp.equal]
        if bad:
            labels = ", ".join(
                f"{{{a}, {b}}} = {model.darboux.expected_bracket(a, b)}"
                for a, b in bad)
            rep.check("canonical bracket table", False,
                      f"{len(bad)} of {len(brackets)} brackets fail: {labels}")
        else:
            rep.check("canonical bracket table", True,
                      f"{len(brackets)} brackets verified")

    if model.constraint.chi is not None:
        with _stage(rep, "gauge pair second class"):
            bracket = poisson_bracket(model.constraint.phi,
                                      model.constraint.chi, system.space)
            low = float(np.min(np.abs(evaluate(
                bracket, chart.sample_columns(32, seed=seed)))))
            rep.check("gauge pair second class", low > 1e-6,
                      f"min |{{phi, chi}}| = {low:.3g}")

    with _stage(rep, "constrained chart volume constant"):
        ok = jacobi_liouville_check(model.darboux, model.constraint, system,
                                    seed=seed)
        rep.check("constrained chart volume constant", ok)

    rep.elapsed_s = time.perf_counter() - t0
    return rep.exit_code, rep


def cmd_reduce(path: str, seed: int = 0) -> Tuple[int, RunReport]:
    """Run the elimination pipeline and print every intermediate object."""
    model = _load(path)
    rep = RunReport("reduce", model.name, seed)
    t0 = time.perf_counter()
    with _stage(rep, "reduction pipeline"):
        L_R, form, transformed, result = run_reduction(
            model.system, model.constraint, model.darboux, seed=seed)
        rep.check("reduction pipeline", True)
        rep.notes.append(f"reduced lagrangian: {L_R.lagrangian}")
        rep.notes.append(f"transformed lagrangian: {transformed.lagrangian}")
        rep.notes.append(f"gauge condition: {result.chi} = 0")
        if result.z_solution is not None:
            rep.notes.append(f"gauge variable fixed at "
                             f"{model.darboux.z} = {result.z_solution}")
        rep.notes.append(f"reduced hamiltonian: {result.system.h_star}")
        rep.provenance.extend(result.system.provenance)
    rep.elapsed_s = time.perf_counter() - t0
    return rep.exit_code, rep


def cmd_propagate(path: str, seed: int = 0,
                  out: Optional[str] = None) -> Tuple[int, RunReport]:
    """Lattice run against the closed-form reference; with out, a kernel
    table plus metrics JSON."""
    model = _load(path)
    if model.lattice is None:
        raise SysFileError(f"{model.name}: no [lattice] section, "
                           f"nothing to propagate")
    rep = RunReport("propagate", model.name, seed)
    t0 = time.perf_counter()
    cfg = model.lattice
    run = None
    with _stage(rep, "reduction pipeline"):
        *_, result = run_reduction(model.system, model.constraint,
                                   model.darboux, seed=seed)
        rep.check("reduction pipeline", True)
        with _stage(rep, "lattice propagation"):
            run = propagate_quantum(result.system, cfg, model.params)
            rep.check("lattice propagation", True, f"mode {run.mode}")
    if run is None:
        rep.elapsed_s = time.perf_counter() - t0
        return rep.exit_code, rep
    rep.metrics.update({k: float(v) for k, v in run.metrics.items()})

    gate = {"real": "max_rel_err_central", "imaginary": "partition_rel_err"}
    key = gate.get(run.mode)
    if key is not None:
        err = run.metrics[key]
        rep.check("error within declared tolerance", err <= cfg.tolerance,
                  f"{key} = {err:.3e}, tolerance {cfg.tolerance:g}")

    if out:
        # artifacts only on request: <out>.npy and <out>_metrics.json
        base = out[:-4] if out.endswith(".npy") else out
        if run.zeta is not None:
            rep.outputs["kernel_npy"] = write_kernel(run, base)
        payload = {"model": model.name, "mode": run.mode, "seed": seed,
                   "slices": cfg.slices, "n": cfg.n, "length": cfg.length,
                   "duration": cfg.duration, "tolerance": cfg.tolerance,
                   "metrics": rep.metrics}
        with open(base + "_metrics.json", "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        rep.outputs["metrics_json"] = base + "_metrics.json"
    rep.elapsed_s = time.perf_counter() - t0
    return rep.exit_code, rep


def cmd_anomaly(path: str, seed: int = 0) -> Tuple[int, RunReport]:
    """Slicing-correction report on the file's generating function."""
    model = _load(path)
    if model.anomaly_F is None:
        raise SysFileError(f"{model.name}: no [anomaly] generating function "
                           f"to analyse")
    rep = RunReport("anomaly", model.name, seed)
    t0 = time.perf_counter()
    try:
        gen = GeneratingFunction.for_chart(model.anomaly_F,
                                           model.system.space, model.darboux)
        coeffs = anomaly_coefficients(gen, model.reference_A_z)
    except AnomalyError as exc:
        raise SysFileError(f"{model.path or model.name}: {exc}") from exc

    with _stage(rep, "relations consistent with the chart"):
        for name, cmp in consistency_report(gen, model.darboux, model.chart,
                                            seed=seed).items():
            rep.compared(f"relation for {name} consistent with the chart",
                         cmp)

    rep.notes.append(f"coefficient source: {coeffs.source}")
    for name, e in coeffs.as_pairs():
        rep.notes.append(f"{name} = {e}")
    rep.notes.extend(coeffs.notes)

    if coeffs.source == "third-derivative structure":
        rep.check("all coefficients vanish identically", coeffs.all_zero)
    else:
        with _stage(rep, "gauge-coordinate coefficient nonzero off the "
                         "surface"):
            high = float(np.max(np.abs(evaluate(
                coeffs.A_z, model.chart.sample_columns(32, seed=seed)))))
            rep.check("gauge-coordinate coefficient nonzero off the surface",
                      high > 1e-9, f"max |A_z| = {high:.3g}")

    with _stage(rep, "coefficients vanish on the gauge surface"):
        for name, cmp in constraint_surface_vanishing(
                coeffs, model.darboux, model.chart, seed=seed).items():
            rep.compared(f"{name} vanishes on the gauge surface", cmp)

    if model.sliced_refs is not None:
        with _stage(rep, "sliced expansion matches reference"):
            expansion = sliced_expansion_check(gen, model.darboux,
                                               model.system.hamiltonian,
                                               model.chart,
                                               expected=model.sliced_refs,
                                               seed=seed)
            for name, cmp in expansion.comparisons.items():
                rep.compared(f"sliced expansion {name} matches reference",
                             cmp)
            fit = correction_scaling(expansion, model.chart, seed=seed)
            rep.metrics["correction_scaling_slope"] = fit.slope
            rep.check("correction contribution scales as width^1.5",
                      abs(fit.slope - 1.5) <= 0.05, f"slope {fit.slope:.4f}")
    else:
        rep.notes.append("no sliced reference data declared; "
                         "expansion check skipped")

    rep.elapsed_s = time.perf_counter() - t0
    return rep.exit_code, rep


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emq",
        description="Verification, reduction, lattice propagation and "
                    "slicing-correction reports for momentum-linear systems.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = (
        ("verify", "structural checks: charges, splitting, chart, volume"),
        ("reduce", "run the elimination pipeline and print the results"),
        ("propagate", "lattice comparison against the closed-form reference"),
        ("anomaly", "slicing-correction coefficients and scaling"),
    )
    for name, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="path to a .sys file, or a bundled "
                                    "model name")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for all sampled checks (default 0)")
        p.add_argument("--json", action="store_true",
                       help="print the report as JSON")
        p.add_argument("--out", default=None,
                       help="propagate: basename for the .npy kernel "
                            "table and the metrics file; other commands: "
                            "path for a JSON copy of the report")
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # main() only reads the parser, so one per process serves every call
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors already; pass through
        return int(exc.code or 0)
    commands = {
        "verify": lambda: cmd_verify(args.file, seed=args.seed),
        "reduce": lambda: cmd_reduce(args.file, seed=args.seed),
        "propagate": lambda: cmd_propagate(args.file, seed=args.seed,
                                           out=args.out),
        "anomaly": lambda: cmd_anomaly(args.file, seed=args.seed),
    }
    try:
        code, rep = commands[args.command]()
    except SysFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    print(json.dumps(rep.to_dict(), indent=2) if args.json else rep.render())
    if args.out and args.command != "propagate":
        with open(args.out, "w") as fh:
            json.dump(rep.to_dict(), fh, indent=2)
            fh.write("\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
