"""Batch front end: verify, reduce, propagate and anomaly runs over .sys files.

`emq COMMAND FILE [--seed N] [--json] [--out PATH]`, read by one parser with
options in any order, loads one system definition, runs the command's
pipeline and prints a report (text, or JSON with --json).  Exit codes are a
stable contract: 0 all checks passed, 1 a check failed, 2 the invocation, the
file or the --out path was unusable.  All sampling is seeded by --seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

import numpy as np

from . import __version__
from .expr import (Add, ComparisonResult, Const, ExprError, Mul, Record,
                   numeric_compare, sampled_values)
from .sysfile import Model, SysFileError, bundled_names, load_bundled, load_model
from .symplectic import poisson_bracket, split_hamiltonian, verify_charges
from .reduction import jacobi_liouville_check, run_reduction, verify_canonicity
from .pathint import bind_reduced_hamiltonian, propagate_quantum, write_kernel
from .anomaly import (anomaly_coefficients, consistency_report,
                      constraint_surface_vanishing, correction_scaling,
                      sliced_expansion_check)

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

class CheckLine(Record):
    name: str
    ok: bool
    detail: str = ""

    def render(self) -> str:
        mark = "ok " if self.ok else "FAIL"
        line = f"  [{mark}] {self.name}"
        if self.detail:
            line += f": {self.detail}"
        return line


class RunReport:
    """One command's report, filled in as its checks run."""

    def __init__(self, command: str, model: str, seed: int):
        self.command, self.model, self.seed = command, model, seed
        self.checks: List[CheckLine] = []
        self.metrics: Dict[str, float] = {}
        self.notes: List[str] = []
        self.provenance: List[str] = []
        self.outputs: Dict[str, str] = {}
        self.version = __version__
        self.elapsed_s = 0.0

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
    # a bundled name wins over a local path; ./name reaches a local file
    if spec in bundled_names():
        return load_bundled(spec)
    if os.path.exists(spec):
        return load_model(spec)
    raise SysFileError(
        f"{spec!r} is neither a file nor a bundled model "
        f"(bundled: {', '.join(bundled_names())})")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

@contextmanager
def _stage(rep: RunReport, name: str):
    """Run one sampled stage; an ExprError fails the named check instead of
    escaping, so an unevaluable chart ends in exit 1, not a traceback.
    Yields rep.check bound to the name, for a stage that reports one line."""
    try:
        yield functools.partial(rep.check, name)
    except ExprError as exc:
        rep.check(name, False, f"{type(exc).__name__}: {exc}")


def cmd_verify(model: Model, rep: RunReport) -> None:
    """Structural checks: charges, splitting, canonicity, gauge pair, volume."""
    seed = rep.seed
    system = model.system
    chart = model.chart

    with _stage(rep, "constraint solution solves phi = 0") as check:
        model.constraint.validate(system, seed=seed)
        check(True)

    with _stage(rep, "charges conserved"):
        for name, cmp in verify_charges(system, seed=seed).items():
            rep.compared(f"charge {name} conserved", cmp)

    split = None
    with _stage(rep, "rho conserved along the flow") as check:
        split = split_hamiltonian(system, seed=seed)
        check(True, f"max scaled err {split.rho_bracket_err:.2e}")
    if split is not None:
        with _stage(rep, "H_plus - H_minus reproduces H"):
            diff = Add((split.h_plus, Mul((Const(-1), split.h_minus))))
            rep.compared("H_plus - H_minus reproduces H",
                         numeric_compare(diff, system.hamiltonian, chart,
                                         n=64, tol=1e-9, seed=seed))
        with _stage(rep, "both halves nonnegative on the chart") as check:
            lows = [float(np.min(sampled_values(h, chart, 64, seed)))
                    for h in (split.h_plus, split.h_minus)]
            worst = min(0.0, *lows)
            check(worst >= -1e-10, f"min value {worst:.2e}")

    with _stage(rep, "canonical bracket table") as check:
        brackets = verify_canonicity(model.darboux, system.space, chart,
                                     seed=seed)
        bad = [pair for pair, cmp in brackets.items() if not cmp.equal]
        if bad:
            labels = ", ".join(
                f"{{{a}, {b}}} = {model.darboux.expected_bracket(a, b)}"
                for a, b in bad)
            check(False, f"{len(bad)} of {len(brackets)} brackets fail: "
                         f"{labels}")
        else:
            check(True, f"{len(brackets)} brackets verified")

    if model.constraint.chi is not None:
        with _stage(rep, "gauge pair second class") as check:
            bracket = poisson_bracket(model.constraint.phi,
                                      model.constraint.chi, system.space)
            low = float(np.min(np.abs(sampled_values(bracket, chart, 32,
                                                     seed))))
            check(low > 1e-6, f"min |{{phi, chi}}| = {low:.3g}")

    with _stage(rep, "constrained chart volume constant") as check:
        check(jacobi_liouville_check(model.darboux, model.constraint, system,
                                     seed=seed))


def cmd_reduce(model: Model, rep: RunReport) -> None:
    """Run the elimination pipeline and print every intermediate object."""
    with _stage(rep, "reduction pipeline") as check:
        L_R, _, result = run_reduction(
            model.system, model.constraint, model.darboux, seed=rep.seed)
        check(True)
        rep.notes.append(f"reduced lagrangian: {L_R.lagrangian}")
        rep.notes.append(f"gauge condition: {result.chi} = 0")
        if result.z_solution is not None:
            rep.notes.append(f"gauge variable fixed at "
                             f"{model.darboux.z} = {result.z_solution}")
        rep.notes.append(f"reduced hamiltonian: {result.system.h_star}")
        rep.provenance.extend(result.system.provenance)


def cmd_propagate(model: Model, rep: RunReport,
                  out: Optional[str] = None) -> None:
    """Lattice run against the closed-form reference; with out, a kernel
    table plus metrics JSON."""
    if model.lattice is None:
        raise SysFileError(f"{model.path or model.name}: no [lattice] "
                           f"section, nothing to propagate")
    cfg = model.lattice
    run = None
    with _stage(rep, "reduction pipeline") as check:
        *_, result = run_reduction(model.system, model.constraint,
                                   model.darboux, seed=rep.seed)
        check(True)
        with _stage(rep, "lattice propagation") as check:
            run = propagate_quantum(result.system, cfg, model.params)
            check(True, f"mode {run.mode}")
    if run is None:
        return
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
        hbar = bind_reduced_hamiltonian(result.system, model.params).hbar
        payload = {"model": model.name, "seed": rep.seed,
                   **{name: getattr(cfg, name) for name in cfg._fields},
                   "hbar": hbar, "metrics": rep.metrics}
        with open(base + "_metrics.json", "w") as fh:
            fh.write(json.dumps(payload, indent=2) + "\n")
        rep.outputs["metrics_json"] = base + "_metrics.json"


def cmd_anomaly(model: Model, rep: RunReport) -> None:
    """Slicing-correction report on the file's generating function."""
    seed = rep.seed
    gen = model.generating_function
    if gen is None:
        raise SysFileError(f"{model.path or model.name}: no [anomaly] "
                           f"generating function to analyse")
    # the loader has rejected an F whose coefficients cannot be formed
    coeffs = anomaly_coefficients(gen, model.reference_A_z)

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
                         "surface") as check:
            high = float(np.max(np.abs(sampled_values(coeffs.A_z, model.chart,
                                                      32, seed))))
            check(high > 1e-9, f"max |A_z| = {high:.3g}")

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


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    commands = (
        ("verify", "structural checks: charges, splitting, chart, volume"),
        ("reduce", "run the elimination pipeline and print the results"),
        ("propagate", "lattice comparison against the closed-form reference"),
        ("anomaly", "slicing-correction coefficients and scaling"),
    )
    parser = argparse.ArgumentParser(
        prog="emq", formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Verification, reduction, lattice propagation and "
                    "slicing-correction reports\nfor momentum-linear systems."
                    "\n\ncommands:\n" + "".join(f"  {name:<11}{text}\n"
                                                for name, text in commands))
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("command", choices=[name for name, _ in commands],
                        metavar="command", help="one of the commands above")
    parser.add_argument("file", help="a bundled model name, or a path to a "
                                     ".sys file (a bundled name wins: ./name "
                                     "reaches a local file of that name)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for all sampled checks (default 0)")
    parser.add_argument("--json", action="store_true",
                        help="print the report as JSON")
    parser.add_argument("--out", default=None,
                        help="propagate: basename for the .npy kernel table "
                             "and the metrics file; other commands: path for "
                             "a JSON copy of the report")
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
    if args.out == "":
        _say("error: --out needs a path, got an empty one", sys.stderr)
        return EXIT_USAGE
    try:
        model = _load(args.file)
        rep = RunReport(args.command, model.name, args.seed)
        t0 = time.perf_counter()
        # the cmd_* names are looked up here, at call time, so a function
        # put in their place after import is the one that runs
        if args.command == "propagate":
            cmd_propagate(model, rep, args.out)
        else:
            {"verify": cmd_verify, "reduce": cmd_reduce,
             "anomaly": cmd_anomaly}[args.command](model, rep)
        rep.elapsed_s = time.perf_counter() - t0
        if args.out and args.command != "propagate":
            with open(args.out, "w") as fh:
                fh.write(json.dumps(rep.to_dict(), indent=2) + "\n")
    except SysFileError as exc:
        _say(f"error: {exc}", sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        # load_model reports unreadable files, so this is an --out write
        _say(f"error: cannot write {exc.filename or args.out}: "
             f"{exc.strerror}", sys.stderr)
        return EXIT_USAGE

    _say(json.dumps(rep.to_dict(), indent=2) if args.json else rep.render(),
         sys.stdout)
    return rep.exit_code


def _say(text: str, stream) -> None:
    try:
        print(text, file=stream, flush=True)
    except BrokenPipeError:
        # the reader closed the stream: the exit code stands, and the exit
        # flush writes what is left to devnull
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), stream.fileno())


if __name__ == "__main__":
    raise SystemExit(main())
