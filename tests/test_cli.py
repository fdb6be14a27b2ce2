import ast
import json
import math
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import clear_memos, memos
from emq import __version__, cli, expr, pathint, symplectic, sysfile
from emq.cli import EXIT_CHECK, EXIT_OK, EXIT_USAGE, main
from emq.expr import MAX_NESTING, SampleDomain, columns
from emq.pathint import propagate_quantum
from emq.reduction import ReducedSystem, run_reduction
from emq.sysfile import bundled_names, bundled_text, load_bundled


def _write(tmp_path, text, name="model.sys"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _bare_env():
    """The environment of a bare `python -m emq` process on this source."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["free_particle", "harmonic",
                                  "free_particle_lambda"])
def test_verify_bundled_models(name, capsys):
    assert main(["verify", name]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[ok ]" in out
    assert "[FAIL]" not in out


def test_verify_without_chi_has_no_gauge_pair_line(tmp_path, capsys):
    chi = "chi = p_y - y/alpha - a1*x\n"
    text = bundled_text("harmonic")
    assert text.count(chi) == 1
    path = _write(tmp_path, text.replace(chi, ""))
    assert main(["verify", path, "--json"]) == EXIT_OK
    names = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]]
    assert "canonical bracket table" in names
    assert "gauge pair second class" not in names


def test_reduce_draws_each_sample_set_once(monkeypatch, capsys):
    drawn = []
    uniforms = expr._uniforms

    def counting(rng, k):
        drawn.append((rng, rng.getstate()))
        return uniforms(rng, k)

    monkeypatch.setattr(expr, "_uniforms", counting)
    # --seed reaches every sampled check, the constraint validation included
    # the sampled checks are memoized too; cleared, each compares afresh
    for s in (5, 0):
        drawn.clear()
        expr._stream.cache_clear()
        expr.sampled_check.cache_clear()
        assert main(["reduce", "harmonic", "--json", "--seed", str(s)]) \
            == EXIT_OK
        cached = json.loads(capsys.readouterr().out)
        # every set, of 1, 64 and 200 points, is a prefix of the chart's
        # one stream: one generator, seeded once, drew every candidate
        seeded = random.Random(s).getstate()
        assert [state == seeded for _, state in drawn] == \
            [True] + [False] * (len(drawn) - 1)
        assert all(rng is drawn[0][0] for rng, _ in drawn)
        # a second run at the same seed draws no candidate, the point at
        # which the presymplectic rank is logged included
        drawn.clear()
        assert main(["reduce", "harmonic", "--json", "--seed", str(s)]) \
            == EXIT_OK
        again = json.loads(capsys.readouterr().out)
        assert drawn == []
        assert again["provenance"] == cached["provenance"]

    # the same report when every comparison draws its points afresh
    monkeypatch.setattr(SampleDomain, "sample_columns",
                        lambda self, n, seed=0: columns(self.sample(n, seed)))
    expr.sampled_check.cache_clear()
    assert main(["reduce", "harmonic", "--json"]) == EXIT_OK
    fresh = json.loads(capsys.readouterr().out)
    # each comparison seeded a generator of its own
    assert len({id(rng) for rng, _ in drawn}) > 5
    assert cached["checks"] == fresh["checks"]
    assert cached["metrics"] == fresh["metrics"]


# sin( levels: the deepest nest the parser takes
_DEEP = MAX_NESTING


@pytest.mark.parametrize("charge", [
    "sin(" * _DEEP + "a1" + ")" * _DEEP + "*(x^2 + y^2)",
    "x^2 + y^2 + " + "sin(" * _DEEP + "alpha" + ")" * _DEEP,
], ids=["scaled", "shifted"])
def test_a_charge_nested_near_the_parse_limit_is_checked(tmp_path, capsys,
                                                          charge):
    # the nest holds no phase-space symbol, so every derivative of the
    # charge skips it after one walk for its free-symbol set
    text = bundled_text("harmonic").replace("C1 = x^2 + y^2", f"C1 = {charge}")
    path = _write(tmp_path, text)
    assert main(["verify", path]) == EXIT_OK
    assert "[ok ] charge C1 conserved" in capsys.readouterr().out
    assert main(["reduce", path]) == EXIT_OK


# what the fuzz below puts after the = of a key = value line: values near
# and past float range, non-numbers, signs, a symbol, nothing and an open
# nest
_FUZZ_VALUES = ("1e300", "-1e300", "1e-300", "5e-324", "nan", "inf", "-inf",
                "0", "-1", "x", "", "(((")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_deleting_any_line_of_a_bundled_file_ends_in_a_verdict(tmp_path,
                                                               capsys):
    # every non-comment line of every bundled file deleted in turn,
    # duplicated in turn and, for a key = value line, given each extreme
    # value in turn, under all four commands: a verdict or a one-line usage
    # error naming the file (with its line, except for a missing section),
    # never a traceback
    seen = set()
    for name in ("harmonic", "free_particle", "free_particle_lambda"):
        lines = bundled_text(name).splitlines(keepends=True)
        for i, line in enumerate(lines):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            edits = {"without": [], "twice": [line, line]}
            if "=" in line:
                key = line.split("=", 1)[0]
                for k, value in enumerate(_FUZZ_VALUES):
                    edits[f"value{k}"] = [f"{key}= {value}\n"]
            for label, new in edits.items():
                path = _write(tmp_path, "".join(lines[:i] + new + lines[i + 1:]),
                              name=f"{name}_{label}_{i + 1}.sys")
                for command in ("verify", "reduce", "propagate", "anomaly"):
                    code = main([command, path])
                    err = capsys.readouterr().err
                    where = (command, name, label, line)
                    assert code in (EXIT_OK, EXIT_CHECK, EXIT_USAGE), where
                    assert "Traceback" not in err, where
                    if code == EXIT_USAGE:
                        assert err.startswith(f"error: {path}:"), where
                        assert len(err.strip().splitlines()) == 1, where
                    seen.add(code)
    assert seen == {EXIT_OK, EXIT_CHECK, EXIT_USAGE}


@pytest.mark.parametrize("levels, code", [(MAX_NESTING, EXIT_OK),
                                           (MAX_NESTING + 1, EXIT_USAGE)])
def test_nesting_limit_is_the_same_in_a_bare_process(tmp_path, capsys,
                                                     levels, code):
    # the limit is a count, not the stack depth left over by the caller
    nest = "sin(" * levels + "a1" + ")" * levels + "*(x^2 + y^2)"
    text = bundled_text("harmonic").replace("C1 = x^2 + y^2", f"C1 = {nest}")
    lineno = text.splitlines().index(f"C1 = {nest}") + 1
    path = _write(tmp_path, text)
    assert main(["reduce", path]) == code
    err = capsys.readouterr().err
    bare = subprocess.run([sys.executable, "-m", "emq", "reduce", path],
                          capture_output=True, text=True, env=_bare_env())
    assert bare.returncode == code
    assert bare.stderr == err
    if code == EXIT_USAGE:
        assert f"{path}:{lineno}:" in err and "nested too deeply" in err


@pytest.mark.parametrize("command", ["verify", "reduce", "propagate",
                                     "anomaly"])
@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_a_closed_stdout_keeps_the_exit_code(command, fmt, capsys):
    # the reader of stdout is gone before the report is printed: the run
    # still exits with its report's code, and says nothing on stderr
    argv = [command, "harmonic", *fmt]
    read, write = os.pipe()
    os.close(read)
    try:
        closed = subprocess.run([sys.executable, "-m", "emq", *argv],
                                stdout=write, stderr=subprocess.PIPE,
                                text=True, env=_bare_env())
    finally:
        os.close(write)
    assert closed.returncode == main(argv)
    assert "Traceback" not in closed.stderr
    assert "Exception ignored" not in closed.stderr


@pytest.mark.parametrize("command", ["verify", "reduce", "propagate",
                                     "anomaly"])
@pytest.mark.parametrize("case", ["missing-file", "unwritable-out"])
def test_a_closed_stderr_keeps_the_exit_code(command, case, tmp_path, capsys):
    # the reader of stderr is gone before a usage error is printed: the run
    # still exits 2, as it does with stderr open
    argv = ([command, str(tmp_path / "nosuch.sys")] if case == "missing-file"
            else [command, "harmonic", "--out", str(tmp_path / "no" / "x")])
    read, write = os.pipe()
    os.close(read)
    try:
        closed = subprocess.run([sys.executable, "-m", "emq", *argv],
                                stdout=subprocess.PIPE, stderr=write,
                                text=True, env=_bare_env())
    finally:
        os.close(write)
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and "Traceback" not in err
    assert (closed.returncode, closed.stdout) == (code, "")


_HUGE = "1" + "0" * 400


@pytest.mark.parametrize("constant", [_HUGE, f"sqrt({_HUGE}{_HUGE})"],
                         ids=["plain", "sqrt"])
def test_constants_beyond_float_range_fail_typed(constant, tmp_path, capsys):
    text = bundled_text("harmonic").replace(
        "C1 = x^2 + y^2", f"C1 = x^2 + y^2 + {constant}")
    assert main(["verify", _write(tmp_path, text), "--json"]) == EXIT_CHECK
    checks = json.loads(capsys.readouterr().out)["checks"]
    failed = [c["detail"] for c in checks if not c["ok"]]
    assert failed and all("Error: " in d and "float" in d for d in failed)


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

_REDUCE_NOTES = ("reduced lagrangian:", "gauge condition:",
                 "gauge variable fixed at", "reduced hamiltonian:")
# the bundled models whose z is solved, not pure gauge
_REDUCE_SOLVES_Z = {"harmonic": True, "free_particle": False,
                    "free_particle_lambda": False}


@pytest.mark.parametrize("name", sorted(_REDUCE_SOLVES_Z))
def test_reduce_reports_the_closed_form(name, capsys):
    assert main(["reduce", name, "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    prefixes = [p for p in _REDUCE_NOTES
                if _REDUCE_SOLVES_Z[name] or p != "gauge variable fixed at"]
    notes = report["notes"]
    assert len(notes) == len(prefixes), notes
    for note, prefix in zip(notes, prefixes):
        assert note.startswith(prefix), (note, prefix)
    assert "p_zeta" in notes[-1]
    assert ("presymplectic rank at chart points: 2 of 3"
            in report["provenance"])
    # the text report prints the same notes in the same order
    assert main(["reduce", name]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [line.removeprefix("  note: ") for line in lines
            if line.startswith("  note: ")] == notes


# ---------------------------------------------------------------------------
# propagate
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, mode", [("free_particle", "real"),
                                        ("harmonic", "imaginary")])
def test_propagate_writes_the_kernel_table(name, mode, tmp_path, capsys):
    base = str(tmp_path / "run")
    assert main(["propagate", name, "--out", base, "--json"]) == EXIT_OK
    outputs = json.loads(capsys.readouterr().out)["outputs"]
    assert outputs == {"kernel_npy": base + ".npy",
                       "metrics_json": base + "_metrics.json"}
    table = np.load(base + ".npy", allow_pickle=False)
    assert table.dtype.names == ("zeta", "psi", "reference")
    # the same run in process: the table holds its arrays bit for bit
    model = load_bundled(name)
    *_, result = run_reduction(model.system, model.constraint, model.darboux)
    run = propagate_quantum(result.system, model.lattice, model.params)
    assert run.mode == mode
    assert table.shape == (model.lattice.n,)
    for field in table.dtype.names:
        assert np.array_equal(table[field], getattr(run, field)), field


def test_propagate_writes_artifacts(tmp_path, capsys):
    base = str(tmp_path / "run")
    assert main(["propagate", "free_particle", "--out", base]) == EXIT_OK
    with open(base + "_metrics.json") as fh:
        metrics = json.load(fh)
    assert metrics["metrics"]["max_rel_err_central"] < 1e-4
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "run.npy", "run_metrics.json"]
    capsys.readouterr()


def test_propagate_out_drops_a_trailing_npy(tmp_path, capsys):
    assert main(["propagate", "free_particle", "--out",
                 str(tmp_path / "run.npy")]) == EXIT_OK
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "run.npy", "run_metrics.json"]
    capsys.readouterr()


def test_classical_propagate_writes_only_metrics(tmp_path, capsys):
    text = bundled_text("harmonic").replace(
        "mode = imaginary", "mode = classical").replace(
        "beta = 1.0", "time = 1.0")
    (tmp_path / "out").mkdir()
    base = str(tmp_path / "out" / "c")
    assert main(["propagate", _write(tmp_path, text), "--out", base,
                 "--json"]) == EXIT_OK
    outputs = json.loads(capsys.readouterr().out)["outputs"]
    assert outputs == {"metrics_json": base + "_metrics.json"}
    assert [p.name for p in (tmp_path / "out").iterdir()] == [
        "c_metrics.json"]


def test_propagate_partition_mode(tmp_path, monkeypatch, capsys):
    # without --out propagate writes no artifact and reports none
    monkeypatch.chdir(tmp_path)
    assert main(["propagate", "harmonic", "--json"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "partition" in out
    assert json.loads(out)["outputs"] == {}
    assert list(tmp_path.iterdir()) == []


def test_a_rewritten_out_report_keeps_no_tail(tmp_path, monkeypatch, capsys):
    # a report carries its elapsed time: a fixed clock makes two reports of
    # the same run byte-equal
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    out, fresh = tmp_path / "report.json", tmp_path / "fresh.json"
    assert main(["anomaly", "harmonic", "--out", str(out)]) == EXIT_OK
    longer = out.stat().st_size
    assert main(["verify", "harmonic", "--out", str(out)]) == EXIT_OK
    assert main(["verify", "harmonic", "--out", str(fresh)]) == EXIT_OK
    capsys.readouterr()
    assert fresh.stat().st_size < longer
    assert out.read_bytes() == fresh.read_bytes()


def test_out_may_name_a_device(capsys):
    # --out may name a device; the report is written to it like a file
    assert main(["verify", "harmonic", "--out", os.devnull]) == EXIT_OK
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("T", [1000.0, 10000.0])
def test_long_time_classical_det_is_the_closed_form(tmp_path, capsys, T):
    # D(10000) = sin(10000) = -0.3056 is no focal point
    text = bundled_text("harmonic").replace(
        "mode = imaginary", "mode = classical").replace(
        "beta = 1.0", f"time = {T}")
    assert main(["propagate", _write(tmp_path, text), "--json"]) == EXIT_OK
    metrics = json.loads(capsys.readouterr().out)["metrics"]
    assert abs(metrics["fluctuation_det"] - math.sin(T)) <= 1e-12


# ---------------------------------------------------------------------------
# anomaly
# ---------------------------------------------------------------------------

_RELATIONS = [f"relation for {v} consistent with the chart"
              for v in ("x", "y", "p_zeta", "p_z")]
_SURFACE = [f"{c} vanishes on the gauge surface"
            for c in ("A_zeta", "A_z", "B_zeta", "B_z")]
_SLICED = [f"sliced expansion {t} matches reference"
           for t in ("constant", "momentum_shift", "coordinate_shift")]
ANOMALY_CHECKS = {
    "harmonic": (_RELATIONS + ["all coefficients vanish identically"]
                 + _SURFACE + _SLICED
                 + ["correction contribution scales as width^1.5"]),
    "free_particle": (_RELATIONS
                      + ["gauge-coordinate coefficient nonzero off the surface"]
                      + _SURFACE),
}
ANOMALY_METRICS = {"harmonic": {"correction_scaling_slope"},
                   "free_particle": set()}


@pytest.mark.parametrize("name", ["harmonic", "free_particle"])
def test_anomaly_report_schema(name, capsys):
    assert main(["anomaly", name, "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in payload["checks"]] == ANOMALY_CHECKS[name]
    assert set(payload["metrics"]) == ANOMALY_METRICS[name]


_FREE_REFERENCE = ("reference_A_z = -((1 + 2*a1*z*p_zeta)*cos(z) + "
                   "(p_z/p_zeta - a1*p_zeta)*sin(z))*sin(z)/2")


def test_a_negative_seed_gives_the_report_of_its_absolute_value(capsys):
    reports = []
    for seed in ("-1", "1"):
        assert main(["anomaly", "harmonic", "--json", "--seed", seed]) \
            == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        reports.append({k: v for k, v in report.items()
                        if k not in ("seed", "elapsed_s")})
    assert reports[0] == reports[1]
    assert "correction_scaling_slope" in reports[0]["metrics"]


@pytest.mark.parametrize("name", ["free_particle", "harmonic"])
def test_anomaly_bundled_models(name, capsys):
    assert main(["anomaly", name]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[FAIL]" not in out


# ---------------------------------------------------------------------------
# the corruption table: every check line of the bundled models can fail
# ---------------------------------------------------------------------------

def _row(id, command, name, corruption, failing, detail=""):
    return pytest.param(command, name, corruption, failing, detail, id=id)


def _coefficient(name, value):
    # anomaly_coefficients builds A_zeta, B_zeta and B_z, and on a quadratic
    # F all four, as a structural ZERO: only a patched binding fails them
    def patch(monkeypatch):
        exact = cli.anomaly_coefficients
        monkeypatch.setattr(cli, "anomaly_coefficients", lambda *args: (
            exact(*args).replace(**{name: expr.Sym(value)})))
    return patch


def _slope_one(monkeypatch):
    # correction_scaling's slope is 1.5 by construction for any nonzero
    # correction, so only a patched binding fails that line
    exact = cli.correction_scaling
    monkeypatch.setattr(cli, "correction_scaling", lambda *args, **kw: (
        exact(*args, **kw).replace(slope=1.0)))


def _skewed_normal_form(monkeypatch):
    # H_plus - H_minus = H is an identity of the exact core; a normal form
    # that scales every quotient's denominator by 101/100 breaks it
    exact = symplectic.normalize

    def skewed(e):
        if isinstance(e, expr.Div):
            e = expr.Div(e.num, expr.Mul((expr.Const(Fraction(101, 100)),
                                          e.den)))
        return exact(e)

    monkeypatch.setattr(symplectic, "normalize", skewed)


_RANGE = "LatticeRangeError: {}-mode lattice leaves the float range: "
_SKEWED = "CanonicityError: velocity matrix entry {} "
_INV_X = (("inv_x = p_zeta/(sqrt(2)*a1) - z\n",
           "inv_x = p_zeta/(sqrt(2)*a1) - 1.01*z\n"),)
# a forward map, and an added guard, that cannot be evaluated on the chart
_SQRT_MAP = (("p_zeta = (p_y + a1*x - y/alpha)/sqrt(2)", "p_zeta = sqrt(x)"),)
_SQRT_GUARD = (("in 0.0, 0.88", "in 0.0, 0.88\nguard = sqrt(x) in 0.0, 9.0"),)
# sqrt(y) is tried first on every candidate of a block, but a one-at-a-time
# draw meets sqrt(x) first
_TWO_SQRT_GUARDS = (("in 0.0, 0.88", "in 0.0, 0.88\nguard = sqrt(y) in 0.0, "
                     "9.0\nguard = sqrt(x) in 0.0, 9.0"),)
_NEGATIVE_SQRT = "sqrt of negative value in sqrt(x) at "
_SINGULAR = "DomainError: sampling hit a singular point: " + _NEGATIVE_SQRT
_GUARD_FAILS = "DomainError: guard sqrt(x) failed: " + _NEGATIVE_SQRT

# One row per corruption: the command, the bundled model, the corruption (a
# function of monkeypatch, or (old, new) edits of the model's file, each old
# text found once), the exact failed lines in report order, and a prefix of
# the last failed line's detail.
CORRUPTIONS = [
    _row("verify:zeta-sign", "verify", "harmonic",
         (("zeta = -(p_x", "zeta = (p_x"),), ["canonical bracket table"],
         "1 of 6 brackets fail: {p_zeta, zeta} = -1"),
    _row("verify:charge-C3-in-rho", "verify", "harmonic",
         (("C2 = x*p_x + y*p_y", "C2 = x*p_x + y*p_y\nC3 = x"),
          ("[rho]\nC1 = a1", "[rho]\nC1 = a1\nC3 = 1")),
         ["charge C3 conserved", "rho conserved along the flow"],
         "RhoNotConservedError: rho not conserved: {rho, H} = "
         "2*a1*x*y - y*(1 + 2*a1*x) (max scaled err "),
    # a rho whose bracket cannot be evaluated on the chart
    _row("verify:rho-sqrt", "verify", "harmonic",
         (("[rho]\nC1 = a1", "[rho]\nC1 = sqrt(x)"),),
         ["rho conserved along the flow"],
         "RhoNotConservedError: {rho, H} = 2*x*y*sqrt(x) - y*(2*x*sqrt(x) + "
         "1/2*sqrt(x)*(x^2 + y^2)/x) cannot be evaluated on the chart"),
    _row("verify:rho-negative", "verify", "harmonic",
         (("[rho]\nC1 = a1", "[rho]\nC1 = -a1"),),
         ["both halves nonnegative on the chart"], "min value "),
    _row("verify:chi", "verify", "harmonic",
         (("chi = p_y - y/alpha - a1*x", "chi = p_x - x/alpha + a1*y"),),
         ["gauge pair second class"]),
    _row("verify:solution", "verify", "harmonic",
         (("solution = x/alpha - a1*y", "solution = x/alpha + a1*y"),),
         ["constraint solution solves phi = 0",
          "constrained chart volume constant"]),
    _row("verify:charge-C2", "verify", "harmonic",
         (("C2 = x*p_x + y*p_y", "C2 = x*p_x"),), ["charge C2 conserved"]),
    # rho = a1*C1, so a charge that is not conserved takes rho with it
    _row("verify:charge-C1", "verify", "harmonic",
         (("C1 = x^2 + y^2", "C1 = x^2 + 2*y^2"),),
         ["charge C1 conserved", "rho conserved along the flow"]),
    # the gauge pair rescaled to (z/2, 2*p_z): still canonical, but the
    # constrained chart map no longer preserves volume
    _row("verify:gauge-pair-rescaled", "verify", "harmonic", (
        ("z = (p_y - y/alpha - a1*x)/(2*a1)\np_z = -(p_x",
         "z = (p_y - y/alpha - a1*x)/(4*a1)\np_z = -2*(p_x"),
        ("inv_x = p_zeta/(sqrt(2)*a1) - z",
         "inv_x = p_zeta/(sqrt(2)*a1) - 2*z"),
        ("- p_z/(2*a1)\n", "- p_z/(4*a1)\n"),
        ("- z/alpha - a1*zeta/sqrt(2) - p_z/2",
         "- 2*z/alpha - a1*zeta/sqrt(2) - p_z/4"),
        ("+ a1*z + zeta/(sqrt(2)*alpha) - p_z/(2*a1*alpha)",
         "+ 2*a1*z + zeta/(sqrt(2)*alpha) - p_z/(4*a1*alpha)")),
         ["constrained chart volume constant"]),
    _row("verify:normal-form", "verify", "harmonic", _skewed_normal_form,
         ["H_plus - H_minus reproduces H"]),
    # a skewed inverse map leaves zeta's velocity depending on z; one such
    # inverse for each pair i < j of the velocity matrix
    _row("verify:sqrt-map", "verify", "harmonic", _SQRT_MAP,
         ["canonical bracket table", "constrained chart volume constant"],
         "NegativeSqrtError: " + _NEGATIVE_SQRT),
    _row("verify:sqrt-guard", "verify", "harmonic", _SQRT_GUARD,
         ["constraint solution solves phi = 0", "charges conserved",
          "rho conserved along the flow", "canonical bracket table",
          "gauge pair second class", "constrained chart volume constant"],
         _GUARD_FAILS),
    _row("verify:two-sqrt-guards", "verify", "harmonic", _TWO_SQRT_GUARDS,
         ["constraint solution solves phi = 0", "charges conserved",
          "rho conserved along the flow", "canonical bracket table",
          "gauge pair second class", "constrained chart volume constant"],
         _GUARD_FAILS),
    _row("reduce:sqrt-map", "reduce", "harmonic", _SQRT_MAP,
         ["reduction pipeline"], _SINGULAR),
    _row("reduce:sqrt-guard", "reduce", "harmonic", _SQRT_GUARD,
         ["reduction pipeline"], _GUARD_FAILS),
    _row("reduce:two-sqrt-guards", "reduce", "harmonic", _TWO_SQRT_GUARDS,
         ["reduction pipeline"], _GUARD_FAILS),
    _row("reduce:inv_x", "reduce", "harmonic", _INV_X,
         ["reduction pipeline"], _SKEWED.format("(zeta, z)")),
    _row("reduce:inv_y-scaled", "reduce", "harmonic",
         (("inv_y = zeta/sqrt(2)", "inv_y = 1.01*zeta/sqrt(2)"),),
         ["reduction pipeline"], _SKEWED.format("(p_zeta, zeta)")),
    _row("reduce:inv_y-shifted", "reduce", "harmonic",
         (("inv_y = zeta/sqrt(2)", "inv_y = zeta/sqrt(2) + z/10"),),
         ["reduction pipeline"], _SKEWED.format("(p_zeta, z)")),
    _row("propagate:inv_x", "propagate", "harmonic", _INV_X,
         ["reduction pipeline"], _SKEWED.format("(zeta, z)")),
    # 4 slices leave a Trotter error of 2.8e-3 against the 1e-3 tolerance
    _row("propagate:slices-4", "propagate", "harmonic",
         (("slices = 512", "slices = 4"),),
         ["error within declared tolerance"], "partition_rel_err = "),
    # the same in real time: a relative error of 7.1e-2 at the centre
    _row("propagate:real-slices-4", "propagate", "harmonic",
         (("mode = imaginary", "mode = real"), ("beta = 1.0", "time = 1.0"),
          ("slices = 512", "slices = 4")),
         ["error within declared tolerance"], "max_rel_err_central = "),
    # this row fails only through a rounding defect of the real-mode gate: at
    # T = 0.25 the window's edge sits 1e-19 below the kernel's peak, where FFT
    # rounding alone is a relative error of ~2e2 against 1e-4
    _row("propagate:time-0.25", "propagate", "free_particle",
         (("time = 1.0", "time = 0.25"),),
         ["error within declared tolerance"], "max_rel_err_central = "),
    # at T = 0.01 the reference underflows to 0 inside the central window,
    # where a relative error cannot be taken
    _row("propagate:time-0.01", "propagate", "free_particle",
         (("time = 1.0", "time = 0.01"),), ["lattice propagation"],
         "CoverageError: reference underflows to 0 in the central window"),
    _row("propagate:focal-point", "propagate", "harmonic",
         (("mode = imaginary", "mode = classical"),
          ("beta = 1.0", f"time = {math.pi:.15f}")),
         ["lattice propagation"], "FocalPointError: "),
    _row("propagate:not-confining", "propagate", "free_particle",
         (("mode = real", "mode = imaginary"), ("time = 1.0", "beta = 1.0")),
         ["lattice propagation"],
         "ExprError: partition function needs a confining quadratic term"),
    # finite values that pass the file's rules but leave the float range of
    # the lattice arithmetic
    _row("propagate:length-1e-300", "propagate", "harmonic",
         (("length = 16.0\n", "length = 1e-300\n"),),
         ["lattice propagation"], _RANGE.format("imaginary")),
    _row("propagate:beta-1e300", "propagate", "harmonic",
         (("beta = 1.0\n", "beta = 1e300\n"),),
         ["lattice propagation"], _RANGE.format("imaginary")),
    _row("propagate:hbar-1e300", "propagate", "harmonic",
         (("hbar = 1.0\n", "hbar = 1e300\n"),),
         ["lattice propagation"], _RANGE.format("imaginary")),
    _row("propagate:length-1e300", "propagate", "free_particle",
         (("length = 40.0\n", "length = 1e300\n"),),
         ["lattice propagation"], _RANGE.format("real")),
    _row("propagate:time-1e300", "propagate", "free_particle",
         (("time = 1.0\n", "time = 1e300\n"),),
         ["lattice propagation"], _RANGE.format("real")),
    _row("propagate:sigma-1e-300", "propagate", "free_particle",
         (("source_sigma_cells = 6.0\n", "source_sigma_cells = 1e-300\n"),),
         ["lattice propagation"], _RANGE.format("real")),
    # a1 binds as its exact value 2^-1074, so H*'s kinetic coefficient
    # 1/(2*a1) is exact too, and too large for the lattice's floats
    _row("propagate:a1-5e-324", "propagate", "harmonic",
         (("a1 = 1.0\n", "a1 = 5e-324\n"),),
         ["lattice propagation"], "EvalError: value does not fit a float"),
    _row("anomaly:reference-0", "anomaly", "free_particle",
         ((_FREE_REFERENCE, "reference_A_z = 0"),),
         ["gauge-coordinate coefficient nonzero off the surface"],
         "max |A_z| = 0"),
    _row("anomaly:reference-cos", "anomaly", "free_particle",
         ((_FREE_REFERENCE, "reference_A_z = cos(z)"),),
         ["A_z vanishes on the gauge surface"], "max scaled err "),
    _row("anomaly:sqrt-map", "anomaly", "harmonic", _SQRT_MAP,
         ["relations consistent with the chart"], _SINGULAR),
    _row("anomaly:sqrt-guard", "anomaly", "harmonic", _SQRT_GUARD,
         ["relations consistent with the chart",
          "coefficients vanish on the gauge surface",
          "sliced expansion matches reference"], _GUARD_FAILS),
    _row("anomaly:two-sqrt-guards", "anomaly", "harmonic", _TWO_SQRT_GUARDS,
         ["relations consistent with the chart",
          "coefficients vanish on the gauge surface",
          "sliced expansion matches reference"], _GUARD_FAILS),
    _row("anomaly:sliced_constant", "anomaly", "harmonic",
         (("(a1/2)*zeta^2\n", "(a1/2)*zeta^2 + zeta/10\n"),), _SLICED[:1]),
    _row("anomaly:sliced_delta_p", "anomaly", "harmonic",
         (("sliced_delta_p = -(", "sliced_delta_p = ("),), _SLICED[1:2]),
    _row("anomaly:sliced_delta_q", "anomaly", "harmonic",
         (("sliced_delta_q = a1*zeta/4", "sliced_delta_q = a1*zeta/5"),),
         _SLICED[2:]),
    # F's denominator times 1.01: the chart relations and the sliced terms
    _row("anomaly:F-scaled", "anomaly", "harmonic",
         (("/(2*(a1^2*alpha^2 - 1))", "/(2.02*(a1^2*alpha^2 - 1))"),),
         _RELATIONS + _SLICED),
    _row("anomaly:A_zeta", "anomaly", "free_particle",
         _coefficient("A_zeta", "zeta"),
         ["A_zeta vanishes on the gauge surface"]),
    _row("anomaly:B_zeta", "anomaly", "free_particle",
         _coefficient("B_zeta", "zeta"),
         ["B_zeta vanishes on the gauge surface"]),
    _row("anomaly:B_z", "anomaly", "free_particle",
         _coefficient("B_z", "zeta"), ["B_z vanishes on the gauge surface"]),
    _row("anomaly:A_z", "anomaly", "harmonic", _coefficient("A_z", "z"),
         ["all coefficients vanish identically"]),
    _row("anomaly:slope", "anomaly", "harmonic", _slope_one,
         ["correction contribution scales as width^1.5"], "slope 1.0000"),
]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("command, name, corruption, failing, detail",
                         CORRUPTIONS)
def test_a_corruption_fails_exactly_its_lines(command, name, corruption,
                                              failing, detail, tmp_path,
                                              monkeypatch, capsys):
    if callable(corruption):
        corruption(monkeypatch)
        target = name
    else:
        text = bundled_text(name)
        for old, new in corruption:
            assert text.count(old) == 1, old
            text = text.replace(old, new)
        target = _write(tmp_path, text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, target, "--json",
                     "--out", str(tmp_path / "run")])
    out, err = capsys.readouterr()
    assert (code, err, caught) == (EXIT_CHECK, "", [])
    report = json.loads(out, parse_constant=_reject_constant)
    failed = [c for c in report["checks"] if not c["ok"]]
    assert [c["name"] for c in failed] == failing
    assert failed[-1]["detail"].startswith(detail)
    for c in failed:
        if c["name"] == "error within declared tolerance":
            # the gated metric, as reported, is above the declared tolerance
            key = c["detail"].split(" = ")[0]
            tolerance = float(c["detail"].rsplit(" ", 1)[1])
            assert report["metrics"][key] > tolerance >= 1e-4


def test_every_line_of_the_bundled_models_has_a_corruption_row(capsys):
    covered = {(command, line)
               for command, _, _, failing, _ in (r.values for r in CORRUPTIONS)
               for line in failing}
    emitted = set()
    for name in ("harmonic", "free_particle", "free_particle_lambda"):
        for command in ("verify", "reduce", "propagate", "anomaly"):
            # propagate free_particle_lambda exits 1: its grid is too short
            assert main([command, name, "--json"]) in (EXIT_OK, EXIT_CHECK)
            emitted |= {(command, c["name"]) for c in
                        json.loads(capsys.readouterr().out)["checks"]}
    assert sorted(emitted - covered) == []


# ---------------------------------------------------------------------------
# the usage-error table: every load error is one line that names its line
# ---------------------------------------------------------------------------

LOAD = ("verify", "reduce", "propagate", "anomaly")
# special paths: model.sys is a directory or absent, or it is the unedited
# file and --out lies in a directory that does not exist or is empty
DIRECTORY, ABSENT, UNWRITABLE, EMPTY_OUT = (
    "directory", "absent", "unwritable", "empty-out")
_SPECIAL_OUT = {UNWRITABLE: "missing/run", EMPTY_OUT: ""}


def _usage(id, commands, name, edits, line, message):
    return pytest.param(commands, name, edits, line, message, id=id)


def _section(name, header):
    """The [header] section of a bundled file, up to the next header."""
    text = bundled_text(name)
    start = text.index(f"\n[{header}]\n") + 1
    end = text.find("\n[", start)
    return text[start:None if end < 0 else end + 1]


_RANGE_X = "\nx = -2.0, 2.0\n"
_DEEP_F_X = "f_x = " + "(" * 3000 + "-y" + ")" * 3000
_HUGE_N, _HUGE_SLICES = f"n = {2 ** 1300}", "slices = " + "9" * 400
_HARMONIC_F = next(line for line in bundled_text("harmonic").splitlines()
                   if line.startswith("F = "))
_F_WITH_X = "F = x + " + _HARMONIC_F[4:]
_BAD_LATTICE = "bad [lattice] settings: "
_DURATION = _BAD_LATTICE + "duration (T or beta) must be finite and > 0, got "

# One row per usage error: the commands that run it (all four for a load
# error: loading is shared), the bundled model, and either (old, new) edits
# of its file, each old text found once, or a special path; then the text
# of the line that the message names in the edited file (the last line with
# that text: a repeat is reported at its second line), and the start of the
# message after `model.sys:<line>: `.  A message that names no line has line
# None and is given from its start after `error: `.  A lone surrogate in an
# edit is written as the byte it stands for, which is not UTF-8.
USAGE_ERRORS = [
    # the shape of a file
    _usage("load:content-first", LOAD, "harmonic",
           (("# Same rotation", "x = 1\n# Same rotation"),), "x = 1",
           "content before any section"),
    _usage("load:empty-section-name", LOAD, "harmonic", (("[rho]", "[ ]"),),
           "[ ]", "empty section name"),
    _usage("load:duplicate-section", LOAD, "free_particle",
           ((_FREE_REFERENCE, _FREE_REFERENCE + "\n[system]"),), "[system]",
           "duplicate section [system]"),
    _usage("load:unknown-section", LOAD, "free_particle",
           (("[lattice]", "[mystery]\nk = 1\n[lattice]"),), "[mystery]",
           "unknown section [mystery]"),
    _usage("load:missing-section", LOAD, "free_particle",
           ((_section("free_particle", "rho"), ""),), None,
           "model.sys: missing required section [rho]"),
    _usage("load:missing-equals", LOAD, "free_particle",
           (("[charges]", "[charges]\njunk line"),), "junk line",
           "expected 'key = value', got 'junk line'"),
    _usage("load:empty-value", LOAD, "harmonic", (("a1 = 1.0", "a1 ="),),
           "a1 =", "empty key or value"),
    _usage("load:duplicate-key", LOAD, "free_particle",
           (("[system]", "[system]\nf_x = 7"),), "f_x = -y",
           "duplicate key 'f_x' in [system]"),
    _usage("load:unknown-key", LOAD, "free_particle",
           (("[system]", "[system]\nwobble = 3"),), "wobble = 3",
           "unknown [system] key 'wobble'"),
    _usage("load:not-utf8", LOAD, "harmonic",
           (("\n[lattice]", "\n# \udcff\udcfe\n[lattice]"),), "# \udcff\udcfe",
           "not UTF-8 text"),
    _usage("load:absent", LOAD, None, ABSENT, None,
           "'model.sys' is neither a file nor a bundled model (bundled: "
           "free_particle, harmonic, free_particle_lambda)"),
    _usage("load:directory", LOAD, None, DIRECTORY, None,
           "model.sys: cannot read: Is a directory"),
    # [system] and expressions
    _usage("load:coordinates-list", LOAD, "harmonic",
           (("coordinates = x, y", "coordinates = x, , y"),),
           "coordinates = x, , y", "bad coordinates list"),
    _usage("load:coordinate-name", LOAD, "harmonic",
           (("coordinates = x, y", "coordinates = x, 1y"),),
           "coordinates = x, 1y", "bad symbol name '1y'"),
    _usage("load:coordinate-function", LOAD, "harmonic",
           (("coordinates = x, y", "coordinates = x, sin"),),
           "coordinates = x, sin", "'sin' is a reserved function name"),
    _usage("load:coordinate-momentum", LOAD, "harmonic",
           (("coordinates = x, y", "coordinates = x, p_x"),),
           "coordinates = x, p_x",
           "coordinate and momentum names must be disjoint"),
    _usage("load:missing-velocity", LOAD, "free_particle",
           (("f_y = x", "f_q = x"),), "[system]",
           "[system] missing velocity f_y"),
    _usage("load:momentum-in-velocity", LOAD, "harmonic",
           (("f_x = -y", "f_x = -y*p_x"),), "f_x = -y*p_x",
           "unknown identifier 'p_x'"),
    _usage("load:momentum-in-potential", LOAD, "harmonic",
           (("f_y = x", "f_y = x\npotential = p_y^2"),), "potential = p_y^2",
           "unknown identifier 'p_y'"),
    _usage("load:parse-error", LOAD, "free_particle",
           (("f_x = -y", "f_x = -y +"),), "f_x = -y +",
           "unexpected 'end of input' (byte 4)"),
    _usage("load:deep-nesting", LOAD, "harmonic",
           (("f_x = -y", _DEEP_F_X),), _DEEP_F_X,
           "expression nested too deeply (more than 64 levels)"),
    # a constant beyond Python's int-to-text limit could not be printed
    _usage("load:constant-too-long", LOAD, "harmonic",
           (("f_y = x", "f_y = x\npotential = 2^20000"),),
           "potential = 2^20000", "constant too long to print: more than "
           f"{sys.get_int_max_str_digits()} digits"),
    # [charges], [rho] and [params]
    _usage("load:duplicate-charge", LOAD, "free_particle",
           (("[rho]", "C1 = x\n[rho]"),), "C1 = x",
           "duplicate charge 'C1' in [charges]"),
    _usage("load:rho-unknown-charge", LOAD, "free_particle",
           (("[rho]\nC1", "[rho]\nC9"),), "C9 = a1",
           "[rho] references unknown charge 'C9'"),
    # summing both lines would double rho and move the surface H = rho
    _usage("load:rho-repeated", LOAD, "harmonic",
           (("[rho]\nC1 = a1\n", "[rho]\nC1 = a1\nC1 = a1\n"),), "C1 = a1",
           "duplicate key 'C1' in [rho]"),
    # an empty [rho] would load as rho = 0, which only verify would notice
    _usage("load:rho-empty", LOAD, "harmonic",
           (("[rho]\nC1 = a1\n", "[rho]\n"),), "[rho]",
           "[rho] needs a coefficient for at least one charge"),
    _usage("load:parameter-name", LOAD, "harmonic",
           (("a1 = 1.0", "1a = 1.0"),), "1a = 1.0", "bad symbol name '1a'"),
    _usage("load:parameter-nan", LOAD, "harmonic",
           (("a1 = 1.0", "a1 = nan"),), "a1 = nan",
           "parameter a1 must be finite, got nan"),
    _usage("load:parameter-1e400", LOAD, "harmonic",
           (("a1 = 1.0", "a1 = 1e400"),), "a1 = 1e400",
           "parameter a1 must be finite, got inf"),
    _usage("load:hbar-0", LOAD, "harmonic", (("hbar = 1.0", "hbar = 0"),),
           "hbar = 0", "hbar must be finite and > 0, got 0.0"),
    _usage("load:hbar-nan", LOAD, "harmonic", (("hbar = 1.0", "hbar = nan"),),
           "hbar = nan", "hbar must be finite and > 0, got nan"),
    # [constraint]
    _usage("load:missing-solution", LOAD, "free_particle",
           (("solution =", "solved ="),), "[constraint]",
           "[constraint] missing solution"),
    _usage("load:eliminate-target", LOAD, "free_particle",
           (("eliminate = p_x", "eliminate = bogus"),), "eliminate = bogus",
           "eliminate target 'bogus' is not a phase-space variable"),
    # [darboux]
    _usage("load:no-reduced-pair", LOAD, "harmonic",
           (("reduced = zeta : p_zeta\n", ""),), "[darboux]",
           "[darboux] needs a reduced pair line"),
    _usage("load:pair-syntax", LOAD, "free_particle",
           (("reduced = zeta : p_zeta", "reduced = zeta p_zeta"),),
           "reduced = zeta p_zeta",
           "expected '<coord> : <mom>', got 'zeta p_zeta'"),
    _usage("load:pair-name", LOAD, "harmonic",
           (("reduced = zeta : p_zeta", "reduced = 1zeta : p_zeta"),),
           "reduced = 1zeta : p_zeta", "bad symbol name '1zeta'"),
    _usage("load:pair-repeated", LOAD, "harmonic",
           (("reduced = zeta : p_zeta",
             "reduced = zeta : p_zeta\nreduced = zeta : p_zeta"),),
           "reduced = zeta : p_zeta",
           "duplicate reduced pair: 'zeta' is already paired"),
    _usage("load:gauge-repeats-pair", LOAD, "free_particle",
           (("gauge = z : p_z", "gauge = z : p_zeta"),),
           "gauge = z : p_zeta",
           "duplicate reduced pair: 'p_zeta' is already paired"),
    _usage("load:gauge-is-parameter", LOAD, "harmonic",
           (("gauge = z : p_z", "gauge = a1 : p_z"),),
           "gauge = a1 : p_z",
           "symbol 'a1' already registered as parameter"),
    _usage("load:missing-gauge", LOAD, "free_particle",
           (("gauge = z : p_z\n", ""),), "[darboux]",
           "[darboux] needs a gauge pair line"),
    _usage("load:missing-forward", LOAD, "free_particle",
           (("p_z = x*p_y - y*p_x - a1*(x^2 + y^2)\n", ""),), "[darboux]",
           "[darboux] missing forward expression for 'p_z'"),
    _usage("load:missing-inverse", LOAD, "free_particle",
           (("inv_p_y", "inv_p_q"),), "[darboux]",
           "[darboux] missing inverse expression inv_p_y"),
    # [domain]
    _usage("load:missing-range", LOAD, "free_particle",
           (("p_y = -2.0, 2.0\n", ""),), "[domain]",
           "[domain] missing a range for 'p_y'"),
    _usage("load:undeclared-range", LOAD, "free_particle",
           (("[lattice]", "w9 = 0.0, 1.0\n[lattice]"),), "w9 = 0.0, 1.0",
           "[domain] range for undeclared symbol 'w9'"),
    _usage("load:range-syntax", LOAD, "harmonic",
           ((_RANGE_X, "\nx = -2.0\n"),), "x = -2.0",
           "expected '<lo>, <hi>', got '-2.0'"),
    _usage("load:empty-range", LOAD, "free_particle",
           (("p_y = -2.0, 2.0", "p_y = 2.0, -2.0"),), "p_y = 2.0, -2.0",
           "empty range for 'p_y'"),
    _usage("load:infinite-range", LOAD, "harmonic",
           ((_RANGE_X, "\nx = -inf, inf\n"),), "x = -inf, inf",
           "range for 'x' needs finite bounds and a finite width, got -inf, "
           "inf"),
    # hi - lo overflows: every drawn x would be inf
    _usage("load:range-wider-than-float", LOAD, "harmonic",
           ((_RANGE_X, "\nx = -1e308, 1e308\n"),),
           "x = -1e308, 1e308",
           "range for 'x' needs finite bounds and a finite width, got "
           "-1e+308, 1e+308"),
    _usage("load:guard-syntax", LOAD, "free_particle",
           (("[lattice]", "guard = x^2 within 0, 1\n[lattice]"),),
           "guard = x^2 within 0, 1",
           "guard needs '<expr> in <lo>, <hi>'"),
    _usage("load:guard-reversed", LOAD, "harmonic",
           (("in 0.0, 0.88", "in 0.88, 0.0"),),
           "guard = a1^2*alpha^2 in 0.88, 0.0",
           "empty range for guard 'a1^2*alpha^2'"),
    _usage("load:guard-empty", LOAD, "free_particle",
           (("in 0.25, 9.0", "in 9.0, 9.0"),),
           "guard = x^2 + y^2 in 9.0, 9.0",
           "empty range for guard 'x^2 + y^2'"),
    _usage("load:constant-fold", LOAD, "harmonic",
           (("guard = a1^2*alpha^2 in 0.0, 0.88",
             "guard = 1/(x - x) in 0, 1"),), "guard = 1/(x - x) in 0, 1",
           "division by a zero constant"),
    # [lattice]
    _usage("load:time-and-beta", LOAD, "free_particle",
           (("time = 1.0", "time = 1.0\nbeta = 2.0"),), "beta = 2.0",
           "[lattice] sets both time and beta"),
    _usage("load:lattice-unknown-key", LOAD, "free_particle",
           (("time = 1.0", "time = 1.0\nvolume = 2"),), "volume = 2",
           "unknown [lattice] key 'volume'"),
    _usage("load:missing-time", LOAD, "free_particle",
           (("time = 1.0\n", ""),), "[lattice]", "[lattice] missing time"),
    _usage("load:n-abc", LOAD, "free_particle", (("n = 1024", "n = abc"),),
           "n = abc", "bad integer 'abc'"),
    _usage("load:n-1000", LOAD, "free_particle", (("n = 1024", "n = 1000"),),
           "n = 1000",
           _BAD_LATTICE + "grid point count must be a power of two"),
    _usage("load:n-2^1300", LOAD, "harmonic",
           (("n = 256", _HUGE_N),), _HUGE_N,
           _BAD_LATTICE + "grid point count must be at most 1048576"),
    _usage("load:mode-bogus", LOAD, "free_particle",
           (("mode = real", "mode = bogus"),), "mode = bogus",
           _BAD_LATTICE + "unknown lattice mode 'bogus'"),
    _usage("load:slices-400-digits", LOAD, "harmonic",
           (("slices = 512", _HUGE_SLICES),), _HUGE_SLICES,
           _BAD_LATTICE + "need 2 to 1048576 time slices"),
    _usage("load:length-0", LOAD, "free_particle",
           (("length = 40.0", "length = 0"),), "length = 0",
           _BAD_LATTICE + "length must be finite and > 0, got 0.0"),
    _usage("load:length-1e999", LOAD, "free_particle",
           (("length = 40.0", "length = 1e999"),), "length = 1e999",
           _BAD_LATTICE + "length must be finite and > 0, got inf"),
    _usage("load:source_center-nan", LOAD, "free_particle",
           (("source_center = 0.0", "source_center = nan"),),
           "source_center = nan",
           _BAD_LATTICE + "source_center must be finite, got nan"),
    _usage("load:source_center-inf", LOAD, "free_particle",
           (("source_center = 0.0", "source_center = -inf"),),
           "source_center = -inf",
           _BAD_LATTICE + "source_center must be finite, got -inf"),
    _usage("load:sigma-0", LOAD, "free_particle",
           (("source_sigma_cells = 6.0", "source_sigma_cells = 0"),),
           "source_sigma_cells = 0",
           _BAD_LATTICE + "source_sigma_cells must be finite and > 0, "
           "got 0.0"),
    _usage("load:tolerance-0", LOAD, "free_particle",
           (("tolerance = 1e-4", "tolerance = 0"),), "tolerance = 0",
           _BAD_LATTICE + "tolerance must be finite and > 0, got 0.0"),
    _usage("load:time-inf", LOAD, "free_particle",
           (("time = 1.0", "time = inf"),), "time = inf", _DURATION + "inf"),
    _usage("load:beta-negative", LOAD, "harmonic",
           (("beta = 1.0", "beta = -1"),), "beta = -1", _DURATION + "-1.0"),
    _usage("load:beta-subnormal", LOAD, "harmonic",
           (("beta = 1.0", "beta = -1e-320"),), "beta = -1e-320",
           _DURATION + "-1e-320"),
    # [anomaly]
    _usage("load:anomaly-unknown-key", LOAD, "free_particle",
           ((_FREE_REFERENCE, _FREE_REFERENCE + "\nextra_thing = 1"),),
           "extra_thing = 1", "unknown [anomaly] key 'extra_thing'"),
    _usage("load:sliced-partial", LOAD, "free_particle",
           ((_FREE_REFERENCE, _FREE_REFERENCE + "\nsliced_constant = 1"),),
           "sliced_constant = 1", "sliced reference data needs all of "
           "sliced_constant, sliced_delta_p, sliced_delta_q"),
    _usage("load:F-without-reference", LOAD, "free_particle",
           ((_FREE_REFERENCE, ""),),
           "F = -((zeta - p_x*sin(z) + p_y*cos(z))^2)/(4*a1*z)",
           "generating function is not quadratic and [anomaly] declares no "
           "reference_A_z"),
    _usage("load:F-in-defined-variables", LOAD, "harmonic",
           ((_HARMONIC_F, _F_WITH_X),), _F_WITH_X,
           "generating function depends on the defined variables ['x']"),
    # what a command needs beyond a loadable file
    _usage("propagate:no-lattice", ("propagate",), "harmonic",
           ((_section("harmonic", "lattice"), ""),), None,
           "model.sys: no [lattice] section, nothing to propagate"),
    _usage("anomaly:no-anomaly", ("anomaly",), "harmonic",
           ((_section("harmonic", "anomaly"), ""),), None,
           "model.sys: no [anomaly] generating function to analyse"),
    _usage("anomaly:no-F", ("anomaly",), "harmonic",
           (("F = (p_x^2", "# F = (p_x^2"),), None,
           "model.sys: no [anomaly] generating function to analyse"),
    _usage("verify:unwritable-out", ("verify",), "harmonic", UNWRITABLE, None,
           "cannot write missing/run: No such file or directory"),
    _usage("propagate:unwritable-out", ("propagate",), "harmonic", UNWRITABLE,
           None, "cannot write missing/run.npy: No such file or directory"),
    *(_usage(f"{command}:empty-out", (command,), "harmonic", EMPTY_OUT, None,
             "--out needs a path, got an empty one") for command in LOAD),
]


def _check_usage_error(commands, name, edits, line, message, workdir,
                       monkeypatch, capsys):
    """Each command on the row's file, run in the new directory workdir:
    exit 2, no stdout, one stderr line with the row's message, no warning
    and no file written.  Returns the stderr of each command."""
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    os.mkdir("out")
    path, out = "model.sys", "out/run"
    if edits == DIRECTORY:
        os.mkdir(path)
    elif edits != ABSENT:
        text = bundled_text(name)
        if edits in _SPECIAL_OUT:
            edits, out = (), _SPECIAL_OUT[edits]
        for old, new in edits:
            assert text.count(old) == 1, old
            text = text.replace(old, new)
        Path(path).write_bytes(text.encode("utf-8", "surrogateescape"))
    expected = "error: " + message
    if line is not None:
        lineno = len(text.splitlines()) - text.splitlines()[::-1].index(line)
        expected = f"error: {path}:{lineno}: {message}"
    errors = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for command in commands:
            code = main([command, path, "--json", "--out", out])
            stdout, err = capsys.readouterr()
            assert (code, stdout, caught) == (EXIT_USAGE, "", []), command
            assert err.startswith(expected), err
            assert err.count("\n") == 1 and err.endswith("\n"), err
            errors.append(err)
    assert set(os.listdir()) <= {path, "out"} and os.listdir("out") == []
    return errors


@pytest.mark.parametrize("commands, name, edits, line, message",
                         USAGE_ERRORS)
def test_a_usage_error_is_one_line_naming_its_line(
        commands, name, edits, line, message, tmp_path, monkeypatch, capsys):
    _check_usage_error(commands, name, edits, line, message,
                       tmp_path / "row", monkeypatch, capsys)


def test_every_usage_error_raise_has_a_row(tmp_path, monkeypatch, capsys):
    def raises(module, keep):
        tree = ast.parse(Path(module.__file__).read_text())
        return {(module.__file__, node.lineno)
                for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                for node in ast.walk(fn)
                if isinstance(node, ast.Raise) and keep(fn.name, node)}

    # every raise of the loader but the KeyError of bundled_text, which main
    # never reaches (_load checks bundled_names() first), and every
    # SysFileError that the front end raises
    sites = raises(sysfile, lambda fn, node: fn != "bundled_text") | raises(
        cli, lambda fn, node: ast.unparse(node.exc).startswith("SysFileError"))
    files = {file for file, _ in sites}
    ran = set()

    def lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg:
                 lines if frame.f_code.co_filename in files else None)
    try:
        for i, row in enumerate(USAGE_ERRORS):
            _check_usage_error(*row.values, tmp_path / str(i), monkeypatch,
                               capsys)
    finally:
        sys.settrace(previous)
    assert files == {sysfile.__file__, cli.__file__}
    assert sorted(sites - ran) == []


def test_usage_errors_do_not_depend_on_the_models_loaded_before(
        tmp_path, monkeypatch, capsys):
    # a row that edits only [lattice] or a [params] value of a bundled
    # file takes the bundled records once they are kept, and must still
    # give the message of a load with every memo emptied
    cold = []
    for i, row in enumerate(USAGE_ERRORS):
        clear_memos()
        cold.append(_check_usage_error(*row.values, tmp_path / f"cold{i}",
                                       monkeypatch, capsys))
    clear_memos()
    for name in bundled_names():
        load_bundled(name)
    hits = sysfile._records.cache_info().hits
    warm = [_check_usage_error(*row.values, tmp_path / f"warm{i}",
                               monkeypatch, capsys)
            for i, row in enumerate(USAGE_ERRORS)]
    assert sysfile._records.cache_info().hits > hits
    for row, cold_errors, warm_errors in zip(USAGE_ERRORS, cold, warm):
        assert warm_errors == cold_errors, row.id


# ---------------------------------------------------------------------------
# the command-line tests whose rows the two tables took over keep their
# names: each runs its rows of the table again
# ---------------------------------------------------------------------------

_USAGE_ROWS = {row.id: row.values for row in USAGE_ERRORS}
_CORRUPTION_ROWS = {row.id: row.values for row in CORRUPTIONS}


@pytest.fixture
def usage_error(tmp_path, monkeypatch, capsys):
    """Runs the USAGE_ERRORS row of an id, with other commands if given."""
    def run(id, commands=None):
        row_commands, *rest = _USAGE_ROWS[id]
        _check_usage_error(commands or row_commands, *rest, tmp_path / "row",
                           monkeypatch, capsys)
    return run


@pytest.mark.parametrize("id", [f"load:{id}" for id in (
    "length-0", "length-1e999", "source_center-nan", "source_center-inf",
    "time-inf", "tolerance-0", "sigma-0", "beta-negative", "beta-subnormal",
    "hbar-0", "hbar-nan", "slices-400-digits", "n-2^1300")],
    ids=lambda id: "{1}:{2[0][1]:.24}".format(*_USAGE_ROWS[id]))
def test_bad_lattice_values_are_usage_errors_at_their_line(id, usage_error):
    usage_error(id)


@pytest.mark.parametrize("command", ["verify", "reduce", "anomaly"])
@pytest.mark.parametrize("id", [f"load:{id}" for id in (
    "coordinate-momentum", "momentum-in-potential", "momentum-in-velocity")],
    ids=["coordinates", "potential", "velocity"])
def test_structure_errors_are_usage_errors_with_their_line(id, command,
                                                           usage_error):
    usage_error(id, (command,))


@pytest.mark.parametrize("id", [f"load:{id}" for id in (
    "coordinate-name", "coordinate-function", "parameter-name", "pair-name",
    "gauge-is-parameter")],
    ids=["coordinate", "function", "parameter", "reduced", "clash"])
def test_bad_declared_names_are_usage_errors_with_their_line(id,
                                                             usage_error):
    usage_error(id)


@pytest.mark.parametrize("id", ["verify:unwritable-out",
                                "propagate:unwritable-out"],
                         ids=["verify-x.json", "propagate-x"])
def test_an_unwritable_out_is_a_usage_error_naming_it(id, usage_error):
    usage_error(id)


def test_constant_fold_in_a_file_is_a_usage_error(usage_error):
    usage_error("load:constant-fold")


def test_deep_nesting_is_a_usage_error_with_its_line(usage_error):
    usage_error("load:deep-nesting")


def test_a_bundled_name_wins_over_a_local_path(tmp_path, monkeypatch,
                                               capsys):
    monkeypatch.chdir(tmp_path)
    os.mkdir("harmonic")
    assert main(["verify", "harmonic", "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["model"] == "harmonic"
    assert main(["verify", "./harmonic"]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: ./harmonic: cannot read: Is a directory\n")


@pytest.mark.parametrize("name", bundled_names())
def test_a_byte_order_mark_gives_the_bundled_report(name, tmp_path, capsys):
    # an editor may start a UTF-8 file with U+FEFF; the copy, named like
    # the bundled file, takes its records from the content memo
    path = tmp_path / f"{name}.sys"
    path.write_bytes(b"\xef\xbb\xbf" + bundled_text(name).encode("utf-8"))
    load_bundled(name)
    before = sysfile._records.cache_info()
    for command in ("verify", "reduce", "propagate", "anomaly"):
        bundled = _report_and_artifacts([command, name], capsys)
        assert _report_and_artifacts([command, str(path)], capsys) == bundled
    after = sysfile._records.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_missing_file_is_a_usage_error(usage_error):
    usage_error("load:absent")


def test_a_directory_is_a_usage_error_naming_it(usage_error):
    usage_error("load:directory")


def test_non_utf8_bytes_are_a_usage_error_at_their_line(usage_error):
    usage_error("load:not-utf8")


def test_propagate_needs_a_lattice_section(usage_error):
    usage_error("propagate:no-lattice")


def test_anomaly_needs_reference_data_for_a_non_quadratic_F(usage_error):
    usage_error("load:F-without-reference")


def test_an_F_in_the_variables_it_defines_is_a_usage_error(usage_error):
    usage_error("load:F-in-defined-variables")


def test_anomaly_needs_an_anomaly_section(usage_error):
    usage_error("anomaly:no-anomaly")


def test_anomaly_without_F_names_the_file(usage_error):
    usage_error("anomaly:no-F")


@pytest.mark.parametrize("command", ["verify", "reduce", "anomaly"])
@pytest.mark.parametrize("where", ["sqrt-map", "sqrt-guard"],
                         ids=["forward map", "guard"])
def test_unevaluable_chart_fails_with_a_typed_error(where, command, tmp_path,
                                                    monkeypatch, capsys):
    test_a_corruption_fails_exactly_its_lines(
        *_CORRUPTION_ROWS[f"{command}:{where}"], tmp_path, monkeypatch, capsys)


# ---------------------------------------------------------------------------
# what perfbench/ relies on
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", ["verify", "reduce", "propagate",
                                     "anomaly"])
def test_main_runs_the_command_bound_at_call_time(command, monkeypatch,
                                                  capsys):
    # the benchmark's tracer replaces emq.cli.cmd_<name> after import
    seen = []

    def stand_in(model, rep, *rest):
        seen.append((model.name, rep.command, rep.seed))
        rep.check("stand-in", False)

    monkeypatch.setattr(cli, f"cmd_{command}", stand_in)
    assert main([command, "harmonic", "--seed", "4"]) == EXIT_CHECK
    assert seen == [("harmonic", command, 4)]
    assert "[FAIL] stand-in" in capsys.readouterr().out


def test_the_last_reduction_piece_carries_the_reduced_system():
    model = load_bundled("harmonic")
    *_, result = run_reduction(model.system, model.constraint, model.darboux)
    assert isinstance(result.system, ReducedSystem)


# ---------------------------------------------------------------------------
# json output
# ---------------------------------------------------------------------------

def test_json_report_schema(capsys):
    assert main(["verify", "harmonic", "--json", "--seed", "7"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "verify"
    assert payload["model"] == "harmonic"
    assert payload["seed"] == 7
    assert payload["ok"] is True
    assert all({"name", "ok", "detail"} <= set(c) for c in payload["checks"])
    details = {c["name"]: c["detail"] for c in payload["checks"]}
    assert details["rho conserved along the flow"].startswith("max scaled err")
    assert "version" in payload and "elapsed_s" in payload


def test_json_anomaly_metrics(capsys):
    assert main(["anomaly", "harmonic", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    names = [c["name"] for c in payload["checks"]]
    assert any("sliced" in n for n in names)
    assert any("scales" in n for n in names)
    assert payload["metrics"]["correction_scaling_slope"] == pytest.approx(
        1.5, abs=0.05)


def test_usage_exit_for_unknown_subcommand(capsys):
    assert main(["transmogrify", "harmonic"]) == EXIT_USAGE
    assert "invalid choice" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# warm process: memoized front end and the reused argument parser
# ---------------------------------------------------------------------------

def _report_and_artifacts(argv, capsys):
    code = main(argv + ["--json"])
    report = json.loads(capsys.readouterr().out)
    report.pop("elapsed_s")
    artifacts = {label: Path(path).read_bytes()
                 for label, path in report["outputs"].items()}
    return code, report, artifacts


def test_warm_and_cold_runs_give_the_same_reports(tmp_path, monkeypatch,
                                                  capsys):
    tokenized = []
    tokenize = expr._tokenize

    def counting(text):
        tokenized.append(text)
        return tokenize(text)

    monkeypatch.setattr(expr, "_tokenize", counting)
    for name in ("harmonic", "free_particle", "free_particle_lambda"):
        for command in ("verify", "reduce", "propagate", "anomaly"):
            argv = [command, name]
            if command == "propagate":
                argv += ["--out", str(tmp_path / name)]
            first = _report_and_artifacts(argv, capsys)
            tokenized.clear()
            warm = _report_and_artifacts(argv, capsys)
            assert tokenized == [], f"{command} {name} parsed again"
            assert warm == first
            clear_memos()
            cold = _report_and_artifacts(argv, capsys)
            assert tokenized, "the cleared memos were not parsed afresh"
            assert cold == first, f"{command} {name}"


def test_each_cache_keeps_its_bound():
    # a candidate stream keeps every point it accepted, a model a whole
    # file and a lattice run its grid arrays, so their caches are smaller
    # than the symbolic ones; a bound H* is kept per (H*, params), about
    # one per model
    bounds = {expr._parse: 1 << 16, expr._normalize_node: 1 << 16,
              expr.expand: 1 << 16, expr._differentiate: 1 << 16,
              expr._substitute: 1 << 16, expr._stream: 1 << 4,
              expr.sampled_check: 1 << 12, expr._text: 1 << 12,
              sysfile._assemble: 1 << 6, sysfile._records: 1 << 6,
              cli._parser: 1, symplectic.poisson_bracket: 1 << 12,
              pathint._bind: 1 << 6, pathint._lattice_run: 4}
    assert memos() == set(bounds)
    for memo, size in bounds.items():
        assert memo.cache_parameters() == {"maxsize": size, "typed": False}


def test_a_second_seed_takes_every_bracket_from_the_memo(capsys):
    # a bracket does not depend on the seed
    def run(seed):
        assert main(["verify", "harmonic", "--json", "--seed", seed]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        report.pop("elapsed_s")
        return report

    run("5")
    before = symplectic.poisson_bracket.cache_info()
    second = run("6")
    after = symplectic.poisson_bracket.cache_info()
    assert after.misses == before.misses and after.hits > before.hits
    symplectic.poisson_bracket.cache_clear()
    assert run("6") == second


def test_a_second_seed_takes_the_lattice_run_from_the_memo(capsys):
    # a lattice run reads H*, [lattice] and [params], never the seed
    def run(seed):
        assert main(["propagate", "harmonic", "--json", "--seed",
                     seed]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        report.pop("elapsed_s")
        return report

    run("5")
    before = pathint._lattice_run.cache_info()
    second = run("6")
    after = pathint._lattice_run.cache_info()
    assert after.misses == before.misses and after.hits == before.hits + 1
    pathint._lattice_run.cache_clear()
    assert run("6") == second


def test_a_second_run_hits_the_symbolic_caches_and_misses_none(capsys):
    symbolic = (expr._parse, expr._normalize_node, expr._differentiate,
                expr._substitute)

    def run():
        before = [memo.cache_info() for memo in symbolic]
        for command in ("reduce", "anomaly"):
            assert main([command, "harmonic"]) == EXIT_OK
        capsys.readouterr()
        after = [memo.cache_info() for memo in symbolic]
        return [(b.misses, a.misses, a.hits - b.hits)
                for b, a in zip(before, after)]

    clear_memos()
    run()
    # the kept model is handed back, so nothing is parsed again
    models = sysfile._assemble.cache_info().hits
    warm = run()
    assert sysfile._assemble.cache_info().hits == models + 2
    assert [m0 == m1 for m0, m1, _ in warm] == [True] * 4
    assert [hits > 0 for _, _, hits in warm] == [False, True, True, True]
    # with only the text memo emptied, the first load takes the records
    # from the content memo and the second the model from the text memo,
    # so nothing is parsed either
    records = sysfile._records.cache_info().hits
    sysfile._assemble.cache_clear()
    shared = run()
    assert sysfile._records.cache_info().hits == records + 1
    assert [m0 == m1 for m0, m1, _ in shared] == [True] * 4
    assert [hits > 0 for _, _, hits in shared] == [False, True, True, True]
    # with both model memos emptied, the file is assembled again from the
    # kept parses, normal forms, derivatives and substitutions
    sysfile._assemble.cache_clear()
    sysfile._records.cache_clear()
    again = run()
    assert [m0 == m1 and hits > 0 for m0, m1, hits in again] == [True] * 4


def test_checks_worked_out_again_read_the_kept_values(tmp_path, capsys):
    # with only the sampled-check table emptied, every sampled result is
    # worked out again on the kept sample sets: the same reports
    for name in ("harmonic", "free_particle", "free_particle_lambda"):
        for command in ("verify", "reduce", "propagate", "anomaly"):
            argv = [command, name, "--seed", "11"]
            if command == "propagate":
                argv += ["--out", str(tmp_path / name)]
            expr.sampled_check.cache_clear()
            first = _report_and_artifacts(argv, capsys)
            expr.sampled_check.cache_clear()
            again = _report_and_artifacts(argv, capsys)
            assert again == first, f"{command} {name}"


def test_a_file_edited_between_calls_is_read_again(tmp_path, capsys):
    path = _write(tmp_path, bundled_text("harmonic"))
    assert main(["verify", path]) == EXIT_OK
    broken = bundled_text("harmonic").replace(
        "zeta = -(p_x - x/alpha - a1*y)/(sqrt(2)*a1)",
        "zeta = (p_x - x/alpha - a1*y)/(sqrt(2)*a1)")
    _write(tmp_path, broken)
    assert main(["verify", path]) == EXIT_CHECK
    assert "{p_zeta, zeta}" in capsys.readouterr().out
    _write(tmp_path, bundled_text("harmonic"))
    assert main(["verify", path]) == EXIT_OK
    assert "[FAIL]" not in capsys.readouterr().out


def test_the_reused_parser_starts_every_call_afresh(tmp_path, monkeypatch,
                                                    capsys):
    monkeypatch.chdir(tmp_path)
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    for _ in range(2):
        assert main(["bogus"]) == EXIT_USAGE
        assert "invalid choice" in capsys.readouterr().err
        assert main(["--version"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == f"emq {__version__}"

    copy = tmp_path / "report.json"
    assert main(["verify", "harmonic", "--json", "--seed", "7",
                 "--out", str(copy)]) == EXIT_OK
    capsys.readouterr()
    assert json.loads(copy.read_text())["seed"] == 7
    copy.unlink()
    # no --out, --json or --seed: none of the last call's values carry over
    assert main(["verify", "harmonic"]) == EXIT_OK
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr().out.startswith(
        f"emq verify harmonic (seed 0, v{__version__})")
