import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import clear_memos, memos
from emq import __version__, cli, expr, symplectic, sysfile
from emq.cli import EXIT_CHECK, EXIT_OK, EXIT_USAGE, main
from emq.expr import MAX_NESTING, SampleDomain, columns
from emq.pathint import propagate_quantum
from emq.reduction import ReducedSystem, run_reduction
from emq.sysfile import bundled_text, load_bundled


def _write(tmp_path, text, name="model.sys"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


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


def test_constant_fold_in_a_file_is_a_usage_error(tmp_path, capsys):
    text = bundled_text("harmonic").replace(
        "guard = a1^2*alpha^2 in 0.0, 0.88", "guard = 1/(x - x) in 0, 1")
    lineno = text.splitlines().index("guard = 1/(x - x) in 0, 1") + 1
    path = _write(tmp_path, text)
    assert main(["verify", path]) == EXIT_USAGE
    assert f"{path}:{lineno}:" in capsys.readouterr().err


_UNEVALUABLE = {
    "forward map": ("p_zeta = (p_y + a1*x - y/alpha)/sqrt(2)",
                    "p_zeta = sqrt(x)"),
    "guard": ("guard = a1^2*alpha^2 in 0.0, 0.88",
              "guard = a1^2*alpha^2 in 0.0, 0.88\nguard = sqrt(x) in 0.0, 9.0"),
}


@pytest.mark.parametrize("command", ["verify", "reduce", "anomaly"])
@pytest.mark.parametrize("where", sorted(_UNEVALUABLE))
def test_unevaluable_chart_fails_with_a_typed_error(where, command, tmp_path,
                                                    capsys):
    old, new = _UNEVALUABLE[where]
    text = bundled_text("harmonic")
    assert old in text
    assert main([command, _write(tmp_path, text.replace(old, new))]) in (
        EXIT_CHECK, EXIT_USAGE)
    captured = capsys.readouterr()
    lines = [line for line in captured.out.splitlines() if "[FAIL]" in line]
    lines += [line for line in captured.err.splitlines()
              if line.startswith("error:")]
    assert any("DomainError" in line or "NegativeSqrtError" in line
               for line in lines)
    assert "Traceback" not in captured.err


_STRUCTURE = {
    "velocity": ("f_x = -y", "f_x = -y*p_x"),
    "potential": ("f_y = x", "f_y = x\npotential = p_y^2"),
    "coordinates": ("coordinates = x, y", "coordinates = x, p_x"),
}


@pytest.mark.parametrize("command", ["verify", "reduce", "anomaly"])
@pytest.mark.parametrize("where", sorted(_STRUCTURE))
def test_structure_errors_are_usage_errors_with_their_line(where, command,
                                                           tmp_path, capsys):
    old, new = _STRUCTURE[where]
    text = bundled_text("harmonic")
    assert old in text
    text = text.replace(old, new)
    lineno = text.splitlines().index(new.splitlines()[-1]) + 1
    path = _write(tmp_path, text)
    assert main([command, path]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{path}:{lineno}:" in err and "Traceback" not in err


_BAD_NAMES = {
    "coordinate": ("coordinates = x, y", "coordinates = x, 1y"),
    "function": ("coordinates = x, y", "coordinates = x, sin"),
    "parameter": ("a1 = 1.0", "1a = 1.0"),
    "reduced": ("reduced = zeta : p_zeta", "reduced = 1zeta : p_zeta"),
    "clash": ("gauge = z : p_z", "gauge = a1 : p_z"),
}


@pytest.mark.parametrize("where", sorted(_BAD_NAMES))
def test_bad_declared_names_are_usage_errors_with_their_line(where, tmp_path,
                                                             capsys):
    old, new = _BAD_NAMES[where]
    text = bundled_text("harmonic")
    assert text.count(old) == 1
    text = text.replace(old, new)
    lineno = text.splitlines().index(new) + 1
    path = _write(tmp_path, text)
    assert main(["verify", path]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{path}:{lineno}:" in err and "Traceback" not in err


def test_reduce_draws_each_sample_set_once(monkeypatch, capsys):
    draws = []
    draw = SampleDomain._draw

    def counting(self, n, seed=0, rng=None):
        draws.append((n, seed))
        return draw(self, n, seed=seed, rng=rng)

    monkeypatch.setattr(SampleDomain, "_draw", counting)
    # --seed reaches every sampled check, the constraint validation included
    # the sampled checks are memoized too; cleared, each compares afresh
    for s in (5, 0):
        draws.clear()
        expr._sample_columns.cache_clear()
        expr.sampled_check.cache_clear()
        assert main(["reduce", "harmonic", "--json", "--seed", str(s)]) \
            == EXIT_OK
        cached = json.loads(capsys.readouterr().out)
        assert sorted(draws) == [(1, s), (64, s), (200, s)]
        # a second run at the same seed shares every set, the point at which
        # the presymplectic rank is logged included
        assert main(["reduce", "harmonic", "--json", "--seed", str(s)]) \
            == EXIT_OK
        again = json.loads(capsys.readouterr().out)
        assert sorted(draws) == [(1, s), (64, s), (200, s)]
        assert again["provenance"] == cached["provenance"]

    # the same report when every comparison draws its points afresh
    monkeypatch.setattr(SampleDomain, "sample_columns",
                        lambda self, n, seed=0: columns(self.sample(n, seed)))
    expr.sampled_check.cache_clear()
    assert main(["reduce", "harmonic", "--json"]) == EXIT_OK
    fresh = json.loads(capsys.readouterr().out)
    assert len(draws) > 10
    assert cached["checks"] == fresh["checks"]
    assert cached["metrics"] == fresh["metrics"]


def test_a_range_wider_than_float_fails_its_checks_without_a_warning(
        tmp_path, capsys):
    # hi - lo overflows to inf: every drawn x is inf, as rng.uniform gives,
    # and the comparisons that read x fail with a typed error
    text = bundled_text("harmonic")
    assert text.count("\nx = -2.0, 2.0\n") == 1
    path = _write(tmp_path, text.replace("\nx = -2.0, 2.0\n",
                                         "\nx = -1e308, 1e308\n"))
    failing = {
        "verify": {"H_plus - H_minus reproduces H": "DomainError: sampling "
                   "hit a singular point: non-finite value in ",
                   "both halves nonnegative on the chart":
                   "EvalError: non-finite value in "},
        "reduce": {},
        "anomaly": {"relations consistent with the chart": "DomainError: "
                    "sampling hit a singular point: non-finite value in "},
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for command, expected in failing.items():
            code = main([command, path, "--json"])
            out, err = capsys.readouterr()
            report = json.loads(out)
            assert code == (EXIT_CHECK if expected else EXIT_OK), command
            assert err == ""
            failed = {c["name"]: c["detail"] for c in report["checks"]
                      if not c["ok"]}
            assert failed.keys() == expected.keys(), command
            for name, start in expected.items():
                assert failed[name].startswith(start)
                assert "'x': inf, 'y': 1.03181761176121," in failed[name]


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


def test_deep_nesting_is_a_usage_error_with_its_line(tmp_path, capsys):
    deep = "(" * 3000 + "-y" + ")" * 3000
    text = bundled_text("harmonic").replace("f_x = -y", f"f_x = {deep}")
    lineno = text.splitlines().index(f"f_x = {deep}") + 1
    path = _write(tmp_path, text)
    assert main(["verify", path]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{path}:{lineno}:" in err and "nested too deeply" in err


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
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    bare = subprocess.run([sys.executable, "-m", "emq", "reduce", path],
                          capture_output=True, text=True, env=env)
    assert bare.returncode == code
    assert bare.stderr == err
    if code == EXIT_USAGE:
        assert f"{path}:{lineno}:" in err and "nested too deeply" in err


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


def test_missing_file_is_a_usage_error(capsys):
    assert main(["verify", "/no/such/file.sys"]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_a_directory_is_a_usage_error_naming_it(tmp_path, capsys):
    path = tmp_path / "models.sys"
    path.mkdir()
    assert main(["verify", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: {path}: cannot read: Is a directory\n"


def test_non_utf8_bytes_are_a_usage_error_at_their_line(tmp_path, capsys):
    text = bundled_text("harmonic").encode()
    cut = text.index(b"\n[lattice]")
    path = tmp_path / "binary.sys"
    path.write_bytes(text[:cut] + b"\n# \xff\xfe\n" + text[cut:])
    line = text[:cut].count(b"\n") + 2
    assert main(["verify", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: {path}:{line}: not UTF-8 text\n"


@pytest.mark.parametrize("command, out", [("verify", "x.json"),
                                          ("propagate", "x")])
def test_an_unwritable_out_is_a_usage_error_naming_it(command, out, tmp_path,
                                                       capsys):
    missing = tmp_path / "missing"
    assert main([command, "harmonic", "--out", str(missing / out)]) \
        == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {missing / 'x'}")
    assert captured.err.endswith(": No such file or directory\n")
    assert captured.err.count("\n") == 1
    assert not missing.exists()


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

def test_reduce_reports_the_closed_form(capsys):
    assert main(["reduce", "harmonic"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "reduced hamiltonian" in out
    assert "p_zeta" in out


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


_BAD_LATTICE_EDITS = [
    ("free_particle", "length = 40.0", "length = 0"),
    ("free_particle", "length = 40.0", "length = 1e999"),
    ("free_particle", "source_center = 0.0", "source_center = nan"),
    ("free_particle", "source_center = 0.0", "source_center = -inf"),
    ("free_particle", "time = 1.0", "time = inf"),
    ("free_particle", "tolerance = 1e-4", "tolerance = 0"),
    ("free_particle", "source_sigma_cells = 6.0", "source_sigma_cells = 0"),
    ("harmonic", "beta = 1.0", "beta = -1"),
    ("harmonic", "beta = 1.0", "beta = -1e-320"),
    ("harmonic", "hbar = 1.0", "hbar = 0"),
    ("harmonic", "hbar = 1.0", "hbar = nan"),
    ("harmonic", "slices = 512", "slices = " + "9" * 400),
    ("harmonic", "n = 256", f"n = {2 ** 1300}"),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name, line, edit", _BAD_LATTICE_EDITS,
                         ids=[f"{name}:{edit[:24]}"
                              for name, _, edit in _BAD_LATTICE_EDITS])
def test_bad_lattice_values_are_usage_errors_at_their_line(
        name, line, edit, tmp_path, capsys):
    lines = bundled_text(name).splitlines()
    lineno = lines.index(line) + 1
    lines[lineno - 1] = edit
    path = _write(tmp_path, "\n".join(lines) + "\n")
    # an exception or a numeric warning escaping main() fails the test, as
    # it would end `python -W error::RuntimeWarning -m emq` in a traceback
    assert main(["propagate", path]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}:{lineno}: ")


def test_propagate_needs_a_lattice_section(tmp_path, capsys):
    text = bundled_text("harmonic")
    head, _, tail = text.partition("[lattice]")
    chopped = head + "[anomaly]" + tail.partition("[anomaly]")[2]
    path = _write(tmp_path, chopped)
    assert main(["propagate", path]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{path}: no [lattice] section" in err
    assert "Traceback" not in err


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


def _every_command_fails_at_the_line_of_F(text, message, tmp_path, capsys):
    # the loader rejects the file, so every command exits 2 on it
    lineno = [line.startswith("F = ") for line in text.splitlines()].index(
        True) + 1
    path = _write(tmp_path, text)
    for command in ("verify", "reduce", "propagate", "anomaly"):
        assert main([command, path]) == EXIT_USAGE, command
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:{lineno}: {message}"), command
        assert len(err.strip().splitlines()) == 1, command


def test_anomaly_needs_reference_data_for_a_non_quadratic_F(tmp_path, capsys):
    text = bundled_text("free_particle")
    assert text.count(_FREE_REFERENCE) == 1
    _every_command_fails_at_the_line_of_F(
        text.replace(_FREE_REFERENCE, ""),
        "generating function is not quadratic and [anomaly] declares no "
        "reference_A_z", tmp_path, capsys)


def test_an_F_in_the_variables_it_defines_is_a_usage_error(tmp_path, capsys):
    text = bundled_text("harmonic")
    assert text.count("F = (p_x^2") == 1
    _every_command_fails_at_the_line_of_F(
        text.replace("F = (p_x^2", "F = x + (p_x^2"),
        "generating function depends on the defined variables ['x']",
        tmp_path, capsys)


@pytest.mark.parametrize("name", ["free_particle", "harmonic"])
def test_anomaly_bundled_models(name, capsys):
    assert main(["anomaly", name]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[FAIL]" not in out


def test_anomaly_needs_an_anomaly_section(tmp_path, capsys):
    text = bundled_text("harmonic").partition("[anomaly]")[0]
    path = _write(tmp_path, text)
    assert main(["anomaly", path]) == EXIT_USAGE
    assert "anomaly" in capsys.readouterr().err.lower()


def test_anomaly_without_F_names_the_file(tmp_path, capsys):
    text = bundled_text("harmonic")
    lines = [line for line in text.splitlines(keepends=True)
             if not line.startswith("F = ")]
    assert len(lines) == len(text.splitlines()) - 1
    path = _write(tmp_path, "".join(lines))
    assert main(["anomaly", path]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{path}: no [anomaly] generating function" in err
    assert "Traceback" not in err


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
            dataclasses.replace(exact(*args), **{name: expr.Sym(value)})))
    return patch


def _slope_one(monkeypatch):
    # correction_scaling's slope is 1.5 by construction for any nonzero
    # correction, so only a patched binding fails that line
    exact = cli.correction_scaling
    monkeypatch.setattr(cli, "correction_scaling", lambda *args, **kw: (
        dataclasses.replace(exact(*args, **kw), slope=1.0)))


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
    _row("anomaly:reference-0", "anomaly", "free_particle",
         ((_FREE_REFERENCE, "reference_A_z = 0"),),
         ["gauge-coordinate coefficient nonzero off the surface"],
         "max |A_z| = 0"),
    _row("anomaly:reference-cos", "anomaly", "free_particle",
         ((_FREE_REFERENCE, "reference_A_z = cos(z)"),),
         ["A_z vanishes on the gauge surface"], "max scaled err "),
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
    # a sample set holds n points per symbol and a model a whole file, so
    # their caches are smaller than the symbolic ones
    bounds = {expr._parse: 1 << 16, expr._normalize_node: 1 << 16,
              expr._expand: 1 << 16, expr._differentiate: 1 << 16,
              expr._substitute: 1 << 16, expr._sample_columns: 1 << 6,
              expr.sampled_check: 1 << 12, sysfile._assemble: 1 << 6,
              cli._parser: 1}
    assert memos() == set(bounds)
    for memo, size in bounds.items():
        assert memo.cache_parameters() == {"maxsize": size, "typed": False}


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
    # with only the model cache emptied, the file is assembled again from
    # the kept parses, normal forms, derivatives and substitutions
    sysfile._assemble.cache_clear()
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
