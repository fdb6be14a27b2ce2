import json
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from emq import __version__, cli, expr, symplectic
from emq.cli import EXIT_CHECK, EXIT_OK, EXIT_USAGE, main
from emq.expr import SampleDomain, columns
from emq.pathint import propagate_quantum
from emq.reduction import run_reduction
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


def test_verify_names_the_failing_bracket(tmp_path, capsys):
    broken = bundled_text("harmonic").replace(
        "zeta = -(p_x - x/alpha - a1*y)/(sqrt(2)*a1)",
        "zeta = (p_x - x/alpha - a1*y)/(sqrt(2)*a1)")
    path = _write(tmp_path, broken)
    assert main(["verify", path]) == EXIT_CHECK
    out = capsys.readouterr().out
    assert "[FAIL]" in out
    assert "zeta" in out


def test_verify_without_chi_has_no_gauge_pair_line(tmp_path, capsys):
    chi = "chi = p_y - y/alpha - a1*x\n"
    text = bundled_text("harmonic")
    assert text.count(chi) == 1
    path = _write(tmp_path, text.replace(chi, ""))
    assert main(["verify", path, "--json"]) == EXIT_OK
    names = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]]
    assert "canonical bracket table" in names
    assert "gauge pair second class" not in names


def test_rho_line_reports_the_bracket_and_can_fail(tmp_path, capsys):
    assert main(["verify", "harmonic", "--json"]) == EXIT_OK
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    rho = checks["rho conserved along the flow"]
    assert rho["detail"].startswith("max scaled err")

    broken = bundled_text("harmonic").replace(
        "C2 = x*p_x + y*p_y", "C2 = x*p_x + y*p_y\nC3 = x").replace(
        "[rho]\nC1 = a1", "[rho]\nC1 = a1\nC3 = 1")
    assert "C3 = 1" in broken
    assert main(["verify", _write(tmp_path, broken), "--json"]) == EXIT_CHECK
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    rho = checks["rho conserved along the flow"]
    assert rho["ok"] is False and "max scaled err" in rho["detail"]

    # a rho whose bracket cannot be evaluated on the chart fails the same line
    singular = bundled_text("harmonic").replace("[rho]\nC1 = a1",
                                                "[rho]\nC1 = sqrt(x)")
    assert main(["verify", _write(tmp_path, singular), "--json"]) == EXIT_CHECK
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    rho = checks["rho conserved along the flow"]
    assert rho["ok"] is False and "cannot be evaluated" in rho["detail"]


@pytest.mark.parametrize("old, new, flipped", [
    ("[rho]\nC1 = a1", "[rho]\nC1 = -a1",
     ["both halves nonnegative on the chart"]),
    ("chi = p_y - y/alpha - a1*x", "chi = p_x - x/alpha + a1*y",
     ["gauge pair second class"]),
    ("solution = x/alpha - a1*y", "solution = x/alpha + a1*y",
     ["constraint solution solves phi = 0",
      "constrained chart volume constant"]),
    ("C2 = x*p_x + y*p_y", "C2 = x*p_x", ["charge C2 conserved"]),
    # rho = a1*C1, so a charge that is not conserved takes rho with it
    ("C1 = x^2 + y^2", "C1 = x^2 + 2*y^2",
     ["charge C1 conserved", "rho conserved along the flow"]),
])
def test_verify_mutations_flip_their_checks(old, new, flipped, tmp_path,
                                            capsys):
    text = bundled_text("harmonic")
    assert old in text
    path = _write(tmp_path, text.replace(old, new))
    assert main(["verify", path, "--json"]) == EXIT_CHECK
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks if not c["ok"]] == flipped


def test_a_faulty_normal_form_fails_the_split_identity(monkeypatch, capsys):
    # H_plus - H_minus = H is an identity of the exact core; a normal form
    # that scales every quotient's denominator by 101/100 breaks it
    exact = symplectic.normalize

    def skewed(e):
        if isinstance(e, expr.Div):
            e = expr.Div(e.num, expr.Mul((expr.Const(Fraction(101, 100)),
                                          e.den)))
        return exact(e)

    monkeypatch.setattr(symplectic, "normalize", skewed)
    assert main(["verify", "harmonic", "--json"]) == EXIT_CHECK
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks if not c["ok"]] == [
        "H_plus - H_minus reproduces H"]


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
    sample = SampleDomain.sample

    def counting(self, n, seed=0, rng=None):
        draws.append((n, seed))
        return sample(self, n, seed=seed, rng=rng)

    monkeypatch.setattr(SampleDomain, "sample", counting)
    # --seed reaches every sampled check, the constraint validation included
    # the sampled checks are memoized too; cleared, each compares afresh
    for s in (5, 0):
        draws.clear()
        expr._SAMPLES.clear()
        expr._CHECKS.clear()
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
    expr._CHECKS.clear()
    assert main(["reduce", "harmonic", "--json"]) == EXIT_OK
    fresh = json.loads(capsys.readouterr().out)
    assert len(draws) > 10
    assert cached["checks"] == fresh["checks"]
    assert cached["metrics"] == fresh["metrics"]


# sin( levels: the parser gives up at about 247 in a bare process and at
# about 238 under pytest, whose frames are already on the stack
_DEEP = 200


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_deleting_any_line_of_a_bundled_file_ends_in_a_verdict(tmp_path,
                                                               capsys):
    # every non-comment line of every bundled file deleted in turn, under
    # all four commands: a verdict or a one-line usage error naming the
    # file (with its line, except for a missing section), never a traceback
    seen = set()
    for name in ("harmonic", "free_particle", "free_particle_lambda"):
        lines = bundled_text(name).splitlines(keepends=True)
        for i, line in enumerate(lines):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            path = _write(tmp_path, "".join(lines[:i] + lines[i + 1:]),
                          name=f"{name}_without_{i + 1}.sys")
            for command in ("verify", "reduce", "propagate", "anomaly"):
                code = main([command, path])
                err = capsys.readouterr().err
                where = (command, name, line)
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


_EXTREME_LATTICE_EDITS = [
    ("harmonic", "length = 16.0", "length = 1e-300"),
    ("harmonic", "beta = 1.0", "beta = 1e300"),
    ("harmonic", "hbar = 1.0", "hbar = 1e300"),
    ("free_particle", "length = 40.0", "length = 1e300"),
    ("free_particle", "time = 1.0", "time = 1e300"),
    ("free_particle", "source_sigma_cells = 6.0",
     "source_sigma_cells = 1e-300"),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name, line, edit", _EXTREME_LATTICE_EDITS,
                         ids=[f"{name}:{edit}"
                              for name, _, edit in _EXTREME_LATTICE_EDITS])
def test_extreme_lattice_values_fail_the_lattice_check(
        name, line, edit, tmp_path, capsys):
    # finite values that pass the file's rules but leave the float range of
    # the lattice arithmetic: a typed failure of one check, not a traceback
    text = bundled_text(name)
    assert text.count(line + "\n") == 1
    path = _write(tmp_path, text.replace(line + "\n", edit + "\n"))
    assert main(["propagate", path, "--json"]) == EXIT_CHECK
    captured = capsys.readouterr()
    assert captured.err == ""
    checks = json.loads(captured.out)["checks"]
    assert [c["name"] for c in checks if not c["ok"]] == [
        "lattice propagation"]
    assert checks[-1]["detail"].startswith(
        "LatticeRangeError: ") and "float range" in checks[-1]["detail"]


def test_propagate_needs_a_lattice_section(tmp_path, capsys):
    text = bundled_text("harmonic")
    head, _, tail = text.partition("[lattice]")
    chopped = head + "[anomaly]" + tail.partition("[anomaly]")[2]
    path = _write(tmp_path, chopped)
    assert main(["propagate", path]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{path}: no [lattice] section" in err
    assert "Traceback" not in err


def test_propagate_focal_point_fails_cleanly(tmp_path, capsys):
    text = bundled_text("harmonic").replace(
        "mode = imaginary", "mode = classical").replace(
        "beta = 1.0", f"time = {math.pi:.15f}")
    path = _write(tmp_path, text)
    assert main(["propagate", path]) == EXIT_CHECK
    assert "focal" in capsys.readouterr().out.lower()


def test_propagate_reports_typed_lattice_errors(tmp_path, capsys):
    text = bundled_text("free_particle").replace(
        "mode = real", "mode = imaginary").replace("time = 1.0", "beta = 1.0")
    path = _write(tmp_path, text)
    assert main(["propagate", path, "--json",
                 "--out", str(tmp_path / "run")]) == EXIT_CHECK
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    lattice = checks["lattice propagation"]
    assert lattice["ok"] is False
    assert lattice["detail"].startswith("ExprError:")
    assert "confining" in lattice["detail"]


@pytest.mark.parametrize("name, old, new, key", [
    # 4 slices leave a Trotter error of 2.8e-3 against the 1e-3 tolerance
    ("harmonic", "slices = 512", "slices = 4", "partition_rel_err"),
    # at T = 0.25 the window's edge sits 1e-19 below the kernel's peak,
    # where FFT rounding alone is a relative error of ~2e2 against 1e-4
    ("free_particle", "time = 1.0", "time = 0.25", "max_rel_err_central"),
])
def test_propagate_mutations_flip_the_tolerance_check(name, old, new, key,
                                                      tmp_path, capsys):
    text = bundled_text(name)
    assert old in text
    path = _write(tmp_path, text.replace(old, new))
    assert main(["propagate", path, "--json",
                 "--out", str(tmp_path / "run")]) == EXIT_CHECK
    report = json.loads(capsys.readouterr().out)
    failed = [c for c in report["checks"] if not c["ok"]]
    assert [c["name"] for c in failed] == ["error within declared tolerance"]
    assert failed[0]["detail"].startswith(f"{key} = ")
    assert report["metrics"][key] > 1e-4


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_propagate_underflowed_reference_fails_typed(tmp_path, capsys):
    # at T = 0.01 the reference underflows to 0 inside the central window,
    # where a relative error cannot be taken
    path = _write(tmp_path, bundled_text("free_particle").replace(
        "time = 1.0", "time = 0.01"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["propagate", path, "--json",
                     "--out", str(tmp_path / "run")])
    assert caught == []
    assert code == EXIT_CHECK
    report = json.loads(capsys.readouterr().out,
                        parse_constant=_reject_constant)
    failed = [c for c in report["checks"] if not c["ok"]]
    assert [c["name"] for c in failed] == ["lattice propagation"]
    assert failed[0]["detail"].startswith("CoverageError:")
    assert "underflows" in failed[0]["detail"]


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


@pytest.mark.parametrize("reference, flipped", [
    ("reference_A_z = 0",
     "gauge-coordinate coefficient nonzero off the surface"),
    ("reference_A_z = cos(z)", "A_z vanishes on the gauge surface"),
])
def test_anomaly_reference_mutations_flip_their_check(reference, flipped,
                                                       tmp_path, capsys):
    text = bundled_text("free_particle")
    assert _FREE_REFERENCE in text
    path = _write(tmp_path, text.replace(_FREE_REFERENCE, reference))
    assert main(["anomaly", path, "--json"]) == EXIT_CHECK
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks if not c["ok"]] == [flipped]


@pytest.mark.parametrize("old, new, flipped", [
    ("sliced_constant = p_zeta^2/(2*a1) + (a1/2)*zeta^2",
     "sliced_constant = p_zeta^2/(2*a1) + (a1/2)*zeta^2 + zeta/10",
     _SLICED[:1]),
    ("sliced_delta_p = -(alpha*p_zeta + zeta)/(4*a1*alpha)",
     "sliced_delta_p = (alpha*p_zeta + zeta)/(4*a1*alpha)", _SLICED[1:2]),
    ("sliced_delta_q = a1*zeta/4", "sliced_delta_q = a1*zeta/5",
     _SLICED[2:]),
    # F's denominator times 1.01: the chart relations and the sliced terms
    ("/(2*(a1^2*alpha^2 - 1))", "/(2.02*(a1^2*alpha^2 - 1))",
     _RELATIONS + _SLICED),
])
def test_anomaly_harmonic_mutations_flip_their_checks(old, new, flipped,
                                                      tmp_path, capsys):
    text = bundled_text("harmonic")
    assert text.count(old) == 1
    path = _write(tmp_path, text.replace(old, new))
    assert main(["anomaly", path, "--json"]) == EXIT_CHECK
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks if not c["ok"]] == flipped


def test_anomaly_needs_reference_data_for_a_non_quadratic_F(tmp_path, capsys):
    text = bundled_text("free_particle").replace(_FREE_REFERENCE, "")
    path = _write(tmp_path, text)
    assert main(["anomaly", path]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert path in err and "reference_A_z" in err

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

_MEMOS = ("_PARSED", "_SUBSTITUTED", "_NORMAL_FORMS", "_DERIVATIVES",
          "_EXPANDED", "_SAMPLES", "_CHECKS")


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
            for memo in _MEMOS:
                getattr(expr, memo).clear()
            cold = _report_and_artifacts(argv, capsys)
            assert tokenized, "the cleared memos were not parsed afresh"
            assert cold == first, f"{command} {name}"


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
