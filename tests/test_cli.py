import csv
import json
import math
import warnings

import pytest

from emq import expr
from emq.cli import EXIT_CHECK, EXIT_OK, EXIT_USAGE, main
from emq.expr import SampleDomain, columns
from emq.sysfile import bundled_text


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
])
def test_verify_mutations_flip_their_checks(old, new, flipped, tmp_path,
                                            capsys):
    text = bundled_text("harmonic")
    assert old in text
    path = _write(tmp_path, text.replace(old, new))
    assert main(["verify", path, "--json"]) == EXIT_CHECK
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks if not c["ok"]] == flipped


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
    expr._SAMPLES.clear()
    assert main(["reduce", "harmonic", "--json"]) == EXIT_OK
    cached = json.loads(capsys.readouterr().out)
    assert sorted(draws) == [(1, 0), (64, 0), (200, 0)]

    # the same report when every comparison draws its points afresh
    monkeypatch.setattr(SampleDomain, "sample_columns",
                        lambda self, n, seed=0: columns(self.sample(n, seed)))
    assert main(["reduce", "harmonic", "--json"]) == EXIT_OK
    fresh = json.loads(capsys.readouterr().out)
    assert len(draws) > 10
    assert cached["checks"] == fresh["checks"]
    assert cached["metrics"] == fresh["metrics"]


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

def test_propagate_writes_artifacts(tmp_path, capsys):
    base = str(tmp_path / "run")
    assert main(["propagate", "free_particle", "--out", base]) == EXIT_OK
    with open(base + ".csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["zeta", "re_K", "im_K", "re_ref", "im_ref", "abs_err"]
    assert len(rows) > 1
    with open(base + "_metrics.json") as fh:
        metrics = json.load(fh)
    assert metrics["metrics"]["max_rel_err_central"] < 1e-4
    capsys.readouterr()


def test_propagate_partition_mode(tmp_path, monkeypatch, capsys):
    # default artifact paths land in cwd, keep that out of the repo
    monkeypatch.chdir(tmp_path)
    assert main(["propagate", "harmonic"]) == EXIT_OK
    assert "partition" in capsys.readouterr().out


def test_propagate_needs_a_lattice_section(tmp_path, capsys):
    text = bundled_text("harmonic")
    head, _, tail = text.partition("[lattice]")
    chopped = head + "[anomaly]" + tail.partition("[anomaly]")[2]
    path = _write(tmp_path, chopped)
    assert main(["propagate", path]) == EXIT_USAGE
    assert "lattice" in capsys.readouterr().err


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
ANOMALY_CHECKS = {
    "harmonic": (_RELATIONS + ["all coefficients vanish identically"]
                 + _SURFACE
                 + [f"sliced expansion {t} matches reference"
                    for t in ("constant", "momentum_shift", "coordinate_shift")]
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
