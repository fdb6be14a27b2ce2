import csv
import json
import math

import pytest

from emq.cli import EXIT_CHECK, EXIT_OK, EXIT_USAGE, main
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


# ---------------------------------------------------------------------------
# anomaly
# ---------------------------------------------------------------------------

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
