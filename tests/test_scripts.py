"""Every experiment script imports cleanly against the current library."""

import importlib.util
import json
import pathlib

import numpy as np
import pytest

SCRIPTS = sorted((pathlib.Path(__file__).resolve().parent.parent
                  / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def _script(name):
    path = next(p for p in SCRIPTS if p.name == name)
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_roughness_script_rejects_a_non_positive_sample_count(capsys):
    module = _script("roughness_and_corrections.py")
    for bad in ("0", "-5"):
        with pytest.raises(SystemExit) as exc:
            module.main(["--samples", bad])
        assert exc.value.code == 2
        assert "--samples must be at least 1" in capsys.readouterr().err


def test_kernel_script_writes_the_free_kernel_table(tmp_path, capsys):
    assert _script("kernel_experiments.py").main(
        ["--only", "free", "--out", str(tmp_path)]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["free_kernel.npy"]
    table = np.load(tmp_path / "free_kernel.npy", allow_pickle=False)
    assert table.dtype.names == ("zeta", "psi", "reference")
    assert "free_kernel.npy" in capsys.readouterr().out


def test_kernel_script_writes_the_spectrum_sweep(tmp_path, capsys):
    assert _script("kernel_experiments.py").main(
        ["--only", "spectrum", "--out", str(tmp_path)]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["spectrum_sweep.json"]
    with open(tmp_path / "spectrum_sweep.json") as fh:
        sweep = json.load(fh)
    assert sweep["partition"]["partition_rel_err"] < 1e-2
    assert sweep["sweep"]["slice_counts"] == [32, 64, 128, 256, 512]
    assert "spectrum_sweep.json" in capsys.readouterr().out


def test_walkthrough_runs_end_to_end(capsys):
    assert _script("reduction_walkthrough.py").main(["harmonic"]) == 0
    out = capsys.readouterr().out
    assert "presymplectic rank   : 2 of 3 retained variables" in out
    assert "  H*   = 1/2*a1*zeta^2 + 1/2*p_zeta^2/a1\n" in out
