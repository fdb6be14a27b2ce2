"""Every experiment script imports cleanly against the current library."""

import importlib.util
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
