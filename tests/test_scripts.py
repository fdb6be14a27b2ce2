"""Every experiment script imports cleanly against the current library."""

import importlib.util
import pathlib

import pytest

SCRIPTS = sorted((pathlib.Path(__file__).resolve().parent.parent
                  / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_roughness_script_rejects_a_non_positive_sample_count(capsys):
    path = next(p for p in SCRIPTS if p.name == "roughness_and_corrections.py")
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for bad in ("0", "-5"):
        with pytest.raises(SystemExit) as exc:
            module.main(["--samples", bad])
        assert exc.value.code == 2
        assert "--samples must be at least 1" in capsys.readouterr().err
