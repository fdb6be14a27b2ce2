import os
import re
import subprocess
import sys

import pytest

from conftest import clear_memos
from emq import sysfile
from emq.cli import EXIT_CHECK, EXIT_OK, main
from emq.pathint import LatticeConfig
from emq.sysfile import (
    Model, SysFileError, bundled_names, bundled_text, load_bundled,
    load_model, loads_model,
)

BASE = bundled_text("free_particle")


# ---------------------------------------------------------------------------
# bundled models
# ---------------------------------------------------------------------------

def test_bundled_names_and_loading():
    assert bundled_names() == ("free_particle", "harmonic",
                               "free_particle_lambda")
    for name in bundled_names():
        m = load_bundled(name)
        assert isinstance(m, Model)
        assert m.name == name
        assert m.lattice is not None
        assert m.generating_function is not None
        assert {"m", "hbar"} <= set(m.params)


def test_bundled_feature_matrix(free_model, ho_model, lam_model):
    assert free_model.reference_A_z is not None
    assert free_model.sliced_refs is None
    assert free_model.lattice.mode == "real"

    assert ho_model.reference_A_z is None
    assert ho_model.sliced_refs is not None and len(ho_model.sliced_refs) == 3
    assert ho_model.lattice.mode == "imaginary"
    assert ho_model.lattice.duration == 1.0

    assert lam_model.params["lam"] == 0.25


def test_chi_is_pushed_to_the_source_chart(ho_model):
    chi = ho_model.constraint.chi
    assert chi is not None
    source = set(ho_model.system.space.xi) | set(ho_model.params)
    assert chi.free_symbols() <= source


def test_load_model_from_path(tmp_path):
    p = tmp_path / "copy.sys"
    p.write_text(BASE)
    m = load_model(str(p))
    assert m.name == "copy"
    assert m.path == str(p)


def test_a_lattice_key_left_out_takes_the_config_default():
    start = BASE.index("[lattice]")
    end = BASE.index("[anomaly]")
    text = BASE[:start] + "[lattice]\nmode = real\ntime = 1\n\n" + BASE[end:]
    m = loads_model(text, name="t")
    assert m.params["hbar"] == 1.0
    assert m.lattice == LatticeConfig(mode="real", duration=1.0)
    assert (m.lattice.n, m.lattice.length, m.lattice.slices,
            m.lattice.source_center, m.lattice.source_sigma_cells,
            m.lattice.tolerance) == (256, 16.0, 128, 0.0, 6.0, 1e-4)


def test_params_are_read_only_and_every_load_reads_the_file_values(
        tmp_path):
    p = tmp_path / "copy.sys"
    p.write_text(BASE)
    m = load_model(str(p))
    with pytest.raises(TypeError):
        m.params["a1"] = 9.0
    assert load_model(str(p)).params["a1"] == 0.5


# ---------------------------------------------------------------------------
# the per-process model memo
# ---------------------------------------------------------------------------

@pytest.fixture
def models():
    """The model cache, emptied for one test."""
    clear_memos()
    return sysfile._assemble


def test_the_same_text_name_and_path_give_the_same_model(models):
    m = loads_model(BASE, name="t", path="a.sys")
    assert loads_model(BASE, name="t", path="a.sys") is m
    assert loads_model(BASE, name="u", path="a.sys") is not m
    assert loads_model(BASE, name="t", path="b.sys") is not m
    assert load_bundled("free_particle") is load_bundled("free_particle")
    assert models.cache_info().currsize == 4


def test_a_file_edited_at_the_same_path_is_assembled_again(models, tmp_path,
                                                          capsys):
    p = tmp_path / "model.sys"
    text = bundled_text("harmonic")
    p.write_text(text)
    first = load_model(str(p))
    assert first.params["a1"] == 1.0
    assert text.count("\na1 = 1.0\n") == 1
    p.write_text(text.replace("\na1 = 1.0\n", "\na1 = 1.5\n"))
    edited = load_model(str(p))
    assert edited is not first and edited.params["a1"] == 1.5

    # verify sees an edit at the same path within one process, and the
    # restored text gives back the model first assembled for it
    forward = "zeta = -(p_x - x/alpha - a1*y)/(sqrt(2)*a1)"
    assert text.count(forward) == 1
    p.write_text(text)
    assert main(["verify", str(p)]) == EXIT_OK
    p.write_text(text.replace(forward, forward.replace("-(", "(", 1)))
    assert main(["verify", str(p)]) == EXIT_CHECK
    assert "{p_zeta, zeta}" in capsys.readouterr().out
    p.write_text(text)
    assert main(["verify", str(p)]) == EXIT_OK
    assert "[FAIL]" not in capsys.readouterr().out
    assert load_model(str(p)) is first


def test_a_text_that_fails_raises_again_and_is_not_kept(models):
    bad = BASE.replace("f_y = x", "f_q = x")
    messages = set()
    for _ in range(3):
        with pytest.raises(SysFileError, match="missing velocity f_y") as err:
            loads_model(bad, name="t")
        messages.add(str(err.value))
    assert len(messages) == 1
    assert models.cache_info().currsize == 0


def test_unknown_bundled_name():
    with pytest.raises(KeyError):
        bundled_text("nope")


@pytest.mark.parametrize("name", bundled_names())
def test_a_bundled_file_is_read_as_plain_utf8(name):
    path = os.path.join(os.path.dirname(sysfile.__file__), "data",
                        f"{name}.sys")
    with open(path, "rb") as fh:
        assert bundled_text(name) == fh.read().decode("utf-8")
    assert load_bundled(name).path == f"emq/data/{name}.sys"


def test_the_bundled_models_load_without_importlib_resources():
    # the package data are plain files next to the module: a process
    # without site-packages' start-up hooks loads and verifies them
    # without importing importlib.resources
    import numpy
    src = os.path.dirname(os.path.dirname(sysfile.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        (src, os.path.dirname(os.path.dirname(numpy.__file__)))))
    script = (
        "import sys\n"
        "import emq.cli\n"
        "from emq import sysfile\n"
        "for name in sysfile.bundled_names():\n"
        "    sysfile.load_bundled(name)\n"
        "code = emq.cli.main(['verify', 'harmonic'])\n"
        "print(code, 'importlib.resources' in sys.modules)\n")
    run = subprocess.run([sys.executable, "-S", "-c", script],
                         capture_output=True, text=True, env=env)
    assert run.stderr == ""
    assert run.stdout.splitlines()[-2].startswith("result: PASS")
    assert run.stdout.splitlines()[-1] == "0 False"


# ---------------------------------------------------------------------------
# every one-line deletion and duplication of the bundled files
# ---------------------------------------------------------------------------

# Key lines (neither blank nor comment) whose deletion leaves a loadable
# file: optional keys, lattice keys with defaults, charges and parameters no
# expression needs, ranges of symbols outside the source phase space and
# guards.  Any other deletion raises, the lone [rho] entry's too: it would
# leave rho = 0; so does reference_A_z's beside a non-quadratic F.
_DELETABLE = {
    "free_particle": {12, 19, 20, 26, 46, 47, 48, 49, 50, 51, 54, 55, 56,
                      57, 59, 60, 61, 64},
    "harmonic": {13, 21, 22, 28, 48, 49, 50, 51, 52, 53, 54, 58, 59, 60,
                 62, 65},
    "free_particle_lambda": {10, 21, 22, 28, 47, 48, 49, 50, 51, 52, 53,
                             56, 57, 58, 59, 61, 62, 63, 66},
}


@pytest.mark.parametrize("name", bundled_names())
def test_one_line_edits_load_or_name_their_line(name):
    lines = bundled_text(name).splitlines()
    for i, line in enumerate(lines):
        content = line.partition("#")[0].strip()
        # a duplicated key line loads only for the repeatable guard
        edits = (("deleted", lines[:i] + lines[i + 1:],
                  not content or i + 1 in _DELETABLE[name]),
                 ("duplicated", lines[:i + 1] + lines[i:],
                  not content or content.startswith("guard =")))
        for what, edited, loads in edits:
            case = f"{name} line {i + 1} {what}"
            try:
                loads_model("\n".join(edited) + "\n", name="t")
            except SysFileError as exc:
                msg = str(exc)
                assert not loads, f"{case}: {msg}"
                if msg.startswith("<t>: "):
                    # no line to name: the deleted header's section is gone
                    assert what == "deleted", f"{case}: {msg}"
                    assert msg == f"<t>: missing required section {content}"
                else:
                    assert re.match(r"<t>:\d+: ", msg), f"{case}: {msg}"
            else:
                assert loads, f"{case} loaded"


# ---------------------------------------------------------------------------
# the content memo: records shared by lattice and parameter-value edits
# ---------------------------------------------------------------------------

_SHARED = ("system", "constraint", "darboux", "generating_function",
           "reference_A_z", "sliced_refs", "symbols")
_FLIP_FROM = "zeta = -(p_x - x/alpha - a1*y)/(sqrt(2)*a1)"
_FLIP_TO = "zeta = (p_x - x/alpha - a1*y)/(sqrt(2)*a1)"


def _edit(text, old, new):
    assert text.count(old) == 1, old
    return text.replace(old, new)


def _fields(model):
    """Every field but the symbol table, and the table's name roles."""
    return (model.replace(symbols=None), model.symbols._roles)


@pytest.mark.parametrize("name", bundled_names())
def test_lattice_and_parameter_edits_share_the_records(name, models,
                                                       tmp_path):
    bundled = load_bundled(name)
    text = bundled_text(name)
    slices = f"\nslices = {bundled.lattice.slices}\n"
    edits = {"lattice": (_edit(text, slices, "\nslices = 32\n"),
                         {}, {"slices": 32}),
             "params": (_edit(text, "\nhbar = 1.0\n", "\nhbar = 2.0\n"),
                        {"hbar": 2.0}, {})}
    for what, (edited, params, lattice) in edits.items():
        path = tmp_path / f"{what}.sys"
        path.write_text(edited)
        before = sysfile._records.cache_info()
        model = load_model(str(path))
        after = sysfile._records.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        for field in _SHARED:
            assert getattr(model, field) is getattr(bundled, field), field
        assert (model.name, model.path) == (what, str(path))
        assert dict(model.params) == {**bundled.params, **params}
        assert model.lattice == bundled.lattice.replace(**lattice)
        with pytest.raises(TypeError):
            model.params["m"] = 3.0
        # a load with every memo emptied assembles the same model
        clear_memos()
        assert _fields(load_model(str(path))) == _fields(model)
        bundled = load_bundled(name)


def test_a_changed_symbolic_line_shares_no_record(models):
    harmonic = load_bundled("harmonic")
    misses = sysfile._records.cache_info().misses
    flipped = loads_model(_edit(bundled_text("harmonic"), _FLIP_FROM,
                                _FLIP_TO), name="flipped")
    assert sysfile._records.cache_info().misses == misses + 1
    for field in _SHARED:
        value = getattr(flipped, field)
        assert value is None or value is not getattr(harmonic, field), field


@pytest.mark.parametrize("old, new, message", [
    ("\nn = 256\n", "\nn = 100\n",
     "bad [lattice] settings: grid point count must be a power of two"),
    ("\na1 = 1.0\n", "\na1 = inf\n", "parameter a1 must be finite, got inf"),
    ("\nhbar = 1.0\n", "\nhbar = 0\n",
     "hbar must be finite and > 0, got 0.0")],
    ids=["n", "a1", "hbar"])
def test_a_bad_value_after_the_bundled_loads_names_its_own_line(
        old, new, message, models, tmp_path):
    path = tmp_path / "model.sys"
    text = _edit(bundled_text("harmonic"), old, new)
    path.write_text(text)
    line = text.splitlines().index(new.strip()) + 1
    expected = f"{path}:{line}: {message}"
    for name in bundled_names():
        load_bundled(name)
    hits = sysfile._records.cache_info().hits
    with pytest.raises(SysFileError) as warm:
        load_model(str(path))
    assert sysfile._records.cache_info().hits == hits + 1
    assert str(warm.value) == expected
    clear_memos()
    with pytest.raises(SysFileError) as cold:
        load_model(str(path))
    assert str(cold.value) == expected


def test_a_byte_order_mark_is_dropped_and_a_bad_byte_keeps_its_line(
        tmp_path):
    lines = BASE.splitlines(keepends=True)
    path = tmp_path / "model.sys"
    path.write_bytes(b"\xef\xbb\xbf" + BASE.encode("utf-8"))
    assert load_model(str(path)) is loads_model(BASE, name="model",
                                                path=str(path))
    # a byte that is not UTF-8, on line 3 after the mark
    body = "".join(lines[:2]).encode("utf-8") + b"# \xff\n" + "".join(
        lines[2:]).encode("utf-8")
    for mark in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(mark + body)
        with pytest.raises(SysFileError, match=rf"^{re.escape(str(path))}:3: "
                                               rf"not UTF-8 text$"):
            load_model(str(path))
