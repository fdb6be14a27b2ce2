import re

import pytest

from conftest import clear_memos
from emq import sysfile
from emq.cli import EXIT_CHECK, EXIT_OK, EXIT_USAGE, main
from emq.sysfile import (
    Model, SysFileError, bundled_names, bundled_text, load_bundled,
    load_model, loads_model,
)

BASE = bundled_text("free_particle")


def _mutated(old, new, count=1):
    assert BASE.count(old) >= count
    return BASE.replace(old, new, count)


def _expect(text, fragment):
    with pytest.raises(SysFileError) as err:
        loads_model(text, name="t")
    assert fragment in str(err.value)
    return str(err.value)


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
    bad = _mutated("f_y = x", "f_q = x")
    messages = set()
    for _ in range(3):
        messages.add(_expect(bad, "missing velocity f_y"))
    assert len(messages) == 1
    assert models.cache_info().currsize == 0


def test_unknown_bundled_name():
    with pytest.raises(KeyError):
        bundled_text("nope")


# ---------------------------------------------------------------------------
# structural errors, with file:line context
# ---------------------------------------------------------------------------

def test_duplicate_section():
    _expect(BASE + "\n[system]\n", "duplicate section [system]")


def test_content_before_any_section():
    msg = _expect("x = 1\n" + BASE, "content before any section")
    assert "<t>:1:" in msg


def test_missing_equals():
    _expect(_mutated("[charges]", "[charges]\njunk line"), "expected 'key = value'")


def test_unknown_section():
    _expect(BASE + "\n[mystery]\nk = 1\n", "unknown section [mystery]")


def test_missing_required_section():
    chopped = BASE.split("[rho]")[0]
    _expect(chopped, "missing required section")


def test_duplicate_key():
    _expect(_mutated("[system]", "[system]\nf_x = 7"), "duplicate key 'f_x'")


def test_missing_velocity():
    _expect(_mutated("f_y = x", "f_q = x"), "missing velocity f_y")


def test_stray_system_key():
    _expect(_mutated("[system]", "[system]\nwobble = 3"),
            "unknown [system] key 'wobble'")


def test_duplicate_charge():
    _expect(_mutated("[rho]", "C1 = x\n[rho]"), "duplicate charge 'C1'")


def test_rho_unknown_charge():
    _expect(_mutated("[rho]\nC1", "[rho]\nC9"), "unknown charge 'C9'")


def test_repeated_rho_key_is_rejected_at_its_line(tmp_path, capsys):
    # summing both lines would double rho and move the surface H = rho
    text = bundled_text("harmonic")
    assert text.count("[rho]\nC1 = a1\n") == 1
    text = text.replace("[rho]\nC1 = a1\n", "[rho]\nC1 = a1\nC1 = a1\n")
    lineno = text.splitlines().index("C1 = a1") + 2
    path = tmp_path / "rho_twice.sys"
    path.write_text(text)
    assert main(["verify", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{path}:{lineno}: duplicate key 'C1' in [rho]" in err


def _cli_error(tmp_path, capsys, text, lineno):
    """Exit code 2 from `emq verify` on text, with a message that names the
    file and lineno; returns the message."""
    path = tmp_path / "bad.sys"
    path.write_text(text)
    assert main(["verify", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{path}:{lineno}: " in err
    return err


def test_empty_rho_is_rejected_at_its_header(tmp_path, capsys):
    # an empty [rho] would load as rho = 0, which only verify would notice
    text = bundled_text("harmonic").replace("[rho]\nC1 = a1\n", "[rho]\n")
    lineno = text.splitlines().index("[rho]") + 1
    err = _cli_error(tmp_path, capsys, text, lineno)
    assert "[rho] needs a coefficient for at least one charge" in err
    for command in ("reduce", "anomaly"):
        assert main([command, str(tmp_path / "bad.sys")]) == EXIT_USAGE
    assert main(["propagate", str(tmp_path / "bad.sys"),
                 "--out", str(tmp_path / "run")]) == EXIT_USAGE
    assert not list(tmp_path.glob("run*"))


def test_reversed_guard_is_rejected_at_its_line(tmp_path, capsys):
    old = "guard = a1^2*alpha^2 in 0.0, 0.88"
    new = "guard = a1^2*alpha^2 in 0.88, 0.0"
    text = bundled_text("harmonic").replace(old, new)
    lineno = text.splitlines().index(new) + 1
    err = _cli_error(tmp_path, capsys, text, lineno)
    assert "empty range for guard 'a1^2*alpha^2'" in err
    _expect(_mutated("in 0.25, 9.0", "in 9.0, 9.0"), "empty range for guard")


def test_repeated_reduced_pair_is_reported_at_its_line(tmp_path, capsys):
    pair = "reduced = zeta : p_zeta"
    text = bundled_text("harmonic").replace(pair, f"{pair}\n{pair}")
    # the repeat is the line after the first
    lineno = text.splitlines().index(pair) + 2
    err = _cli_error(tmp_path, capsys, text, lineno)
    assert "duplicate reduced pair: 'zeta' is already paired" in err
    _expect(_mutated("gauge = z : p_z", "gauge = z : p_zeta"),
            "duplicate reduced pair: 'p_zeta' is already paired")


def test_expression_errors_carry_position():
    msg = _expect(_mutated("f_x = -y", "f_x = -y +"), "<t>:")
    assert any(ch.isdigit() for ch in msg.split("<t>:")[1][:4])


def test_domain_requires_every_phase_variable():
    _expect(_mutated("p_y = -2.0, 2.0\n", "", 1), "missing a range for 'p_y'")


def test_domain_rejects_undeclared_symbols():
    _expect(_mutated("[lattice]", "w9 = 0.0, 1.0\n[lattice]"),
            "undeclared symbol 'w9'")


def test_domain_rejects_empty_range():
    _expect(_mutated("p_y = -2.0, 2.0", "p_y = 2.0, -2.0"), "empty range")


def test_guard_syntax():
    _expect(_mutated("[lattice]", "guard = x^2 within 0, 1\n[lattice]"),
            "guard needs")


def test_darboux_missing_gauge():
    _expect(_mutated("gauge = z : p_z\n", ""), "needs a gauge pair")


def test_darboux_missing_forward():
    _expect(_mutated("p_z = x*p_y - y*p_x - a1*(x^2 + y^2)\n", "", 1),
            "missing forward expression for 'p_z'")


def test_darboux_missing_inverse():
    _expect(_mutated("inv_p_y", "inv_p_q"), "missing inverse expression inv_p_y")


def test_darboux_pair_syntax():
    _expect(_mutated("reduced = zeta : p_zeta", "reduced = zeta p_zeta"),
            "expected '<coord> : <mom>'")


def test_constraint_missing_solution():
    _expect(_mutated("solution =", "solved ="), "[constraint] missing solution")


def test_constraint_bad_eliminate_target():
    _expect(_mutated("eliminate = p_x", "eliminate = bogus"),
            "not a phase-space variable")


def test_lattice_time_beta_conflict():
    _expect(_mutated("time = 1.0", "time = 1.0\nbeta = 2.0"),
            "both time and beta")


def test_lattice_unknown_key():
    _expect(_mutated("time = 1.0", "time = 1.0\nvolume = 2"),
            "unknown [lattice] key")


def test_lattice_missing_duration():
    _expect(_mutated("time = 1.0\n", ""), "[lattice] missing time")


@pytest.mark.parametrize("old, new, fragment", [
    ("n = 1024", "n = abc", "bad integer 'abc'"),
    ("n = 1024", "n = 1000", "power of two"),
    ("mode = real", "mode = bogus", "unknown lattice mode 'bogus'"),
])
def test_lattice_errors_name_the_line_of_their_key(old, new, fragment,
                                                   tmp_path, capsys):
    text = _mutated(old, new)
    lineno = text.splitlines().index(new) + 1
    path = tmp_path / "bad.sys"
    path.write_text(text)
    assert main(["verify", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{path}:{lineno}:" in err and fragment in err


def test_anomaly_stray_key():
    _expect(BASE + "\nextra_thing = 1\n", "unknown [anomaly] key")


def test_sliced_refs_are_all_or_nothing():
    partial = BASE + "\nsliced_constant = p_zeta^2\n"
    _expect(partial, "sliced reference data needs all of")
    full = (BASE + "\nsliced_constant = p_zeta^2\n"
            "sliced_delta_p = zeta\nsliced_delta_q = p_zeta\n")
    m = loads_model(full, name="t")
    assert m.sliced_refs is not None and len(m.sliced_refs) == 3


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
