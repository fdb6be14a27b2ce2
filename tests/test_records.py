"""Records: every frozen value class of emq derives from expr.Record, which
behaves as the frozen dataclasses it replaced and keeps its hash."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys

import pytest

import emq
from emq.anomaly import (anomaly_coefficients, correction_scaling,
                         sliced_expansion_check)
from emq.cli import CheckLine
from emq.expr import (ComparisonResult, Record, SampleDomain, Sym,
                      numeric_compare)
from emq.pathint import (LatticeConfig, bind_reduced_hamiltonian,
                         propagate_quantum)
from emq.reduction import CanonicalMap, run_reduction
from emq.symplectic import FlowSystem, PhaseSpace, split_hamiltonian


def _record_classes():
    classes, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("emq.") and sub not in classes:
                classes.add(sub)
                todo.append(sub)
    return classes


def _bundled_records(m):
    """One instance of each record class, from a run on the model m."""
    L_R, form, elimination = run_reduction(m.system, m.constraint, m.darboux)
    reduced = elimination.system
    expansion = sliced_expansion_check(
        m.generating_function, m.darboux, m.system.hamiltonian, m.chart,
        expected=m.sliced_refs)
    return [
        m, m.system, m.system.space, m.chart, m.constraint, m.darboux,
        m.lattice, m.generating_function, L_R, form, elimination, reduced,
        bind_reduced_hamiltonian(reduced, m.params),
        propagate_quantum(reduced, m.lattice, m.params),
        anomaly_coefficients(m.generating_function, m.reference_A_z),
        expansion, correction_scaling(expansion, m.chart),
        split_hamiltonian(m.system),
        numeric_compare(m.system.hamiltonian, m.system.hamiltonian, m.chart),
        CheckLine("charges conserved", True, "max scaled err 0.00e+00"),
    ]


def _fields(record):
    return type(record)._fields


def _twin(record):
    """The frozen dataclass that the record's class used to be, holding the
    same field values."""
    cls = dataclasses.make_dataclass(type(record).__qualname__,
                                     _fields(record), frozen=True)
    return cls(*(getattr(record, name) for name in _fields(record)))


def test_there_is_one_bundled_instance_of_every_record_class(ho_model):
    records = _bundled_records(ho_model)
    assert {type(r) for r in records} == _record_classes()
    assert len(records) == len(_record_classes()) == 20


def test_a_record_prints_hashes_and_compares_as_its_dataclass(ho_model):
    for record in _bundled_records(ho_model):
        twin = _twin(record)
        assert repr(record) == repr(twin)
        try:
            want = hash(twin)
        except TypeError:
            # a dict, a mapping or an array among the fields
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == want
        # equal to an equal record of its class only
        assert record == record.replace() and not record != record.replace()
        assert record != twin and twin != record


def test_replace_changes_only_the_named_field(ho_model):
    # a class that checks its fields gets a change that passes the check;
    # any other class gets a new object in each field in turn
    valid = {LatticeConfig: ("n", 512),
             PhaseSpace: ("coordinates", ("u", "v")),
             FlowSystem: ("potential", Sym("a1")),
             CanonicalMap: ("inverse", ())}
    for record in _bundled_records(ho_model):
        cls, names = type(record), _fields(record)
        assert (cls in valid) == hasattr(cls, "__post_init__")
        for name, value in ([valid[cls]] if cls in valid
                            else [(name, object()) for name in names]):
            changed = record.replace(**{name: value})
            assert type(changed) is cls and getattr(changed, name) is value
            assert all(getattr(changed, other) is getattr(record, other)
                       for other in names if other != name)
    with pytest.raises(TypeError, match="unexpected"):
        ho_model.lattice.replace(no_such_field=1)


def test_a_record_refuses_assignment_and_deletion(ho_model):
    for record in _bundled_records(ho_model):
        name = _fields(record)[0]
        before = getattr(record, name)
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match="cannot assign"):
            record.not_a_field = 1
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(record, name)
        assert getattr(record, name) is before


def test_post_init_checks_every_way_a_record_is_built(ho_model):
    with pytest.raises(ValueError, match="power of two"):
        LatticeConfig("real", 1.0, 3)
    with pytest.raises(ValueError, match="power of two"):
        LatticeConfig(mode="real", duration=1.0, n=3)
    with pytest.raises(ValueError, match="power of two"):
        ho_model.lattice.replace(n=3)
    with pytest.raises(ValueError, match="unknown lattice mode"):
        ho_model.lattice.replace(mode="sideways")


def test_positions_keywords_and_defaults_build_the_same_record():
    full = LatticeConfig("real", 1.0, 256, 16.0, 128, 0.0, 6.0, 1e-4)
    assert full == LatticeConfig("real", 1.0) == LatticeConfig(
        duration=1.0, mode="real") == LatticeConfig("real", duration=1.0)
    assert repr(full) == repr(LatticeConfig("real", duration=1.0))
    for args, kwargs in [((), {"mode": "real"}),
                         (("real", 1.0), {"mode": "real"}),
                         (("real",) * 10, {}),
                         (("real", 1.0), {"slice": 4})]:
        with pytest.raises(TypeError):
            LatticeConfig(*args, **kwargs)


class _CountingHash:
    """A field value that counts how often it is hashed."""

    def __init__(self):
        self.calls = 0

    def __hash__(self):
        self.calls += 1
        return 7


def test_a_record_hashes_its_fields_once(ho_model):
    counter = _CountingHash()
    domain = SampleDomain((("x", -1.0, 1.0),), ((counter, 0.0, 1.0),))
    twin = SampleDomain((("x", -1.0, 1.0),), ((counter, 0.0, 1.0),))
    assert domain == twin and hash(domain) == hash(twin)
    assert counter.calls == 2
    assert hash(domain) == hash(twin) and counter.calls == 2

    system = ho_model.system.replace(chart=counter)
    assert system == system.replace() and hash(system) == hash(
        system.replace())
    assert counter.calls == 4
    hash(system)
    assert counter.calls == 4
    # the bundled system and chart hash as equal copies do
    assert hash(ho_model.system) == hash(ho_model.system.replace())
    assert hash(ho_model.chart) == hash(ho_model.chart.replace())


def test_a_copied_or_pickled_record_is_built_afresh():
    domain = SampleDomain((("x", -1.0, 1.0), ("y", 0.0, 2.0)))
    hash(domain)
    for clone in (copy.copy(domain), copy.deepcopy(domain),
                  pickle.loads(pickle.dumps(domain))):
        assert clone == domain and clone is not domain
        assert hash(clone) == hash(domain)
    result = ComparisonResult(True, 0.0, {"x": 0.5}, 4)
    assert pickle.loads(pickle.dumps(result)) == result


def test_the_commands_never_import_dataclasses():
    code = ("import sys, emq.cli; "
            "codes = [emq.cli.main([c, 'harmonic']) for c in "
            "('verify', 'reduce', 'propagate', 'anomaly')]; "
            "assert codes == [0, 0, 0, 0], codes; "
            "assert 'dataclasses' not in sys.modules")
    src = os.path.dirname(os.path.dirname(emq.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
