import sys

import pytest

from emq.reduction import run_reduction
from emq.sysfile import load_bundled


def memos():
    """Every per-process cache of the emq modules: each object there with a
    cache_clear(), so a cache added later is found too."""
    return {value for name, module in list(sys.modules.items())
            if name == "emq" or name.startswith("emq.")
            for value in vars(module).values() if hasattr(value, "cache_clear")}


def clear_memos():
    for memo in memos():
        memo.cache_clear()


@pytest.fixture(scope="session")
def free_model():
    return load_bundled("free_particle")


@pytest.fixture(scope="session")
def ho_model():
    return load_bundled("harmonic")


@pytest.fixture(scope="session")
def lam_model():
    return load_bundled("free_particle_lambda")


@pytest.fixture(scope="session")
def free_reduced(free_model):
    m = free_model
    *_, result = run_reduction(m.system, m.constraint, m.darboux)
    return result.system


@pytest.fixture(scope="session")
def ho_reduced(ho_model):
    m = ho_model
    *_, result = run_reduction(m.system, m.constraint, m.darboux)
    return result.system


@pytest.fixture(scope="session")
def lam_reduced(lam_model):
    m = lam_model
    *_, result = run_reduction(m.system, m.constraint, m.darboux)
    return result.system
