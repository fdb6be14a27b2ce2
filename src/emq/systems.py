"""Built-in systems, loaded from the bundled .sys descriptions.

The data files are the single source of truth; these helpers only name
them.  free_particle: planar rotation flow whose bounded sector reduces to
a free particle.  harmonic: the two-charge variant whose reduction carries
a full oscillator potential.  free_particle_lambda: the rotation flow with
a radius-squared potential folded into the constraint coefficient.
"""

from __future__ import annotations

from .sysfile import Model, load_bundled


def free_particle() -> Model:
    return load_bundled("free_particle")


def harmonic() -> Model:
    return load_bundled("harmonic")


def free_particle_lambda() -> Model:
    return load_bundled("free_particle_lambda")
