"""Seeded input generator: job tables and generated .sys files.

Every workload is a closed loop, one client in one process running one job at
a time.  The workload seed is a benchmark argument; emq only ever sees the
generated files and command-line flags.  The same seed gives the same job
table and the same files.

A run repeats a workload's unit (one seed draw of the job table) enough
times to fill ``--seconds`` on a 2-CPU reference machine, so a given
``--seconds`` always measures the same work and two commits compare on
identical inputs.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

WHY = {
    "symbolic_sweep": (
        "warm process over the bundled models and negative cases: the exact "
        "core (normalize, differentiate, evaluate, sampling) does most of the "
        "work and symbolic results repeat across seeds, so caches pay off"),
    "lattice_scaling": (
        "fixed-size eigen, FFT and RK4 lattice runs plus thermal path "
        "sampling: numpy work dominates and the exact core is a small share"),
}

# seconds one unit takes on the reference machine (2 CPUs, Python 3.11)
NOMINAL_UNIT_S = {"symbolic_sweep": 4.4, "lattice_scaling": 16.0}

BUNDLED = ("free_particle", "harmonic", "free_particle_lambda")

FLIPPED_FROM = "zeta = -(p_x - x/alpha - a1*y)/(sqrt(2)*a1)"
FLIPPED_TO = "zeta = (p_x - x/alpha - a1*y)/(sqrt(2)*a1)"
UNKNOWN_SYMBOL = "q_undeclared"


@dataclass
class Job:
    """One unit of work: an `emq` command line or a library paths call.

    expect names the row of the expected-verdict table; context carries the
    inputs the independent checks need (closed-form parameters, file lines).
    A native job spends its time in numpy, so its time is not scaled by the
    interpreter's reference speed.
    """

    kind: str                       # verify | reduce | propagate | anomaly | paths
    expect: str
    argv: Tuple[str, ...] = ()
    paths: Optional[dict] = None
    context: dict = field(default_factory=dict)
    native: bool = False

    @property
    def label(self) -> str:
        if self.paths is not None:
            return f"paths {self.paths['fn']} seed {self.paths['seed']}"
        shown = [os.path.basename(a) if os.sep in a else a for a in self.argv]
        return " ".join(shown[:4])


@dataclass
class Workload:
    name: str
    units: int
    jobs: List[Job]
    models: List[str]               # loadable model specs, for set-up
    why: str = ""


def units_for(name: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_UNIT_S[name]))


# ---------------------------------------------------------------------------
# .sys text editing
# ---------------------------------------------------------------------------

def bundled_text(src: str, name: str) -> str:
    with open(os.path.join(src, "emq", "data", f"{name}.sys")) as fh:
        return fh.read()


def _section_bounds(lines: List[str], section: str) -> Tuple[int, int]:
    header = f"[{section}]"
    start = next(i for i, ln in enumerate(lines) if ln.strip() == header)
    end = next((i for i in range(start + 1, len(lines))
                if lines[i].strip().startswith("[")), len(lines))
    return start, end


def with_lattice(text: str, settings: dict,
                 params: Optional[dict] = None) -> str:
    """Replace the [lattice] section and override [params] values."""
    lines = text.splitlines()
    start, end = _section_bounds(lines, "lattice")
    body = ["[lattice]"] + [f"{k} = {v!r}" if isinstance(v, float)
                            else f"{k} = {v}" for k, v in settings.items()]
    lines[start:end] = body + [""]
    for key, value in (params or {}).items():
        p0, p1 = _section_bounds(lines, "params")
        hits = [i for i in range(p0 + 1, p1)
                if lines[i].split("=")[0].strip() == key]
        if len(hits) != 1:
            raise ValueError(f"[params] has no single {key!r} line")
        lines[hits[0]] = f"{key} = {value!r}"
    return "\n".join(lines) + "\n"


def flipped_zeta(text: str) -> str:
    if text.count(FLIPPED_FROM) != 1:
        raise ValueError("harmonic.sys no longer has the zeta forward line")
    return text.replace(FLIPPED_FROM, FLIPPED_TO)


def unknown_identifier(text: str, rng: random.Random) -> Tuple[str, int]:
    """Add an undeclared symbol to one expression line; return its line no."""
    lines = text.splitlines()
    candidates = []
    for section in ("charges", "darboux"):
        s0, s1 = _section_bounds(lines, section)
        for i in range(s0 + 1, s1):
            key = lines[i].split("=")[0].strip()
            if "=" in lines[i] and key not in ("reduced", "gauge") \
                    and not lines[i].lstrip().startswith("#"):
                candidates.append(i)
    i = rng.choice(candidates)
    lines[i] = f"{lines[i]} + {UNKNOWN_SYMBOL}"
    return "\n".join(lines) + "\n", i + 1


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------------------
# job tables
# ---------------------------------------------------------------------------

def _cli(kind, spec, seed, expect, out_dir, native=False, **context) -> Job:
    argv = [kind, spec, "--seed", str(seed), "--json"]
    if kind == "propagate":
        argv += ["--out", os.path.join(out_dir, "run")]
    return Job(kind, expect, tuple(argv), context=dict(context, seed=seed),
               native=native)


def _paths(expect, **spec) -> Job:
    return Job("paths", expect, paths=spec, native=True)


def _classical(src, base, T, path) -> str:
    settings = {"mode": "classical", "n": 256, "length": 16.0,
                "slices": 128, "time": T, "tolerance": 1e-8}
    return _write(path, with_lattice(bundled_text(src, base), settings))


def sweep_jobs(src: str, work: str, seed: int, units: int) -> Workload:
    """Bundled models and negative cases over seed-drawn --seed values."""
    rng = random.Random(seed)
    out_dir = os.path.join(work, "out")
    os.makedirs(out_dir, exist_ok=True)
    harmonic = bundled_text(src, "harmonic")
    free = bundled_text(src, "free_particle")
    flipped = _write(os.path.join(work, "harmonic_zeta_flipped.sys"),
                     flipped_zeta(harmonic))
    jobs: List[Job] = []
    models = list(BUNDLED) + [flipped]
    for u in range(units):
        s = rng.randrange(1, 2 ** 31)
        typos = []
        for base, text in (("harmonic", harmonic), ("free_particle", free)):
            typo_text, typo_line = unknown_identifier(text, rng)
            typos.append((_write(os.path.join(
                work, f"{base}_unknown_identifier_{u}.sys"), typo_text),
                typo_line))
        t_ho = round(rng.uniform(0.5, 2.5), 6)
        t_fp = round(rng.uniform(0.5, 2.5), 6)
        c_ho = _classical(src, "harmonic", t_ho,
                          os.path.join(work, f"harmonic_classical_{u}.sys"))
        c_fp = _classical(src, "free_particle", t_fp,
                          os.path.join(work, f"free_particle_classical_{u}.sys"))
        models += [c_ho, c_fp]
        for kind in ("verify", "reduce", "propagate", "anomaly"):
            for name in BUNDLED:
                jobs.append(_cli(kind, name, s, f"{kind}:{name}", out_dir,
                                 model=name))
        jobs.append(_cli("verify", flipped, s, "verify:harmonic_zeta_flipped",
                         out_dir))
        # two fast exit-2 verdicts below three harmonic verifies, and the
        # flipped file plus two slower models around them: the verify median
        # stays inside the harmonic cluster whichever side the flipped file
        # falls on
        for typo, line in typos:
            jobs.append(_cli("verify", typo, s, "verify:unknown_identifier",
                             out_dir, path=typo, line=line))
        jobs.append(_cli("propagate", c_ho, s, "propagate:classical", out_dir,
                         omega=1.0, time=t_ho))
        jobs.append(_cli("propagate", c_fp, s, "propagate:classical", out_dir,
                         omega=0.0, time=t_fp))
        # a second draw for harmonic and free_particle anomaly: the
        # harmonic one is the slowest job, and with two per unit the tail
        # percentile falls inside its cluster; free_particle keeps the
        # anomaly median inside the free_particle cluster
        s2 = rng.randrange(1, 2 ** 31)
        for name in ("harmonic", "free_particle"):
            jobs.append(_cli("anomaly", name, s2, f"anomaly:{name}", out_dir,
                             model=name))
        for extra in (s2, rng.randrange(1, 2 ** 31)):
            jobs.append(_cli("verify", "harmonic", extra, "verify:harmonic",
                             out_dir, model="harmonic"))
        jobs += [_paths("paths:brownian", fn="brownian", n_slices=64,
                        n_samples=10_000, beta=1.0, mass=1.0, omega=1.0,
                        seed=seed_)
                 for seed_ in (s, s2)]
    return Workload("symbolic_sweep", units, jobs, models)


LATTICE_SIZES = {
    # imaginary-time grid sizes (dx = 1/16), real-time grid and slices,
    # thermal-path sample counts
    "full": {"imag": (1024, 2048), "real": (16384, 1024),
             "brownian": 100_000, "holder": 10_000},
    "tiny": {"imag": (128, 256), "real": (1024, 64),
             "brownian": 4000, "holder": 8000},
}


def lattice_jobs(src: str, work: str, seed: int, units: int,
                 size: str = "full") -> Workload:
    """Fixed-size lattice runs; the seed moves only --seed and parameters
    that leave the work unchanged (mass, beta, time, source centre)."""
    sizes = LATTICE_SIZES[size]
    rng = random.Random(seed)
    out_dir = os.path.join(work, "out")
    os.makedirs(out_dir, exist_ok=True)
    harmonic = bundled_text(src, "harmonic")
    free = bundled_text(src, "free_particle")
    jobs: List[Job] = []
    models: List[str] = []
    for u in range(units):
        s = rng.randrange(1, 2 ** 31)
        imag = []                   # (path, propagate job), small n first
        for n in sizes["imag"]:
            a1 = round(rng.uniform(0.8, 1.25), 6)
            beta = round(rng.uniform(0.8, 1.25), 6)
            settings = {"mode": "imaginary", "n": n, "length": n / 16.0,
                        "slices": 512, "beta": beta, "tolerance": 1e-3}
            path = _write(os.path.join(work, f"harmonic_imag{n}_{u}.sys"),
                          with_lattice(harmonic, settings, {"a1": a1}))
            imag.append((path, _cli("propagate", path, s,
                                    "propagate:harmonic_imaginary", out_dir,
                                    native=True, beta=beta, tolerance=1e-3)))
        n, slices = sizes["real"]
        a1 = round(rng.uniform(0.45, 0.55), 6)
        center = round(rng.uniform(-1.0, 1.0), 6)
        cells = 6.0 * n / 1024      # the bundled source width at any n
        settings = {"mode": "real", "n": n, "length": 40.0, "slices": slices,
                    "time": 1.0, "source_center": center,
                    "source_sigma_cells": cells, "tolerance": 1e-4}
        real = _write(os.path.join(work, f"free_particle_real{n}_{u}.sys"),
                      with_lattice(free, settings, {"a1": a1}))
        t_ho = round(rng.uniform(0.5, 2.5), 6)
        t_fp = round(rng.uniform(0.5, 2.5), 6)
        c_ho = _classical(src, "harmonic", t_ho,
                          os.path.join(work, f"harmonic_classical_{u}.sys"))
        c_fp = _classical(src, "free_particle", t_fp,
                          os.path.join(work, f"free_particle_classical_{u}.sys"))
        models += [imag[0][0], imag[1][0], real, c_ho, c_fp]
        brownian = [_paths("paths:brownian", fn="brownian", n_slices=64,
                           n_samples=sizes["brownian"], beta=1.0, mass=1.0,
                           omega=1.0, seed=s + k)
                    for k in range(2)]
        heavy = [
            imag[0][1],
            _cli("propagate", real, s, "propagate:free_particle_real",
                 out_dir, native=True, a1=a1, n=n, length=40.0,
                 sigma_cells=cells, tolerance=1e-4),
            _cli("propagate", c_ho, s, "propagate:classical", out_dir,
                 omega=1.0, time=t_ho),
            imag[1][1],
            _cli("propagate", c_fp, s, "propagate:classical", out_dir,
                 omega=0.0, time=t_fp),
            brownian[0],
            _paths("paths:holder", fn="holder", model=imag[0][0],
                   n_samples=sizes["holder"], seed=s),
            brownian[1],
        ]
        # cheap symbolic jobs on the generated files, interleaved with the
        # heavy ones so each kind samples the whole run; two thirds of each
        # kind share one model, so the per-kind median sits inside a cluster.
        # One harmonic anomaly per run (it is as slow as the lattice jobs)
        # keeps the tail percentile inside the brownian cluster.
        ho = [path for path, _ in imag]
        fp = [real, c_fp]
        light = []
        for last_anomaly in (ho[0] if u == 0 else fp[0], fp[0], fp[1]):
            for kind, specs in (("verify", (ho[0], fp[0], ho[1])),
                                ("reduce", (ho[1], fp[1], ho[0])),
                                ("anomaly", (fp[0], fp[1], last_anomaly))):
                for path in specs:
                    model = "harmonic" if path in ho else "free_particle"
                    light.append(_cli(kind, path, s, f"{kind}:{model}",
                                      out_dir, model=model))
        light = light[0::3] + light[1::3] + light[2::3]
        for i, job in enumerate(heavy):
            jobs.append(job)
            jobs += light[i * len(light) // len(heavy):
                          (i + 1) * len(light) // len(heavy)]
    return Workload("lattice_scaling", units, jobs, models)


def generate(name: str, src: str, work: str, seed: int, units: int,
             size: str = "full") -> Workload:
    if name == "symbolic_sweep":
        wl = sweep_jobs(src, work, seed, units)
    elif name == "lattice_scaling":
        wl = lattice_jobs(src, work, seed, units, size)
    else:
        raise ValueError(f"unknown workload {name!r}")
    wl.why = WHY[name]
    return wl
