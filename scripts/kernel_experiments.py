"""Lattice kernel experiments on the reduced systems.

Two runs, each against a closed form:

  free     real-time evolution of a smeared source on the bundled free
           lattice; reports the central-window error profile and writes
           the kernel table free_kernel.npy (fields zeta, psi, reference).
  spectrum imaginary-time transfer matrix for the oscillator; partition
           value against 1/(2 sinh(beta/2)) plus the slice-count error
           sweep (slope -2 for the symmetric splitting).

    python3 scripts/kernel_experiments.py --out results/
"""

import argparse
import json
import math
import os
import sys

from emq.pathint import propagate_quantum, trotter_sweep, write_kernel
from emq.reduction import run_reduction
from emq.sysfile import load_bundled


def _reduced(model):
    *_, result = run_reduction(model.system, model.constraint, model.darboux)
    return result.system


def run_free(out_dir: str) -> None:
    model = load_bundled("free_particle")
    rs = _reduced(model)
    res = propagate_quantum(rs, model.lattice, model.params)
    m = res.metrics
    print("free particle, real time:")
    print(f"  slices={model.lattice.slices}  n={model.lattice.n}"
          f"  T={model.lattice.duration}")
    print(f"  max rel err (central half grid) = {m['max_rel_err_central']:.3e}")
    print(f"  norm drift                      = {m['norm_drift']:.3e}")
    path = write_kernel(res, os.path.join(out_dir, "free_kernel"))
    print(f"  kernel table (zeta, psi, reference) written to {path}")


def run_spectrum(out_dir: str) -> None:
    model = load_bundled("harmonic")
    rs = _reduced(model)
    res = propagate_quantum(rs, model.lattice, model.params)
    beta = model.lattice.duration
    z_ref = 1.0 / (2.0 * math.sinh(beta / 2.0))
    print("harmonic oscillator, imaginary time:")
    print(f"  Z({beta}) = {res.metrics['partition_value']:.6f}"
          f"   closed form {z_ref:.6f}"
          f"   rel err {res.metrics['partition_rel_err']:.2e}")
    sweep = trotter_sweep(rs, model.lattice, model.params)
    print(f"  slice sweep {sweep['slice_counts']}: slope"
          f" {sweep['slope']:.3f} (expect -2)")
    path = os.path.join(out_dir, "spectrum_sweep.json")
    with open(path, "w") as fh:
        json.dump({"partition": dict(res.metrics), "sweep": {
            "slice_counts": list(sweep["slice_counts"]),
            "errors": list(sweep["errors"]),
            "slope": sweep["slope"]}}, fh, indent=2)
    print(f"  sweep written to {path}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default="results")
    p.add_argument("--only", choices=("free", "spectrum"))
    args = p.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    runs = {"free": run_free, "spectrum": run_spectrum}
    for name, fn in runs.items():
        if args.only in (None, name):
            fn(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
