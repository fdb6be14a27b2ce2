"""Rough-path statistics and slicing-correction checks for the oscillator.

Part one samples thermal lattice paths, as their Fourier mode draws, and
measures increment scaling:
Var(d zeta) per slice against the (hbar/m) eps law, and the log-log
exponents of rms increments for thermal (~1/2) versus deterministic (~1)
paths.  Part two expands the gauge-fixed slice Hamiltonian in increments,
compares the correction coefficients against the stored reference forms,
and fits the width^(3/2) law for the per-slice correction contribution.

    python3 scripts/roughness_and_corrections.py --samples 100000
"""

import argparse
import sys

from emq.anomaly import (
    GeneratingFunction, anomaly_coefficients, correction_scaling,
    sliced_expansion_check,
)
from emq.pathint import brownian_increment_report, holder_slopes
from emq.reduction import run_reduction
from emq.sysfile import load_bundled


def run(samples: int, seed: int) -> None:
    model = load_bundled("harmonic")
    *_, result = run_reduction(model.system, model.constraint, model.darboux)
    rs = result.system

    rep = brownian_increment_report(n_slices=64, beta=1.0,
                                    n_samples=samples, seed=seed)
    lattice_dev = abs(rep["var"] - rep["exact_lattice"]) / rep["exact_lattice"]
    print("thermal increment variance (64 slices, beta=1):")
    print(f"  measured Var(d zeta) = {rep['var']:.6e}")
    print(f"  continuum law        = {rep['expected_continuum']:.6e}"
          f"   rel dev {rep['rel_dev_continuum']:.2%}")
    print(f"  exact lattice value  = {rep['exact_lattice']:.6e}"
          f"   rel dev {lattice_dev:.2%}")

    hs = holder_slopes(rs, model.params, n_samples=min(samples, 20_000),
                       seed=seed)
    print("increment scaling exponents:")
    print(f"  thermal paths       : {hs['quantum_slope']:.3f} (expect 0.5)")
    print(f"  deterministic flow  : {hs['classical_slope']:.3f} (expect 1.0)")

    gen = GeneratingFunction.for_chart(model.anomaly_F, model.system.space,
                                       model.darboux)
    coeffs = anomaly_coefficients(gen)
    print("correction coefficients for the oscillator chart:")
    print(f"  all structurally zero: {coeffs.all_zero} ({coeffs.source})")

    sliced = sliced_expansion_check(gen, model.darboux,
                                    model.system.hamiltonian, model.chart,
                                    expected=model.sliced_refs, seed=seed)
    print("sliced expansion:")
    for term in sliced.terms:
        tag = "matches reference" if term.matches else "NO MATCH"
        # derived forms come out of the solver unsimplified; the stored
        # references are the readable versions of the same functions
        print(f"  {term.name:16s} {tag}: {term.expected}")

    fit = correction_scaling(sliced, model.chart, seed=seed)
    print(f"  per-slice contribution slope = {fit.slope:.4f} (expect 1.5)")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    run(args.samples, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
