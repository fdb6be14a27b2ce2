"""Step through the constraint reduction for one bundled model.

Prints, in order: the first-order Hamiltonian and its conserved charges,
the positive/negative splitting identities, the rank of the presymplectic
form after the primary constraint is solved, the canonical bracket table
for the target chart, and the reduced Hamiltonian with its gauge branch.

    python3 scripts/reduction_walkthrough.py harmonic
"""

import argparse
import sys

from emq.expr import Add, Const, Mul, ZERO, normalize, numeric_compare
from emq.reduction import run_reduction, verify_canonicity
from emq.symplectic import poisson_bracket, split_hamiltonian, verify_charges
from emq.sysfile import bundled_names, load_bundled


def walkthrough(name: str, seed: int) -> None:
    model = load_bundled(name)
    sys_ = model.system
    print(f"model: {model.name}")
    print(f"  H    = {sys_.hamiltonian}")
    print(f"  rho  = {sys_.rho}")
    for cname, expr in sys_.charges:
        print(f"  {cname}   = {expr}")

    charges = verify_charges(sys_, n=100, tol=1e-12, seed=seed)
    for cname, cmp in charges.items():
        tag = "conserved" if cmp.equal else "NOT conserved"
        print(f"  {{{cname}, H}}: {tag} "
              f"(max scaled err {cmp.max_scaled_err:.2e})")

    split = split_hamiltonian(sys_, seed=seed)
    diff = normalize(Add((split.h_plus, Mul((Const(-1), split.h_minus)))))
    cmp_sum = numeric_compare(diff, sys_.hamiltonian, model.chart,
                              n=100, tol=1e-9, seed=seed)
    bracket = poisson_bracket(split.h_plus, split.h_minus, sys_.space)
    cmp_brk = numeric_compare(bracket, ZERO, model.chart, n=100, tol=1e-9,
                              seed=seed)
    print(f"  H_plus - H_minus - H : max scaled err {cmp_sum.max_scaled_err:.2e}")
    print(f"  {{H_plus, H_minus}}    : max scaled err {cmp_brk.max_scaled_err:.2e}")

    _, form, result = run_reduction(
        sys_, model.constraint, model.darboux, seed=seed)
    pt = model.chart.sample_columns(1, seed=seed)
    print(f"  presymplectic rank   : {form.rank_at(pt)}"
          f" of {len(form.variables)} retained variables")

    brackets = verify_canonicity(model.darboux, sys_.space, model.chart,
                                 n=200, tol=1e-9, seed=seed)
    worst = max(cmp.max_scaled_err for cmp in brackets.values())
    print(f"  bracket table        : {len(brackets)} brackets,"
          f" worst err {worst:.2e}")

    rs = result.system
    print(f"  H*   = {rs.h_star}")
    print(f"  gauge: chi = {result.chi}, z -> {result.z_solution}")
    print("  provenance:")
    for step in rs.provenance:
        print(f"    - {step}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("model", nargs="?", default="harmonic",
                   choices=bundled_names())
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    walkthrough(args.model, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
