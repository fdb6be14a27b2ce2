"""End-to-end acceptance gate: one test (and one pass/fail line) per claim.

Run with `pytest tests/test_acceptance.py -v` to see the ten lines.  Every
check states its tolerance inline; the fixtures in conftest.py provide the
bundled models and their reduced systems.
"""

import math

import numpy as np
import pytest

from emq.anomaly import (
    GeneratingFunction, anomaly_coefficients, constraint_surface_vanishing,
    correction_scaling, sliced_expansion_check,
)
from emq.cli import EXIT_CHECK, EXIT_OK, main
from emq.expr import (
    Add, Const, Div, Fraction, Fun, Mul, ONE, SampleDomain, Sym, ZERO,
    evaluate, normalize, numeric_compare, parse, substitute,
)
from emq.pathint import (
    FocalPointError, LatticeConfig, bare_kernel, bind_reduced_hamiltonian,
    brownian_increment_report, fluctuation_det,
    holder_slopes, propagate_quantum, trotter_sweep,
)
from emq.reduction import jacobi_liouville_check, verify_canonicity
from emq.symplectic import poisson_bracket, split_hamiltonian, verify_charges
from emq.sysfile import bundled_text

from test_anomaly import _random_quadratic
from test_pathint import fluctuation_det_dense


def _line(num, text):
    print(f"criterion {num:02d} PASS: {text}")


# ---------------------------------------------------------------------------

def test_criterion_01_charge_conservation(free_model, ho_model):
    for m in (free_model, ho_model):
        rep = verify_charges(m.system, n=100, tol=1e-12)
        for name in ("C1", "C2"):
            cmp = rep[name]
            assert cmp.equal, (f"{m.name}: {{{name}, H}} fails at 1e-12 "
                               f"(max err {cmp.max_scaled_err:.2e})")
    _line(1, "{C1, H} and {C2, H} vanish at 1e-12 over 100 chart points")


def test_criterion_02_splitting_and_information_loss(free_model, ho_model):
    surfaces = {
        # phi is H - rho itself: one substitution reaches the surface
        "free_particle": (free_model.constraint,),
        # second-class pair: both members must be imposed
        "harmonic": (ho_model.constraint, None),
    }
    for m in (free_model, ho_model):
        split = split_hamiltonian(m.system, n=100, tol=1e-9)
        H = m.system.hamiltonian
        diff = normalize(Add((split.h_plus,
                              Mul((Const(-1), split.h_minus)))))
        assert numeric_compare(diff, H, m.chart, n=100,
                               tol=1e-9).equal, \
            f"{m.name}: H_plus - H_minus != H"
        bracket = poisson_bracket(split.h_plus, split.h_minus, m.system.space)
        assert numeric_compare(bracket, ZERO, m.chart, n=100,
                               tol=1e-9).equal, \
            f"{m.name}: {{H_plus, H_minus}} != 0"

        h_minus = substitute(split.h_minus,
                             {m.constraint.eliminated: m.constraint.solution})
        if m.name == "harmonic":
            # chi = 0 solved for p_y completes the second-class restriction
            h_minus = substitute(
                h_minus, {"p_y": parse("y/alpha + a1*x", m.symbols)})
        assert numeric_compare(h_minus, ZERO, m.chart, n=100,
                               tol=1e-9).equal, \
            f"{m.name}: H_minus does not vanish on the constraint surface"
    _line(2, "H_plus - H_minus = H, {H_plus, H_minus} = 0, and H_minus = 0 "
             "on the constraint surface at 1e-9")


def test_criterion_03_canonicity_and_volume(free_model, ho_model, lam_model):
    for m in (free_model, ho_model, lam_model):
        checks = verify_canonicity(m.darboux, m.system.space, m.chart,
                                   n=200, tol=1e-9)
        assert all(cmp.equal for cmp in checks.values()), \
            f"{m.name}: bracket table fails"
        assert jacobi_liouville_check(m.darboux, m.constraint, m.system,
                                      tol=1e-7), \
            f"{m.name}: chart volume factor drifts beyond 1e-7"
    _line(3, "all target brackets canonical at 1e-9 over 200 points; "
             "constrained-chart volume constant at 1e-7")


def test_criterion_04_reduced_closed_forms(free_model, ho_model, lam_model,
                                           free_reduced, ho_reduced,
                                           lam_reduced):
    cases = (
        (free_model, free_reduced, "a1*p_zeta^2"),
        (ho_model, ho_reduced, "p_zeta^2/(2*a1) + (a1/2)*zeta^2"),
        (lam_model, lam_reduced, "(a1 + lam)*p_zeta^2"),
    )
    for model, rs, text in cases:
        want = normalize(parse(text, model.symbols))
        assert numeric_compare(rs.h_star, want, model.chart, n=64,
                               tol=1e-10).equal, \
            f"{model.name}: H* != {text}"
    _line(4, "H* matches the closed forms at 1e-10, including the "
             "potential-term variant a1 -> a1 + lam")


def test_criterion_05_free_kernel(free_model, free_reduced):
    cfg = free_model.lattice
    assert cfg.n == 1024 and cfg.duration == 1.0
    assert free_model.params["m"] == 1.0 and free_model.params["hbar"] == 1.0
    res = propagate_quantum(free_reduced, cfg, free_model.params)
    err = res.metrics["max_rel_err_central"]
    assert err < 1e-4, f"central-window kernel error {err:.2e} >= 1e-4"
    _line(5, f"free kernel max relative error {err:.1e} < 1e-4 on the "
             f"central half grid (n=1024, T=1)")


def test_criterion_06_oscillator_spectrum(ho_model, ho_reduced):
    # partition function on the bundled 512-slice lattice
    res = propagate_quantum(ho_reduced, ho_model.lattice, ho_model.params)
    Z = res.metrics["partition_value"]
    Z_ref = 1.0 / (2.0 * math.sinh(0.5))
    assert abs(Z - Z_ref) < 1e-3, f"Z(1) = {Z:.6f} vs {Z_ref:.6f}"

    # real-time kernel point: two narrow sources, Richardson limit in sigma^2
    quad = bind_reduced_hamiltonian(ho_reduced, ho_model.params)
    T = math.pi / 4
    ref = bare_kernel(quad, T, 0.0, 0.0)

    def delta_limit_sample(sigma):
        n, length = 4096, 50.0
        cfg = LatticeConfig(mode="real", n=n, length=length, slices=512,
                            duration=T,
                            source_center=0.0,
                            source_sigma_cells=sigma / (length / n))
        out = propagate_quantum(ho_reduced, cfg, ho_model.params)
        j0 = int(np.argmin(np.abs(out.zeta)))
        return out.psi[j0] / (sigma * math.sqrt(2.0 * math.pi))

    s1, s2 = 0.10, 0.15
    l1, l2 = delta_limit_sample(s1), delta_limit_sample(s2)
    K_est = (s2 ** 2 * l1 - s1 ** 2 * l2) / (s2 ** 2 - s1 ** 2)
    rel = abs(K_est - ref) / abs(ref)
    assert rel < 1e-3, f"K(0,0;pi/4) = {K_est:.6f} vs {ref:.6f} (rel {rel:.2e})"

    sweep = trotter_sweep(ho_reduced, ho_model.lattice, ho_model.params,
                          slice_counts=(32, 64, 128, 256))
    assert abs(sweep["slope"] + 2.0) < 0.2, \
        f"Trotter slope {sweep['slope']:.3f} not -2 +/- 0.2"
    _line(6, f"Z(1) within 1e-3 of 1/(2 sinh 1/2); K(0,0;pi/4) within 1e-3 "
             f"of the closed form; slice convergence slope {sweep['slope']:.2f}")


def test_criterion_07_fluctuation_determinants(ho_reduced, ho_model):
    worst = max(abs(fluctuation_det(1.0, t) - math.sin(t))
                for t in np.linspace(0.1, 3.0, 12))
    assert worst < 1e-8, f"D(T) vs sin(T) off by {worst:.2e}"
    for w2, T in ((1.0, 1.5), (2.5, 0.9)):
        cont = fluctuation_det(w2, T)
        dense = fluctuation_det_dense(w2, T, n=64)
        assert abs(dense - cont) / abs(cont) < 0.01, \
            f"64-slice determinant off by >1% at omega^2={w2}, T={T}"
    focal = LatticeConfig(mode="classical", n=64, length=16.0, slices=8,
                          duration=math.pi)
    with pytest.raises(FocalPointError):
        propagate_quantum(ho_reduced, focal, ho_model.params)
    _line(7, "D(T) = sin(T) at 1e-8; dense 64-slice determinant within 1%; "
             "focal point at T = pi raises")


def test_criterion_08_slicing_corrections(free_model, ho_model):
    gen_ho = ho_model.generating_function
    assert anomaly_coefficients(gen_ho).all_zero
    for seed in range(20):
        gen = GeneratingFunction.for_chart(_random_quadratic(seed),
                                           ho_model.system.space,
                                           ho_model.darboux)
        assert anomaly_coefficients(gen).all_zero

    # free chart: reference coefficient against an independently rebuilt form
    z, pz, pzeta, a1 = Sym("z"), Sym("p_z"), Sym("p_zeta"), Sym("a1")
    sin_z, cos_z = Fun("sin", (z,)), Fun("cos", (z,))
    oracle = normalize(Mul((Const(Fraction(-1, 2)), Add((
        Mul((Add((ONE, Mul((Const(2), a1, z, pzeta)))), cos_z)),
        Mul((Add((Div(pz, pzeta), Mul((Const(-1), a1, pzeta)))), sin_z)),
    )), sin_z)))
    dom = SampleDomain(ranges=(("z", -1.2, 1.2), ("p_z", -1.5, 1.5),
                               ("p_zeta", 0.5, 3.0), ("a1", 0.2, 1.2)))
    assert numeric_compare(oracle, free_model.reference_A_z, dom, n=100,
                           tol=1e-10).equal
    assert normalize(substitute(free_model.reference_A_z, {"z": ZERO})) == ZERO
    gen_free = free_model.generating_function
    coeffs = anomaly_coefficients(gen_free,
                                  reference_A_z=free_model.reference_A_z)
    surface = constraint_surface_vanishing(coeffs, free_model.darboux,
                                           free_model.chart)
    assert all(cmp.equal for cmp in surface.values())

    rep = sliced_expansion_check(gen_ho, ho_model.darboux,
                                 ho_model.system.hamiltonian, ho_model.chart,
                                 expected=ho_model.sliced_refs,
                                 n=100, tol=1e-8)
    assert rep.comparisons and all(
        cmp.equal for cmp in rep.comparisons.values()), \
        "sliced expansion disagrees with reference forms"
    fit = correction_scaling(rep, ho_model.chart)
    assert abs(fit.slope - 1.5) < 0.05, f"scaling slope {fit.slope:.3f}"
    _line(8, f"correction coefficients vanish for 21 quadratic generating "
             f"functions; reference A_z reproduced and gauge-surface safe; "
             f"sliced expansion matches at 1e-8; scaling slope "
             f"{fit.slope:.3f}")


def test_criterion_09_path_roughness(ho_reduced, ho_model):
    rep = brownian_increment_report(n_slices=64, beta=1.0, mass=1.0,
                                    hbar=1.0, n_samples=100_000)
    assert rep["rel_dev_continuum"] < 0.05, \
        f"Var(d zeta) off by {rep['rel_dev_continuum']:.3f}"
    hs = holder_slopes(ho_reduced, ho_model.params, n_samples=20_000)
    assert abs(hs["classical_slope"] - 1.0) < 0.05, \
        f"deterministic increment slope {hs['classical_slope']:.3f}"
    assert abs(hs["quantum_slope"] - 0.5) < 0.06, \
        f"thermal increment slope {hs['quantum_slope']:.3f}"
    _line(9, f"Var(d zeta) = (hbar/m) eps within 5% at 1e5 samples; "
             f"increment slopes {hs['quantum_slope']:.2f} (thermal) and "
             f"{hs['classical_slope']:.2f} (deterministic)")


def test_criterion_10_cli_contract(tmp_path, monkeypatch, capsys):
    # no command writes a file without --out; run in a scratch cwd anyway
    monkeypatch.chdir(tmp_path)
    for name in ("free_particle", "harmonic"):
        for command in ("verify", "reduce", "propagate", "anomaly"):
            code = main([command, name, "--seed", "0"])
            assert code == EXIT_OK, f"emq {command} {name} exited {code}"
    capsys.readouterr()
    assert list(tmp_path.iterdir()) == []

    broken = bundled_text("harmonic").replace(
        "zeta = -(p_x - x/alpha - a1*y)/(sqrt(2)*a1)",
        "zeta = (p_x - x/alpha - a1*y)/(sqrt(2)*a1)")
    path = tmp_path / "broken.sys"
    path.write_text(broken)
    code = main(["verify", str(path), "--seed", "0"])
    out = capsys.readouterr().out
    assert code == EXIT_CHECK
    assert "{p_zeta, zeta}" in out, "failing bracket is not named"
    _line(10, "all four commands exit 0 on both bundled files; corrupted "
              "map exits 1 naming the failing bracket")
