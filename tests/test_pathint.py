import cmath
import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from emq.expr import ExprError, Sym, ZERO, normalize, parse
from emq.pathint import (
    CoverageError, FocalPointError, LatticeConfig, QuadraticHamiltonian,
    bare_kernel, bind_reduced_hamiltonian, brownian_increment_report,
    classical_amplitude, classical_flow, fluctuation_det,
    fluctuation_det_dense, holder_slopes,
    partition_closed_form, propagate_quantum, sample_thermal_paths,
    smeared_reference, trotter_sweep, write_kernel_csv,
)
from emq.pathint import (
    PropagatorResult, _evolve, _mode_eigenvalues, _parity_blocks, _rk4,
    _split_step_factors, _thermal_increment_sum,
)
from emq.reduction import PhaseSpace, ReducedSystem


def _reduced(h_text, table):
    return ReducedSystem(
        space=PhaseSpace(("zeta",), ("p_zeta",)),
        h_star=normalize(parse(h_text, table)),
        gauge_condition=Sym("z"),
        z_solution=None,
        provenance=(),
    )


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_lattice_config_validation():
    with pytest.raises(ValueError, match="mode"):
        LatticeConfig(mode="complex", n=64, length=8.0, slices=8, duration=1.0)
    with pytest.raises(ValueError, match="power of two"):
        LatticeConfig(mode="real", n=100, length=8.0, slices=8, duration=1.0)
    with pytest.raises(ValueError, match="slices"):
        LatticeConfig(mode="real", n=64, length=8.0, slices=1, duration=1.0)
    cfg = LatticeConfig(mode="real", n=64, length=8.0, slices=16, duration=2.0)
    assert cfg.dx == pytest.approx(0.125)
    assert cfg.epsilon == pytest.approx(0.125)


# ---------------------------------------------------------------------------
# classical flows
# ---------------------------------------------------------------------------

def test_rotation_flow_matches_closed_form(free_model):
    sys = free_model.system
    T = 0.8
    state0 = {"x": 1.1, "y": 0.4, "p_x": 0.3, "p_y": -0.2}
    flow = classical_flow(sys, state0, T, steps=400,
                          params=free_model.params)
    end = flow.final()
    c, s = math.cos(T), math.sin(T)
    assert end["x"] == pytest.approx(1.1 * c - 0.4 * s, abs=1e-8)
    assert end["y"] == pytest.approx(1.1 * s + 0.4 * c, abs=1e-8)
    assert flow.drifts["H"] < 1e-8
    assert flow.drifts["C1"] < 1e-8


def test_rotation_amplitude_is_unit_weight(free_model):
    T = 0.6
    c, s = math.cos(T), math.sin(T)
    q1 = {"x": 1.0, "y": 0.5}
    q2 = {"x": 1.0 * c - 0.5 * s, "y": 1.0 * s + 0.5 * c}
    w = classical_amplitude(free_model.system, q1, q2, T,
                            params=free_model.params)
    assert w == pytest.approx(1.0, abs=1e-6)
    # endpoint off the flow: zero weight
    off = classical_amplitude(free_model.system, q1,
                              {"x": q2["x"] + 0.3, "y": q2["y"]}, T,
                              params=free_model.params)
    assert off == 0.0


# ---------------------------------------------------------------------------
# fluctuation determinants
# ---------------------------------------------------------------------------

def test_fluctuation_det_oracles():
    assert fluctuation_det(1.0, 1.5) == pytest.approx(math.sin(1.5), abs=1e-8)
    assert fluctuation_det(4.0, 0.7) == pytest.approx(math.sin(2 * 0.7) / 2.0,
                                                      abs=1e-8)
    assert fluctuation_det(0.0, 2.3) == pytest.approx(2.3, abs=1e-10)
    # omega^2 < 0: D(T) = sinh(|omega| T)/|omega|
    assert fluctuation_det(-1.0, 1.2) == pytest.approx(math.sinh(1.2),
                                                       abs=1e-8)
    # time-dependent frequency: ramp checked against a fine reference run
    ramp = lambda t: 1.0 + t
    fine = fluctuation_det(ramp, 1.0, steps=40000)
    assert fluctuation_det(ramp, 1.0, steps=4000) == pytest.approx(fine,
                                                                   abs=1e-9)


@pytest.mark.parametrize("w2", [1.0, 4.0, 0.0, -1.0])
@pytest.mark.parametrize("T", [1.5, math.pi - 1e-3, math.pi])
def test_constant_frequency_det_is_the_rk4_loop(w2, T):
    # a float omega^2 takes the RK4 step matrix; the step loop is the oracle
    _, states = _rk4(lambda t, y: np.array([y[1], -w2 * y[0]]), (0.0, 1.0),
                     T, 4000)
    loop = float(states[-1, 0])
    assert abs(fluctuation_det(w2, T) - loop) <= 1e-12 * max(1.0, abs(loop))


def test_dense_lattice_determinant_cross_check():
    for w2, T in ((1.0, 1.5), (2.5, 0.9)):
        cont = fluctuation_det(w2, T)
        dense = fluctuation_det_dense(w2, T, n=64)
        assert abs(dense - cont) / abs(cont) < 0.01


def test_reduced_amplitude_and_focal_point(ho_reduced, ho_model):
    w = classical_amplitude(ho_reduced, None, None, math.pi / 2,
                            params=ho_model.params)
    assert w == pytest.approx(1.0 / math.sin(math.pi / 2), rel=1e-7)
    with pytest.raises(FocalPointError, match="focal"):
        classical_amplitude(ho_reduced, None, None, math.pi,
                            params=ho_model.params)


# ---------------------------------------------------------------------------
# quadratic binding
# ---------------------------------------------------------------------------

def test_bind_bundled_forms(free_reduced, ho_reduced, free_model, ho_model):
    q_free = bind_reduced_hamiltonian(free_reduced, free_model.params)
    assert q_free.c_p == pytest.approx(free_model.params["a1"])
    assert q_free.c_q == 0.0
    assert q_free.omega == 0.0
    q_ho = bind_reduced_hamiltonian(ho_reduced, ho_model.params)
    a1 = ho_model.params["a1"]
    assert q_ho.c_p == pytest.approx(1.0 / (2 * a1))
    assert q_ho.c_q == pytest.approx(a1 / 2)
    assert q_ho.mass == pytest.approx(a1)
    assert q_ho.omega == pytest.approx(1.0)


def test_bind_rejects_non_quadratic_forms(ho_model):
    t = ho_model.symbols
    with pytest.raises(ExprError, match="unbound"):
        bind_reduced_hamiltonian(_reduced("a1*p_zeta^2", t), {})
    with pytest.raises(ExprError, match="linear zeta"):
        bind_reduced_hamiltonian(_reduced("p_zeta^2 + zeta", t), {})
    with pytest.raises(ExprError, match="cross term"):
        bind_reduced_hamiltonian(_reduced("p_zeta^2 + zeta*p_zeta", t), {})
    with pytest.raises(ExprError, match="not quadratic"):
        bind_reduced_hamiltonian(_reduced("p_zeta^2 + zeta^4", t), {})
    with pytest.raises(ExprError, match="constant term"):
        bind_reduced_hamiltonian(_reduced("p_zeta^2 + 1", t), {})
    with pytest.raises(ExprError, match="positive"):
        bind_reduced_hamiltonian(_reduced("-(p_zeta^2)", t), {})


# ---------------------------------------------------------------------------
# closed-form kernels
# ---------------------------------------------------------------------------

def test_free_kernel_against_direct_formula():
    quad = QuadraticHamiltonian(c_p=0.5, c_q=0.0, coordinate="zeta",
                                momentum="p_zeta")
    hbar, T = 1.0, 1.0
    for z2, z1 in ((0.4, -0.3), (1.2, 0.9), (0.0, 0.0)):
        got = bare_kernel(quad, hbar, T, z2, z1)
        want = cmath.sqrt(1.0 / (2j * math.pi * hbar * T)) * cmath.exp(
            1j * (z2 - z1) ** 2 / (2 * hbar * T))
        assert abs(got - want) < 1e-12


def test_oscillator_kernel_against_direct_formula():
    quad = QuadraticHamiltonian(c_p=0.5, c_q=0.5, coordinate="zeta",
                                momentum="p_zeta")
    hbar, T = 1.0, 0.7
    s, c = math.sin(T), math.cos(T)
    for z2, z1 in ((0.4, -0.3), (1.2, 0.9)):
        got = bare_kernel(quad, hbar, T, z2, z1)
        want = cmath.sqrt(1.0 / (2j * math.pi * s)) * cmath.exp(
            1j * ((z2 ** 2 + z1 ** 2) * c - 2 * z2 * z1) / (2 * s))
        assert abs(got - want) < 1e-12


def test_smeared_reference_approaches_bare_kernel():
    quad = QuadraticHamiltonian(c_p=0.5, c_q=0.5, coordinate="zeta",
                                momentum="p_zeta")
    z = np.array([0.3, -0.8])
    tight = smeared_reference(quad, 1.0, 0.9, z, center=0.2, sigma=1e-4)
    bare = np.array([bare_kernel(quad, 1.0, 0.9, x, 0.2) for x in z])
    # the smeared column converges to kernel * (source integral)
    ratio = tight / bare
    assert np.allclose(ratio / ratio[0], 1.0, atol=1e-6)


def test_partition_closed_form():
    quad = QuadraticHamiltonian(c_p=0.5, c_q=0.5, coordinate="zeta",
                                momentum="p_zeta")
    val = partition_closed_form(quad, 1.0, 1.0)
    assert val == pytest.approx(1.0 / (2.0 * math.sinh(0.5)), rel=1e-12)
    free = QuadraticHamiltonian(c_p=0.5, c_q=0.0, coordinate="zeta",
                                momentum="p_zeta")
    with pytest.raises(ExprError, match="confining"):
        partition_closed_form(free, 1.0, 1.0)


# ---------------------------------------------------------------------------
# lattice propagation
# ---------------------------------------------------------------------------

def test_real_mode_free_kernel(free_reduced, free_model):
    res = propagate_quantum(free_reduced, free_model.lattice,
                            free_model.params)
    assert res.mode == "real"
    assert res.metrics["max_rel_err_central"] < 1e-4
    assert res.metrics["norm_drift"] < 1e-10


def _allocating_evolve(psi, kin, pot_half, slices):
    """Oracle: the split-step loop with a fresh array for every factor."""
    norm0 = float(np.linalg.norm(psi))
    drift = 0.0
    for _ in range(slices):
        psi = pot_half * psi
        psi = np.fft.ifft(kin * np.fft.fft(psi))
        psi = pot_half * psi
        drift = max(drift, abs(float(np.linalg.norm(psi)) - norm0))
    return psi, drift


def test_in_place_split_step_matches_the_allocating_loop():
    quad = QuadraticHamiltonian(c_p=0.5, c_q=0.5, coordinate="zeta",
                                momentum="p_zeta")
    cfg = LatticeConfig(mode="real", n=1024, length=16.0, slices=256,
                        duration=1.0)
    zeta = np.linspace(-8.0, 8.0, cfg.n, endpoint=False)
    kin, pot_half = _split_step_factors(quad, cfg, zeta)
    psi0 = np.exp(-(zeta - 0.5) ** 2 / 0.18).astype(complex)
    want, want_drift = _allocating_evolve(psi0.copy(), kin, pot_half,
                                          cfg.slices)
    psi = psi0.copy()
    got, drift = _evolve(psi, kin, pot_half, cfg.slices)
    assert got is psi           # _evolve owns and overwrites its argument
    assert np.max(np.abs(got - want)) <= 1e-13
    assert abs(drift - want_drift) <= 1e-14


def _per_slice_psi(quad, cfg, res):
    """The full slice-by-slice loop from the run's own source and grid."""
    sigma = res.metrics["sigma"]
    psi0 = np.exp(-(res.zeta - cfg.source_center) ** 2 / (2.0 * sigma ** 2))
    kin, pot_half = _split_step_factors(quad, cfg, res.zeta)
    return _allocating_evolve(psi0.astype(complex), kin, pot_half,
                              cfg.slices)[0]


@pytest.mark.parametrize("cfg", [
    None,       # the bundled free-particle lattice
    LatticeConfig(mode="real", n=4096, length=80.0, slices=512,
                  duration=1.0, source_center=0.37),
], ids=["bundled", "off_centre"])
def test_potential_free_run_is_the_per_slice_loop(cfg, free_reduced,
                                                  free_model):
    cfg = cfg or free_model.lattice
    quad = bind_reduced_hamiltonian(free_reduced, free_model.params)
    assert quad.c_q == 0.0
    res = propagate_quantum(free_reduced, cfg, free_model.params)
    want = _per_slice_psi(quad, cfg, res)
    assert np.max(np.abs(res.psi - want)) <= 1e-12
    # one exact kinetic step: the slice count does not change the result
    two = propagate_quantum(free_reduced, replace(cfg, slices=2),
                            free_model.params)
    np.testing.assert_array_equal(two.psi, res.psi)
    assert res.metrics["norm_drift"] < 1e-14


def test_real_run_with_a_potential_keeps_the_slice_loop(ho_reduced,
                                                        ho_model):
    cfg = LatticeConfig(mode="real", n=1024, length=40.0, slices=256,
                        duration=1.0, source_center=0.37)
    quad = bind_reduced_hamiltonian(ho_reduced, ho_model.params)
    assert quad.c_q > 0.0
    res = propagate_quantum(ho_reduced, cfg, ho_model.params)
    want = _per_slice_psi(quad, cfg, res)
    assert np.max(np.abs(res.psi - want)) <= 1e-13
    # the slices do matter here: a coarser run differs by its Trotter error
    coarse = propagate_quantum(ho_reduced, replace(cfg, slices=8),
                               ho_model.params)
    assert np.max(np.abs(coarse.psi - res.psi)) > 1e-6


def test_imaginary_mode_partition(ho_reduced, ho_model):
    res = propagate_quantum(ho_reduced, ho_model.lattice, ho_model.params)
    assert res.mode == "imaginary"
    assert res.metrics["partition_rel_err"] < 1e-3
    assert res.metrics["partition_ref"] == pytest.approx(
        1.0 / (2.0 * math.sinh(0.5)), rel=1e-12)


def _transfer_matrix(quad, cfg, zeta):
    """Dense oracle: the full n x n transfer matrix from complex FFTs."""
    kin, pot_half = _split_step_factors(quad, cfg, zeta)
    S = np.diag(pot_half.astype(complex))
    S = np.fft.ifft(kin[:, None] * np.fft.fft(S, axis=0), axis=0)
    S = pot_half[:, None] * S
    S = S.real
    return 0.5 * (S + S.T)


def test_imaginary_mode_matches_dense_matrix_power(ho_reduced, ho_model):
    cfg = LatticeConfig(mode="imaginary", n=64, length=16.0, slices=16,
                        duration=1.0)
    res = propagate_quantum(ho_reduced, cfg, ho_model.params)
    quad = bind_reduced_hamiltonian(ho_reduced, ho_model.params)
    S_N = np.linalg.matrix_power(_transfer_matrix(quad, cfg, res.zeta),
                                 cfg.slices)
    Z = float(np.trace(S_N))
    assert res.metrics["partition_value"] == pytest.approx(Z, rel=1e-10)
    np.testing.assert_allclose(res.psi.real, np.diag(S_N) / cfg.dx,
                               rtol=1e-10, atol=0.0)


def test_parity_blocks_carry_the_dense_spectrum(ho_reduced, ho_model):
    params = dict(ho_model.params, a1=1.3)
    quad = bind_reduced_hamiltonian(ho_reduced, params)
    cfg = LatticeConfig(mode="imaginary", n=128, length=16.0, slices=32,
                        duration=1.0)
    zeta = np.linspace(-8.0, 8.0, 128, endpoint=False)
    even, odd = _parity_blocks(quad, cfg, zeta)
    assert even.shape == (65, 65) and odd.shape == (63, 63)
    split = np.sort(np.concatenate([np.linalg.eigvalsh(even),
                                    np.linalg.eigvalsh(odd)]))
    dense = np.linalg.eigvalsh(_transfer_matrix(quad, cfg, zeta))
    np.testing.assert_allclose(split, dense, rtol=0.0,
                               atol=1e-12 * np.max(np.abs(dense)))


def test_imaginary_diagonal_at_fixed_and_interior_points(ho_reduced, ho_model):
    params = dict(ho_model.params, a1=1.3)
    cfg = LatticeConfig(mode="imaginary", n=128, length=16.0, slices=32,
                        duration=1.0)
    res = propagate_quantum(ho_reduced, cfg, params)
    quad = bind_reduced_hamiltonian(ho_reduced, params)
    want = np.diag(np.linalg.matrix_power(
        _transfer_matrix(quad, cfg, res.zeta), cfg.slices)) / cfg.dx
    # 0 and 64 are the fixed points of j -> 128 - j; 37 and 91 mirror
    for j in (0, 64, 37, 91):
        assert res.psi[j].real == pytest.approx(want[j], rel=1e-10)


def test_classical_mode_and_focal_error(ho_reduced, ho_model):
    cfg = LatticeConfig(mode="classical", n=64, length=16.0, slices=8,
                        duration=1.0)
    res = propagate_quantum(ho_reduced, cfg, ho_model.params)
    assert res.metrics["weight"] == pytest.approx(1.0 / math.sin(1.0),
                                                  rel=1e-7)
    focal = LatticeConfig(mode="classical", n=64, length=16.0, slices=8,
                          duration=math.pi)
    with pytest.raises(FocalPointError):
        propagate_quantum(ho_reduced, focal, ho_model.params)


def test_coverage_error_on_short_grid(ho_reduced, ho_model):
    tiny = LatticeConfig(mode="imaginary", n=64, length=2.0, slices=32,
                         duration=1.0)
    with pytest.raises(CoverageError, match="envelope"):
        propagate_quantum(ho_reduced, tiny, ho_model.params)


def test_inverted_oscillator_is_not_a_free_particle(ho_model):
    inverted = _reduced("p_zeta^2/2 - zeta^2/2", ho_model.symbols)
    quad = bind_reduced_hamiltonian(inverted, {})
    assert quad.omega_sq == pytest.approx(-1.0)
    cfg = LatticeConfig(mode="classical", n=64, length=16.0, slices=8,
                        duration=1.2)
    res = propagate_quantum(inverted, cfg, {})
    assert res.metrics["omega_sq"] == pytest.approx(-1.0)
    assert "omega" not in res.metrics
    assert res.metrics["fluctuation_det"] == pytest.approx(math.sinh(1.2),
                                                           abs=1e-8)
    assert classical_amplitude(inverted, None, None, 1.2) == pytest.approx(
        1.0 / math.sinh(1.2), rel=1e-8)
    for mode in ("real", "imaginary"):
        with pytest.raises(ExprError, match="inverted"):
            propagate_quantum(inverted, LatticeConfig(
                mode=mode, n=256, length=16.0, slices=64, duration=1.0), {})


def test_trotter_slope(ho_reduced, ho_model):
    sweep = trotter_sweep(ho_reduced, ho_model.lattice, ho_model.params,
                          slice_counts=(32, 64, 128, 256))
    assert sweep["slope"] == pytest.approx(-2.0, abs=0.1)
    errs = sweep["errors"]
    assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))


# ---------------------------------------------------------------------------
# path statistics
# ---------------------------------------------------------------------------

def _full_spectrum_paths(n_slices, beta, mass, omega, hbar, n_samples, rng):
    """Oracle: every Fourier mode stored, conjugates filled by hand, ifft."""
    lam = _mode_eigenvalues(n_slices, beta / n_slices, mass, omega)
    half = n_slices // 2
    modes = np.zeros((n_samples, n_slices), dtype=complex)
    scale = np.sqrt(hbar * n_slices / lam)
    modes[:, 0] = rng.normal(0.0, 1.0, n_samples) * scale[0]
    if n_slices % 2 == 0:
        modes[:, half] = rng.normal(0.0, 1.0, n_samples) * scale[half]
        idx = np.arange(1, half)
    else:
        idx = np.arange(1, half + 1)
    re = rng.normal(0.0, 1.0, (n_samples, len(idx)))
    im = rng.normal(0.0, 1.0, (n_samples, len(idx)))
    modes[:, idx] = (re + 1j * im) * (scale[idx] / math.sqrt(2.0))
    modes[:, n_slices - idx] = np.conj(modes[:, idx])
    return np.fft.ifft(modes, axis=1).real


def _fancy_indexed_paths(n_slices, beta, mass, omega, hbar, n_samples, rng):
    """Oracle: complex mode blocks built from temporaries, then scattered."""
    lam = _mode_eigenvalues(n_slices, beta / n_slices, mass, omega)
    half = n_slices // 2
    modes = np.zeros((n_samples, half + 1), dtype=complex)
    scale = np.sqrt(hbar * n_slices / lam)
    modes[:, 0] = rng.normal(0.0, 1.0, n_samples) * scale[0]
    if n_slices % 2 == 0:
        modes[:, half] = rng.normal(0.0, 1.0, n_samples) * scale[half]
        idx = np.arange(1, half)
    else:
        idx = np.arange(1, half + 1)
    re = rng.normal(0.0, 1.0, (n_samples, len(idx)))
    im = rng.normal(0.0, 1.0, (n_samples, len(idx)))
    modes[:, idx] = (re + 1j * im) * (scale[idx] / math.sqrt(2.0))
    return np.fft.irfft(modes, n=n_slices, axis=1)


@pytest.mark.parametrize("n_slices", [64, 9, 16, 256, 7, 2, 3])
def test_in_place_draws_give_identical_paths(n_slices):
    args = (n_slices, 1.2, 0.8, 1.0, 1.0, 500)
    got = sample_thermal_paths(*args, np.random.default_rng(4))
    want = _fancy_indexed_paths(*args, np.random.default_rng(4))
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("n_slices", [64, 9])
def test_thermal_paths_match_the_full_spectrum(n_slices):
    # same draws in the same order; only the inverse transform differs
    args = (n_slices, 1.2, 0.8, 1.0, 1.0, 500)
    got = sample_thermal_paths(*args, np.random.default_rng(4))
    want = _full_spectrum_paths(*args, np.random.default_rng(4))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)


def _sum_sq_increments(paths):
    """Oracle: the sum of squared periodic increments over all paths (the
    wrap from the last slice back to the first included), and their count,
    taken from the paths themselves."""
    incs = np.diff(paths, axis=1)
    wrap = paths[:, 0] - paths[:, -1]
    return float(np.vdot(incs, incs) + np.vdot(wrap, wrap)), paths.size


_ROUTE_SLICES = [64, 9, 16, 256, 7, 2, 3]


@pytest.mark.parametrize("n_slices", _ROUTE_SLICES)
def test_spectral_increment_sum_is_the_path_route(n_slices):
    args = (n_slices, 1.2, 0.8, 1.3, 0.7, 500)
    got, count = _thermal_increment_sum(*args, np.random.default_rng(4))
    want, want_count = _sum_sq_increments(
        sample_thermal_paths(*args, np.random.default_rng(4)))
    assert count == want_count == 500 * n_slices
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n_slices", _ROUTE_SLICES)
def test_spectral_increment_sum_consumes_the_sampler_draws(n_slices):
    # the fancy-indexed oracle makes its draws block by block with
    # rng.normal, independently of the shared draw helper
    args = (n_slices, 1.2, 0.8, 1.3, 0.7, 300)
    states = []
    for route in (_thermal_increment_sum, sample_thermal_paths,
                  _fancy_indexed_paths):
        rng = np.random.default_rng(9)
        route(*args, rng)
        states.append(rng.bit_generator.state)
    assert states[0] == states[1] == states[2]


def test_brownian_report_is_the_path_route_in_chunks():
    # 45 001 paths: two full 20 000-path chunks and a partial one
    n_slices, n_samples, seed = 64, 45_001, 3
    rng = np.random.default_rng(seed)
    total, count, done = 0.0, 0, 0
    while done < n_samples:
        take = min(20_000, n_samples - done)
        sq, n = _sum_sq_increments(
            sample_thermal_paths(n_slices, 1.0, 1.0, 1.0, 1.0, take, rng))
        total, count, done = total + sq, count + n, done + take
    rep = brownian_increment_report(n_slices=n_slices, n_samples=n_samples,
                                    seed=seed)
    assert rep["var"] == pytest.approx(total / count, rel=1e-12, abs=0.0)


def test_holder_rms_is_the_path_route(ho_reduced, ho_model):
    counts, n_samples = (16, 32, 64, 128, 256), 1500
    hs = holder_slopes(ho_reduced, ho_model.params, beta=1.1, mass=0.9,
                       omega=1.2, slice_counts=counts, n_samples=n_samples,
                       seed=6)
    rng = np.random.default_rng(6)
    for N, got in zip(counts, hs["quantum_rms"]):
        sq, n = _sum_sq_increments(
            sample_thermal_paths(N, 1.1, 0.9, 1.2, 1.0, n_samples, rng))
        assert got == pytest.approx(math.sqrt(sq / n), rel=1e-12, abs=0.0)


def test_brownian_increment_variance():
    rep = brownian_increment_report(n_slices=64, beta=1.0, n_samples=30_000)
    assert rep["rel_dev_continuum"] < 0.05
    # the exact lattice covariance is much tighter than the continuum law
    assert abs(rep["var"] - rep["exact_lattice"]) / rep["exact_lattice"] < 0.01


def test_holder_slopes(ho_reduced, ho_model):
    hs = holder_slopes(ho_reduced, ho_model.params, n_samples=8000)
    assert hs["quantum_slope"] == pytest.approx(0.5, abs=0.06)
    assert hs["classical_slope"] == pytest.approx(1.0, abs=0.05)


def test_holder_flow_is_the_rk4_loop(ho_reduced, ho_model):
    params = dict(ho_model.params, a1=1.3)
    hs = holder_slopes(ho_reduced, params, n_samples=100)
    quad = bind_reduced_hamiltonian(ho_reduced, params)
    A = np.array([[0.0, 2.0 * quad.c_p], [-2.0 * quad.c_q, 0.0]])
    for N, got in zip((16, 32, 64, 128, 256), hs["classical_increments"]):
        _, states = _rk4(lambda t, y: A @ y, (0.3, 1.0), 1.0, N)
        want = float(np.max(np.abs(np.diff(states[:, 0]))))
        assert abs(got - want) <= 1e-12


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def test_kernel_csv_columns(free_reduced, free_model, tmp_path):
    res = propagate_quantum(free_reduced, free_model.lattice,
                            free_model.params)
    out = tmp_path / "kernel.csv"
    write_kernel_csv(res, str(out))
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["zeta", "re_K", "im_K", "re_ref", "im_ref", "abs_err"]
    assert len(rows) == 1 + free_model.lattice.n
    z0, rk, ik, rr, ir, err = map(float, rows[1])
    assert abs(complex(rk, ik) - complex(rr, ir)) == pytest.approx(err,
                                                                   rel=1e-4)


def _csv_writer_kernel_csv(result, path):
    """Oracle: the row-by-row csv.writer form of write_kernel_csv."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["zeta", "re_K", "im_K", "re_ref", "im_ref", "abs_err"])
        for x, k, r in zip(result.zeta, result.psi, result.reference):
            writer.writerow([f"{x:.10g}", f"{k.real:.12g}", f"{k.imag:.12g}",
                             f"{r.real:.12g}", f"{r.imag:.12g}",
                             f"{abs(k - r):.6g}"])


def test_kernel_csv_bytes_match_csv_writer(tmp_path):
    rng = np.random.default_rng(3)
    n = 1024
    magnitude = 10.0 ** rng.uniform(-300, 300, (5, n))
    zeta, re_k, im_k, re_r, im_r = rng.normal(size=(5, n)) * magnitude
    zeta[:3] = (-0.0, 5e-324, 1.7e308)
    re_k[:4] = (-0.0, 1e-310, -1e300, 0.0)
    im_r[:2] = (-0.0, 2.5e-320)
    re_r[3] = 0.0
    res = PropagatorResult("real", zeta, re_k + 1j * im_k, re_r + 1j * im_r,
                           {})
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_kernel_csv(res, str(got))
    _csv_writer_kernel_csv(res, str(want))
    assert got.read_bytes() == want.read_bytes()
    assert got.read_bytes().count(b"\r\n") == n + 1


def test_kernel_csv_rejects_gridless_results(ho_reduced, ho_model):
    cfg = LatticeConfig(mode="classical", n=64, length=16.0, slices=8,
                        duration=1.0)
    res = propagate_quantum(ho_reduced, cfg, ho_model.params)
    with pytest.raises(ValueError):
        write_kernel_csv(res, "/tmp/nope.csv")
