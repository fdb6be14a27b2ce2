import cmath
import math
import warnings

import numpy as np
import pytest

from emq.expr import ExprError, ZERO, normalize, parse
from emq.pathint import (
    MAX_GRID_POINTS, MAX_SLICES, CoverageError, FocalPointError,
    LatticeConfig, LatticeRangeError, QuadraticHamiltonian,
    bare_kernel, bind_reduced_hamiltonian, brownian_increment_report,
    fluctuation_det, holder_slopes,
    partition_closed_form, partition_slice_closed_form, propagate_quantum,
    sample_thermal_paths,
    smeared_reference, trotter_sweep, write_kernel,
)
from emq.pathint import (
    PropagatorResult, _bind, _evolve, _grid, _increment_weights,
    _kinetic_factor, _lattice_run, _mode_eigenvalues, _parity_blocks,
    _power_trace_and_diagonal, _split_step_factors, _thermal_increment_sum,
)
from emq.reduction import PhaseSpace, ReducedSystem


def _reduced(h_text, table):
    return ReducedSystem(
        space=PhaseSpace(("zeta",), ("p_zeta",)),
        h_star=normalize(parse(h_text, table)),
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


_GOOD_LATTICE = dict(mode="real", n=64, length=8.0, slices=8, duration=1.0)


@pytest.mark.parametrize("field, value", [
    ("length", 0.0), ("length", -1.0), ("length", math.inf),
    ("duration", -1.0), ("duration", -1e-320), ("duration", math.nan),
    ("hbar", 0.0), ("hbar", math.nan), ("tolerance", 0.0),
    ("tolerance", math.inf), ("source_sigma_cells", 0.0),
    ("source_center", math.nan), ("source_center", -math.inf),
    ("n", 2 ** 21), ("n", 2 ** 1300), ("slices", 2 ** 20 + 1),
    ("slices", 10 ** 400),
])
def test_lattice_config_names_the_rejected_field(field, value):
    with pytest.raises(ValueError) as info:
        LatticeConfig(**dict(_GOOD_LATTICE, **{field: value}))
    assert info.value.args[1] == field


def test_lattice_config_accepts_its_bounds():
    cfg = LatticeConfig(**dict(_GOOD_LATTICE, n=2 ** 20, slices=2 ** 20,
                               source_center=-3.5))
    assert (cfg.n, cfg.slices) == (MAX_GRID_POINTS, MAX_SLICES)


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


def fluctuation_det_dense(omega_sq: float, T: float, n: int = 64) -> float:
    """Dense-lattice oracle for fluctuation_det:
    eps * det(tridiag(-1, 2 - eps^2 w^2, -1)).

    The (n-1)x(n-1) matrix is the discrete second variation of the action
    with the mass scaled out; the prefactor eps restores the continuum
    normalization D(0)=0, D'(0)=1.
    """
    eps = T / n
    dim = n - 1
    M = np.zeros((dim, dim))
    np.fill_diagonal(M, 2.0 - eps * eps * omega_sq)
    idx = np.arange(dim - 1)
    M[idx, idx + 1] = -1.0
    M[idx + 1, idx] = -1.0
    return float(eps * np.linalg.det(M))


def test_dense_lattice_determinant_cross_check():
    for w2, T in ((1.0, 1.5), (2.5, 0.9)):
        cont = fluctuation_det(w2, T)
        dense = fluctuation_det_dense(w2, T, n=64)
        assert abs(dense - cont) / abs(cont) < 0.01


def _classical(duration):
    return LatticeConfig(mode="classical", n=64, length=16.0, slices=8,
                         duration=duration)


def test_reduced_amplitude_and_focal_point(ho_reduced, ho_model):
    res = propagate_quantum(ho_reduced, _classical(math.pi / 2),
                            ho_model.params)
    assert res.metrics["weight"] == pytest.approx(1.0 / math.sin(math.pi / 2),
                                                  rel=1e-7)
    with pytest.raises(FocalPointError, match="focal"):
        propagate_quantum(ho_reduced, _classical(math.pi), ho_model.params)


def test_inverted_oscillator_overflow_is_a_range_error(ho_model):
    inverted = _reduced("p_zeta^2/2 - zeta^2/2", ho_model.symbols)
    with pytest.raises(LatticeRangeError, match="float range"):
        propagate_quantum(inverted, _classical(800.0), {})


def test_a_jacobi_phase_beyond_float_range_is_a_range_error(ho_model):
    # omega = 1e10 over T = 1e300: the phase omega*T is past float range, in
    # the sin branch and in the sinh one
    for h in ("p_zeta^2/2 + 5*10^19*zeta^2", "p_zeta^2/2 - 5*10^19*zeta^2"):
        with pytest.raises(LatticeRangeError, match=(
                r"classical-mode lattice leaves the float range: "
                r"OverflowError: Jacobi-field phase 1e\+10 \* 1e\+300 overflows")):
            propagate_quantum(_reduced(h, ho_model.symbols),
                              _classical(1e300), {})


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
    # only mixed third partials, or d3/dzeta3 = 24*zeta - 84/5, which
    # vanishes at zeta = 0.7: a check at one point can miss each of them
    for extra in ("p_zeta^2*zeta", "p_zeta*zeta^2", "p_zeta^2*zeta^2",
                  "zeta^4 - 14/5*zeta^3"):
        h = _reduced(f"p_zeta^2 + zeta^2 + {extra}", t)
        with pytest.raises(ExprError, match="not quadratic"):
            bind_reduced_hamiltonian(h, {})
    with pytest.raises(ExprError, match="constant term"):
        bind_reduced_hamiltonian(_reduced("p_zeta^2 + 1", t), {})
    with pytest.raises(ExprError, match="positive"):
        bind_reduced_hamiltonian(_reduced("-(p_zeta^2)", t), {})


# ---------------------------------------------------------------------------
# closed-form kernels
# ---------------------------------------------------------------------------

def test_free_kernel_against_direct_formula():
    quad = QuadraticHamiltonian(c_p=0.5, c_q=0.0)
    hbar, T = 1.0, 1.0
    for z2, z1 in ((0.4, -0.3), (1.2, 0.9), (0.0, 0.0)):
        got = bare_kernel(quad, hbar, T, z2, z1)
        want = cmath.sqrt(1.0 / (2j * math.pi * hbar * T)) * cmath.exp(
            1j * (z2 - z1) ** 2 / (2 * hbar * T))
        assert abs(got - want) < 1e-12


def test_oscillator_kernel_against_direct_formula():
    quad = QuadraticHamiltonian(c_p=0.5, c_q=0.5)
    hbar, T = 1.0, 0.7
    s, c = math.sin(T), math.cos(T)
    for z2, z1 in ((0.4, -0.3), (1.2, 0.9)):
        got = bare_kernel(quad, hbar, T, z2, z1)
        want = cmath.sqrt(1.0 / (2j * math.pi * s)) * cmath.exp(
            1j * ((z2 ** 2 + z1 ** 2) * c - 2 * z2 * z1) / (2 * s))
        assert abs(got - want) < 1e-12


def test_smeared_reference_approaches_bare_kernel():
    quad = QuadraticHamiltonian(c_p=0.5, c_q=0.5)
    z = np.array([0.3, -0.8])
    tight = smeared_reference(quad, 1.0, 0.9, z, center=0.2, sigma=1e-4)
    bare = np.array([bare_kernel(quad, 1.0, 0.9, x, 0.2) for x in z])
    # the smeared column converges to kernel * (source integral)
    ratio = tight / bare
    assert np.allclose(ratio / ratio[0], 1.0, atol=1e-6)


def test_partition_closed_form():
    quad = QuadraticHamiltonian(c_p=0.5, c_q=0.5)
    val = partition_closed_form(quad, 1.0, 1.0)
    assert val == pytest.approx(1.0 / (2.0 * math.sinh(0.5)), rel=1e-12)
    free = QuadraticHamiltonian(c_p=0.5, c_q=0.0)
    with pytest.raises(ExprError, match="confining"):
        partition_closed_form(free, 1.0, 1.0)


@pytest.mark.parametrize("slices", [4, 64, 512])
def test_partition_slice_closed_form_is_the_mode_product(slices):
    # the primitive N-slice action's Gaussian integral, mode by mode:
    # Z_N = prod_k sqrt(M / (eps lam_k)) over the periodic lattice spectrum
    quad = QuadraticHamiltonian(c_p=0.5 / 1.3, c_q=0.65)
    beta = 0.9
    eps = beta / slices
    lam = _mode_eigenvalues(slices, eps, quad.mass, quad.omega)
    want = math.exp(-0.5 * float(np.sum(np.log(eps * lam / quad.mass))))
    assert partition_slice_closed_form(quad, 1.0, beta, slices) == \
        pytest.approx(want, rel=1e-12)
    # many slices approach the continuum value
    assert partition_slice_closed_form(quad, 1.0, beta, 1 << 20) == \
        pytest.approx(partition_closed_form(quad, 1.0, beta), rel=1e-11)
    free = quad.replace(c_q=0.0)
    with pytest.raises(ExprError, match="confining"):
        partition_slice_closed_form(free, 1.0, beta, slices)


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
    quad = QuadraticHamiltonian(c_p=0.5, c_q=0.5)
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
    two = propagate_quantum(free_reduced, cfg.replace(slices=2),
                            free_model.params)
    np.testing.assert_array_equal(two.psi, res.psi)
    assert res.metrics["norm_drift"] < 1e-14
    # the factors of 1 are skipped, which leaves every value as it was
    sigma = res.metrics["sigma"]
    psi0 = np.exp(-(res.zeta - cfg.source_center) ** 2 / (2.0 * sigma ** 2))
    times_one, drift = _evolve(psi0.astype(complex),
                               _kinetic_factor(quad, cfg, cfg.duration),
                               np.ones(cfg.n, dtype=complex), 1)
    np.testing.assert_array_equal(res.psi, times_one)
    assert res.metrics["norm_drift"] == drift / np.linalg.norm(psi0)


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
    coarse = propagate_quantum(ho_reduced, cfg.replace(slices=8),
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


def _full_parity_blocks(quad, cfg, zeta):
    """The even and odd blocks on the whole half grid, folded from the rows
    0..n/2 of the dense transfer matrix by the reflection j -> (n - j) mod n."""
    kin, pot_half = _split_step_factors(quad, cfg, zeta)
    n, half = cfg.n, cfg.n // 2
    c = np.fft.ifft(kin).real
    rows = np.arange(half + 1)
    cols = np.arange(n)
    S = pot_half[rows, None] * c[(rows[:, None] - cols) % n] * pot_half
    mirror = (n - rows) % n
    fixed = np.where((rows == 0) | (rows == half), math.sqrt(0.5), 1.0)
    even = fixed[:, None] * (S[:, rows] + S[:, mirror]) * fixed
    inner = rows[1:-1]
    odd = S[np.ix_(inner, inner)] - S[np.ix_(inner, mirror[inner])]
    return even, odd


def _eigh_power_trace_and_diagonal(block, power):
    """Oracle: tr(B^power) and diag(B^power) of a symmetric block from its
    eigendecomposition, diag = sum_k v_ik^2 lam_k^power."""
    vals, vecs = np.linalg.eigh(block)
    powered = vals ** power
    return np.sum(powered), vecs ** 2 @ powered


def _random_spd_block(b=150, seed=7):
    """A symmetric block with spectrum in (0, 1], its top eigenvalue 1."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((b, b)))
    vals = rng.uniform(0.0, 1.0, b)
    vals[0] = 1.0
    block = (q * vals) @ q.T
    return 0.5 * (block + block.T)


def _window_blocks(ho_reduced, ho_model, a1):
    """The windowed parity blocks of an n = 1024 imaginary-time run."""
    params = dict(ho_model.params, a1=a1)
    quad = bind_reduced_hamiltonian(ho_reduced, params)
    cfg = LatticeConfig(mode="imaginary", n=1024, length=64.0, slices=512,
                        duration=1.0)
    return _parity_blocks(quad, cfg, _grid(cfg))


@pytest.mark.parametrize("power", [2, 3, 4, 5, 7, 511, 512, 1023])
def test_power_trace_and_diagonal_matches_the_eigh_oracle(ho_reduced,
                                                           ho_model, power):
    blocks = [_random_spd_block()]
    for a1 in (0.8, 1.25):
        blocks += _window_blocks(ho_reduced, ho_model, a1)
    # an eigenvalue's relative rounding error of a few eps grows power-fold
    # in its power; 32 eps per factor also covers the eigensolver's own
    tol = 32 * power * np.finfo(float).eps
    for block in blocks:
        trace, diag = _power_trace_and_diagonal(block, power)
        want_trace, want_diag = _eigh_power_trace_and_diagonal(block, power)
        assert trace == pytest.approx(want_trace, rel=tol)
        np.testing.assert_allclose(diag, want_diag, rtol=0.0,
                                   atol=tol * np.max(want_diag))


@pytest.mark.parametrize("n", [1024, 2048])
def test_window_matches_the_full_grid(ho_reduced, ho_model, n):
    cfg = LatticeConfig(mode="imaginary", n=n, length=n / 16.0, slices=512,
                        duration=1.0)
    res = propagate_quantum(ho_reduced, cfg, ho_model.params)
    quad = bind_reduced_hamiltonian(ho_reduced, ho_model.params)
    even, odd = _parity_blocks(quad, cfg, res.zeta)
    half = n // 2
    assert len(even) < half // 2          # the window, not the half grid
    (even_Z, even_diag), (odd_Z, odd_diag) = (
        _eigh_power_trace_and_diagonal(block, cfg.slices)
        for block in _full_parity_blocks(quad, cfg, res.zeta))
    Z = even_Z + odd_Z
    assert res.metrics["partition_value"] == pytest.approx(Z, rel=1e-12)
    diag = np.empty(n)
    diag[:half + 1] = even_diag
    diag[1:half] = 0.5 * (even_diag[1:half] + odd_diag)
    diag[half + 1:] = diag[half - 1:0:-1]
    diag /= cfg.dx
    peak = np.max(diag)
    np.testing.assert_allclose(res.psi.real, diag, rtol=0.0,
                               atol=1e-12 * peak)
    # off the window the diagonal is written as 0, where it is below e^-40
    # of its peak
    off = res.psi.real == 0.0
    assert np.count_nonzero(off) == n - (2 * len(even) - 1)
    assert np.all(diag[off] < math.exp(-40.0) * peak)


def test_bundled_window_is_the_whole_grid(ho_reduced, ho_model):
    cfg = ho_model.lattice
    quad = bind_reduced_hamiltonian(ho_reduced, ho_model.params)
    even, odd = _parity_blocks(quad, cfg, _grid(cfg))
    assert even.shape == (cfg.n // 2 + 1,) * 2
    assert odd.shape == (cfg.n // 2 - 1,) * 2


# Below n = 64 at length 16 the grid spacing itself limits the trace: it is
# 7e-2 off Z_N at n = 4, 6e-4 at n = 16 and 2e-9 at n = 32.  That is spatial
# discretization error, not window error, so those sizes are left out.
@pytest.mark.parametrize("n", [64, 256, 1024, 2048])
@pytest.mark.parametrize("slices", [3, 4, 64, 511, 512])
def test_partition_matches_the_n_slice_value(ho_reduced, ho_model, n, slices):
    cfg = LatticeConfig(mode="imaginary", n=n, length=max(16.0, n / 16.0),
                        slices=slices, duration=1.0)
    res = propagate_quantum(ho_reduced, cfg, ho_model.params)
    assert res.metrics["partition_slice_ref"] == \
        partition_slice_closed_form(
            bind_reduced_hamiltonian(ho_reduced, ho_model.params), 1.0, 1.0,
            slices)
    assert res.metrics["partition_slice_rel_err"] < 1e-10


def test_classical_mode_and_focal_error(ho_reduced, ho_model):
    res = propagate_quantum(ho_reduced, _classical(1.0), ho_model.params)
    assert res.metrics["weight"] == pytest.approx(1.0 / math.sin(1.0),
                                                  rel=1e-7)
    with pytest.raises(FocalPointError):
        propagate_quantum(ho_reduced, _classical(math.pi), ho_model.params)


def test_coverage_error_on_short_grid(ho_reduced, ho_model):
    tiny = LatticeConfig(mode="imaginary", n=64, length=2.0, slices=32,
                         duration=1.0)
    with pytest.raises(CoverageError, match="envelope"):
        propagate_quantum(ho_reduced, tiny, ho_model.params)


def test_inverted_oscillator_is_not_a_free_particle(ho_model):
    inverted = _reduced("p_zeta^2/2 - zeta^2/2", ho_model.symbols)
    quad = bind_reduced_hamiltonian(inverted, {})
    assert quad.omega_sq == pytest.approx(-1.0)
    res = propagate_quantum(inverted, _classical(1.2), {})
    assert res.metrics["omega_sq"] == pytest.approx(-1.0)
    assert "omega" not in res.metrics
    assert res.metrics["fluctuation_det"] == pytest.approx(math.sinh(1.2),
                                                           abs=1e-8)
    assert res.metrics["weight"] == pytest.approx(1.0 / math.sinh(1.2),
                                                  rel=1e-8)
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


def test_trotter_slope_in_real_time(ho_reduced, ho_model):
    # the kernel's l2 error against the closed form: the symmetric split of
    # a genuine potential is second order in the slice width
    cfg = ho_model.lattice.replace(mode="real", duration=1.0, n=1024,
                                   length=40.0)
    sweep = trotter_sweep(ho_reduced, cfg, ho_model.params)
    assert sweep["slope"] == pytest.approx(-2.0, abs=0.01)
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


class _UnitDraws:
    """A stand-in generator whose every normal draw is 1 and whose
    chi-square draws are their means, the degrees of freedom; it records
    which draws were asked for."""

    def __init__(self):
        self.calls = []

    def standard_normal(self, size):
        self.calls.append("standard_normal")
        return np.ones(size)

    def chisquare(self, df):
        self.calls.append("chisquare")
        return np.asarray(df, dtype=float)


@pytest.mark.parametrize("n_slices", [64, 9, 16, 256, 7, 2, 3])
def test_spectral_increment_sum_is_the_path_route(n_slices):
    # with unit draws both routes are deterministic: the chi-square route
    # sums w_k dof_k, the paths carry every normal draw of mode k as a 1
    args = (n_slices, 1.2, 0.8, 1.3, 0.7, 500)
    rng = _UnitDraws()
    got, count = _thermal_increment_sum(*args, rng)
    assert rng.calls == ["chisquare"]
    want, want_count = _sum_sq_increments(
        sample_thermal_paths(*args, _UnitDraws()))
    assert count == want_count == 500 * n_slices
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def _chisquare_dof(n_slices, n_samples):
    """Degrees of freedom of modes 1..N/2 over n_samples paths: two normal
    draws per path for a complex mode, one for the Nyquist mode."""
    modes = np.arange(1, n_slices // 2 + 1)
    return np.where(2 * modes == n_slices, n_samples, 2 * n_samples)


@pytest.mark.parametrize("n_slices,omega", [(2, 1.3), (3, 1.3), (9, 1.3),
                                            (64, 1.3), (64, 0.0), (16, 0.0)])
def test_increment_sums_land_on_the_exact_lattice_variance(n_slices, omega):
    # over 400 seeds both routes estimate exact_lattice with the chi-square
    # spread sigma = sqrt(sum_k w_k^2 2 dof_k) / (n N)
    beta, mass, hbar, n_samples, n_seeds = 1.2, 0.8, 0.7, 300, 400
    args = (n_slices, beta, mass, omega, hbar, n_samples)
    exact = brownian_increment_report(n_slices=n_slices, beta=beta, mass=mass,
                                      omega=omega, hbar=hbar,
                                      n_samples=1)["exact_lattice"]
    w = _increment_weights(n_slices, beta / n_slices, mass, omega, hbar)
    dof = _chisquare_dof(n_slices, n_samples)
    sigma = (math.sqrt(np.sum(w[1:n_slices // 2 + 1] ** 2 * 2.0 * dof))
             / (n_samples * n_slices))
    routes = {
        "chisquare": lambda rng: _thermal_increment_sum(*args, rng),
        "paths": lambda rng: _sum_sq_increments(
            sample_thermal_paths(*args, rng)),
    }
    for name, route in routes.items():
        est = np.array([total / count for total, count in (
            route(np.random.default_rng(seed)) for seed in range(n_seeds))])
        assert abs(est.mean() - exact) < 5.0 * sigma / math.sqrt(n_seeds), name
        assert est.std() == pytest.approx(sigma, rel=0.15), name


def test_zero_frequency_paths_are_finite_and_keep_the_stream():
    # at omega = 0 the zero mode has no Gaussian weight: amplitude 0, but
    # its draws are still made
    rngs = [np.random.default_rng(2), np.random.default_rng(2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        paths = sample_thermal_paths(8, 1.0, 1.0, 0.0, 1.0, 50, rngs[0])
    assert np.all(np.isfinite(paths))
    np.testing.assert_allclose(paths.mean(axis=1), 0.0, atol=1e-14)
    sample_thermal_paths(8, 1.0, 1.0, 1.3, 1.0, 50, rngs[1])
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


@pytest.mark.parametrize("n_samples", [0, -5])
def test_non_positive_sample_counts_are_rejected(n_samples, ho_reduced,
                                                 ho_model):
    with pytest.raises(ValueError, match="n_samples"):
        brownian_increment_report(n_samples=n_samples)
    with pytest.raises(ValueError, match="n_samples"):
        holder_slopes(ho_reduced, ho_model.params, n_samples=n_samples)


def test_brownian_report_is_one_increment_sum():
    n_slices, n_samples, seed = 64, 45_001, 3
    total, count = _thermal_increment_sum(n_slices, 1.0, 1.0, 1.0, 1.0,
                                          n_samples,
                                          np.random.default_rng(seed))
    rep = brownian_increment_report(n_slices=n_slices, n_samples=n_samples,
                                    seed=seed)
    assert rep["var"] == total / count


def test_holder_rms_is_the_increment_sum(ho_reduced, ho_model):
    counts, n_samples = (16, 32, 64, 128, 256), 1500
    params = dict(ho_model.params, a1=0.9)
    hs = holder_slopes(ho_reduced, params, beta=1.1, slice_counts=counts,
                       n_samples=n_samples, seed=6)
    # the thermal half takes the bound H*: mass a1, omega 1
    quad = bind_reduced_hamiltonian(ho_reduced, params)
    assert (quad.mass, quad.omega) == pytest.approx((0.9, 1.0), rel=1e-14)
    # one generator across the slice counts
    rng = np.random.default_rng(6)
    for N, got in zip(counts, hs["quantum_rms"]):
        sq, n = _thermal_increment_sum(N, 1.1, quad.mass, quad.omega, 1.0,
                                       n_samples, rng)
        assert got == math.sqrt(sq / n)


def test_a_negative_seed_draws_the_paths_of_its_absolute_value(ho_reduced,
                                                               ho_model):
    for seed in (-3, 3):
        assert brownian_increment_report(n_samples=500, seed=seed) == \
            brownian_increment_report(n_samples=500, seed=3)
        assert holder_slopes(ho_reduced, ho_model.params, n_samples=500,
                             seed=seed) == \
            holder_slopes(ho_reduced, ho_model.params, n_samples=500, seed=3)


def test_brownian_increment_variance():
    rep = brownian_increment_report(n_slices=64, beta=1.0, n_samples=30_000)
    assert rep["rel_dev_continuum"] < 0.05
    # the exact lattice covariance is much tighter than the continuum law
    assert abs(rep["var"] - rep["exact_lattice"]) / rep["exact_lattice"] < 0.01


def test_zero_frequency_weights_leave_out_the_zero_mode(free_reduced,
                                                       free_model):
    # at omega = 0 mode 0 has lam_0 = 0 as well; it adds no increment
    N, beta, mass, hbar = 64, 1.3, 0.7, 1.1
    rep = brownian_increment_report(n_slices=N, beta=beta, mass=mass,
                                    omega=0.0, hbar=hbar, n_samples=2000)
    want = (N - 1) / N * hbar * (beta / N) / mass
    assert rep["exact_lattice"] == pytest.approx(want, rel=1e-14, abs=0.0)
    assert math.isfinite(rep["var"])
    # the reduced free particle binds omega = 0
    assert bind_reduced_hamiltonian(free_reduced, free_model.params).omega == 0
    hs = holder_slopes(free_reduced, free_model.params, n_samples=500)
    assert all(math.isfinite(hs[k]) for k in ("quantum_slope",
                                               "classical_slope"))


def test_holder_slopes_reject_an_inverted_oscillator(ho_model):
    # no thermal state: its omega would read 0, a free particle's
    inverted = _reduced("p_zeta^2 - zeta^2", ho_model.symbols)
    with pytest.raises(ExprError, match="thermal paths need c_q >= 0"):
        holder_slopes(inverted, {}, n_samples=10)


def test_holder_slopes(ho_reduced, ho_model):
    hs = holder_slopes(ho_reduced, ho_model.params, n_samples=8000)
    assert hs["quantum_slope"] == pytest.approx(0.5, abs=0.06)
    assert hs["classical_slope"] == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("a1", [0.8, 1.0, 1.3])
def test_holder_flow_is_the_exact_rotation(ho_reduced, ho_model, a1):
    # zeta(t) = R cos(w t - phi) from (zeta, p) = (0.3, 1): amplitude and
    # phase of 0.3 cos(w t) + (2 c_p / w) sin(w t)
    params = dict(ho_model.params, a1=a1)
    hs = holder_slopes(ho_reduced, params, n_samples=100)
    quad = bind_reduced_hamiltonian(ho_reduced, params)
    w = quad.omega
    R = math.hypot(0.3, 2.0 * quad.c_p / w)
    phi = math.atan2(2.0 * quad.c_p / w, 0.3)
    for N, got in zip((16, 32, 64, 128, 256), hs["classical_increments"]):
        zeta = [R * math.cos(w * i / N - phi) for i in range(N + 1)]
        want = max(abs(b - a) for a, b in zip(zeta, zeta[1:]))
        assert abs(got - want) <= 1e-12


# ---------------------------------------------------------------------------
# the lattice memo
# ---------------------------------------------------------------------------

def test_a_kept_result_is_read_only(free_reduced, free_model, ho_reduced,
                                    ho_model):
    for rs, model in ((free_reduced, free_model), (ho_reduced, ho_model)):
        res = propagate_quantum(rs, model.lattice, model.params)
        assert propagate_quantum(rs, model.lattice, dict(model.params)) is res
        for name in ("zeta", "psi", "reference"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(res, name)[0] = 0.0
        with pytest.raises(TypeError):
            res.metrics["mass"] = 0.0


def test_a_run_that_raises_is_not_kept(lam_reduced, lam_model, ho_reduced,
                                       ho_model):
    hot = ho_model.lattice.replace(duration=1e300)
    _lattice_run.cache_clear()
    for rs, cfg, params, error in (
            (lam_reduced, lam_model.lattice, lam_model.params, CoverageError),
            (ho_reduced, hot, ho_model.params, LatticeRangeError)):
        for _ in range(2):
            with pytest.raises(error):
                propagate_quantum(rs, cfg, params)
    info = _lattice_run.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 4, 0)


def test_a_slice_sweep_binds_h_star_once(ho_reduced, ho_model):
    # the binding reads no lattice setting: runs that differ only in their
    # slice count share one bound H*, and so does holder_slopes
    _lattice_run.cache_clear()
    _bind.cache_clear()
    cfg = ho_model.lattice
    for slices in (cfg.slices, 2 * cfg.slices):
        propagate_quantum(ho_reduced, cfg.replace(slices=slices),
                          ho_model.params)
    info = _bind.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    quad = bind_reduced_hamiltonian(ho_reduced, ho_model.params)
    assert quad is bind_reduced_hamiltonian(ho_reduced, dict(ho_model.params))
    holder_slopes(ho_reduced, ho_model.params, n_samples=10)
    assert _bind.cache_info().misses == 1
    # another parameter value is another binding
    other = {**ho_model.params, "a1": 2.0}
    assert bind_reduced_hamiltonian(ho_reduced, other).mass == 2.0
    assert _bind.cache_info().misses == 2


def test_a_binding_that_raises_raises_again(ho_model):
    _bind.cache_clear()
    cubic = _reduced("p_zeta^2 + zeta^3", ho_model.symbols)
    for _ in range(2):
        with pytest.raises(ExprError, match="not quadratic"):
            bind_reduced_hamiltonian(cubic, {})
    info = _bind.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 2, 0)


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def test_kernel_npy_fields(free_reduced, free_model, tmp_path):
    res = propagate_quantum(free_reduced, free_model.lattice,
                            free_model.params)
    path = write_kernel(res, str(tmp_path / "kernel"))
    assert path == str(tmp_path / "kernel.npy")
    table = np.load(path, allow_pickle=False)
    assert table.dtype.names == ("zeta", "psi", "reference")
    assert table.shape == (free_model.lattice.n,)
    for name in table.dtype.names:
        assert np.array_equal(table[name], getattr(res, name)), name


def test_kernel_npy_keeps_every_bit(tmp_path):
    # signed zeros, subnormals and both ends of the float range survive,
    # which no fixed-digit text format does
    rng = np.random.default_rng(3)
    n = 256
    magnitude = 10.0 ** rng.uniform(-300, 300, (5, n))
    zeta, re_k, im_k, re_r, im_r = rng.normal(size=(5, n)) * magnitude
    zeta[:3] = (-0.0, 5e-324, 1.7e308)
    re_k[:4] = (-0.0, 1e-310, -1e300, 0.0)
    im_r[:2] = (-0.0, 2.5e-320)
    res = PropagatorResult("real", zeta, re_k + 1j * im_k, re_r + 1j * im_r,
                           {})
    table = np.load(write_kernel(res, str(tmp_path / "k")),
                    allow_pickle=False)
    assert table["zeta"].tobytes() == zeta.tobytes()
    assert table["psi"].tobytes() == res.psi.tobytes()
    assert table["reference"].tobytes() == res.reference.tobytes()


def test_kernel_writer_rejects_gridless_results(ho_reduced, ho_model,
                                                tmp_path):
    res = propagate_quantum(ho_reduced, _classical(1.0), ho_model.params)
    with pytest.raises(ValueError):
        write_kernel(res, str(tmp_path / "nope"))
    assert list(tmp_path.iterdir()) == []
