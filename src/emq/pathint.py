"""Lattice numerics and exact flows for the classical and quantum systems.

Three layers:

  * classical: the delta-supported weight 1/D(T) of the reduced quadratic
    flow, D(T) the closed-form Jacobi-field determinant;
  * quantum: split-step spectral kernels on a periodic grid for the reduced
    quadratic Hamiltonians, and imaginary-time partition functions from
    the transfer matrix split by zeta -> -zeta parity into an even and an
    odd real block B, each built from the circulant kinetic row; tr and
    diag of B^N come from about log2 N symmetric squarings of the block
    and at most one product per set bit of N, so a run costs
    O(b^3 log N) for a block of b rows; all compared against closed-form
    Gaussian references.  The blocks cover only the window
    |zeta| <= sqrt(80) s, s the thermal width, outside which the diagonal
    is below e^-40 of its peak and written as 0.  The trace is also
    compared with the exact N-slice value Z_N, which leaves out the
    time-slicing error that partition_rel_err carries;
  * paths: the rough-path statistics (Brownian increment variance,
    Hoelder-type slopes) separating quantum lattice paths from
    deterministic flows.  Both statistics need only the sum of squared
    periodic increments, which by Parseval is a weighted sum of the
    squared normal mode draws; summed over the paths, one mode's squares
    are one chi-square draw, so no path or normal draw is formed.
    sample_thermal_paths makes the normal draws and transforms them back
    into paths, the oracle for those sums.  The deterministic reduced
    flow is its closed form, a rotation of (zeta, p).

Real-time split steps run in place: the potential and kinetic factors and
both FFTs overwrite the one complex array being evolved.  Without a
potential (c_q = 0, the free particle) the potential factors are 1 and the
kinetic factors commute, so the N-slice product is exactly one kinetic
step of the whole duration; a potential-free run takes that one step,
forms and applies no potential factor, and its slice count does not change
the result.  Only a Hamiltonian with a potential is stepped slice by
slice.

Real-time kernels are probed with a narrow Gaussian source rather than a
discrete delta: a delta on the grid excites modes up to the Nyquist edge
whose wrap-around ruins pointwise comparisons at the 1e-4 level, while a
few-cell Gaussian suppresses those modes and still admits an exact
continuum reference (the kernel convolved with the source, a single
complex-Gaussian integral).

A lattice run reads only the bound H* (c_p, c_q and the one hbar of the
run, see bind_reduced_hamiltonian) and the grid, never a seed, so
propagate_quantum keeps the last four results of a process and hands a
repeat the kept one.  Every caller shares a kept result, so its arrays are
read-only and its metrics a read-only mapping; a run that raises keeps
nothing.  At the grid cap one result holds 40 bytes a point, so the four
hold at most 160 MiB.  The binding reads no lattice setting, so it is
worked out once per process for each (H*, parameters) and shared by every
lattice config.

Output: write_kernel stores a real- or imaginary-mode result as one NumPy
.npy file (NEP 1) holding a structured array of n rows with the fields
zeta (float64), psi and reference (complex128): the grid, the lattice
column (real mode) or diagonal (imaginary mode), and its closed form.  The
values are bit-equal to the result's arrays; the pointwise error is
abs(psi - reference).
"""

from __future__ import annotations

import cmath
import functools
import math
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from .expr import (ExprError, Record, differentiate, evaluate,
                   is_quadratic, substitute)
from .reduction import ReducedSystem

__all__ = [
    "LatticeConfig", "PropagatorResult", "QuadraticHamiltonian",
    "fluctuation_det", "bind_reduced_hamiltonian", "smeared_reference",
    "propagate_quantum", "partition_closed_form",
    "partition_slice_closed_form", "trotter_sweep",
    "brownian_increment_report", "holder_slopes",
    "write_kernel", "FocalPointError", "CoverageError", "LatticeRangeError",
]


class FocalPointError(ExprError):
    """D(T) vanished: conjugate-point crossing, single-path weight undefined."""


class LatticeRangeError(ExprError):
    """A finite lattice or hbar value is too large or too small for the
    float arithmetic of the run."""


class CoverageError(ExprError):
    """Grid does not fit the reference envelope at the requested time: too
    short to hold it, or so wide that the reference underflows to zero in
    the central window the error is measured on."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

# Every lattice array holds n values and a real-time run keeps a handful of
# complex ones, so 2^20 points caps each at 16 MiB.  A real-time run with a
# potential takes one FFT pair per slice, so 2^20 slices caps that loop (and
# keeps the count far inside the range that converts to a float exactly).
MAX_GRID_POINTS = 2 ** 20
MAX_SLICES = 2 ** 20


class LatticeConfig(Record):
    """Grid and slicing for propagate_quantum.

    mode: 'real' (kernel column), 'imaginary' (partition trace) or
    'classical' (delta-squeezed weight).  duration is T in real/classical
    mode and beta in imaginary mode.  source_sigma_cells sets the Gaussian
    source width in units of the grid spacing; a run's hbar is the bound
    H*'s (QuadraticHamiltonian).  A rejected value raises ValueError(message,
    field name), so a file reader can point at the line that set the field.
    """

    mode: str
    duration: float
    n: int = 256
    length: float = 16.0
    slices: int = 128
    source_center: float = 0.0
    source_sigma_cells: float = 6.0
    tolerance: float = 1e-4

    def __post_init__(self):
        if self.mode not in ("real", "imaginary", "classical"):
            raise ValueError(f"unknown lattice mode {self.mode!r}", "mode")
        if self.n & (self.n - 1) or self.n <= 0:
            raise ValueError("grid point count must be a power of two", "n")
        if self.n > MAX_GRID_POINTS:
            raise ValueError(f"grid point count must be at most "
                             f"{MAX_GRID_POINTS}", "n")
        if not 2 <= self.slices <= MAX_SLICES:
            raise ValueError(f"need 2 to {MAX_SLICES} time slices", "slices")
        for name in ("length", "duration", "tolerance", "source_sigma_cells"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                label = "duration (T or beta)" if name == "duration" else name
                raise ValueError(f"{label} must be finite and > 0, "
                                 f"got {value!r}", name)
        if not math.isfinite(self.source_center):
            raise ValueError(f"source_center must be finite, "
                             f"got {self.source_center!r}", "source_center")

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def epsilon(self) -> float:
        return self.duration / self.slices


# ---------------------------------------------------------------------------
# reduced quadratic Hamiltonians
# ---------------------------------------------------------------------------

class QuadraticHamiltonian(Record):
    """h = c_p p^2 + c_q zeta^2 with numeric coefficients, quantized with
    hbar, the one hbar of every run on it (set by bind_reduced_hamiltonian)."""

    c_p: float
    c_q: float
    hbar: float

    @property
    def mass(self) -> float:
        # h = p^2/(2M) + ... with M = 1/(2 c_p)
        return 1.0 / (2.0 * self.c_p)

    @property
    def omega_sq(self) -> float:
        # signed: negative for an inverted oscillator (c_q < 0)
        return 4.0 * self.c_p * self.c_q

    @property
    def omega(self) -> float:
        # an inverted oscillator has no real frequency and reads 0 here
        return math.sqrt(max(self.omega_sq, 0.0))


def bind_reduced_hamiltonian(rs: ReducedSystem,
                             params: Mapping[str, float]) -> QuadraticHamiltonian:
    """Numeric c_p, c_q from h_star after parameter substitution, and the
    run's one hbar: params["hbar"] (default 1), finite and > 0.

    Each parameter is substituted as its exact value (a float is a dyadic
    rational), so the bound h_star is exact and evaluate() rounds each
    coefficient to a float once; one past float range is an EvalError.
    Rejects anything that is not a centered quadratic in (zeta, p_zeta):
    the lattice machinery is only claimed for that class.  The constant,
    linear and cross terms are read at the origin, and every third partial
    in (zeta, p_zeta) must be structurally 0 (expr.is_quadratic).

    The binding reads no lattice setting, so it is worked out once per
    process for each (rs, params) and shared by every lattice run, slice
    sweep and path statistic on them; at most 2^6 bindings are kept, and
    a binding that raises is not kept, so it raises again.
    """
    return _bind(rs, tuple(params.items()))


@functools.lru_cache(maxsize=1 << 6)
def _bind(rs: ReducedSystem,
          params: Tuple[Tuple[str, float], ...]) -> QuadraticHamiltonian:
    values = {k: float(v) for k, v in params}
    hbar = values.get("hbar", 1.0)
    if not (math.isfinite(hbar) and hbar > 0.0):
        raise ExprError(f"hbar must be finite and > 0, got {hbar!r}")
    coord = rs.space.coordinates[0]
    mom = rs.space.momenta[0]
    h = substitute(rs.h_star, values)
    extra = h.free_symbols() - {coord, mom}
    if extra:
        raise ExprError(f"unbound symbols in reduced Hamiltonian: {sorted(extra)}")

    origin = {coord: 0.0, mom: 0.0}
    dp = differentiate(h, mom)
    dq = differentiate(h, coord)
    values = evaluate((h, dq, dp, differentiate(dp, coord)), origin).tolist()
    for label, val in zip(("constant term", "linear zeta term",
                           "linear momentum term", "cross term"), values):
        if abs(val) > 1e-12:
            raise ExprError(f"reduced Hamiltonian has a {label} ({val:.3e}); "
                            f"not of the c_p p^2 + c_q zeta^2 form")
    if not is_quadratic(h, (coord, mom)):
        raise ExprError("reduced Hamiltonian is not quadratic")
    c_p, c_q = (0.5 * evaluate((differentiate(dp, mom),
                                differentiate(dq, coord)), origin)).tolist()
    if c_p <= 0:
        raise ExprError(f"kinetic coefficient must be positive, got {c_p}")
    return QuadraticHamiltonian(c_p=c_p, c_q=c_q, hbar=hbar)


# ---------------------------------------------------------------------------
# closed-form references
# ---------------------------------------------------------------------------

def fluctuation_det(omega_sq: float, T: float) -> float:
    """D(T) from D-ddot = -omega^2 D, D(0) = 0, D'(0) = 1, for a constant
    (signed) omega^2: sin(wT)/w for omega^2 = w^2 > 0, sinh(kT)/k for
    omega^2 = -k^2 < 0, T for omega^2 = 0.  OverflowError past float range."""
    if omega_sq == 0.0:
        return float(T)
    rate = math.sqrt(abs(omega_sq))
    if not math.isfinite(rate * T):
        raise OverflowError(f"Jacobi-field phase {rate:g} * {T:g} overflows")
    return (math.sin if omega_sq > 0.0 else math.sinh)(rate * T) / rate


def _jacobi_det(quad: QuadraticHamiltonian, T: float) -> float:
    """D(T) of the reduced quadratic flow; FocalPointError where it
    vanishes, since the single-path weight 1/D is undefined there."""
    D = fluctuation_det(quad.omega_sq, T)
    if abs(D) < 1e-8 * max(1.0, abs(T)):
        raise FocalPointError(
            f"fluctuation determinant D({T:g}) = {D:.3e}: focal point, "
            f"the endpoint-ray family degenerates")
    return D


def _uv_coefficients(quad: QuadraticHamiltonian, T: complex):
    """Mehler parametrization: K = sqrt(v/2pi i) exp(i/2 (u(z^2+z'^2) - 2vzz'))."""
    M = quad.mass
    w = quad.omega
    if w == 0.0:
        u = M / (quad.hbar * T)
        return u, u
    s = cmath.sin(w * T)
    if abs(s) < 1e-12:
        raise FocalPointError(f"reference kernel singular: sin(omega T) = {s}")
    u = M * w * cmath.cos(w * T) / (quad.hbar * s)
    v = M * w / (quad.hbar * s)
    return u, v


def smeared_reference(quad: QuadraticHamiltonian, T: complex,
                      zeta: np.ndarray, center: float,
                      sigma: float) -> np.ndarray:
    """Exact evolution of exp(-(x-center)^2/(2 sigma^2)) by the kernel.

    One complex Gaussian integral; works for real T (unitary evolution) and
    for T = -i beta hbar (heat kernel), and reduces to the bare kernel as
    sigma -> 0.
    """
    u, v = _uv_coefficients(quad, T)
    A = 1.0 / sigma ** 2 - 1j * u
    B = center / sigma ** 2 - 1j * v * zeta
    pref = cmath.sqrt(v / (2j * math.pi)) * cmath.sqrt(2.0 * math.pi / A)
    return pref * np.exp(0.5j * u * zeta ** 2 + B * B / (2.0 * A)
                         - center ** 2 / (2.0 * sigma ** 2))


def bare_kernel(quad: QuadraticHamiltonian, T: complex,
                zeta2, zeta1) -> complex:
    u, v = _uv_coefficients(quad, T)
    pref = cmath.sqrt(v / (2j * math.pi))
    return pref * np.exp(0.5j * (u * (zeta2 ** 2 + zeta1 ** 2)
                                 - 2.0 * v * zeta2 * zeta1))


def partition_closed_form(quad: QuadraticHamiltonian, beta: float) -> float:
    if quad.omega == 0.0:
        raise ExprError("partition function needs a confining quadratic term")
    return 1.0 / (2.0 * math.sinh(0.5 * beta * quad.hbar * quad.omega))


def partition_slice_closed_form(quad: QuadraticHamiltonian, beta: float,
                                slices: int) -> float:
    """Z_N = 1/(2 sinh(N theta/2)), cosh theta = 1 + (eps hbar omega)^2/2,
    eps = beta/N: the exact trace of the primitive N-slice lattice action in
    continuum space (Creutz & Freedman, Ann. Phys. 132, 427 (1981)).  It
    tends to partition_closed_form as N grows; sinh(theta/2) = eps hbar
    omega/2 gives theta without the cancellation in arccosh(1 + x)."""
    if quad.omega == 0.0:
        raise ExprError("partition function needs a confining quadratic term")
    half_theta = math.asinh(0.5 * beta / slices * quad.hbar * quad.omega)
    return 1.0 / (2.0 * math.sinh(slices * half_theta))


# ---------------------------------------------------------------------------
# split-step propagation
# ---------------------------------------------------------------------------

def _grid(cfg: LatticeConfig, center: float = 0.0) -> np.ndarray:
    return center - cfg.length / 2.0 + cfg.dx * np.arange(cfg.n)


def _check_coverage(quad: QuadraticHamiltonian, cfg: LatticeConfig) -> float:
    """Raise CoverageError unless the grid holds 8 envelope widths; return
    the width, a standard deviation.  In imaginary mode it is the thermal
    one, s^2 = hbar/(2 M omega) coth(beta hbar omega/2)."""
    hbar = quad.hbar
    M = quad.mass
    sigma = cfg.source_sigma_cells * cfg.dx
    if cfg.mode == "real" and quad.omega == 0.0:
        spread = sigma * math.sqrt(1.0 + (hbar * cfg.duration / (M * sigma ** 2)) ** 2)
    elif cfg.mode == "imaginary":
        w = quad.omega
        spread = math.sqrt(hbar / (2.0 * M * w)
                           / math.tanh(0.5 * cfg.duration * hbar * w))
    else:
        # bounded oscillator motion: the kernel's own scale is the ground
        # width; pointwise targets tolerate folded oscillatory tails, which
        # the convergence tests measure directly
        spread = max(sigma, math.sqrt(hbar / (2.0 * M * quad.omega)))
    if cfg.length < 8.0 * spread:
        raise CoverageError(
            f"grid length {cfg.length:g} covers only "
            f"{cfg.length / spread:.1f} envelope widths (need >= 8)")
    return spread


def _kinetic_factor(quad: QuadraticHamiltonian, cfg: LatticeConfig,
                    eps: float) -> np.ndarray:
    """Kinetic factor of one step of length eps, on the FFT wave numbers."""
    k = 2.0 * math.pi * np.fft.fftfreq(cfg.n, d=cfg.dx)
    if cfg.mode == "real":
        return np.exp(-1j * quad.c_p * quad.hbar * eps * k ** 2)
    return np.exp(-eps * quad.c_p * (quad.hbar * k) ** 2)


def _split_step_factors(quad: QuadraticHamiltonian, cfg: LatticeConfig,
                        zeta: np.ndarray):
    """Kinetic and half-potential factors of one slice, cfg.epsilon."""
    eps = cfg.epsilon
    if cfg.mode == "real":
        pot_half = np.exp(-0.5j * quad.c_q * eps * zeta ** 2 / quad.hbar)
    else:
        pot_half = np.exp(-0.5 * eps * quad.c_q * zeta ** 2)
    return _kinetic_factor(quad, cfg, eps), pot_half


def _evolve(psi: np.ndarray, kin: np.ndarray,
            pot_half: Optional[np.ndarray],
            slices: int) -> Tuple[np.ndarray, float]:
    """Symmetric split steps, overwriting psi: pass a complex array the
    caller does not need again (propagate_quantum passes a fresh copy).
    pot_half None stands for a potential of 0, whose factors are 1: each
    step is then the kinetic factor alone."""
    norm0 = math.sqrt(np.vdot(psi, psi).real)
    drift = 0.0
    for _ in range(slices):
        if pot_half is not None:
            psi *= pot_half
        np.fft.fft(psi, out=psi)
        psi *= kin
        np.fft.ifft(psi, out=psi)
        if pot_half is not None:
            psi *= pot_half
        drift = max(drift, abs(math.sqrt(np.vdot(psi, psi).real) - norm0))
    return psi, drift


def _parity_blocks(quad: QuadraticHamiltonian, cfg: LatticeConfig,
                   zeta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Even and odd blocks of the imaginary-time transfer matrix, on the
    window |zeta| <= zeta_w where the thermal state lives.

    S = P C P with P = diag(pot_half) and C[i, j] = c[(i - j) mod n], where
    c = ifft(kin) is the real circulant row.  H* is even in zeta (linear and
    cross terms are rejected when it is bound) and zeta = 0 sits at index
    n/2, so the reflection j -> (n - j) mod n commutes with S.  In the
    basis (e_j + e_{n-j})/sqrt(2), (e_j - e_{n-j})/sqrt(2) S splits into
    an even block on indices 0..n/2 (fixed points 0 and n/2 scaled by
    1/sqrt(2)) and an odd block on indices 1..n/2-1.

    Only the principal window lo..n/2 of each block is built, with
    zeta_w = sqrt(80) s for the thermal width s of _check_coverage: beyond
    it the diagonal of S^N is below e^-40 of its peak.  C has the
    eigenvalues kin > 0, so S is positive definite and, by Cauchy
    interlacing, the window's trace is a lower bound on tr(S^N).  A window
    that reaches the grid edge clamps to lo = 0, the whole half grid.
    """
    kin, pot_half = _split_step_factors(quad, cfg, zeta)
    n = cfg.n
    half = n // 2
    reach = int(math.sqrt(80.0) * _check_coverage(quad, cfg) / cfg.dx)
    idx = np.arange(max(half - reach, 0), half + 1)
    c = np.fft.ifft(kin).real
    near = c[np.abs(idx[:, None] - idx)]
    far = c[(idx[:, None] + idx) % n]
    weight = pot_half[idx]
    weight[(idx == 0) | (idx == half)] *= math.sqrt(0.5)
    even = weight[:, None] * (near + far) * weight
    inner = slice(1 if idx[0] == 0 else 0, -1)
    odd = (weight[inner, None] * (near[inner, inner] - far[inner, inner])
           * weight[inner])
    return even, odd


def _power_trace_and_diagonal(block: np.ndarray, power: int):
    """tr(B^N) and diag(B^N), N = power >= 2, of a symmetric b x b block B
    by binary powering: floor(log2 N) squarings or fewer, and one product
    for each set bit of N between its lowest and its highest, so
    O(b^3 log N).

    Each square is formed as S @ S.T, which numpy hands to BLAS syrk: half
    the flops of a general product, and an exactly symmetric result.  The
    set bits below the highest fold into a running product X, and the
    highest square Y is never multiplied in: as Y is exactly symmetric,
    diag(X Y) is the row sum of X * Y.  A power of two takes X = Y, its
    square root, so N = 512 is 8 squarings and one row sum.
    """
    low, square = None, block
    while power > 1:
        if power & 1:
            low = square if low is None else low @ square
        power >>= 1
        if power == 1 and low is None:
            low = square
            break
        square = square @ square.T
    diag = np.sum(low * square, axis=1)
    return np.sum(diag), diag


class PropagatorResult(Record):
    """One lattice run.  propagate_quantum hands every caller with the same
    bound H* and lattice the same kept result, so a result from it is
    shared and frozen: its arrays are read-only and its metrics a read-only
    mapping.  Copy them (np.array(res.psi), dict(res.metrics)) to edit."""
    mode: str
    zeta: Optional[np.ndarray]
    psi: Optional[np.ndarray]
    reference: Optional[np.ndarray]
    metrics: Mapping[str, float]


def _central_errors(zeta: np.ndarray, psi: np.ndarray, ref: np.ndarray,
                    center: float, length: float):
    mask = np.abs(zeta - center) <= length / 4.0
    scale = np.abs(ref[mask])
    if not np.all(scale > 0.0):
        raise CoverageError(
            f"reference underflows to 0 in the central window "
            f"(|zeta - {center:g}| <= {length / 4.0:g}); the grid is too "
            f"long for the envelope at this time")
    rel = np.abs(psi[mask] - ref[mask]) / scale
    l2 = float(np.sqrt(np.sum(np.abs(psi - ref) ** 2))
               / np.sqrt(np.sum(np.abs(ref) ** 2)))
    return float(np.max(rel)), l2


def propagate_quantum(rs: ReducedSystem, cfg: LatticeConfig,
                      params: Mapping[str, float]) -> PropagatorResult:
    """Kernel column (real mode), partition trace (imaginary), or classical
    weight, with error metrics against the closed forms.

    LatticeRangeError where a finite but extreme value (a length, duration,
    hbar or source width near the ends of the float range) makes a step
    overflow, divide by zero or lose its value: the run cannot represent
    the lattice, so it fails rather than report poisoned numbers.

    The result is the kept one of an earlier call whose H* and params bind
    to equal numbers (bind_reduced_hamiltonian) under an equal cfg, if the
    process still holds it: its arrays are read-only and its metrics a
    read-only mapping.
    """
    return _lattice_run(bind_reduced_hamiltonian(rs, params), cfg)


@functools.lru_cache(maxsize=4)
def _lattice_run(quad: QuadraticHamiltonian,
                 cfg: LatticeConfig) -> PropagatorResult:
    # a run that raises returns nothing, so nothing of it is kept
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            result = _propagate(quad, cfg)
    except (FloatingPointError, OverflowError, ZeroDivisionError) as exc:
        raise LatticeRangeError(
            f"{cfg.mode}-mode lattice leaves the float range: "
            f"{type(exc).__name__}: {exc}") from None
    for array in (result.zeta, result.psi, result.reference):
        if array is not None:
            array.flags.writeable = False
    return result.replace(metrics=MappingProxyType(result.metrics))


def _propagate(quad: QuadraticHamiltonian,
               cfg: LatticeConfig) -> PropagatorResult:
    if cfg.mode == "classical":
        D = _jacobi_det(quad, cfg.duration)
        # signed: an inverted oscillator reads omega_sq < 0, not omega = 0
        metrics = {"fluctuation_det": D, "weight": 1.0 / D,
                   "omega_sq": quad.omega_sq, "mass": quad.mass}
        return PropagatorResult("classical", None, None, None, metrics)

    if quad.c_q < 0:
        raise ExprError(
            f"{cfg.mode} mode has no closed-form reference for an inverted "
            f"oscillator (c_q = {quad.c_q:g} < 0)")
    if cfg.mode == "imaginary":
        # a free particle (omega = 0) gets the typed error here, before the
        # coverage estimate divides by omega
        Z_ref = partition_closed_form(quad, cfg.duration)
    zeta = _grid(cfg, center=cfg.source_center if cfg.mode == "real" else 0.0)

    if cfg.mode == "real":
        _check_coverage(quad, cfg)
        sigma = cfg.source_sigma_cells * cfg.dx
        psi0 = np.exp(-(zeta - cfg.source_center) ** 2 / (2.0 * sigma ** 2))
        if quad.c_q == 0.0:
            # no potential: the half-potential factors are 1 and the kinetic
            # factors commute, so the slice product is exactly one kinetic
            # step of length T; slices matters only with a potential
            psi, drift = _evolve(psi0.astype(complex),
                                 _kinetic_factor(quad, cfg, cfg.duration),
                                 None, 1)
        else:
            kin, pot_half = _split_step_factors(quad, cfg, zeta)
            psi, drift = _evolve(psi0.astype(complex), kin, pot_half,
                                 cfg.slices)
        ref = smeared_reference(quad, cfg.duration, zeta, cfg.source_center,
                                sigma)
        max_rel, l2 = _central_errors(zeta, psi, ref, cfg.source_center,
                                      cfg.length)
        metrics = {
            "max_rel_err_central": max_rel,
            "l2_rel_err": l2,
            "norm_drift": drift / max(float(np.linalg.norm(psi0)), 1e-300),
            "mass": quad.mass, "omega": quad.omega,
            "sigma": sigma,
        }
        return PropagatorResult("real", zeta, psi, ref, metrics)

    # imaginary mode: S^slices from its even and odd parity blocks, built by
    # _parity_blocks (which also checks coverage) on the window lo..n/2.
    # Z(beta) = tr(S^slices) sums both spectra.  On the diagonal a fixed
    # point (0 or n/2) carries only its even weight; an interior point j,
    # like its mirror n - j, half the even and half the odd weight.  Off
    # the window the diagonal is below e^-40 of its peak and written as 0.
    (even_Z, even_diag), (odd_Z, odd_diag) = (
        _power_trace_and_diagonal(block, cfg.slices)
        for block in _parity_blocks(quad, cfg, zeta))
    Z = float(even_Z + odd_Z)
    half = cfg.n // 2
    lattice_diag = np.zeros(cfg.n)
    lattice_diag[half + 1 - len(even_diag):half + 1] = even_diag
    inner = slice(half - len(odd_diag), half)
    lattice_diag[inner] = 0.5 * (lattice_diag[inner] + odd_diag)
    lattice_diag[half + 1:] = lattice_diag[half - 1:0:-1]
    lattice_diag /= cfg.dx
    diag = bare_kernel(quad, -1j * cfg.duration * quad.hbar, zeta, zeta).real
    Z_slices = partition_slice_closed_form(quad, cfg.duration, cfg.slices)
    metrics = {
        "partition_value": Z,
        "partition_ref": Z_ref,
        "partition_rel_err": abs(Z - Z_ref) / abs(Z_ref),
        "partition_slice_ref": Z_slices,
        "partition_slice_rel_err": abs(Z - Z_slices) / Z_slices,
        "mass": quad.mass, "omega": quad.omega,
    }
    return PropagatorResult("imaginary", zeta, lattice_diag.astype(complex),
                            diag.astype(complex), metrics)


def trotter_sweep(rs: ReducedSystem, cfg: LatticeConfig,
                  params: Mapping[str, float],
                  slice_counts: Sequence[int] = (32, 64, 128, 256, 512)):
    """Kernel error vs slice count; returns per-count errors and the
    log-log slope (symmetric splitting: -2 for a genuine potential).  A
    classical-mode cfg has no slicing error: an ExprError."""
    key = {"real": "l2_rel_err", "imaginary": "partition_rel_err"}.get(cfg.mode)
    if key is None:
        raise ExprError(f"{cfg.mode} mode has no slicing error to sweep")
    errors = [propagate_quantum(rs, cfg.replace(slices=N), params).metrics[key]
              for N in slice_counts]
    slope = float(np.polyfit(np.log(np.array(slice_counts, dtype=float)),
                             np.log(np.array(errors)), 1)[0])
    return {"slice_counts": tuple(slice_counts), "errors": tuple(errors),
            "slope": slope}


# ---------------------------------------------------------------------------
# rough-path statistics
# ---------------------------------------------------------------------------

def _mode_eigenvalues(n_slices: int, eps: float, mass: float,
                      omega: float) -> np.ndarray:
    theta = 2.0 * math.pi * np.arange(n_slices) / n_slices
    return (2.0 * mass / eps) * (1.0 - np.cos(theta)) + eps * mass * omega ** 2


def sample_thermal_paths(n_slices: int, beta: float, mass: float,
                         omega: float, hbar: float, n_samples: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Periodic Gaussian lattice paths with weight exp(-S_E/hbar).

    Sampling is exact: the circulant precision matrix diagonalizes in the
    Fourier basis, so modes are drawn independently and transformed back.
    Real paths have a Hermitian spectrum, so only modes 0..N/2 are stored
    and irfft supplies their conjugates.  Mode 0 shifts the whole path: at
    omega = 0 (lam_0 = 0) it has no Gaussian weight and gets amplitude 0,
    but is still drawn, so the stream does not depend on omega.
    """
    eps = beta / n_slices
    lam = _mode_eigenvalues(n_slices, eps, mass, omega)
    # ifft normalization 1/N: path = ifft(modes); Var(|mode_j|^2) = hbar N / lam_j
    half = n_slices // 2
    top = (n_slices + 1) // 2
    modes = np.zeros((n_samples, half + 1), dtype=complex)
    scale = np.sqrt(np.divide(hbar * n_slices, lam, out=np.zeros(n_slices),
                              where=lam > 0))
    modes[:, 0] = rng.standard_normal(n_samples) * scale[0]
    if n_slices % 2 == 0:
        modes[:, half] = rng.standard_normal(n_samples) * scale[half]
    side = scale[1:top] / math.sqrt(2.0)
    for part in (modes.real, modes.imag):
        np.multiply(rng.standard_normal((n_samples, top - 1)), side,
                    out=part[:, 1:top])
    return np.fft.irfft(modes, n=n_slices, axis=1)


def _increment_weights(n_slices: int, eps: float, mass: float, omega: float,
                       hbar: float) -> np.ndarray:
    """2 (1 - cos theta_k) hbar / lam_k: what one squared draw of mode k adds
    to the sum of squared periodic increments of its path.  Mode 0 shifts
    the whole path and adds none; its weight is 0 by construction, also at
    omega = 0, where lam_0 = 0 too."""
    theta = 2.0 * math.pi * np.arange(1, n_slices) / n_slices
    lam = _mode_eigenvalues(n_slices, eps, mass, omega)[1:]
    return np.concatenate(([0.0], 2.0 * (1.0 - np.cos(theta)) * hbar / lam))


def _thermal_increment_sum(n_slices: int, beta: float, mass: float,
                           omega: float, hbar: float, n_samples: int,
                           rng: np.random.Generator) -> Tuple[float, int]:
    """Sum of squared periodic increments over n_samples thermal paths (the
    wrap from the last slice back to the first included), and how many
    there are.

    By Parseval the sum is sum_k w_k z_k^2 over sample_thermal_paths'
    draws, w = _increment_weights: mode 0 adds nothing, the Nyquist mode
    counts once, and each other stored mode once for its real and once
    for its imaginary draw.  Over the paths, one mode's squared draws sum
    to a chi-square variable with 2 n_samples degrees of freedom
    (n_samples for the Nyquist mode), so each mode takes one such draw.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    half = n_slices // 2
    weight = _increment_weights(n_slices, beta / n_slices, mass, omega, hbar)
    dof = np.full(half, 2.0 * n_samples)
    dof[(n_slices - 1) // 2:] = n_samples  # the Nyquist mode, even N only
    return float(weight[1:half + 1] @ rng.chisquare(dof)), n_samples * n_slices


def brownian_increment_report(n_slices: int = 64, beta: float = 1.0,
                              mass: float = 1.0, omega: float = 1.0,
                              hbar: float = 1.0, n_samples: int = 100_000,
                              seed: int = 0) -> Dict[str, float]:
    """Empirical per-slice Var(d zeta) against the (hbar/m) eps law.

    The paths are drawn with seed |seed|, as the charts draw their points,
    so a negative seed gives the report of its absolute value."""
    eps = beta / n_slices
    rng = np.random.default_rng(abs(seed))
    total, count = _thermal_increment_sum(n_slices, beta, mass, omega, hbar,
                                          n_samples, rng)
    var = total / count
    expected = hbar * eps / mass
    # the exact lattice variance: the weights' mean, as every E z_k^2 = 1
    exact_lattice = float(np.sum(_increment_weights(n_slices, eps, mass,
                                                    omega, hbar)) / n_slices)
    return {
        "var": var,
        "expected_continuum": expected,
        "exact_lattice": exact_lattice,
        "rel_dev_continuum": abs(var - expected) / expected,
        "n_samples": float(n_samples),
        "epsilon": eps,
    }


def holder_slopes(rs: ReducedSystem, params: Mapping[str, float],
                  beta: float = 1.0,
                  slice_counts: Sequence[int] = (16, 32, 64, 128, 256),
                  n_samples: int = 20_000, seed: int = 0) -> Dict[str, object]:
    """Increment-scaling exponents: ~1/2 for thermal lattice paths, ~1 for
    the deterministic reduced flow.

    Both halves describe the one H* bound from params: the thermal paths
    take its mass, omega and hbar.  The paths are drawn with seed |seed|, as
    the charts draw their points."""
    quad = bind_reduced_hamiltonian(rs, params)
    if quad.c_q < 0:
        raise ExprError(f"thermal paths need c_q >= 0, got {quad.c_q:g}")
    rng = np.random.default_rng(abs(seed))
    eps_list, rms_list = [], []
    for N in slice_counts:
        sq, n = _thermal_increment_sum(N, beta, quad.mass, quad.omega,
                                       quad.hbar, n_samples, rng)
        eps_list.append(beta / N)
        rms_list.append(math.sqrt(sq / n))
    quantum_slope = float(np.polyfit(np.log(eps_list), np.log(rms_list), 1)[0])

    # reduced flow from (zeta, p) = (0.3, 1): zeta-dot = 2 c_p p, p-dot =
    # -2 c_q zeta, so zeta(t) = 0.3 cos(wt) + 2 c_p sin(wt)/w (2 c_p t at w = 0)
    w = quad.omega
    det_inc = []
    for N in slice_counts:
        t = (beta / N) * np.arange(N + 1)
        zeta = 0.3 * np.cos(w * t) + 2.0 * quad.c_p * (np.sin(w * t) / w
                                                        if w else t)
        det_inc.append(float(np.max(np.abs(np.diff(zeta)))))
    classical_slope = float(np.polyfit(np.log(eps_list), np.log(det_inc), 1)[0])
    return {
        "quantum_slope": quantum_slope,
        "classical_slope": classical_slope,
        "quantum_rms": tuple(rms_list),
        "classical_increments": tuple(det_inc),
        "epsilons": tuple(eps_list),
    }


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

_KERNEL_DTYPE = np.dtype([("zeta", "<f8"), ("psi", "<c16"),
                          ("reference", "<c16")])


def write_kernel(result: PropagatorResult, base: str) -> str:
    """Write the grid, the lattice column and its reference to base + '.npy'
    as one structured array with the fields zeta, psi and reference, n rows,
    bit-equal to the result's arrays; return the path."""
    if result.zeta is None:
        raise ValueError(f"{result.mode} mode has no grid data to write")
    table = np.empty(len(result.zeta), dtype=_KERNEL_DTYPE)
    table["zeta"] = result.zeta
    table["psi"] = result.psi
    table["reference"] = result.reference
    path = base + ".npy"
    np.save(path, table, allow_pickle=False)
    return path
