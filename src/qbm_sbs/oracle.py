"""Brute-force Fock-space validation of the closed-form observables.

Everything here works for a single bath mode in dimensionless displacement
units eta = alpha * dX / sqrt(hbar); multiplicativity over modes reduces the
many-oscillator observables to this case.  Truncation dimensions come from
explicit tail bounds with a x2 safety margin, up to ``MAX_DIM``, and every
result records the dimension used: silent truncation is the main failure mode
of Fock brute force.  The thermal bound, taken at the state's mean occupation,
understates the number tail of a squeezed thermal state, so for squeezed
cells the x2 margin, not the bound, carries the truncation (``auto_dim``).

The displacement and squeezing unitaries are exponentials of tridiagonal
generators of zero diagonal (the squeezing generator one parity block at a
time).  Such a generator has eigenpairs (+mu, v) and (-mu, J v),
J = diag((-1)^m), so its exponential turns each plane spanned by the even and
the odd part of a v by |z| mu; an odd block size leaves one zero mode on the
even levels, which stays put.  The planes do not depend on |eta| or r, so one
eigendecomposition per generator and dimension serves every parameter.  Every
unitary is built from real products; a complex parameter adds a diagonal
phase.

Validation builds neither unitary whole.  Per initial state it builds only
the first K columns of the squeezing unitary, K set by a second tail bound
(``kept_levels``), and takes them into the displacement's rotation planes
once; each |eta| then costs one reflection, O(dim K^2) of products into
the lower triangle of a K x K Hermitian matrix, and that matrix's
eigenvalues (``gamma_b_on_levels``).  Every result records the guard
dimension and K.

``validate_closed_forms`` runs its BLAS and LAPACK calls on one thread, then
restores the previous counts.  Its matrices (1 to 618 rows) are too small
for OpenBLAS's thread hand-offs to pay, and on one thread ``oracle.csv`` does
not move in the last digit with the machine's core count.
"""

from __future__ import annotations

import cmath
import contextlib
import ctypes
import fnmatch
import functools
import math
import numbers
import os
import sys
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal, svdvals

from .dynamics import alpha_gaussian
from .errors import ConfigurationError, TruncationError

TAIL_TOL = 1.0e-10
# Largest truncation the oracle builds: validation's largest array, the real dim x dim
# eigenvector matrix from eigh_tridiagonal, then takes 128 MB.
MAX_DIM = 4096
EIG_CLAMP = -1.0e-10
PASS_TOL = 1.0e-5
# Bound on the trace-norm change from the levels the oracle leaves out of a cell.
TRACE_TAIL_TOL = 1.0e-17
# Thread-count symbols of one OpenBLAS, tried in this order: the 64-bit-integer
# build in NumPy's wheel, the build in SciPy's wheel, a system OpenBLAS.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _blas_thread_controls() -> tuple[tuple[Callable[[], int], Callable[[int], None]], ...]:
    """The (get, set) thread-count functions of every OpenBLAS the process has loaded.

    NumPy and SciPy each bundle their own OpenBLAS; both are loaded once this
    module is imported.  Looked up on first use, not at import; empty where
    no loaded library matches (no ``/proc/self/maps``, or another BLAS).
    """
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            mapped = {line.split(maxsplit=5)[-1].strip() for line in maps}
    except OSError:
        return ()
    controls = []
    for path in sorted(p for p in mapped if fnmatch.fnmatch(os.path.basename(p), "*openblas*.so*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            try:
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            controls.append((get, set_))
            break
    return tuple(controls)


@contextlib.contextmanager
def _blas_threads(n: int) -> Iterator[None]:
    """Run the body with every loaded OpenBLAS on n threads, then restore each count.

    The counts are process-wide: BLAS calls from other threads meanwhile run
    on n threads too.
    """
    controls = _blas_thread_controls()
    previous = [get() for get, _ in controls]
    try:
        for _, set_ in controls:
            set_(n)
        yield
    finally:
        for (_, set_), count in zip(controls, previous):
            set_(count)


@functools.lru_cache(maxsize=3)
def _unit_eigenpairs(generator: str, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rotation planes of the |z| = 1 generator of one kind at one truncation dim.

    ``generator`` is "displace", or "even"/"odd" for one parity block of the
    squeezing generator.  Returns (mu, E1, E2): the angles mu >= 0 per unit
    |z|, ascending, and the plane vectors, E1 on the block's even levels and
    E2 on its odd ones, both as square blocks of those levels' rows.  Column
    j of E1 and of E2 span plane j; an odd block size leaves one zero mode,
    the last column of E1.  The vectors do not depend on |z| and the angles
    scale with it, so one entry serves every parameter; three entries hold the
    generators of one dimension.  The arrays are read-only.

    The tridiagonal T of zero diagonal and off-diagonal c (``eigh_tridiagonal``)
    has eigenpairs (+mu, v) and (-mu, J v), J = diag((-1)^m), so the even and
    odd parts of v have equal norms.  Each plane is formed from both
    eigenvectors, averaged: using only the +mu half doubles the rounding.  The
    rows carry the sign of Phi = diag(i^m) / i^(m % 2) (``_exp_tridiagonal``).
    """
    if generator == "displace":
        c = np.sqrt(np.arange(1.0, dim))
    else:
        # The squeezing generator couples n to n + 2 only, so each parity block is tridiagonal.
        n = np.arange(dim - 2, dtype=float)
        c = (np.sqrt((n + 1.0) * (n + 2.0)) / 2.0)[0 if generator == "even" else 1 :: 2]
    lam, v = eigh_tridiagonal(np.zeros(len(c) + 1), c)
    size, half = len(lam), len(lam) // 2
    v *= np.where(np.arange(size) % 4 < 2, 1.0, -1.0)[:, None]
    plus, minus = v[:, size - half :], v[:, :half][:, ::-1]
    flip = np.copysign(1.0, np.sum(plus[0::2] * minus[0::2], axis=0))
    e1 = (plus[0::2] + flip * minus[0::2]) / math.sqrt(2.0)
    e2 = (plus[1::2] - flip * minus[1::2]) / math.sqrt(2.0)
    if size % 2:
        e1 = np.column_stack([e1, v[0::2, half]])
    mu = lam[size - half :]
    for a in (mu, e1, e2):
        a.flags.writeable = False
    return mu, e1, e2


def _plane_cos_sin(angle: np.ndarray, planes_e: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of each plane's angle as columns, cos over E1's planes_e columns, 1 on a zero mode."""
    cos = np.ones((planes_e, 1))
    cos[: len(angle), 0] = np.cos(angle)
    return cos, np.sin(angle)[:, None]


def _angle_and_phase(z: complex) -> tuple[float, float]:
    """(a, phi) with exp(G(z)) = W exp(a G(1)) W^dag, W = diag(e^{i m phi}); phi = 0 for real z."""
    z = complex(z)
    return (z.real, 0.0) if z.imag == 0 else (abs(z), cmath.phase(z))


def _exp_tridiagonal(z: complex, generator: str, dim: int, columns: int | None = None) -> np.ndarray:
    """The first ``columns`` columns (all by default) of exp(G) for the generator of one kind.

    G is anti-Hermitian, G[m+1, m] = z c_m and G[m, m+1] = -z^* c_m.  With
    z = |z| e^{i phi} and W = diag(e^{i m phi}), G(z) = W G(|z|) W^dag, so
    exp(G(z)) = W exp(G(|z|)) W^dag; for z < 0, W = J turns each plane the
    other way, so a real z needs no phase.  G(|z|) is real, and
    i G(|z|) = Phi T Phi^dag with Phi = diag(i^m) and T the real symmetric
    tridiagonal of zero diagonal and off-diagonal |z| c.  The eigenpairs
    (+mu, v) and (-mu, J v) of T make exp(G(|z|)) = E R(|z| mu) E^T, with
    E = [E1 | E2] the real plane vectors (``_unit_eigenpairs``) and R the
    rotation by |z| mu_j in plane j, so level m's column is E R times row m
    of E.  R takes E1's column j to cos E1_j + sin E2_j and E2_j to
    cos E2_j - sin E1_j, and leaves a zero mode (E1's last column when it has
    one more) in place; the four parity blocks of E R E^T are written where
    they belong.  The result is real for real z, and the identity at z = 0
    only up to rounding (2.0e-15 at dim 618).
    """
    angle, phi = _angle_and_phase(z)
    mu, e1, e2 = _unit_eigenpairs(generator, dim)
    size, n = len(e1) + len(e2), len(mu)
    k = size if columns is None else columns
    be, bo = e1[: (k + 1) // 2].T, e2[: k // 2].T
    cos, sin = _plane_cos_sin(angle * mu, len(be))
    out = np.empty((size, k))
    out[0::2, 0::2] = e1 @ (cos * be)
    out[0::2, 1::2] = -(e1[:, :n] @ (sin * bo))
    out[1::2, 0::2] = e2 @ (sin * be[:n])
    out[1::2, 1::2] = e2 @ (cos[:n] * bo)
    if phi == 0.0:
        return out
    phase = np.exp(1j * phi * np.arange(size))
    return out * np.outer(phase, phase[:k].conj())


def required_thermal_dim(nbar: float) -> int:
    """Smallest dim whose neglected thermal tail mass is below ``TAIL_TOL``."""
    if nbar < 0:
        raise TruncationError(f"nbar must be >= 0, got {nbar}")
    if nbar == 0:
        return 1
    q = nbar / (nbar + 1.0)
    if not q < 1.0:
        raise TruncationError(f"no practical truncation for a thermal state with nbar={nbar}")
    return max(1, math.ceil(math.log(TAIL_TOL) / math.log(q)))


def _require_dim(dim: int, need: int, what: str) -> None:
    """Raise ``TruncationError`` naming ``what`` unless dim >= need."""
    if dim < need:
        raise TruncationError(f"dim={dim} too small for {what}; need dim >= {need}")


def thermal_populations(nbar: float, dim: int) -> np.ndarray:
    """Number-state populations of a thermal state; the truncated tail is not renormalized."""
    _require_dim(dim, required_thermal_dim(nbar), f"a thermal tail below {TAIL_TOL:g} at nbar={nbar}")
    n = np.arange(dim, dtype=float)
    if nbar == 0:
        p = np.zeros(dim)
        p[0] = 1.0
    else:
        p = np.exp(n * math.log(nbar / (nbar + 1.0)) - math.log(nbar + 1.0))
    return p


def kept_levels(p: np.ndarray, tol: float = TRACE_TAIL_TOL) -> int:
    """Smallest k with 2 sum_{m >= k} sqrt(p_m) <= tol, for non-increasing populations p."""
    tail = np.cumsum(np.sqrt(p)[::-1])[::-1]
    return int(np.count_nonzero(2.0 * tail > tol))


def thermal_fock(nbar: float, dim: int) -> np.ndarray:
    """Density matrix of the thermal state with mean occupation nbar, diagonal in the number basis."""
    return np.diag(thermal_populations(nbar, dim)).astype(complex)


def required_displace_dim(eta: complex) -> int:
    """Truncation guard against displacement leakage out of the low-lying block."""
    m = abs(eta)
    return math.ceil(4.0 * (m * m + 3.0 * m + 4.0))


def displace_fock(eta: complex, dim: int) -> np.ndarray:
    """Displacement unitary exp(eta a^dag - eta^* a) in the truncated number basis.

    Real for real eta.
    """
    _require_dim(dim, required_displace_dim(eta), f"displacement |eta|={abs(eta):g}")
    return _exp_tridiagonal(eta, "displace", dim)


def squeezed_vacuum_tail(r: float, n_keep: int) -> float:
    """Probability mass of a squeezed vacuum above number level ``n_keep``."""
    th = math.tanh(r)
    p = 1.0 / math.cosh(r)
    total = 0.0
    m = 0
    while 2 * m < n_keep:
        total += p
        p *= th * th * (2 * m + 1) / (2 * m + 2)
        m += 1
    return max(0.0, 1.0 - total)


def required_squeeze_dim(r: float) -> int:
    dim = 16
    while squeezed_vacuum_tail(r, dim // 2) >= TAIL_TOL:
        dim *= 2
        if dim > 1 << 16:
            raise TruncationError(f"no practical truncation for squeezing r={r}")
    return dim


def squeeze_fock(xi: complex, dim: int, columns: int | None = None) -> np.ndarray:
    """Squeezing unitary exp((xi a^dag^2 - xi^* a^2) / 2) in the truncated basis.

    Only its first ``columns`` columns (all by default), from the rotation
    planes of each parity block.  The sign convention is the one under which
    the closed-form amplitude substitution for Gaussian initial states
    reproduces this operator's action; see the oracle consistency tests.
    Real for real xi.
    """
    r = abs(xi)
    _require_dim(dim, required_squeeze_dim(r), f"squeezing r={r:g}")
    k = dim if columns is None else columns
    even = _exp_tridiagonal(xi, "even", dim, (k + 1) // 2)
    odd = _exp_tridiagonal(xi, "odd", dim, k // 2)
    s = np.zeros((dim, k), dtype=even.dtype)
    s[0::2, 0::2] = even
    s[1::2, 1::2] = odd
    return s


def _psd_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a density matrix, rounding-level negative eigenvalues clipped to 0."""
    w, v = eigh((m + m.conj().T) / 2.0)
    if w.min() < EIG_CLAMP:
        raise TruncationError(f"matrix eigenvalue {w.min():g} below the PSD clamp {EIG_CLAMP:g}")
    return np.clip(w, 0.0, None), v


def _sqrt_psd(m: np.ndarray) -> np.ndarray:
    w, v = _psd_eigh(m)
    return (v * np.sqrt(w)) @ v.conj().T


def overlap_fock(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Generalized overlap tr sqrt(sqrt(rho1) rho2 sqrt(rho1)).

    Computed as the sum of the singular values of sqrt(rho1) V2 sqrt(W2), where
    rho2 = V2 W2 V2^dag.  Rounding-level eigenvalues of rank-deficient states
    then add to the large singular values in quadrature (about 1e-17) instead of
    entering the trace through their square roots (about 1e-8).
    """
    if rho1.shape != rho2.shape:
        raise ConfigurationError(f"dimension mismatch: {rho1.shape} vs {rho2.shape}")
    w2, v2 = _psd_eigh(rho2)
    return float(np.sum(svdvals((_sqrt_psd(rho1) @ v2) * np.sqrt(w2))))


def gamma_fock(rho0: np.ndarray, eta: complex) -> float:
    """Modulus of the displaced-state trace, the single-mode decoherence factor."""
    d = displace_fock(eta, len(rho0))
    return float(abs(np.trace(d @ rho0)))


def _exp_normal(x: float) -> float:
    """exp(x), or 0.0 where the result would be subnormal.

    A subnormal float keeps fewer than 53 significant bits, so its logarithm
    no longer returns x: exp(-736) comes back 5e-8 off in the log.
    """
    value = math.exp(x)
    return value if value >= sys.float_info.min else 0.0


def _transformed_abs_sq(eta: complex, r: float, theta: float) -> float:
    """|eta~|^2 = |alpha_gaussian(eta, r, theta, 0)|^2, with its exact limit where that overflows.

    Past the float range (cosh r = inf times an exactly cancelled 0, or
    |eta~|^2 above 1.8e308) the value comes from the exact form
    |eta|^2 (e^{-2r} cos^2 phi + e^{2r} sin^2 phi), phi = theta / 2 - arg eta,
    each term from its logarithm: no factor overflows, and a term below or
    above the float range comes out 0 or inf.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sq = abs(alpha_gaussian(eta, r, theta, 0.0)) ** 2
        if not np.isfinite(sq):
            phi = theta / 2.0 - np.angle(eta)
            logs = np.log(abs(eta)) + np.log(np.abs([np.cos(phi), np.sin(phi)])) + [-r, r]
            sq = np.exp(2.0 * logs).sum()
    return float(sq)


def gamma_closed(nbar: float, eta: complex, r: float = 0.0, theta: float = 0.0) -> float:
    """Closed-form single-mode decoherence factor, coth weight as 2 nbar + 1."""
    return _exp_normal(-_transformed_abs_sq(eta, r, theta) * (2.0 * nbar + 1.0) / 2.0)


def b_closed(nbar: float, eta: complex, r: float = 0.0, theta: float = 0.0) -> float:
    """Closed-form single-mode generalized overlap, tanh weight as 1/(2 nbar + 1)."""
    return _exp_normal(-_transformed_abs_sq(eta, r, theta) / (2.0 * (2.0 * nbar + 1.0)))


def in_displacement_planes(y: np.ndarray, eta: complex = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Columns y of len(y) levels in the rotation planes of the displacement along eta.

    Each column of y lies on the levels of its own parity, as the columns of
    S_K sqrt(P) for a squeezed thermal state do.  Returns U = E^T W^dag y as
    (E1^T on y's even rows and columns, E2^T on its odd ones), W the diagonal
    phase of eta (``_exp_tridiagonal``).  Only eta's direction enters, so one
    U serves every |eta| of that direction, and a real y gives a real U for
    real eta.
    """
    _, phi = _angle_and_phase(eta)
    _, e1, e2 = _unit_eigenpairs("displace", len(y))
    if phi != 0.0:
        y = y * np.exp(-1j * phi * np.arange(len(y)))[:, None]
    return _real_product(e1.T, y[0::2, 0::2]), _real_product(e2.T, y[1::2, 1::2])


def _real_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a real a: a complex b is one real product over its interleaved parts."""
    return (a @ np.ascontiguousarray(b).view(float)).view(complex) if np.iscomplexobj(b) else a @ b


def gamma_b_on_levels(u: tuple[np.ndarray, np.ndarray], eta: complex) -> tuple[float, float]:
    """Gamma and B of rho0 = Y Y^dag and the displacement D(eta), from U = E^T W^dag Y.

    ``u`` is ``in_displacement_planes(y, eta)`` for Y = S_K sqrt(P), the first K
    columns of the squeezing unitary times the square roots of the kept
    populations.  Gamma = |tr X| and B is the sum of the singular values of
    X = Y^dag D Y = U^dag R U, in the order (even, odd) of Y's columns.

    No SVD is taken: with J = diag((-1)^m), J D(eta) J = D(-eta) = D(eta)^dag,
    and each column of Y lies on the levels of one parity, J Y = Y J_K with
    J_K = +1 on the even columns and -1 on the odd ones.  So H = X J_K is
    Hermitian, and as J_K is unitary the singular values of X are the moduli
    of H's eigenvalues: B = sum |lambda(H)| and Gamma = |tr H_ee - tr H_oo|.
    In the planes H = U^dag (R J_p) U, and R J_p is the symmetric reflection
    [[cos, sin], [sin, -cos]] in each plane and +1 on a zero mode, so only
    H's lower blocks ee, oe and oo are formed, O(dim K^2), and ``eigvalsh``
    reads that triangle.  The displacement guard for |eta| at the dim of U
    applies.
    """
    ue, uo = u
    dim = len(ue) + len(uo)
    _require_dim(dim, required_displace_dim(eta), f"displacement |eta|={abs(eta):g}")
    angle, _ = _angle_and_phase(eta)
    cos, sin = _plane_cos_sin(angle * _unit_eigenpairs("displace", dim)[0], len(ue))
    n, k = len(sin), ue.shape[1]
    h = np.zeros((k + uo.shape[1],) * 2, dtype=np.result_type(ue, uo))
    h[:k, :k] = ue.conj().T @ (cos * ue)
    h[k:, :k] = uo.conj().T @ (sin * ue[:n])
    h[k:, k:] = -(uo.conj().T @ (cos[:n] * uo))
    gamma = abs(np.trace(h[:k, :k]) - np.trace(h[k:, k:]))
    return float(gamma), float(np.sum(np.abs(np.linalg.eigvalsh(h, UPLO="L"))))


@dataclass(frozen=True)
class ValidationCell:
    """A grid cell's inputs, truncation and Fock values; a flagged cell keeps no level."""

    nbar: float
    abs_eta: float
    r: float
    theta: float
    dim: int
    kept: int = 0
    gamma_fock: float = math.nan
    b_fock: float = math.nan
    note: str = ""

    @property
    def guard_ok(self) -> bool:
        return self.kept > 0

    @property
    def gamma_closed(self) -> float:
        return gamma_closed(self.nbar, self.abs_eta, self.r, self.theta)

    @property
    def b_closed(self) -> float:
        return b_closed(self.nbar, self.abs_eta, self.r, self.theta)

    @property
    def gamma_dev(self) -> float:
        return abs(self.gamma_closed - self.gamma_fock)

    @property
    def b_dev(self) -> float:
        return abs(self.b_closed - self.b_fock)

    @property
    def ok(self) -> bool:
        return self.guard_ok and self.gamma_dev < PASS_TOL and self.b_dev < PASS_TOL


@dataclass(frozen=True)
class ValidationReport:
    cells: tuple[ValidationCell, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.cells)

    @property
    def max_gamma_dev(self) -> float:
        return max((c.gamma_dev for c in self.cells if c.guard_ok), default=math.nan)

    @property
    def max_b_dev(self) -> float:
        return max((c.b_dev for c in self.cells if c.guard_ok), default=math.nan)


def default_grid() -> list[tuple[float, float, float, float]]:
    """(nbar, |eta|, r, theta) cells: thermal plus squeezed-thermal states."""
    nbars = [0.0, 0.5, 2.0]
    etas = [0.3, 1.0, 2.0]
    cells = [(nb, e, 0.0, 0.0) for nb in nbars for e in etas]
    for nb in nbars:
        for e in etas:
            for r in (0.5, 1.0):
                for theta in (0.0, math.pi / 2.0, math.pi):
                    cells.append((nb, e, r, theta))
    return cells


def auto_dim(nbar: float, eta: complex, r: float) -> int:
    """Tail-bound truncation with a x2 safety margin.

    The thermal bound at the mean occupation n_eff understates a squeezed
    thermal tail: at (nbar, r) = (2, 1.0) the state keeps 7.3e-9 above dim/2.
    The x2 margin, not the bound, carries those cells (a 2 dim build moves
    their Gamma and B by at most 3.4e-15).  A dim above ``MAX_DIM``, or a
    bound that overflows a float (cosh 2r at r = 356, |eta|^2 at 1e200), raises
    ``TruncationError``.
    """
    try:
        n_eff = nbar * math.cosh(2.0 * r) + math.sinh(r) ** 2 + abs(eta) ** 2
        need = max(required_thermal_dim(n_eff), required_displace_dim(eta), required_squeeze_dim(r), 16)
    except OverflowError as exc:
        raise TruncationError(
            f"no practical truncation for (nbar, |eta|, r) = ({nbar:g}, {abs(eta):g}, {r:g}): "
            "its tail bounds overflow"
        ) from exc
    if 2 * need > MAX_DIM:
        raise TruncationError(
            f"(nbar, |eta|, r) = ({nbar:g}, {abs(eta):g}, {r:g}) needs dim {2 * need}, "
            f"above MAX_DIM = {MAX_DIM}"
        )
    return 2 * need


def squeeze_parameter(r: float, theta: float) -> complex | float:
    """xi = r e^{i theta}, exactly real when theta is a multiple of pi.

    ``cmath.exp(1j * math.pi)`` keeps an imaginary part of 1.2e-16, which
    would send a real squeezing through complex arithmetic.
    """
    return r * math.cos(theta) if theta % math.pi == 0.0 else r * cmath.exp(1j * theta)


def validate_closed_forms(
    grid: list[tuple[float, float, float, float]] | None = None,
) -> ValidationReport:
    """Compare closed-form Gamma and B against Fock brute force on every cell.

    The initial state is rho0 = S P S^dag with P = diag(p) thermal and S the
    squeezing unitary (S = 1 at r = 0), so sqrt(rho0) = S sqrt(P) S^dag
    exactly.  With X = S^dag D S for the displacement D,
    Gamma = |tr(D rho0)| = |sum_n p_n X_nn| and
    B = tr sqrt(sqrt(rho0) D rho0 D^dag sqrt(rho0)) is the sum of the singular
    values of sqrt(P) X sqrt(P), taken as the moduli of the eigenvalues of a
    Hermitian matrix that parity makes of it (``gamma_b_on_levels``).

    Only the first K = ``kept_levels(p)`` levels enter, one at nbar = 0.  X is
    a compression of the unitary D, so ||X|| <= 1: a dropped row or column m
    of sqrt(P) X sqrt(P) has 2-norm at most sqrt(p_m), and leaving out the
    levels m >= K moves B by at most 2 sum_{m >= K} sqrt(p_m) <=
    ``TRACE_TAIL_TOL`` and Gamma by at most sum_{m >= K} p_m.  Neither D nor
    S is built whole: per state, the first K columns of S at the full guard
    dimension give Y = S_K sqrt(P) and U = ``in_displacement_planes(Y)``, and
    ``gamma_b_on_levels(U, eta)`` turns U's planes for each eta.

    All BLAS and LAPACK work runs on one thread (``_blas_threads``).

    Cells sharing an initial state share dim, p, S_K and U, built in one ``try``.
    A failed guard flags every cell of that state (kept = 0, NaN Fock values,
    the reason in ``note``) and the report, but the other states still run.
    A cell that ``auto_dim`` cannot truncate (no practical bound, or a dim
    above ``MAX_DIM``) is flagged alone, with dim = 0.  dim, the largest
    ``auto_dim`` over the eta that remain, is at least twice every guard.
    The groups run in order of dim, so only one dimension's rotation planes
    stay cached.
    """
    if grid is None:
        grid = default_grid()
    if len(grid) == 0:
        raise ConfigurationError("validation grid is empty")
    for cell in grid:
        real = len(cell) == 4 and all(isinstance(x, numbers.Real) and math.isfinite(x) for x in cell)
        if not real or min(cell[:3]) < 0:
            raise ConfigurationError(
                f"validation cell (nbar, |eta|, r, theta) = {cell} needs four finite real entries, "
                "nbar >= 0, |eta| >= 0 and r >= 0"
            )

    groups: dict[tuple[float, float, float], dict[float, int]] = {}
    results: dict[tuple[float, float, float, float], ValidationCell] = {}
    for nbar, eta, r, theta in grid:
        try:  # auto_dim runs before setdefault, so a flagged cell opens no group
            groups.setdefault((nbar, r, theta), {})[eta] = auto_dim(nbar, eta, r)
        except TruncationError as exc:
            results[nbar, eta, r, theta] = ValidationCell(nbar, eta, r, theta, 0, note=str(exc))

    with _blas_threads(1):
        for (nbar, r, theta), dims in sorted(groups.items(), key=lambda group: max(group[1].values())):
            dim = max(dims.values())
            try:
                p = thermal_populations(nbar, dim)
                kept = kept_levels(p)
                s = squeeze_fock(squeeze_parameter(r, theta), dim, kept) if r > 0 else np.eye(dim, kept)
                u = in_displacement_planes(s * np.sqrt(p[:kept]))
                measured = [gamma_b_on_levels(u, e) for e in dims]
                cells = [ValidationCell(nbar, e, r, theta, dim, kept, *gb) for e, gb in zip(dims, measured)]
            except TruncationError as exc:
                cells = [ValidationCell(nbar, e, r, theta, dim, note=str(exc)) for e in dims]
            results |= {(nbar, c.abs_eta, r, theta): c for c in cells}

    return ValidationReport(tuple(results[tuple(cell)] for cell in grid))
