"""Brute-force Fock-space validation of the closed-form observables.

Everything here works for a single bath mode in dimensionless displacement
units eta = alpha * dX / sqrt(hbar); multiplicativity over modes reduces the
many-oscillator observables to this case.  Truncation dimensions come from
explicit tail bounds with a x2 safety margin, and every result records the
dimension used: silent truncation is the main failure mode of Fock brute
force.  The thermal bound, taken at the state's mean occupation,
understates the number tail of a squeezed thermal state, so for squeezed
cells the x2 margin, not the bound, carries the truncation (``auto_dim``).

The displacement and squeezing unitaries are exponentials of tridiagonal
generators (the squeezing generator one parity block at a time).  The
eigenvectors of a generator do not depend on |eta| or r, so one
eigendecomposition per generator and dimension serves every parameter.  Every
unitary is built from real products; a complex parameter adds a diagonal
phase.

The unitaries are built at the full guard dimension, but only the first K
thermal levels, set by a second tail bound (``kept_levels``), enter the
per-cell products and the trace norm; every result records K.

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
import os
import sys
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal, svdvals

from .dynamics import alpha_gaussian
from .errors import ConfigurationError, TruncationError

TAIL_TOL = 1.0e-10
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
def _unit_eigenpairs(generator: str, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the |z| = 1 tridiagonal T of one generator at one truncation dim.

    ``generator`` is "displace", or "even"/"odd" for one parity block of the
    squeezing generator.  The eigenvectors do not depend on |z| and the
    eigenvalues scale with it, so one entry serves every parameter; three
    entries hold the generators of one dimension.  The arrays are read-only.
    """
    if generator == "displace":
        c = np.sqrt(np.arange(1.0, dim))
    else:
        # The squeezing generator couples n to n + 2 only, so each parity block is tridiagonal.
        n = np.arange(dim - 2, dtype=float)
        c = (np.sqrt((n + 1.0) * (n + 2.0)) / 2.0)[0 if generator == "even" else 1 :: 2]
    lam, v = eigh_tridiagonal(np.zeros(len(c) + 1), c)
    lam.flags.writeable = v.flags.writeable = False
    return lam, v


def _exp_tridiagonal(z: complex, generator: str, dim: int) -> np.ndarray:
    """exp(G) for the anti-Hermitian G with G[m+1, m] = z c_m, G[m, m+1] = -z^* c_m.

    With z = |z| e^{i phi} and D = diag(e^{i m phi}), G(z) = D G(|z|) D^dag,
    so exp(G(z)) = D exp(G(|z|)) D^dag; D is the real diag((-1)^m) for z < 0.
    G(|z|) is real, and i G(|z|) = Phi T Phi^dag with Phi = diag(i^m) and T
    the real symmetric tridiagonal of zero diagonal and off-diagonal |z| c.
    Phi is real on the even levels and imaginary on the odd ones, so
    exp(G(|z|)) = Phi V exp(-i Lambda) V^T Phi^dag is built from real parity
    blocks: U_ee = Ve cos(Lambda) Ve^T, U_oo = Vo cos(Lambda) Vo^T,
    U_oe = Vo sin(Lambda) Ve^T and U_eo = -U_oe^T, where Ve and Vo are the
    even and odd rows of V times the real sign Phi puts on each row.  V and
    Lambda / |z| are the cached eigenpairs of the |z| = 1 tridiagonal
    (``_unit_eigenpairs``).  The result is unitary by construction, real for
    real z, and the identity at z = 0 only up to rounding (2e-15 at dim 618).
    """
    z = complex(z)
    unit_lam, v = _unit_eigenpairs(generator, dim)
    lam = abs(z) * unit_lam
    m = np.arange(len(lam))
    sign = np.where(m % 4 < 2, 1.0, -1.0)  # i^m / i^(m % 2)
    if z.imag == 0:
        sign[1::2] *= math.copysign(1.0, z.real)
    ve, vo = v[0::2] * sign[0::2, None], v[1::2] * sign[1::2, None]
    cos, sin = np.cos(lam), np.sin(lam)
    u = np.empty((len(lam), len(lam)))
    u[0::2, 0::2] = (ve * cos) @ ve.T
    u[1::2, 1::2] = (vo * cos) @ vo.T
    u[1::2, 0::2] = (vo * sin) @ ve.T
    u[0::2, 1::2] = -u[1::2, 0::2].T
    if z.imag == 0:
        return u
    phase = np.exp(1j * cmath.phase(z) * m)
    return u * np.outer(phase, phase.conj())


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


def thermal_populations(nbar: float, dim: int) -> np.ndarray:
    """Number-state populations of a thermal state; the truncated tail is not renormalized."""
    need = required_thermal_dim(nbar)
    if dim < need:
        raise TruncationError(
            f"dim={dim} keeps a thermal tail above {TAIL_TOL:g} for nbar={nbar}; need dim >= {need}"
        )
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
    need = required_displace_dim(eta)
    if dim < need:
        raise TruncationError(
            f"dim={dim} too small for displacement |eta|={abs(eta):g}; need dim >= {need}"
        )
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


def squeeze_fock(xi: complex, dim: int) -> np.ndarray:
    """Squeezing unitary exp((xi a^dag^2 - xi^* a^2) / 2) in the truncated basis.

    The sign convention is the one under which the closed-form amplitude
    substitution for Gaussian initial states reproduces this operator's
    action; see the oracle consistency tests.  Real for real xi.
    """
    r = abs(xi)
    need = required_squeeze_dim(r)
    if dim < need:
        raise TruncationError(
            f"dim={dim} leaks squeezed population above dim/2 for r={r:g}; need dim >= {need}"
        )
    even, odd = _exp_tridiagonal(xi, "even", dim), _exp_tridiagonal(xi, "odd", dim)
    u = np.zeros((dim, dim), dtype=even.dtype)
    u[0::2, 0::2] = even
    u[1::2, 1::2] = odd
    return u


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


def gamma_closed(nbar: float, eta: complex, r: float = 0.0, theta: float = 0.0) -> float:
    """Closed-form single-mode decoherence factor, coth weight as 2 nbar + 1."""
    et = alpha_gaussian(eta, r, theta, 0.0)
    return _exp_normal(-abs(et) ** 2 * (2.0 * nbar + 1.0) / 2.0)


def b_closed(nbar: float, eta: complex, r: float = 0.0, theta: float = 0.0) -> float:
    """Closed-form single-mode generalized overlap, tanh weight as 1/(2 nbar + 1)."""
    et = alpha_gaussian(eta, r, theta, 0.0)
    return _exp_normal(-abs(et) ** 2 / (2.0 * (2.0 * nbar + 1.0)))


def gamma_b_on_levels(p: np.ndarray, s: np.ndarray | None, d: np.ndarray) -> tuple[float, float]:
    """Gamma and B of rho0 = S P S^dag and the displacement D, on the first len(p) levels.

    ``s`` holds the first len(p) columns of S (None for S = 1), so
    X = S_K^dag (D S_K) costs O(dim^2 K).  Gamma = |sum_n p_n X_nn| and B is
    the sum of the singular values of sqrt(P) X sqrt(P).  A real D times a
    complex S_K is one real product over S_K's interleaved real and imaginary
    parts, without NumPy's complex copy of D (6 MB at dim = 618).
    """
    k = len(p)
    if s is None:
        x = d[:k, :k]
    else:
        ds = (d @ s.view(float)).view(complex) if np.isrealobj(d) and np.iscomplexobj(s) else d @ s
        x = s.conj().T @ ds
    sqrt_p = np.sqrt(p)
    return float(abs(np.dot(p, np.diagonal(x)))), float(np.sum(svdvals(sqrt_p[:, None] * x * sqrt_p)))


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
    their Gamma and B by at most 3.4e-15).
    """
    n_eff = nbar * math.cosh(2.0 * r) + math.sinh(r) ** 2 + abs(eta) ** 2
    need = max(
        required_thermal_dim(n_eff),
        required_displace_dim(eta),
        required_squeeze_dim(r) if r > 0 else 1,
        16,
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
    values of sqrt(P) X sqrt(P).

    Only the first K = ``kept_levels(p)`` levels enter, one at nbar = 0.  X is
    a compression of the unitary D, so ||X|| <= 1: a dropped row or column m
    of sqrt(P) X sqrt(P) has 2-norm at most sqrt(p_m), and leaving out the
    levels m >= K moves B by at most 2 sum_{m >= K} sqrt(p_m) <=
    ``TRACE_TAIL_TOL`` and Gamma by at most sum_{m >= K} p_m.  D and S are
    still built at the full guard dimension.

    All BLAS and LAPACK work runs on one thread (``_blas_threads``).

    Cells sharing an initial state share dim, p and S, built in one ``try``.
    A failed guard flags every cell of that state (kept = 0, NaN Fock values,
    the reason in ``note``) and the report, but the other states still run;
    one that no practical truncation holds is flagged with dim = 0.  dim, the
    largest ``auto_dim`` over the state's eta, is at least twice every guard.
    The groups run in order of dim, each caching its displacement unitaries
    by eta, so only one dimension's unitaries and eigenpairs stay alive.
    """
    if grid is None:
        grid = default_grid()
    if len(grid) == 0:
        raise ConfigurationError("validation grid is empty")
    for cell in grid:
        if len(cell) != 4 or not all(map(math.isfinite, cell)) or cell[0] < 0 or cell[2] < 0:
            raise ConfigurationError(
                f"validation cell (nbar, |eta|, r, theta) = {cell} needs four finite entries, "
                "nbar >= 0 and r >= 0"
            )

    groups: dict[tuple[float, float, float], list[float]] = {}
    for nbar, eta, r, theta in grid:
        groups.setdefault((nbar, r, theta), []).append(eta)
    results: dict[tuple[float, float, float, float], ValidationCell] = {}
    by_dim: dict[int, list[tuple[float, float, float, list[float]]]] = {}
    for (nbar, r, theta), etas in groups.items():
        try:
            by_dim.setdefault(max(auto_dim(nbar, e, r) for e in etas), []).append((nbar, r, theta, etas))
        except TruncationError as exc:
            results |= {(nbar, e, r, theta): ValidationCell(nbar, e, r, theta, 0, note=str(exc)) for e in etas}

    with _blas_threads(1):
        for dim in sorted(by_dim):
            displace = functools.cache(displace_fock)
            for nbar, r, theta, etas in by_dim[dim]:
                try:
                    p = thermal_populations(nbar, dim)
                    kept = kept_levels(p)
                    s = squeeze_fock(squeeze_parameter(r, theta), dim)[:, :kept] if r > 0 else None
                    measured = [gamma_b_on_levels(p[:kept], s, displace(e, dim)) for e in etas]
                    cells = [ValidationCell(nbar, e, r, theta, dim, kept, *gb) for e, gb in zip(etas, measured)]
                except TruncationError as exc:
                    cells = [ValidationCell(nbar, e, r, theta, dim, note=str(exc)) for e in etas]
                results |= {(nbar, c.abs_eta, r, theta): c for c in cells}

    return ValidationReport(tuple(results[tuple(cell)] for cell in grid))
