"""Self-consistency tests of the Fock-space brute-force machinery.

The oracle itself is validated here against analytically trivial facts
(thermal purity, vacuum matrix elements of the displacement, squeezed-vacuum
occupation) before it is trusted to referee the closed forms.
"""

import cmath
import contextlib
import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, expm, svdvals

from qbm_sbs import oracle
from qbm_sbs.constants import HBAR, KB
from qbm_sbs.dynamics import alpha_gaussian, alpha_momentum, alpha_position
from qbm_sbs.errors import ConfigurationError, TruncationError
from qbm_sbs.model import (
    EnvInitialState,
    EnvironmentSpec,
    SqueezeAxis,
    SystemParams,
    sample_environment,
)
from qbm_sbs.observables import decoherence_factor, overlap_macrofraction
from qbm_sbs.oracle import (
    TRACE_TAIL_TOL,
    auto_dim,
    b_closed,
    default_grid,
    displace_fock,
    gamma_b_on_levels,
    gamma_closed,
    gamma_fock,
    in_displacement_planes,
    kept_levels,
    overlap_fock,
    required_displace_dim,
    required_squeeze_dim,
    required_thermal_dim,
    squeeze_fock,
    squeeze_parameter,
    squeezed_vacuum_tail,
    thermal_fock,
    thermal_populations,
    validate_closed_forms,
)

from conftest import GAMMA0, MASS_M, OMEGA_BIG, X_SEP
from test_dynamics import make_osc

# Both unitaries come from eigendecompositions of tridiagonal generators; the
# dense matrix exponential of the same truncated generator is the reference.
EXPM_TOL = 1e-11
# Rounding allowed on top of the tail bound when the kept-level results are
# compared with the all-level ones: two Hermitian eigensolves of different sizes.
CUT_ROUNDING = 1e-15


def _ladder(dim):
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1)


class TestThermal:
    def test_vacuum(self):
        rho = thermal_fock(0.0, 4)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        np.testing.assert_array_equal(rho, expected)
        assert required_thermal_dim(0.0) == 1

    @pytest.mark.parametrize("nbar", [0.5, 1.0, 2.0])
    def test_trace_and_purity(self, nbar):
        dim = 2 * required_thermal_dim(nbar)
        rho = thermal_fock(nbar, dim)
        assert np.real(np.trace(rho)) == pytest.approx(1.0, abs=1e-10)
        assert np.trace(rho @ rho).real == pytest.approx(1.0 / (2.0 * nbar + 1.0), abs=1e-10)

    def test_geometric_populations(self):
        rho = thermal_fock(1.0, 80)
        p = np.real(np.diag(rho))
        # nbar = 1 gives p_n = 2^-(n+1)
        np.testing.assert_allclose(p[:10], 0.5 ** np.arange(1, 11), rtol=1e-12)

    def test_undersized_dim_rejected(self):
        with pytest.raises(TruncationError):
            thermal_fock(2.0, 8)

    def test_occupation_without_practical_truncation_rejected(self):
        # nbar / (nbar + 1) rounds to 1, so the geometric tail never falls below TAIL_TOL.
        with pytest.raises(TruncationError, match="no practical truncation"):
            required_thermal_dim(1e17)
        # r = 30 gives auto_dim an effective occupation of about 1e25: the cell is flagged.
        (cell,) = validate_closed_forms(grid=[(0.5, 1.0, 30.0, 0.0)]).cells
        assert not cell.guard_ok and cell.dim == 0
        assert "no practical truncation" in cell.note


class TestDisplacement:
    def test_vacuum_matrix_element(self):
        eta = 0.8 - 0.3j
        d = displace_fock(eta, required_displace_dim(eta))
        assert abs(d[0, 0]) == pytest.approx(math.exp(-abs(eta) ** 2 / 2.0), rel=1e-10)

    def test_inverse_composition(self):
        eta = 1.1 + 0.4j
        dim = required_displace_dim(eta)
        prod = displace_fock(eta, dim) @ displace_fock(-eta, dim)
        block = dim // 4
        np.testing.assert_allclose(prod[:block, :block], np.eye(block), atol=1e-9)

    def test_guard_bound_value(self):
        assert required_displace_dim(1.0) == 32

    def test_undersized_dim_rejected(self):
        with pytest.raises(TruncationError):
            displace_fock(1.0, 16)
        with pytest.raises(TruncationError):
            gamma_b_on_levels(in_displacement_planes(np.eye(16, 1)), 1.0)

    @pytest.mark.parametrize("eta", [0.3, 2.0, -1.2, 0.8 - 0.3j, 1.5j])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_matches_expm_of_truncated_generator(self, eta, extra):
        dim = required_displace_dim(eta) + extra
        a = _ladder(dim)
        reference = expm(eta * a.T - np.conj(eta) * a)
        d = displace_fock(eta, dim)
        assert np.isrealobj(d) == (np.imag(eta) == 0)
        np.testing.assert_allclose(d, reference, rtol=0, atol=EXPM_TOL)


class TestSqueezing:
    def test_zero_parameter_is_identity(self):
        np.testing.assert_allclose(squeeze_fock(0.0, 16), np.eye(16), atol=1e-14)

    @pytest.mark.parametrize("generator", ["displace", "even", "odd"])
    @pytest.mark.parametrize("dim", [32, 128, 618])
    def test_every_generator_at_zero_is_identity_up_to_rounding(self, generator, dim):
        u = oracle._exp_tridiagonal(0.0, generator, dim)
        assert np.max(np.abs(u - np.eye(len(u)))) <= 1e-14

    def test_squeezed_vacuum_occupation(self):
        r = 0.9
        dim = required_squeeze_dim(r)
        s = squeeze_fock(r, dim)
        psi = s[:, 0]
        n_mean = float(np.sum(np.arange(dim) * np.abs(psi) ** 2))
        assert n_mean == pytest.approx(math.sinh(r) ** 2, rel=1e-8)

    def test_squeezed_vacuum_has_even_parity(self):
        s = squeeze_fock(0.7, required_squeeze_dim(0.7))
        psi = s[:, 0]
        assert np.max(np.abs(psi[1::2])) < 1e-14

    def test_tail_bound_matches_state(self):
        r = 1.0
        dim = required_squeeze_dim(r)
        psi = squeeze_fock(r, dim)[:, 0]
        keep = 40
        actual_tail = float(np.sum(np.abs(psi[keep:]) ** 2))
        assert actual_tail <= squeezed_vacuum_tail(r, keep) + 1e-12

    def test_undersized_dim_rejected(self):
        with pytest.raises(TruncationError):
            squeeze_fock(1.5, 16)

    @pytest.mark.parametrize(
        "xi",
        [0.0, 0.5, squeeze_parameter(0.5, math.pi / 2), squeeze_parameter(1.0, math.pi), 0.6 - 0.4j],
    )
    @pytest.mark.parametrize("extra", [0, 1])
    def test_matches_expm_of_truncated_generator(self, xi, extra):
        dim = required_squeeze_dim(abs(xi)) + extra
        a = _ladder(dim)
        reference = expm((xi * (a.T @ a.T) - np.conj(xi) * (a @ a)) / 2.0)
        s = squeeze_fock(xi, dim)
        assert np.isrealobj(s) == (np.imag(xi) == 0)
        np.testing.assert_allclose(s, reference, rtol=0, atol=EXPM_TOL)

    def test_real_parameter_on_both_real_axis_directions(self):
        assert squeeze_parameter(0.5, 0.0) == 0.5
        assert squeeze_parameter(0.5, math.pi) == -0.5
        assert squeeze_parameter(0.5, math.pi / 2) == pytest.approx(0.5j, abs=1e-16)


# Each truncation guard with the dim it needs: that dim passes and one less raises.
GUARDS = {
    "thermal": (lambda dim: thermal_populations(2.0, dim), 57),
    "displace": (lambda dim: displace_fock(1.0, dim), 32),
    "squeeze": (lambda dim: squeeze_fock(0.5, dim, 1), 64),
    "planes": (lambda dim: gamma_b_on_levels(in_displacement_planes(np.eye(dim, 1)), 1.0), 32),
}


@pytest.mark.parametrize("guard", GUARDS)
def test_guard_passes_at_its_dim_and_raises_one_below(guard):
    build, need = GUARDS[guard]
    build(need)
    with pytest.raises(TruncationError, match=f"need dim >= {need}$"):
        build(need - 1)


class TestOverlap:
    def _coherent(self, eta, dim):
        d = displace_fock(eta, dim)
        vac = np.zeros(dim)
        vac[0] = 1.0
        psi = d @ vac
        return np.outer(psi, psi.conj())

    def test_self_overlap_is_one(self):
        rho = thermal_fock(1.0, 80)
        assert overlap_fock(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_symmetric(self):
        dim = 48
        r1 = self._coherent(0.5, dim)
        r2 = thermal_fock(0.5, dim)
        assert overlap_fock(r1, r2) == pytest.approx(overlap_fock(r2, r1), abs=1e-7)

    def test_pure_coherent_states(self):
        e1, e2 = 0.4, 1.2 + 0.5j
        dim = max(required_displace_dim(e1), required_displace_dim(e2))
        b = overlap_fock(self._coherent(e1, dim), self._coherent(e2, dim))
        assert b == pytest.approx(math.exp(-abs(e1 - e2) ** 2 / 2.0), abs=1e-9)

    def test_unitary_invariance(self):
        dim = 64
        r1 = thermal_fock(0.5, dim)
        r2 = self._coherent(0.6, dim)
        u = squeeze_fock(0.4, dim)
        r1u = u @ r1 @ u.conj().T
        r2u = u @ r2 @ u.conj().T
        assert overlap_fock(r1u, r2u) == pytest.approx(overlap_fock(r1, r2), abs=1e-7)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            overlap_fock(thermal_fock(0.0, 4), thermal_fock(0.0, 8))


class TestClosedForms:
    def test_gamma_fock_matches_closed_form_thermal(self):
        nbar, eta = 0.5, 0.7
        dim = auto_dim(nbar, eta, 0.0)
        rho = thermal_fock(nbar, dim)
        assert gamma_fock(rho, eta) == pytest.approx(gamma_closed(nbar, eta), abs=1e-9)

    def test_transformed_amplitude_identity_at_zero_squeezing(self):
        eta = 0.3 + 0.9j
        assert alpha_gaussian(eta, 0.0, 1.0, 0.0) == eta

    @pytest.mark.parametrize(
        "cell, value",
        [((0.0, 0.3, 800.0, 0.0), 1.0), ((0.0, 0.3, 800.0, math.pi / 2.0), 0.0),
         ((0.0, 0.3, 800.0, math.pi), 0.0), ((0.0, 1e200, 0.0, 0.0), 0.0)],
    )
    def test_exact_limits_past_the_float_range(self, cell, value):
        # At r = 800, theta = 0: |eta~|^2 = 0.09 e^{-1600}, though cosh r overflows.
        assert gamma_closed(*cell) == b_closed(*cell) == value

    def test_gamma_b_duality(self):
        # Reciprocal thermal weights: ln gamma * ln b = (|eta~|^2 / 2)^2.
        nbar, eta, r, theta = 1.5, 0.8, 0.6, 1.0
        lg = math.log(gamma_closed(nbar, eta, r, theta))
        lb = math.log(b_closed(nbar, eta, r, theta))
        e0 = abs(alpha_gaussian(eta, r, theta, 0.0)) ** 2 / 2.0
        assert lg * lb == pytest.approx(e0**2, rel=1e-12)


# The observables' path against the brute force: rounding in the kernel, plus
# the Fock truncation of the squeezed thermal states (up to 4e-13 here).
PATH_TOL = 1e-12
PATH_TIMES = (0.0, 3.0e-10, 7.7e-9, 1.45e-8, 2.2e-8)


class TestObservablePath:
    """``decoherence_factor``/``overlap_macrofraction`` against the Fock brute force.

    The path the CSVs come from (the disorder draw's prefactor, the kernel,
    the coth/tanh weight, the axis and its sign of tanh r, and the factor
    x_sep^2 / 2 hbar) on one reference-band mode, against ``gamma_b_on_levels``
    with the complex eta = alpha x_sep / sqrt(hbar) from ``dynamics`` and
    nbar = 1 / expm1(hbar omega / kB T).  Multiplicativity over modes carries
    the check from one mode to a fraction.
    """

    @pytest.mark.parametrize(
        "axis, omega, temperature, r, theta",
        [
            ("momentum", 3.2e9, 0.02, 0.0, 0.0),
            ("position", 4.1e9, 0.05, 0.0, 0.0),
            ("momentum", 5.7e9, 0.1, 0.5, math.pi / 2),
            ("position", 3.7e9, 0.03, 0.5, math.pi / 2),
            ("momentum", 4.6e9, 0.07, 1.0, 2.0),
            ("position", 5.2e9, 0.01, 1.0, 2.0),
            ("momentum", 3.0e9, 0.04, 0.5, math.pi),
            ("position", 6.0e9, 0.08, 0.5, 0.0),
        ],
    )
    def test_one_mode_matches_brute_force(self, axis, omega, temperature, r, theta):
        sys_params = SystemParams(MASS_M, OMEGA_BIG, X_SEP, SqueezeAxis(axis))
        spec = EnvironmentSpec(
            macrofraction_size=1, omega_low=omega, omega_high=omega, gamma0=GAMMA0, traced_size=1,
        )
        mode = sample_environment(spec, sys_params, 0).traced
        state = EnvInitialState(temperature, r, theta)
        nbar = 1.0 / math.expm1(HBAR * omega / (KB * temperature))
        assert nbar <= 2.5
        alpha = alpha_momentum if axis == "momentum" else alpha_position
        osc = make_osc(omega)
        etas = [complex(alpha(osc, sys_params, t)) * X_SEP / math.sqrt(HBAR) for t in PATH_TIMES]
        dim = max(auto_dim(nbar, eta, r) for eta in etas)
        p = thermal_populations(nbar, dim)
        k = kept_levels(p)
        s = squeeze_fock(squeeze_parameter(r, theta), dim, k) if r > 0 else np.eye(dim, k)
        y = s * np.sqrt(p[:k])
        for t, eta in zip(PATH_TIMES, etas):
            gamma, b = gamma_b_on_levels(in_displacement_planes(y, eta), eta)
            assert abs(decoherence_factor(mode, sys_params, state, t) - gamma) <= PATH_TOL
            assert abs(overlap_macrofraction(mode, sys_params, state, t) - b) <= PATH_TOL


# Dims with even and with odd squeezing parity blocks (15 and 309 levels have a zero mode),
# and an odd dim, whose displacement keeps a zero mode (E1's extra column).
PLANE_DIMS = (30, 31, 64, 618)
PLANE_ETAS = (0.7, -0.7, 0.5 + 0.3j)
PLANE_XIS = (0.5, -0.5, 0.5 * cmath.exp(1.1j))
PLANE_TOL = 1e-13


class TestRotationPlanes:
    """The kept-column path (``in_displacement_planes``, ``gamma_b_on_levels``) against dense unitaries.

    The identities hold at any truncation, so the squeezing guard, which bounds
    leakage, is lifted where dim 30 is below it.
    """

    @pytest.fixture(autouse=True)
    def _any_squeeze_dim(self, monkeypatch):
        monkeypatch.setattr(oracle, "required_squeeze_dim", lambda r: 1)

    @pytest.mark.parametrize("dim", PLANE_DIMS)
    def test_unitaries_stay_unitary(self, dim):
        for u in [displace_fock(eta, dim) for eta in PLANE_ETAS] + [squeeze_fock(xi, dim) for xi in PLANE_XIS]:
            assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= PLANE_TOL

    @pytest.mark.parametrize("xi", PLANE_XIS, ids=["0.5", "-0.5", "complex"])
    @pytest.mark.parametrize("dim", PLANE_DIMS)
    def test_kept_columns_match_dense_products(self, dim, xi):
        s = squeeze_fock(xi, dim)
        d = {eta: displace_fock(eta, dim) for eta in PLANE_ETAS}
        for k in (1, 7, dim):
            sqrt_p = np.sqrt(0.4 * 0.6 ** np.arange(k))
            y = squeeze_fock(xi, dim, k) * sqrt_p
            assert np.max(np.abs(y - s[:, :k] * sqrt_p)) <= PLANE_TOL
            # J_K: +1 on the columns on even levels, -1 on those on odd ones.
            j_k = np.where(np.arange(k) % 2 == 0, 1.0, -1.0)
            for eta in PLANE_ETAS:
                x = (s[:, :k] * sqrt_p).conj().T @ d[eta] @ (s[:, :k] * sqrt_p)
                h = x * j_k
                assert np.max(np.abs(h - h.conj().T)) <= 1e-15 * np.linalg.norm(x, 2)
                gamma, b = gamma_b_on_levels(in_displacement_planes(y, eta), eta)
                assert abs(gamma - abs(np.trace(x))) <= PLANE_TOL
                assert abs(b - np.sum(svdvals(x))) <= PLANE_TOL


class TestValidationHarness:
    def test_small_grid_passes(self):
        report = validate_closed_forms(grid=[(0.5, 0.5, 0.0, 0.0), (0.0, 1.0, 0.5, math.pi)])
        assert report.passed
        assert report.max_gamma_dev < 1e-5
        assert report.max_b_dev < 1e-5
        assert all(c.guard_ok for c in report.cells)

    def test_forced_small_dimension_is_flagged_not_fatal(self, monkeypatch):
        # A failed guard flags every cell of its initial state.
        monkeypatch.setattr(oracle, "auto_dim", lambda *args: 8)
        grid = [(0.5, eta, 0.0, 0.0) for eta in (0.3, 1.0, 2.0)]
        report = validate_closed_forms(grid=grid)
        for cell, params in zip(report.cells, grid):
            assert (cell.dim, cell.kept, cell.guard_ok) == (8, 0, False)
            assert math.isnan(cell.gamma_fock) and math.isnan(cell.b_fock)
            assert cell.note != ""
            assert cell.gamma_closed == gamma_closed(*params)
        assert not report.passed
        assert math.isnan(report.max_gamma_dev) and math.isnan(report.max_b_dev)

    def test_verdicts_follow_the_stored_measurements(self):
        (passing,) = validate_closed_forms(grid=[(0.5, 1.0, 0.0, 0.0)]).cells
        flagged = oracle.ValidationCell(0.5, 2.0, 0.0, 0.0, passing.dim, note="x")
        report = oracle.ValidationReport((flagged, passing))  # a NaN first would win an unfiltered max
        assert not report.passed
        assert report.max_gamma_dev == passing.gamma_dev
        assert report.max_b_dev == passing.b_dev
        assert (passing.guard_ok, flagged.guard_ok) == (passing.kept > 0, flagged.kept > 0) == (True, False)

    @pytest.mark.parametrize(
        "cell",
        [(0.0, 0.3, 8.0, 0.0), (0.0, 0.3, 5.0, 0.0), (1e16, 0.3, 0.0, 0.0), (0.0, 0.3, 356.0, 0.0),
         (0.0, 0.3, 500.0, 0.0), (0.0, 0.3, 800.0, 0.0), (0.0, 1e200, 0.0, 0.0)],
        # from r=356 on the bounds overflow; at r=800 cosh r does, at |eta| = 1e200 |eta|^2 does
        ids=["r=8", "r=5", "nbar=1e16", "r=356", "r=500", "r=800", "eta=1e200"],
    )
    def test_cell_without_practical_truncation_is_flagged_not_fatal(self, cell):
        report = validate_closed_forms(grid=[(0.0, 0.3, 0.0, 0.0), cell])
        assert not report.passed
        first, flagged = report.cells
        assert first.ok and first.dim > 0
        assert (flagged.guard_ok, flagged.dim, flagged.kept) == (False, 0, 0)
        assert math.isnan(flagged.gamma_fock) and math.isnan(flagged.b_fock)
        assert "no practical truncation" in flagged.note
        assert flagged.gamma_closed == gamma_closed(*cell)
        assert report.max_gamma_dev == first.gamma_dev

    def test_cell_above_max_dim_is_flagged_alone(self):
        big = {(0.0, 30.0, 0.0, 0.0): 41470, (0.0, 1.0, 3.0, 0.0): 32768}
        # Checked first, so that a missing cap fails here instead of allocating gigabytes below.
        for (nbar, eta, r, _), need in big.items():
            with pytest.raises(TruncationError, match=f"needs dim {need}, above MAX_DIM"):
                auto_dim(nbar, eta, r)
        # (0, 0.3) shares its initial state with (0, 30) and still runs.
        report = validate_closed_forms(grid=[(0.0, 0.3, 0.0, 0.0), *big])
        first, *flagged = report.cells
        assert first.ok and 0 < first.dim <= oracle.MAX_DIM
        for cell, need in zip(flagged, big.values()):
            assert (cell.guard_ok, cell.dim, cell.kept) == (False, 0, 0)
            assert f"needs dim {need}" in cell.note
        assert not report.passed
        assert max(auto_dim(nbar, eta, r) for nbar, eta, r, _ in default_grid()) == 618

    def test_cells_do_not_depend_on_grid_order(self):
        grid = default_grid()
        forward = validate_closed_forms(grid).cells
        assert validate_closed_forms(grid[::-1]).cells == forward[::-1]

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_closed_forms(grid=[])

    @pytest.mark.parametrize(
        "cell",
        [
            (0.5, 1.0, -0.5, 0.0),
            (-0.1, 1.0, 0.0, 0.0),
            (-5.0, 1.0, 0.0, 0.0),
            (math.nan, 1.0, 0.0, 0.0),
            (0.5, math.nan, 0.0, 0.0),
            (0.5, 1.0, math.inf, 0.0),
            (0.5, 1.0, 0.5, math.nan),
            (0.5, 1.0),
            (0.5, 1.0, 0.0, 0.0, 0.0),
            (0.5, -0.7, 0.5, 1.0),
            (0.5, 1.0 + 0.5j, 0.0, 0.0),
        ],
        ids=[
            "r<0", "nbar=-0.1", "nbar=-5", "nbar=nan", "eta=nan", "r=inf", "theta=nan",
            "two entries", "five entries", "eta<0", "complex eta",
        ],
    )
    def test_malformed_cell_rejected_before_any_work(self, cell, monkeypatch):
        monkeypatch.setattr(oracle, "auto_dim", None)  # any truncation work would raise TypeError
        with pytest.raises(ConfigurationError, match="validation cell"):
            validate_closed_forms(grid=[(0.0, 0.3, 0.0, 0.0), cell])

    @pytest.mark.parametrize("nbar", [0.0, 0.5])
    @pytest.mark.parametrize(
        "r, theta", [(0.0, 0.0), (0.5, 0.0), (0.5, math.pi / 2), (0.5, math.pi)]
    )
    def test_matches_dense_density_matrices(self, nbar, r, theta):
        # Reference: rho0 built as a dense matrix, Gamma from gamma_fock and B
        # from overlap_fock(rho0, D rho0 D^dag).
        eta = 0.7
        (cell,) = validate_closed_forms(grid=[(nbar, eta, r, theta)]).cells
        dim = cell.dim
        rho = thermal_fock(nbar, dim)
        if r > 0:
            s = squeeze_fock(r * np.exp(1j * theta), dim)
            rho = s @ rho @ s.conj().T
        d = displace_fock(eta, dim)
        displaced = d @ rho @ d.conj().T
        assert cell.gamma_fock == pytest.approx(gamma_fock(rho, eta), abs=1e-12)
        assert cell.b_fock == pytest.approx(overlap_fock(rho, displaced), abs=1e-12)

    def test_default_grid_shares_eigendecompositions(self, monkeypatch):
        # One eigh_tridiagonal per (generator, dim): the displacement at each
        # guard dimension, and both squeezing parity blocks at each dimension
        # of a squeezed group.
        calls = []

        def counted(d, e):
            calls.append(len(d))
            return eigh_tridiagonal(d, e)

        monkeypatch.setattr(oracle, "eigh_tridiagonal", counted)
        oracle._unit_eigenpairs.cache_clear()
        grid = default_grid()
        cells = validate_closed_forms().cells
        assert [(c.nbar, c.abs_eta, c.r, c.theta) for c in cells] == grid
        for c in cells:
            etas = [e for nb, e, r, th in grid if (nb, r, th) == (c.nbar, c.r, c.theta)]
            assert c.dim == max(auto_dim(c.nbar, e, c.r) for e in etas)
            assert c.kept == kept_levels(thermal_populations(c.nbar, c.dim))
        displace_dims = {c.dim for c in cells}
        squeeze_dims = {c.dim for c in cells if c.r > 0}
        assert (len(displace_dims), len(squeeze_dims)) == (8, 5)
        assert len(calls) == len(displace_dims) + 2 * len(squeeze_dims) == 18

    def test_validation_takes_no_svd(self, monkeypatch):
        # B comes from the eigenvalues of the Hermitian X J_K; only the dense
        # reference ``overlap_fock`` takes an SVD.
        def refused(*args, **kwargs):
            raise AssertionError("validation called svdvals")

        monkeypatch.setattr(oracle, "svdvals", refused)
        cells = validate_closed_forms().cells
        assert len(cells) == 63 and all(c.ok for c in cells)

    def test_default_grid_keeps_fewer_levels(self):
        report = validate_closed_forms()
        assert report.passed
        for c in report.cells:
            p = thermal_populations(c.nbar, c.dim)
            assert c.kept == kept_levels(p)
            tail = 2.0 * np.sqrt(p[c.kept - 1 :])
            assert tail[1:].sum() <= TRACE_TAIL_TOL < tail.sum()
            if c.nbar == 0:
                assert c.kept == 1
            else:
                assert 1 < c.kept < c.dim

    @pytest.mark.parametrize(
        "nbar, r, theta",
        sorted({(nb, r, th) for nb, _, r, th in default_grid() if nb > 0}),
    )
    def test_cut_moves_results_within_tail_bound(self, nbar, r, theta):
        # Gamma and B from the kept levels against all occupied levels, at the
        # group's largest |eta|, which sets its dimension.  The looser
        # tolerances make the bound, not rounding, the larger term.
        eta = max(e for nb, e, rr, th in default_grid() if (nb, rr, th) == (nbar, r, theta))
        dim = auto_dim(nbar, eta, r)
        p = thermal_populations(nbar, dim)
        s = squeeze_fock(squeeze_parameter(r, theta), dim) if r > 0 else np.eye(dim)

        def on_levels(k):
            return gamma_b_on_levels(in_displacement_planes(s[:, :k] * np.sqrt(p[:k]), eta), eta)

        occupied = np.count_nonzero(p)
        full = on_levels(occupied)
        for tol in (TRACE_TAIL_TOL, 1e-8, 1e-4):
            k = kept_levels(p, tol)
            cut = on_levels(k)
            assert k < occupied
            assert abs(cut[0] - full[0]) <= p[k:].sum() + CUT_ROUNDING
            assert abs(cut[1] - full[1]) <= 2.0 * np.sqrt(p[k:]).sum() + CUT_ROUNDING

    def test_auto_dim_covers_guards(self):
        for nbar, eta, r in [(0.0, 0.3, 0.0), (2.0, 2.0, 1.0)]:
            dim = auto_dim(nbar, eta, r)
            assert dim >= required_displace_dim(eta)
            assert dim >= required_thermal_dim(nbar)
            if r > 0:
                assert dim >= required_squeeze_dim(r)


class TestBlasThreads:
    """``validate_closed_forms`` pins every loaded OpenBLAS to one thread for its call only."""

    @staticmethod
    def _counts():
        return [get() for get, _ in oracle._blas_thread_controls()]

    def test_finds_the_openblas_numpy_reports(self):
        # A wheel that renames the thread-count symbols fails here instead of
        # silently running the oracle threaded again.
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        if "openblas" in blas.lower():
            assert len(oracle._blas_thread_controls()) >= 1

    @pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
    def test_one_thread_inside_and_previous_counts_after(self, fails, monkeypatch):
        inside = []

        def recording(*args):
            inside.append(self._counts())
            if fails:
                raise RuntimeError("cell failed")
            return gamma_b_on_levels(*args)

        monkeypatch.setattr(oracle, "gamma_b_on_levels", recording)
        n = len(oracle._blas_thread_controls())
        with oracle._blas_threads(2):
            assert self._counts() == [2] * n
            with pytest.raises(RuntimeError) if fails else contextlib.nullcontext():
                validate_closed_forms(grid=[(0.5, 0.3, 0.0, 0.0), (0.5, 1.0, 0.5, math.pi / 2)])
            assert self._counts() == [2] * n
        assert inside == [[1] * n] * (1 if fails else 2)

    def test_cells_do_not_depend_on_the_process_thread_count(self):
        # A threaded BLAS splits its sums by the thread count: on two threads
        # b_fock of the eta = 0.3 cell here moves in its last digit.
        grid = [(2.0, eta, 0.5, math.pi / 2) for eta in (0.3, 1.0, 2.0)]
        runs = []
        for n in (1, 2):
            with oracle._blas_threads(n):
                runs.append([(c.gamma_fock.hex(), c.b_fock.hex()) for c in validate_closed_forms(grid=grid).cells])
        assert runs[0] == runs[1]
