import numpy as np
import pytest
import scipy.linalg as sla

import towerstab as ts
from towerstab.generator import energy_coordinates, transform_flux


def scalar_generator(value=-1.0):
    return ts.DiscreteGenerator(
        flux=np.array([[value]]), gram=np.array([[1.0]]), labels=["x"]
    )


def synthetic_power_law_generator(s_grid, scale=1e-3):
    """Block-diagonal normal generator whose resolvent norm on the grid is
    (1 + s^2)/scale: each grid frequency gets a rotation block damped by
    scale/(1+s^2).  The scale keeps the dampings far below the grid spacing
    so neighbouring blocks do not interfere with the injected power law."""
    blocks, labels = [], []
    for j, s in enumerate(s_grid):
        gamma = scale / (1.0 + s**2)
        blocks.append(np.array([[-gamma, -s], [s, -gamma]]))
        labels += [f"c[{j}]", f"s[{j}]"]
    A = sla.block_diag(*blocks)
    return ts.DiscreteGenerator(flux=A, gram=np.eye(A.shape[0]), labels=labels)


class TestResolventNorm:
    def test_scalar_at_zero(self):
        assert ts.resolvent_norm(scalar_generator(), 0.0) == pytest.approx(1.0)

    def test_scalar_at_one(self):
        assert ts.resolvent_norm(scalar_generator(), 1.0) == pytest.approx(
            1.0 / np.sqrt(2.0)
        )

    def test_spectrum_hit_at_undamped_eigenfrequency(self, desk_beam, desk_params):
        gen = ts.assemble_combined(desk_beam, desk_params, 0.0, 0.0)
        lam = sla.eigvals(energy_coordinates(gen).T)
        omega = np.sort(lam.imag[lam.imag > 0])[0]
        with pytest.raises(ts.SpectrumHit):
            ts.resolvent_norm(gen, omega)

    def test_even_in_frequency_for_real_generators(self, desk_models):
        gen = desk_models["combined"]
        for s in (0.7, 3.3, 41.0):
            assert ts.resolvent_norm(gen, s) == pytest.approx(
                ts.resolvent_norm(gen, -s), rel=1e-12
            )

    def test_dominates_inverse_spectral_distance(self, desk_models):
        gen = desk_models["tmd"]
        lam = sla.eigvals(energy_coordinates(gen).T)
        for s in (0.5, 2.0, 9.0, 30.0):
            dist = np.abs(1j * s - lam).min()
            assert ts.resolvent_norm(gen, s) >= (1.0 / dist) * (1 - 1e-8)


class TestScan:
    def test_synthetic_quadratic_growth_recovered(self):
        # window well above s = 1, where 1 + s^2 is an exact power law
        grid = np.geomspace(20.0, 2000.0, 25)
        gen = synthetic_power_law_generator(grid)
        scan = ts.scan_resolvent(gen, grid[0], grid[-1], 25, "log")
        assert np.allclose(scan.s_values, grid)
        assert scan.alpha_fit == pytest.approx(2.0, abs=0.01)

    def test_scalar_decay_exponent(self):
        scan = ts.scan_resolvent(scalar_generator(), 10.0, 1000.0, 40, "log")
        assert scan.alpha_fit == pytest.approx(-1.0, abs=0.01)

    def test_alpha_stable_under_doubling(self, desk_models):
        gen = desk_models["combined"]
        s_hi = 0.5 * ts.mesh_frequency(gen)
        a1 = ts.scan_resolvent(gen, 2.0, s_hi, 100, "log").alpha_fit
        a2 = ts.scan_resolvent(gen, 2.0, s_hi, 200, "log").alpha_fit
        assert abs(a1 - a2) <= 0.05

    def test_linear_spacing_supported(self):
        scan = ts.scan_resolvent(scalar_generator(), 1.0, 10.0, 10, "linear")
        assert np.allclose(np.diff(scan.s_values), 1.0)

    def test_excluded_points_propagate(self, desk_beam, desk_params):
        gen = ts.assemble_combined(desk_beam, desk_params, 0.0, 0.0)
        lam = sla.eigvals(energy_coordinates(gen).T)
        omega = np.sort(lam.imag[lam.imag > 0])[1]
        scan = ts.scan_resolvent(gen, omega, 2 * omega, 5, "linear")
        assert omega in scan.excluded
        assert scan.s_values.size == 4

    def test_validation(self, desk_models):
        gen = desk_models["combined"]
        with pytest.raises(ts.ValidationError, match="s_lo"):
            ts.scan_resolvent(gen, 0.0, 10.0, 10)
        with pytest.raises(ts.ValidationError, match="s_hi"):
            ts.scan_resolvent(gen, 5.0, 1.0, 10)
        with pytest.raises(ts.ValidationError, match="spacing"):
            ts.scan_resolvent(gen, 1.0, 10.0, 10, "cubic")

    def test_fit_window_subrange(self, desk_models):
        gen = desk_models["combined"]
        scan = ts.scan_resolvent(gen, 1.0, 100.0, 50, "log", fit_window=(5.0, 50.0))
        assert scan.window == (5.0, 50.0)


class TestEigenReport:
    def test_undamped_spectrum_is_purely_imaginary(self, desk_beam, desk_params):
        gen = ts.assemble_combined(desk_beam, desk_params, 0.0, 0.0)
        rep = ts.eigen_report(gen)
        assert abs(rep.max_real_part) <= 1e-10

    def test_damped_fixture_strictly_left(self, desk_models):
        for gen in desk_models.values():
            assert ts.eigen_report(gen).max_real_part < 0

    def test_eigenvalues_close_under_conjugation(self, desk_models):
        lam = ts.eigen_report(desk_models["hydraulic"]).eigenvalues
        lam_sorted = np.sort_complex(lam)
        conj_sorted = np.sort_complex(lam.conj())
        assert np.abs(lam_sorted - conj_sorted).max() <= 1e-8

    def test_dimension_guard(self):
        with pytest.raises(ts.ValidationError, match="dimension"):
            big = ts.DiscreteGenerator(
                flux=np.zeros((4001, 4001)) - np.eye(4001),
                gram=np.eye(4001),
                labels=[f"z{i}" for i in range(4001)],
            )
            ts.eigen_report(big)

    def test_gap_curve_columns(self, desk_models):
        rep = ts.eigen_report(desk_models["combined"])
        assert rep.spectral_gap_curve.shape == (rep.eigenvalues.size, 2)
        assert np.all(rep.spectral_gap_curve >= 0)


class TestEnergyData:
    def test_coordinates_computed_once_per_generator(self, desk_models):
        gen = desk_models["tmd"]
        assert energy_coordinates(gen) is energy_coordinates(gen)

    def test_mesh_frequency_reuses_the_spectrum(self, desk_models):
        gen = desk_models["hydraulic"]
        lam = ts.eigen_report(gen).eigenvalues
        assert ts.mesh_frequency(gen) == np.abs(lam.imag).max()

    def test_kernel_singular_values_are_the_cached_ones(self, desk_models):
        gen = desk_models["combined"]
        ec = energy_coordinates(gen)
        _, smin = ts.kernel_check(gen)
        assert ec.norm_A == ec.singular_values[0]
        assert smin == ec.singular_values[-1]

    def test_block_coordinates_computed_once(self, desk_hydraulic):
        block = ts.hydraulic_block(desk_hydraulic)
        assert energy_coordinates(block) is energy_coordinates(block)

    def test_block_resolvent_norm_is_the_inline_transform(self, desk_beam, desk_params):
        block = ts.feedback_transform(
            ts.scole_tip_block(desk_beam, desk_params, "rotation"), np.eye(1), 1.0
        )
        T = transform_flux(block.flux, sla.cholesky(block.gram, lower=False))
        for s in (0.5, 3.0, 40.0):
            smin = sla.svdvals(1j * s * np.eye(block.n) - T)[-1]
            assert ts.resolvent_norm(block, s) == 1.0 / smin


class TestKernelCheck:
    def test_hydraulic_desk_fixture_trivial_kernel(self, desk_models):
        dim, smin = ts.kernel_check(desk_models["hydraulic"])
        assert dim == 0
        assert smin > 0

    def test_decoupled_zero_mode_detected(self, desk_models):
        base = desk_models["combined"]
        n = base.dim
        A = np.zeros((n + 1, n + 1))
        A[:n, :n] = base.A
        gram = np.zeros((n + 1, n + 1))
        gram[:n, :n] = base.gram
        gram[n, n] = 1.0
        flux = np.zeros((n + 1, n + 1))
        flux[:n, :n] = base.flux
        gen = ts.DiscreteGenerator(
            gram=gram, labels=list(base.labels) + ["extra"], flux=flux
        )
        dim, smin = ts.kernel_check(gen)
        assert dim == 1
        assert smin == pytest.approx(0.0, abs=1e-12)
