import math

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

import towerstab as ts
from towerstab.beam_fem import (
    GAUSS_POINTS,
    GAUSS_WEIGHTS,
    _hermite_curvatures,
    _hermite_values,
)


class TestAssembly:
    def test_quadratic_interpolant_bending_energy(self, desk_params):
        """q^T K q for the interpolant of w = x^2 equals int EI |w''|^2 = 4."""
        beam = ts.build_beam_matrices(desk_params, 1)
        q = ts.hermite_interpolate(beam, lambda x: x**2, lambda x: 2 * x)
        assert abs(q @ beam.K @ q - 4.0) < 1e-10

    def test_zero_state_has_zero_quadratic_forms(self, desk_beam):
        q = np.zeros(desk_beam.n_dof)
        assert q @ desk_beam.K @ q == 0.0
        assert q @ desk_beam.Mrho @ q == 0.0

    def test_matrices_symmetric_and_positive_definite(self):
        params = ts.BeamParameters(
            rho=lambda x: 1.0 + 0.3 * x, EI=lambda x: 2.0 - x / 2, m=0.7, J=1.3
        )
        beam = ts.build_beam_matrices(params, 9)
        for M in (beam.K, beam.Mrho):
            scale = np.abs(M).max()
            assert np.abs(M - M.T).max() <= 1e-12 * scale
            sla.cholesky(M)  # raises if any pivot fails

    def test_tip_indices_reference_last_node(self, desk_beam):
        assert desk_beam.tip_disp_index == desk_beam.n_dof - 2
        assert desk_beam.tip_rot_index == desk_beam.n_dof - 1
        assert desk_beam.node_coordinates()[-1] == pytest.approx(1.0)

    def test_nonpositive_coefficient_rejected_with_location(self):
        params = ts.BeamParameters(rho=lambda x: 1.0 - 2.0 * x, EI=1.0, m=1.0, J=1.0)
        with pytest.raises(ts.ValidationError, match="rho"):
            ts.build_beam_matrices(params, 8)

    def test_invalid_element_count_rejected(self, desk_params):
        with pytest.raises(ts.ValidationError, match="n_elements"):
            ts.build_beam_matrices(desk_params, 0)

    def test_quadrature_exact_for_quadratic_coefficients(self):
        """Assembled entries match an independent high-order quadrature."""
        rho = lambda x: 1.0 + 0.5 * x + 0.25 * x**2
        EI = lambda x: 2.0 - 0.3 * x + 0.1 * x**2
        params = ts.BeamParameters(rho=rho, EI=EI, m=1.0, J=1.0)
        beam = ts.build_beam_matrices(params, 5)
        gp, gw = np.polynomial.legendre.leggauss(10)
        gp, gw = 0.5 * (gp + 1.0), 0.5 * gw
        n, h = beam.n_elements, beam.h
        K = np.zeros((2 * n + 2, 2 * n + 2))
        M = np.zeros_like(K)
        H = _hermite_values(gp, h)
        B = _hermite_curvatures(gp, h)
        for e in range(n):
            x = (e + gp) * h
            wK = gw * h * np.array([EI(xi) for xi in x])
            wM = gw * h * np.array([rho(xi) for xi in x])
            sl = slice(2 * e, 2 * e + 4)
            K[sl, sl] += np.einsum("g,ig,jg->ij", wK, B, B)
            M[sl, sl] += np.einsum("g,ig,jg->ij", wM, H, H)
        assert np.abs(K[2:, 2:] - beam.K).max() <= 1e-12 * np.abs(beam.K).max()
        assert np.abs(M[2:, 2:] - beam.Mrho).max() <= 1e-12 * np.abs(beam.Mrho).max()

    def test_lowest_eigenvalue_fourth_order_convergence(self, desk_params):
        """Free-tip pencil eigenvalue converges at fourth order to the
        high-resolution reference (inverse iteration with a long-double
        Rayleigh quotient, so the reference is not limited by the float64
        eigensolver floor)."""

        def lam1(ne):
            beam = ts.build_beam_matrices(desk_params, ne)
            cho = sla.cho_factor(beam.K)
            x = np.ones(beam.n_dof)
            for _ in range(60):
                x = sla.cho_solve(cho, beam.Mrho @ x)
                x /= np.linalg.norm(x)
            xl = x.astype(np.longdouble)
            K = beam.K.astype(np.longdouble)
            M = beam.Mrho.astype(np.longdouble)
            return float((xl @ K @ xl) / (xl @ M @ xl))

        ref = lam1(256)
        errors = [abs(lam1(ne) - ref) for ne in (8, 16, 32)]
        orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert min(orders) >= 3.5
        # the limit is the classical clamped-free value (1.8751...)^4
        assert ref == pytest.approx(1.8751040687119611**4, abs=1e-6)

    def test_interpolant_energy_mesh_consistency(self, desk_params):
        """Energy of a fixed smooth interpolated state converges at O(h^4)."""
        w = lambda x: 1.0 - math.cos(math.pi * x)
        wx = lambda x: math.pi * math.sin(math.pi * x)
        exact = math.pi**4 / 2.0

        def bending_energy(ne):
            beam = ts.build_beam_matrices(desk_params, ne)
            q = ts.hermite_interpolate(beam, w, wx)
            return q @ beam.K @ q

        errors = [abs(bending_energy(ne) - exact) for ne in (8, 16, 32, 64)]
        orders = [np.log2(errors[i] / errors[i + 1]) for i in range(3)]
        assert min(orders) >= 3.5


def dense_element_loop(params, n_elements):
    """``K`` and ``Mrho`` by the dense element loop: each element's 4 x 4
    matrices added into ``(n_dof + 2)**2`` arrays in element order, then
    the clamped node's two dofs dropped."""
    h = 1.0 / n_elements
    K = np.zeros((2 * n_elements + 2,) * 2)
    M = np.zeros_like(K)
    H = _hermite_values(GAUSS_POINTS, h)
    B = _hermite_curvatures(GAUSS_POINTS, h)
    for e in range(n_elements):
        x = (e + GAUSS_POINTS) * h
        ei = np.array([float(params.EI(xi)) for xi in x])
        rho = np.array([float(params.rho(xi)) for xi in x])
        sl = slice(2 * e, 2 * e + 4)
        K[sl, sl] += np.einsum("g,ig,jg->ij", GAUSS_WEIGHTS * h * ei, B, B)
        M[sl, sl] += np.einsum("g,ig,jg->ij", GAUSS_WEIGHTS * h * rho, H, H)
    return K[2:, 2:], M[2:, 2:]


TAPERED = ts.BeamParameters(
    rho=lambda x: 1.0 + 0.5 * x + 0.25 * x**2, EI=lambda x: 2.0 * math.exp(-0.7 * x), m=0.7, J=1.3
)


class TestBandAssembly:
    """The element matrices are added straight into band storage."""

    @pytest.mark.parametrize("n_elements", [1, 2, 5])
    @pytest.mark.parametrize("params", [ts.BeamParameters(rho=1.0, EI=1.0, m=1.0, J=1.0), TAPERED],
                             ids=["uniform", "tapered"])
    def test_bands_read_back_as_the_dense_element_loop(self, params, n_elements):
        """Bit for bit: at most two elements add into an entry, in the same
        order; one element (n_dof 2) caps the band at 1."""
        beam = ts.build_beam_matrices(params, n_elements)
        K, M = dense_element_loop(params, n_elements)
        assert np.array_equal(beam.K, K)
        assert np.array_equal(beam.Mrho, M)
        k = min(3, beam.n_dof - 1)
        for band in (beam.K_band, beam.Mrho_band):
            assert (band.kl, band.ku) == (k, k)
            assert band.ab.shape == (2 * k + 1, beam.n_dof)

    def test_dense_reads_are_read_only_and_not_kept(self, desk_beam):
        for name in ("K", "Mrho"):
            dense = getattr(desk_beam, name)
            with pytest.raises(ValueError, match="read-only"):
                dense[0, 0] = 1.0
            assert getattr(desk_beam, name) is not dense
        for band in (desk_beam.K_band, desk_beam.Mrho_band):
            assert not band.ab.flags.writeable

    def test_build_peak_is_linear_in_n_dof(self, traced_peak, desk_params):
        """No n_dof**2 array: at 1024 elements (n_dof 2048) the build peaks
        at at most 1 KiB per dof (616 bytes measured), where the dense
        assembly traced 68.2 MiB (16 KiB per dof each for K and Mrho)."""
        n_dof = 2048
        traced = traced_peak(lambda: ts.build_beam_matrices(desk_params, n_dof // 2))
        assert traced.peak <= 1024 * n_dof


class TestEvaluateEnergy:
    def test_zero_state(self):
        assert ts.evaluate_energy(np.zeros(3), np.eye(3)) == 0.0

    def test_identity_gram_unit_coordinate(self):
        z = np.array([1.0, 0.0])
        assert ts.evaluate_energy(z, np.eye(2)) == pytest.approx(0.5)

    def test_tip_velocity_unit_energy_reads_gram_diagonal(
        self, desk_beam, desk_params
    ):
        """Unit tip-velocity energy is half the assembled Gram diagonal entry
        (tip mass m plus the consistent-mass contribution of the beam)."""
        gen = ts.assemble_combined(desk_beam, desk_params, 1.0, 1.0)
        z = gen.unit_state("tip_velocity")
        i = gen.index("tip_velocity")
        assert ts.evaluate_energy(z, gen.gram) == pytest.approx(0.5 * gen.gram[i, i])
        # the tip mass m dominates that diagonal entry
        assert gen.gram[i, i] == pytest.approx(desk_params.m, rel=0.05)

    def test_dimension_mismatch(self):
        with pytest.raises(ts.DimensionError):
            ts.evaluate_energy(np.zeros(3), np.eye(2))

    def test_indefinite_gram_rejected(self):
        with pytest.raises(ts.ValidationError, match="positive definite"):
            ts.evaluate_energy(np.ones(2), np.diag([1.0, -1.0]))

    def test_non_finite_gram_rejected(self):
        with pytest.raises(ts.ValidationError, match="gram has non-finite entries"):
            ts.evaluate_energy(np.ones(2), np.array([[1.0, np.nan], [np.nan, 1.0]]))


class TestConditionEq1:
    GRID = np.linspace(0.0, 1.0, 101)

    def test_accepts_reference_multiplier(self, desk_params):
        cert = ts.check_condition_eq1(desk_params, lambda x: 2 * x, 0.25, 0.4, self.GRID)
        assert cert.holds
        assert cert.margin == pytest.approx(-0.1, abs=1e-10)
        # first expression is identically -0.5, second identically -2.25
        assert np.allclose(cert.expr_density, -0.5, atol=1e-9)
        assert np.allclose(cert.expr_rigidity, -2.25, atol=1e-9)

    def test_rejects_zero_multiplier(self, desk_params):
        cert = ts.check_condition_eq1(desk_params, lambda x: 0.0, 0.25, 0.4, self.GRID)
        assert not cert.holds
        assert cert.margin > 0

    def test_rejects_too_large_delta(self, desk_params):
        cert = ts.check_condition_eq1(desk_params, lambda x: 2 * x, 0.25, 0.6, self.GRID)
        assert not cert.holds
        assert cert.margin == pytest.approx(0.1, abs=1e-10)

    def test_coarse_grid_rejected(self, desk_params):
        with pytest.raises(ts.ValidationError, match="grid"):
            ts.check_condition_eq1(
                desk_params, lambda x: 2 * x, 0.25, 0.4, np.linspace(0, 1, 7)
            )

    def test_nonvanishing_zeta_at_origin_rejected(self, desk_params):
        with pytest.raises(ts.ValidationError, match="zeta"):
            ts.check_condition_eq1(
                desk_params, lambda x: 1.0 + x, 0.25, 0.4, self.GRID
            )


def mp_resonance_ratio(k: int) -> float:
    """Extended-precision oracle for the resonance ratio."""
    with mpmath.workdps(60):
        x = k * mpmath.pi
        value = mpmath.sinh(x) / (x**3 * (mpmath.cosh(x) - (-1) ** k))
        return float(value)


class TestConditionCond:
    def test_matches_extended_precision_oracle(self):
        for k in (1, 2, 3, 7, 20, 50):
            assert ts.resonance_ratio(k) == pytest.approx(
                mp_resonance_ratio(k), rel=1e-13
            )

    def test_unit_parameters_have_no_violation(self):
        assert ts.check_condition_cond(1.0, 1.0, 1.0, 20, 1e-9) == []
        assert ts.resonance_ratio(1) == pytest.approx(0.0296, abs=5e-5)

    def test_constructed_violation_detected(self):
        target = mp_resonance_ratio(3)
        assert ts.check_condition_cond(target, 1.0, 1.0, 10, 1e-12) == [3]

    def test_large_ratio_clears_all_k(self):
        assert ts.check_condition_cond(1e6, 1.0, 1.0, 30, 1e-9) == []

    def test_ratio_strictly_decreasing_up_to_50(self):
        values = [ts.resonance_ratio(k) for k in range(1, 51)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_parameter_validation(self):
        with pytest.raises(ts.ValidationError):
            ts.check_condition_cond(1.0, 1.0, 1.0, 0, 1e-9)
        with pytest.raises(ts.ValidationError):
            ts.check_condition_cond(-1.0, 1.0, 1.0, 5, 1e-9)


class TestCoefficientSpecs:
    def test_constant_affine_exp(self):
        const = ts.coefficient_from_spec({"kind": "constant", "value": 2.5})
        affine = ts.coefficient_from_spec({"kind": "affine", "intercept": 1.0, "slope": -0.5})
        expo = ts.coefficient_from_spec({"kind": "exp", "scale": 2.0, "rate": 0.3})
        assert const(0.7) == 2.5
        assert affine(0.5) == pytest.approx(0.75)
        assert expo(1.0) == pytest.approx(2.0 * math.exp(0.3))

    def test_bare_number(self):
        assert ts.coefficient_from_spec(3.0)(0.1) == 3.0

    def test_csv_table(self, tmp_path):
        xs = np.linspace(0, 1, 40)
        path = tmp_path / "rho.csv"
        path.write_text("\n".join(f"{x},{1.0 + x}" for x in xs) + "\n")
        fn = ts.coefficient_from_spec({"kind": "csv", "path": str(path)}, n_elements=8)
        assert fn(0.5) == pytest.approx(1.5, abs=1e-12)

    def test_csv_too_few_samples_rejected(self, tmp_path):
        path = tmp_path / "rho.csv"
        path.write_text("0.0,1.0\n1.0,2.0\n")
        with pytest.raises(ts.ValidationError, match="samples"):
            ts.coefficient_from_spec({"kind": "csv", "path": str(path)}, n_elements=8)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ts.ValidationError, match="kind"):
            ts.coefficient_from_spec({"kind": "spline"})

    def test_infinite_sample_rejected_with_location(self):
        rho = ts.coefficient_from_spec({"kind": "exp", "scale": 1e308, "rate": 5.0})
        params = ts.BeamParameters(rho=rho, EI=1.0, m=1.0, J=1.0)
        with pytest.raises(ts.ValidationError, match=r"rho\(0\.\d+\) = inf"):
            ts.build_beam_matrices(params, 8)


@settings(max_examples=20, deadline=None)
@given(
    c0=st.floats(1.0, 3.0),
    c1=st.floats(-0.4, 0.4),
    c2=st.floats(-0.3, 0.3),
    ne=st.integers(2, 12),
)
def test_polynomial_coefficients_yield_spd_matrices(c0, c1, c2, ne):
    """Any positive quadratic density/rigidity gives SPD assembled forms."""
    coeff = lambda x: c0 + c1 * x + c2 * x**2
    params = ts.BeamParameters(rho=coeff, EI=coeff, m=1.0, J=1.0)
    beam = ts.build_beam_matrices(params, ne)
    assert sla.eigvalsh(beam.K)[0] > 0
    assert sla.eigvalsh(beam.Mrho)[0] > 0
