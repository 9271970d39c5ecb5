import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import towerstab as ts
from towerstab.passive_core import _defect


def lossless_system(n=4, p=2, seed=3):
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((n, n))
    S = 0.5 * (W - W.T)
    B = rng.standard_normal((n, p))
    return ts.PassiveSystem(flux=S, gram_B=B, C=B.T, D=np.zeros((p, p)), gram=np.eye(n))


class TestVerifyPassivity:
    def test_torque_block_is_passive_with_quadratic_defect(self):
        sys = ts.torque_block(b=1.0, J=1.0)
        report = ts.verify_passivity(sys, n_samples=100, seed=0)
        assert report.passive
        assert report.min_defect >= -1e-12
        # defect equals b |x|^2 for this block
        assert _defect(sys, np.array([2.0]), np.array([0.3])) == pytest.approx(4.0)

    def test_lossless_block_has_identically_zero_defect(self):
        sys = lossless_system()
        report = ts.verify_passivity(sys, n_samples=200, seed=1)
        assert report.passive
        assert abs(report.min_defect) <= 1e-12
        assert abs(report.lambda_max) <= 1e-12

    def test_hydraulic_block_defect_is_the_stated_sum_of_squares(
        self, desk_hydraulic
    ):
        sys = ts.hydraulic_block(desk_hydraulic)
        rng = np.random.default_rng(7)
        for _ in range(25):
            z = rng.standard_normal(3)
            u = rng.standard_normal(1)
            expected = (
                desk_hydraulic.Bp * (z[0] + u[0]) ** 2
                + desk_hydraulic.Bm * (z[1] - u[0]) ** 2
                + desk_hydraulic.kleak * z[2] ** 2
            )
            assert _defect(sys, z, u) == pytest.approx(expected, abs=1e-12)

    def test_non_passive_system_detected(self):
        sys = ts.PassiveSystem(
            flux=np.array([[0.1]]),
            gram_B=np.array([[1.0]]),
            C=np.array([[1.0]]),
            D=np.zeros((1, 1)),
            gram=np.eye(1),
        )
        report = ts.verify_passivity(sys, n_samples=50, seed=0)
        assert not report.passive
        assert report.min_defect < -1e-3

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ts.DimensionError):
            ts.PassiveSystem(
                flux=np.eye(2), gram_B=np.ones((3, 1)), C=np.ones((1, 2)),
                D=np.zeros((1, 1)), gram=np.eye(2),
            )


class TestTransferFunction:
    def test_torque_block_at_zero(self):
        sample = ts.transfer_function(ts.torque_block(1.0, 1.0), 0.0)
        assert sample.H[0, 0] == pytest.approx(1.0)
        assert sample.eta == pytest.approx(1.0)

    def test_combined_block_matches_printed_diagonal(self):
        sys = ts.combined_block(1.0, 1.0, 1.0, 1.0)
        sample = ts.transfer_function(sys, 1.0)
        reH = 0.5 * (sample.H + sample.H.conj().T).real
        assert reH[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert reH[1, 1] == pytest.approx(0.5, abs=1e-12)
        assert sample.eta == pytest.approx(0.5, abs=1e-12)

    def test_hydraulic_reH_approaches_total_damping(self, desk_hydraulic):
        sample = ts.transfer_function(ts.hydraulic_block(desk_hydraulic), 1e4)
        reH = 0.5 * (sample.H + sample.H.conj().T).real[0, 0]
        total = desk_hydraulic.Bp + desk_hydraulic.Bm
        assert reH == pytest.approx(total, rel=1e-3)

    def test_conjugate_symmetry_for_real_systems(self):
        sys = ts.random_passive_system(5, 2, seed=11)
        for s in (0.3, 1.7, 12.0):
            Hp = ts.transfer_function(sys, s).H
            Hm = ts.transfer_function(sys, -s).H
            assert np.allclose(Hm, Hp.conj(), atol=1e-12)

    def test_eta_below_diagonal_real_parts(self):
        sys = ts.random_passive_system(6, 3, seed=5)
        sample = ts.transfer_function(sys, 0.9)
        assert sample.eta <= np.diag(sample.H).real.min() + 1e-12

    def test_spectrum_hit_flagged(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])  # eigenvalues +-i
        sys = ts.PassiveSystem(
            flux=A, gram_B=np.array([[0.0], [1.0]]), C=np.array([[0.0, 1.0]]),
            D=np.zeros((1, 1)), gram=np.eye(2),
        )
        with pytest.raises(ts.SpectrumHit):
            ts.transfer_function(sys, 1.0)


class TestEtaLowerBound:
    def test_torque_block_fits_unit_coefficient(self):
        grid = np.geomspace(0.01, 100.0, 60)
        bound = ts.eta_lower_bound(ts.torque_block(1.0, 1.0), grid)
        assert np.allclose(bound.eta, 1.0 / (1.0 + bound.s_values**2), rtol=1e-12)
        assert bound.coefficient == pytest.approx(1.0, abs=1e-10)

    def test_tmd_block_vanishes_at_zero_frequency(self, desk_tmd):
        sample = ts.transfer_function(ts.tmd_block(desk_tmd), 0.0)
        assert abs(sample.eta) <= 1e-12

    def test_lossless_block_eta_identically_zero(self):
        bound = ts.eta_lower_bound(lossless_system(), np.linspace(0.5, 5.0, 9))
        assert np.abs(bound.eta).max() <= 1e-10
        assert abs(bound.floor) <= 1e-10

    def test_spectrum_hits_excluded_and_reported(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        sys = ts.PassiveSystem(
            flux=A, gram_B=np.array([[0.0], [1.0]]), C=np.array([[0.0, 1.0]]),
            D=np.zeros((1, 1)), gram=np.eye(2),
        )
        bound = ts.eta_lower_bound(sys, [0.5, 1.0, 2.0])
        assert bound.excluded == (1.0,)
        assert set(bound.s_values) == {0.5, 2.0}


class TestFeedbackTransform:
    def test_identity_gain_without_feedthrough_collapses(self):
        sys = lossless_system(n=5, p=2, seed=9)
        out = ts.feedback_transform(sys, np.eye(2), 1.0)
        assert np.allclose(out.A, sys.A - sys.B @ sys.C)
        assert np.allclose(out.B, sys.B)
        assert np.allclose(out.C, sys.C)
        assert np.allclose(out.D, 0.0)

    def test_scalar_torque_block_gain(self):
        out = ts.feedback_transform(ts.torque_block(2.0, 4.0), np.array([[1.0]]), 1.0)
        assert out.A[0, 0] == pytest.approx(-(2.0 + 1.0) / 4.0)

    def test_insufficient_accretivity_rejected(self):
        sys = lossless_system()
        with pytest.raises(ts.ValidationError, match="Re Q"):
            ts.feedback_transform(sys, np.diag([1.0, -0.1]), 0.5)

    def test_transformed_block_recertified_passive(self):
        for seed in range(5):
            sys = ts.random_passive_system(6, 2, seed=seed)
            out = ts.feedback_transform(sys, np.eye(2), 1.0)
            report = ts.verify_passivity(out, n_samples=50, seed=seed)
            assert report.passive

    def test_resolvent_bounds_hold_on_grid(self):
        grid = np.geomspace(0.05, 50.0, 25)
        for seed in (0, 4, 17):
            sys = ts.random_passive_system(5, 2, seed=seed)
            out = ts.feedback_transform(sys, np.eye(2), 1.0)
            report = ts.check_feedback_bounds(out, 1.0, grid)
            assert report.max_violation <= 1e-10

    def test_complex_gain_supported(self):
        sys = ts.random_passive_system(4, 1, seed=2)
        Q = np.array([[1.5 + 0.7j]])
        out = ts.feedback_transform(sys, Q, 1.5)
        assert ts.verify_passivity(out, n_samples=50, seed=0).passive


class TestCoupleSystems:
    def test_block_structure_without_feedthrough(self):
        sys1 = lossless_system(4, 1, seed=1)
        sys2 = lossless_system(3, 1, seed=2)
        gen = ts.couple_systems(sys1, sys2)
        n1 = sys1.n
        assert np.allclose(gen.A[:n1, :n1], sys1.A)
        assert np.allclose(gen.A[:n1, n1:], sys1.B @ sys2.C)
        assert np.allclose(gen.A[n1:, :n1], -sys2.B @ sys1.C)
        assert np.allclose(gen.A[n1:, n1:], sys2.A)

    def test_tmd_coupling_reproduces_direct_assembly(
        self, desk_beam, desk_params, desk_tmd
    ):
        sys1 = ts.scole_tip_block(desk_beam, desk_params, "displacement")
        sys2 = ts.tmd_block(desk_tmd)
        gen = ts.couple_systems(sys1, sys2)
        direct = ts.assemble_tmd(desk_beam, desk_params, desk_tmd)
        scale = np.abs(direct.A).max()
        assert np.abs(gen.A - direct.A).max() <= 1e-12 * scale
        assert np.abs(gen.gram - direct.gram).max() <= 1e-12

    def test_tmd_coupling_rows_match_closed_form(self, desk_beam, desk_params, desk_tmd):
        """Damper rows implement (-f3 + f6) and (d1 f3 - k1 f5 - d1 f6)/m1."""
        gen = ts.assemble_tmd(desk_beam, desk_params, desk_tmd)
        i_v = gen.index("tip_velocity")
        i5, i6 = gen.index("tmd_offset"), gen.index("tmd_velocity")
        row5 = np.zeros(gen.dim)
        row5[i_v], row5[i6] = -1.0, 1.0
        assert np.array_equal(gen.A[i5], row5)
        m1, k1, d1 = desk_tmd.m1, desk_tmd.k1, desk_tmd.d1
        row6 = np.zeros(gen.dim)
        row6[i_v], row6[i5], row6[i6] = d1 / m1, -k1 / m1, -d1 / m1
        assert np.array_equal(gen.A[i6], row6)
        # tip-velocity force row carries (-d1, k1, d1) through the mass solve
        assert gen.flux[i_v, i_v] == pytest.approx(-d1)
        assert gen.flux[i_v, i5] == pytest.approx(k1)
        assert gen.flux[i_v, i6] == pytest.approx(d1)

    def test_hydraulic_coupling_reproduces_direct_assembly(
        self, desk_beam, desk_params, desk_hydraulic
    ):
        sys1 = ts.scole_tip_block(desk_beam, desk_params, "rotation")
        sys2 = ts.hydraulic_block(desk_hydraulic)
        gen = ts.couple_systems(sys1, sys2)
        direct = ts.assemble_hydraulic(desk_beam, desk_params, desk_hydraulic)
        scale = np.abs(direct.A).max()
        assert np.abs(gen.A - direct.A).max() <= 1e-12 * scale
        assert np.abs(gen.gram - direct.gram).max() <= 1e-12

    def test_coupled_generator_certified_dissipative(self):
        sys1 = ts.random_passive_system(5, 2, seed=21)
        sys2 = ts.random_passive_system(4, 2, seed=22)
        gen = ts.couple_systems(sys1, sys2)
        assert gen.dissipation_defect() <= 1e-10


class TestRouthHurwitz:
    def test_standard_stable_quadratic(self):
        assert ts.routh_hurwitz([1.0, 1.0, 1.0])

    def test_tmd_polynomial_stable_for_positive_parameters(self, desk_tmd):
        poly = [1.0, desk_tmd.d1 / desk_tmd.m1, desk_tmd.k1 / desk_tmd.m1]
        assert ts.routh_hurwitz(poly)

    def test_unstable_cubic_detected(self):
        coeffs = [1.0, 1.0, 1.0, 2.0]
        assert not ts.routh_hurwitz(coeffs)
        roots = np.roots(coeffs)
        assert not np.all(roots.real < 0)

    def test_agrees_with_companion_roots_on_random_polynomials(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            degree = rng.integers(2, 4)
            coeffs = [1.0] + list(rng.uniform(-2.0, 3.0, degree))
            roots = np.roots(coeffs)
            # skip draws with roots too close to the axis to classify in floats
            if np.abs(roots.real).min() < 1e-9:
                continue
            assert ts.routh_hurwitz(coeffs) == bool(np.all(roots.real < 0))

    def test_rejects_invalid_polynomials(self):
        with pytest.raises(ts.ValidationError, match="monic"):
            ts.routh_hurwitz([2.0, 1.0, 1.0])
        with pytest.raises(ts.ValidationError, match="degree"):
            ts.routh_hurwitz([1.0, 1.0, 1.0, 1.0, 1.0])


class TestCoupledResolventBound:
    def test_one_dimensional_pair_ratio_bounded(self):
        sys1 = ts.torque_block(1.0, 1.0)
        sys2 = ts.PassiveSystem(
            flux=np.array([[-0.5]]), gram_B=np.array([[1.0]]), C=np.array([[1.0]]),
            D=np.zeros((1, 1)), gram=np.eye(1),
        )
        report = ts.check_coupled_resolvent_bound(
            ts.couple_systems(sys1, sys2), np.eye(1), np.geomspace(0.1, 100.0, 60)
        )
        assert len(report.excluded) == 0
        assert report.max_ratio <= 10.0

    def test_lossless_block_frequencies_excluded(self):
        sys1 = ts.torque_block(1.0, 1.0)
        sys2 = lossless_system(3, 1, seed=8)  # eta identically zero
        report = ts.check_coupled_resolvent_bound(
            ts.couple_systems(sys1, sys2), np.eye(1), np.linspace(0.5, 3.0, 6)
        )
        assert len(report.excluded) == 6
        assert report.s_values.size == 0

    def test_requires_accretive_gain(self):
        sys1 = ts.torque_block(1.0, 1.0)
        sys2 = ts.force_block(1.0, 1.0)
        with pytest.raises(ts.ValidationError, match="Re K"):
            ts.check_coupled_resolvent_bound(
                ts.couple_systems(sys1, sys2), np.array([[-1.0]]), [1.0]
            )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 7),
    p=st.integers(1, 3),
    s=st.floats(-50.0, 50.0),
)
def test_random_passive_systems_are_positive_real(seed, n, p, s):
    """lambda_min(Re H(is)) >= 0 whenever is is in the resolvent set."""
    sys = ts.random_passive_system(n, p, seed=seed)
    assert ts.verify_passivity(sys, n_samples=30, seed=seed).passive
    try:
        sample = ts.transfer_function(sys, s)
    except ts.SpectrumHit:
        return
    assert sample.eta >= -1e-10


def direct_loop_generator(sys1, sys2):
    """Explicit coupled A from solving the algebraic loop u1 = y2, u2 = -y1
    directly: [[I, -D2], [D1, I]] (u1, u2) = (C2 x2, -C1 x1)."""
    n1, n2, p = sys1.n, sys2.n, sys1.p
    K = np.block([[np.eye(p), -sys2.D], [sys1.D, np.eye(p)]])
    rhs = np.block([[np.zeros((p, n1)), sys2.C], [-sys1.C, np.zeros((p, n2))]])
    inputs = np.linalg.solve(K, rhs)
    A = np.zeros((n1 + n2, n1 + n2))
    A[:n1, :n1], A[n1:, n1:] = sys1.A, sys2.A
    A[:n1] += sys1.B @ inputs[:p]
    A[n1:] += sys2.B @ inputs[p:]
    return A


class TestCoupleSystemsFeedthrough:
    @pytest.mark.parametrize("offset", range(5))
    def test_matches_direct_loop_solve(self, offset):
        """Both blocks with p = 2 inputs and feedthrough: the x2 -> u1 term
        needs (I + D2 D1)^{-1}, not (I + D1 D2)^{-1}."""
        sys1 = ts.random_passive_system(5, 2, seed=21 + offset)
        sys2 = ts.random_passive_system(4, 2, seed=42 + offset)
        gen = ts.couple_systems(sys1, sys2)
        direct = direct_loop_generator(sys1, sys2)
        scale = np.abs(direct).max()
        assert np.abs(gen.A - direct).max() <= 1e-12 * scale

    @pytest.mark.parametrize("offset", range(5))
    def test_lifted_channels_reproduce_flux_symmetric_part(self, offset):
        """The block channels, lifted through the loop, are the coupled
        generator's dissipation identity."""
        sys1 = ts.random_passive_system(5, 2, seed=21 + offset)
        sys2 = ts.random_passive_system(4, 2, seed=42 + offset)
        gen = ts.couple_systems(sys1, sys2)
        assert len(gen.damping_channels) == len(sys1.channels) + len(sys2.channels)
        S = np.zeros((gen.dim, gen.dim))
        for ch in gen.damping_channels:
            S -= ch.gain * np.outer(ch.vector, ch.vector)
        sym = 0.5 * (gen.flux + gen.flux.T)
        assert np.abs(sym - S).max() <= 1e-12 * np.abs(gen.flux).max()
