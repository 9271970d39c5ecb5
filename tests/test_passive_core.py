import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

import towerstab as ts
from towerstab import cli, models, passive_core, spectral
from towerstab.cli import RunConfig
from towerstab.generator import energy_coordinates
from towerstab.passive_core import _defect


def lossless_system(n=4, p=2, seed=3):
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((n, n))
    S = 0.5 * (W - W.T)
    B = rng.standard_normal((n, p))
    return ts.PassiveSystem(flux=S, gram_B=B, C=B.T, D=np.zeros((p, p)), gram=np.eye(n))


def plus_minus_i_system():
    """Lossless two-state block with eigenvalues exactly +-i."""
    return ts.PassiveSystem(
        flux=np.array([[0.0, 1.0], [-1.0, 0.0]]), gram_B=np.array([[0.0], [1.0]]),
        C=np.array([[0.0, 1.0]]), D=np.zeros((1, 1)), gram=np.eye(2),
    )


def scalar_block(flux, D=0.0):
    """One state, one port, unit Gram, ``gram_B = C = 1``."""
    return ts.PassiveSystem(
        flux=np.array([[flux]]), gram_B=np.eye(1), C=np.eye(1), D=np.array([[D]]),
        gram=np.eye(1),
    )


class TestVerifyPassivity:
    def test_torque_block_is_passive_with_quadratic_defect(self):
        sys = ts.torque_block(b=1.0, J=1.0)
        report = ts.verify_passivity(sys)
        assert report.passive
        assert report.lambda_max <= 1e-12
        # defect equals b |x|^2 for this block
        assert _defect(sys, np.array([2.0]), np.array([0.3])) == pytest.approx(4.0)

    def test_lossless_block_has_identically_zero_defect(self):
        sys = lossless_system()
        report = ts.verify_passivity(sys)
        assert report.passive
        eig = sla.eigvalsh(passive_core._passivity_form(sys))
        assert abs(eig[0]) <= 1e-12 and abs(eig[-1]) <= 1e-12
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
        report = ts.verify_passivity(sys)
        assert not report.passive
        assert report.lambda_max > 1e-3

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ts.DimensionError):
            ts.PassiveSystem(
                flux=np.eye(2), gram_B=np.ones((3, 1)), C=np.ones((1, 2)),
                D=np.zeros((1, 1)), gram=np.eye(2),
            )


CERTIFIED_BLOCKS = (
    *(f"control_{kind}" for kind in models.MODEL_KINDS),
    "tmd_tip", "tmd_tip_feedback", "hydraulic_tip", "hydraulic_tip_feedback",
    "random_5x2", "random_3x1", "random_6x3", "complex_gain_feedback",
)


@pytest.fixture(scope="module")
def certified_blocks(desk_beam, desk_params):
    blocks = {
        f"control_{kind}": models.control_block(kind, RunConfig().block_parameters())
        for kind in models.MODEL_KINDS
    }
    for model, port in (("tmd", "displacement"), ("hydraulic", "rotation")):
        tip = ts.scole_tip_block(desk_beam, desk_params, port)
        blocks[f"{model}_tip"] = tip
        blocks[f"{model}_tip_feedback"] = ts.feedback_transform(tip, np.eye(1), 1.0)
    for seed, (n, p) in enumerate(((5, 2), (3, 1), (6, 3))):
        blocks[f"random_{n}x{p}"] = ts.random_passive_system(n, p, seed=seed)
    blocks["complex_gain_feedback"] = ts.feedback_transform(
        ts.random_passive_system(4, 1, seed=2), np.array([[1.5 + 0.7j]]), 1.5
    )
    return blocks


@pytest.mark.parametrize("name", CERTIFIED_BLOCKS)
def test_certificate_is_the_minimum_defect_over_unit_pairs(certified_blocks, name):
    """``-lambda_max`` is the smallest defect of a unit pair: ``_defect`` at
    the form's top eigenvector attains it, and no random unit pair reads
    below it.  The tolerance is the rounding scale of evaluating the defect
    with the unsymmetrised block matrix ``N``, ``dim eps |N|``."""
    sys = certified_blocks[name]
    n, dim = sys.n, sys.n + sys.p
    report = ts.verify_passivity(sys)
    N = np.block([[sys.flux, sys.gram_B], [-sys.C, -sys.D]])
    tol = dim * np.finfo(float).eps * np.linalg.norm(N, 2)
    top = sla.eigh(passive_core._passivity_form(sys))[1][:, -1]
    assert _defect(sys, top[:n], top[n:]) == pytest.approx(-report.lambda_max, abs=tol)
    rng = np.random.default_rng(dim)
    for _ in range(200):
        w = rng.standard_normal(dim)
        if not sys.is_real():
            w = w + 1j * rng.standard_normal(dim)
        w /= np.linalg.norm(w)
        assert _defect(sys, w[:n], w[n:]) >= -report.lambda_max - tol


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


class TestGridSolve:
    @pytest.mark.parametrize("n", [3, 40, 100])
    def test_stacks_match_per_frequency_solves(self, n):
        """A grid on one stack (n=3), on several (40) and one frequency per
        stack (100, beam-sized) gives the per-frequency ``sla.solve``."""
        sys = ts.random_passive_system(n, 2, seed=n)
        grid = np.geomspace(0.05, 50.0, 12)
        X, hit = passive_core._resolvent_apply(sys.gram, sys.flux, grid, sys.gram_B)
        assert X.shape == (12, n, 2) and not hit.any()
        for k, s in enumerate(grid):
            expected = sla.solve(1j * s * sys.gram - sys.flux, sys.gram_B)
            assert np.abs(X[k] - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_residual_rule_flags_a_finite_inaccurate_solve(self):
        """Wilkinson's growth matrix as the shifted matrix: partial pivoting
        grows its entries by 2^59 at n = 60, so LAPACK returns a finite
        solution whose residual is 1e-2 of its scale, and only the residual
        rule flags the shift."""
        n = 60
        W = np.eye(n) - np.tril(np.ones((n, n)), -1)
        W[:, -1] = 1.0
        rhs = np.random.default_rng(0).standard_normal((n, 1))
        assert np.isfinite(np.linalg.solve(W.astype(complex), rhs)).all()
        X, hit = passive_core._resolvent_apply(np.eye(n), -W, np.array([0.0]), rhs)
        assert hit.tolist() == [True] and np.isnan(X).all()

    def test_pole_in_the_middle_of_a_stack(self, monkeypatch):
        """The +-i system on a grid with its pole in the middle: LAPACK
        rejects the whole stack, and exactly s = 1 is reported, by
        ``eta_lower_bound`` and ``check_feedback_bounds`` as excluded, by
        the stacked SVD of ``resolvent_norms`` as an infinite norm and by
        ``cross_validate_reH2`` as the frequency of its ``SpectrumHit``."""
        sys = plus_minus_i_system()
        grid = np.array([0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 2.0])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(1j * grid[:, None, None] * sys.gram - sys.flux, sys.gram_B)
        bound = ts.eta_lower_bound(sys, grid)
        assert bound.excluded == (1.0,)
        assert np.array_equal(bound.s_values, np.delete(grid, 3))
        assert np.array_equal(np.isinf(ts.resolvent_norms(sys, grid)), grid == 1.0)
        assert ts.check_feedback_bounds(sys, 1.0, grid).excluded == (1.0,)
        monkeypatch.setattr(models, "_reH2_block", lambda kind, params: sys)
        with pytest.raises(ts.SpectrumHit) as raised:
            ts.cross_validate_reH2("torque", {"b": 1.0, "J": 1.0}, grid)
        assert raised.value.s == 1.0

    @pytest.mark.parametrize(
        "grid, problem",
        [([], "empty"), ([0.5, np.nan], "non-finite"), ([np.inf, 1.0], "non-finite"),
         ([[0.5, 1.0]], "one-dimensional")],
        ids=["empty", "nan", "inf", "2d"],
    )
    def test_bad_grids_rejected_by_name(self, grid, problem):
        sys = ts.torque_block(1.0, 1.0)
        coupled = ts.couple_systems(ts.torque_block(1.0, 1.0), ts.force_block(1.0, 1.0))
        calls = (
            lambda: ts.eta_lower_bound(sys, grid),
            lambda: ts.cross_validate_reH2("torque", {"b": 1.0, "J": 1.0}, grid),
            lambda: ts.transfer_grid(sys, grid),
            lambda: ts.resolvent_norms(sys, grid),
            lambda: ts.check_coupled_resolvent_bound(coupled, np.eye(1), grid),
            lambda: ts.check_feedback_bounds(sys, 1.0, grid),
        )
        for call in calls:
            with pytest.raises(ts.ValidationError, match=problem):
                call()

    def test_nan_frequency_rejected_by_name(self):
        with pytest.raises(ts.ValidationError, match="non-finite"):
            ts.transfer_function(ts.torque_block(1.0, 1.0), np.nan)


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
            report = ts.verify_passivity(out)
            assert report.passive

    def test_resolvent_bounds_hold_on_grid(self):
        grid = np.geomspace(0.05, 50.0, 25)
        for seed in (0, 4, 17):
            sys = ts.random_passive_system(5, 2, seed=seed)
            out = ts.feedback_transform(sys, np.eye(2), 1.0)
            report = ts.check_feedback_bounds(out, 1.0, grid)
            assert report.max_violation <= 1e-10

    @pytest.mark.parametrize(
        "Q, c",
        [(np.eye(2), 1.0), (np.diag([1.5 + 0.7j, 1.2 - 0.4j]), 1.2)],
        ids=["real", "complex"],
    )
    def test_feedback_bounds_match_dense_oracles(self, monkeypatch, Q, c):
        """One stacked solve for the grid and no Schur resolvent: ``|R|``
        equals the dense-SVD reference, and ``R B``, ``C U^{-1} R`` and ``H``
        equal their products with the explicit inverse of ``is - T``."""
        out = ts.feedback_transform(ts.random_passive_system(5, 2, seed=4), Q, c)
        grid = np.geomspace(0.05, 50.0, 12)
        solves = []
        solve = passive_core._resolvent_apply

        def counted(*args):
            solves.append(args)
            return solve(*args)

        monkeypatch.setattr(passive_core, "_resolvent_apply", counted)
        monkeypatch.setattr(passive_core, "resolvent_norms", None)
        report = ts.check_feedback_bounds(out, c, grid)
        assert len(solves) == 1
        assert report.excluded == () and np.array_equal(report.s_values, grid)

        ec = energy_coordinates(out)
        U = sla.cholesky(out.gram)
        B = sla.solve_triangular(U, out.gram_B, trans="T")
        C = out.C @ np.linalg.inv(U)
        for k, s in enumerate(grid):
            R = np.linalg.inv(1j * s * np.eye(out.n) - ec.T)
            r = spectral._resolvent_from_shift(ec.T, s, ec.norm_A)
            rb, cr, h = (np.linalg.norm(X, 2) for X in (R @ B, C @ R, C @ R @ B + out.D))
            assert report.resolvent[k] == pytest.approx(r, rel=1e-10)
            for margin, expected in (
                (report.input_bound_margin[k], r / c - rb**2),
                (report.output_bound_margin[k], r / c - cr**2),
                (report.transfer_bound_margin[k], 1.0 / c - h),
            ):
                assert margin == pytest.approx(expected, rel=1e-9, abs=1e-10 * r / c)

    def test_complex_gain_supported(self):
        sys = ts.random_passive_system(4, 1, seed=2)
        Q = np.array([[1.5 + 0.7j]])
        out = ts.feedback_transform(sys, Q, 1.5)
        assert ts.verify_passivity(out).passive

    def test_active_output_fails_recertification(self):
        sys = scalar_block(flux=2.0)
        with pytest.raises(ts.NumericalError, match="lost passivity"):
            ts.feedback_transform(sys, np.array([[1.0]]), 1.0)

    def test_singular_loop_rejected(self):
        sys = scalar_block(flux=-1.0, D=-1.0)
        with pytest.raises(ts.NumericalError, match=r"I \+ DQ is near-singular"):
            ts.feedback_transform(sys, np.array([[1.0]]), 1.0)


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

    def test_active_block_rejected(self):
        with pytest.raises(ts.NumericalError, match="not Gram-dissipative"):
            ts.couple_systems(scalar_block(flux=1.0), ts.torque_block(1.0, 1.0))


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

    @pytest.mark.parametrize("model", ["tmd", "hydraulic"])
    def test_stacked_control_block_norms_match_dense_svd(self, model):
        """On the check's grid the control block's norms come from one
        stacked SVD and equal ``_resolvent_from_shift`` at every point,
        within ``n eps (|s| + |T|) / sigma_min`` relative."""
        gen = cli.build_generator(RunConfig.from_dict({"model": model}))
        sys2 = gen.blocks[1]
        grid = spectral._frequency_grid(0.5, 0.5 * ts.mesh_frequency(gen), 120, "log")
        assert grid.size * sys2.n**2 <= spectral.STACK_ENTRIES
        ec = energy_coordinates(sys2)
        norms = ts.resolvent_norms(sys2, grid)
        for s, norm in zip(grid, norms):
            dense = spectral._resolvent_from_shift(ec.T, s, ec.norm_A)
            tol = sys2.n * np.finfo(float).eps * (s + ec.norm_A) * dense
            assert abs(norm / dense - 1.0) <= tol, s

    @pytest.mark.parametrize("model", ["tmd", "hydraulic"])
    def test_schur_resolvent_twice_per_usable_frequency(self, monkeypatch, model):
        """Each usable frequency reads the coupled and the feedback-transformed
        resolvent through ``resolvent_norm``; the control block's stacked
        norms do not call it."""
        gen = cli.build_generator(RunConfig.from_dict({"model": model}))
        objects = []
        norm = spectral.resolvent_norm
        monkeypatch.setattr(
            spectral, "resolvent_norm", lambda system, s: objects.append(system) or norm(system, s)
        )
        grid = spectral._frequency_grid(0.5, 0.5 * ts.mesh_frequency(gen), 120, "log")
        report = ts.check_coupled_resolvent_bound(gen, np.eye(1), grid)
        assert report.excluded == () and report.s_values.size == 120
        assert len(objects) == 2 * 120
        assert objects.count(gen) == 120 and gen.blocks[1] not in objects

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
    assert ts.verify_passivity(sys).passive
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
