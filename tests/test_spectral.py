import functools

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla

import towerstab as ts
import towerstab.cli as cli
from towerstab import spectral
from towerstab import generator
from towerstab import modal
from towerstab import timesim
from towerstab.generator import energy_coordinates, energy_norm, symmetric_part, transform_flux

EPS = np.finfo(float).eps

#: sigma_min tolerance of the modal Woodbury/Lanczos resolvent, in units of
#: dim * eps * (|s| + |T|).  The dense SVD is backward stable with a
#: backward error of order dim * eps * |is - T| <= dim * eps * (|s| + |T|),
#: which by Weyl's inequality moves sigma_min by as much; the bordered
#: Woodbury solve moves the shifted matrix by about as much, and the
#: Lanczos stopping rule adds at most eps * (|s| + |T|).  2 covers one such
#: error on each side.  The modal form also takes its low modes as exactly
#: K-orthogonal, which they are only to about eps omega_max^2 / gap, an
#: error that grows faster with the mesh than this tolerance: on hydraulic
#: at s in [0.1, 3] it read at most 0.18, 0.15, 0.28 and 0.69 of it at
#: n_elements 64, 128, 256 and 512, so the bound holds only up to about
#: n_elements 512.
ORACLE_C = 2.0


def desk_model(model, n_elements):
    return cli.build_generator(
        cli.RunConfig.from_dict({"model": model, "n_elements": n_elements})
    )


def sigma_min_or_hit(evaluate):
    """``1 / evaluate()``, or None where it reports a spectrum hit."""
    try:
        return 1.0 / evaluate()
    except ts.SpectrumHit:
        return None


def assert_matches_dense_svd(system, s_values):
    """``resolvent_norms`` against the dense ``_resolvent_from_shift`` oracle:
    the two sigma_min agree to ORACLE_C * dim * eps * (|s| + |T|), and where
    one side reports a spectrum hit the other lies within that tolerance
    of the hit threshold."""
    ec = energy_coordinates(system)
    norms = ts.resolvent_norms(system, s_values)
    for s, norm in zip(s_values, norms):
        scale = abs(s) + ec.norm_A
        tol = ORACLE_C * system.dim * EPS * scale
        smin = None if np.isinf(norm) else 1.0 / norm
        dense = sigma_min_or_hit(lambda: spectral._resolvent_from_shift(ec.T, s, ec.norm_A))
        if smin is None or dense is None:
            other = dense if smin is None else smin
            assert other is None or other <= spectral.SPECTRUM_HIT_FACTOR * EPS * scale + tol
        else:
            assert abs(smin - dense) <= tol, (s, smin, dense, tol)


def damped_frequencies(system):
    lam = sla.eigvals(energy_coordinates(system).T)
    return np.sort(lam.imag[lam.imag > 0])


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

    @pytest.mark.parametrize("s", [np.nan, np.inf])
    def test_non_finite_frequency_rejected_by_name(self, s):
        with pytest.raises(ts.ValidationError, match=f"frequency must be finite, got {s}"):
            ts.resolvent_norm(scalar_generator(), s)

    def test_exactly_singular_shift_is_a_hit(self):
        # is - R has an exact zero on its diagonal, which no triangular solve accepts
        with pytest.raises(ts.SpectrumHit):
            ts.resolvent_norm(scalar_generator(0.0), 0.0)

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


class TestEnergyData:
    def test_coordinates_computed_once_per_generator(self, desk_models):
        gen = desk_models["tmd"]
        assert energy_coordinates(gen) is energy_coordinates(gen)

    def test_mesh_frequency_reuses_the_spectrum(self, desk_models):
        gen = desk_models["hydraulic"]
        lam = ts.eigen_report(gen).eigenvalues
        assert ts.mesh_frequency(gen) == np.abs(lam.imag).max()

    def test_norm_is_the_cached_energy_norm(self, desk_models):
        gen = desk_models["combined"]
        assert energy_coordinates(gen).norm_A == energy_norm(gen)
        assert energy_norm(gen) is energy_norm(gen)

    def test_block_coordinates_computed_once(self, desk_hydraulic):
        block = ts.hydraulic_block(desk_hydraulic)
        assert energy_coordinates(block) is energy_coordinates(block)

    def test_block_resolvent_norm_is_the_inline_transform(self, desk_beam, desk_params):
        block = ts.feedback_transform(
            ts.scole_tip_block(desk_beam, desk_params, "rotation"), np.eye(1), 1.0
        )
        T = transform_flux(block.flux, sla.cholesky(block.gram, lower=False))
        norm_T = sla.svdvals(T)[0]
        for s in (0.5, 3.0, 40.0):
            smin = sla.svdvals(1j * s * np.eye(block.n) - T)[-1]
            tol = ORACLE_C * block.n * EPS * (s + norm_T)
            assert abs(1.0 / ts.resolvent_norm(block, s) - smin) <= tol


class TestSchurResolvent:
    @pytest.mark.parametrize("n_elements", [4, 16])
    @pytest.mark.parametrize("model", cli.MODEL_KINDS)
    def test_matches_dense_svd(self, model, n_elements):
        gen = desk_model(model, n_elements)
        s_hi = spectral.RELIABLE_BAND_FRACTION * ts.mesh_frequency(gen)
        grid = np.geomspace(0.1, s_hi, 40)
        assert_matches_dense_svd(gen, np.concatenate([grid, damped_frequencies(gen)]))

    def test_feedback_transformed_tip_blocks_match_dense_svd(self, desk_beam, desk_params):
        tip = ts.scole_tip_block(desk_beam, desk_params, "rotation")
        grid = np.geomspace(0.1, 100.0, 30)
        real_gain = ts.feedback_transform(tip, np.eye(1), 1.0)
        assert_matches_dense_svd(real_gain, np.concatenate([grid, damped_frequencies(real_gain)]))
        # a complex gain makes T complex and the resolvent uneven in s
        complex_gain = ts.feedback_transform(tip, np.array([[1.5 + 0.7j]]), 1.5)
        freqs = np.concatenate([grid, damped_frequencies(complex_gain)])
        assert_matches_dense_svd(complex_gain, np.concatenate([freqs, -freqs]))

    def test_modal_form_computed_once_per_object(self, monkeypatch):
        gen = desk_model("tmd", 4)
        builds = []
        rows = modal._remainder_rows
        monkeypatch.setattr(modal, "_remainder_rows", lambda *a: builds.append(a) or rows(*a))
        ts.scan_resolvent(gen, 0.5, 50.0, 30)
        ts.resolvent_norm(gen, 3.0)
        form = modal._modal_form(gen)
        ts.resolvent_norm(gen, 7.0)
        spectral.energy_spectrum(gen)
        assert modal._modal_form(gen) is form
        assert len(builds) == 1

    def test_reruns_are_bit_equal(self):
        first, second = desk_model("hydraulic", 16), desk_model("hydraulic", 16)
        scan = ts.scan_resolvent(first, 0.5, 200.0, 25)
        assert np.array_equal(scan.norms, ts.scan_resolvent(second, 0.5, 200.0, 25).norms)
        # the shifted diagonal written by one call does not leak into the next
        again = [ts.resolvent_norm(first, s) for s in scan.s_values[::-1]][::-1]
        assert np.array_equal(scan.norms, np.asarray(again))

    @pytest.mark.parametrize("model", ["torque", "combined"])
    def test_peaks_match_extended_precision_svd(self, model):
        """At the damped eigenfrequencies, where sigma_min is smallest and a
        dense SVD least accurate in relative terms, the resolvent norm
        agrees with a 40-digit SVD of the same double-precision T to
        ORACLE_C * dim * eps * (|s| + |T|) / sigma_min relative."""
        gen = desk_model(model, 4)
        ec = energy_coordinates(gen)
        n = gen.dim
        with mpmath.workdps(40):
            T = mpmath.matrix(ec.T.tolist())
            for s in damped_frequencies(gen):
                shifted = mpmath.mpc(0, s) * mpmath.eye(n) - T
                smin = float(min(mpmath.svd_c(shifted, compute_uv=False)))
                rel = abs(ts.resolvent_norm(gen, s) * smin - 1.0)
                assert rel <= ORACLE_C * n * EPS * (s + ec.norm_A) / smin, (s, rel)


    @pytest.mark.parametrize("model", ["hydraulic", "tmd"])
    def test_matches_dense_svd_at_n64(self, model):
        gen = cached_model(model, 64)
        grid = np.geomspace(0.1, spectral.RELIABLE_BAND_FRACTION * ts.mesh_frequency(gen), 20)
        damped = damped_frequencies(gen)
        picks = damped[np.linspace(0, damped.size - 1, 10).astype(int)]
        assert_matches_dense_svd(gen, np.concatenate([grid, picks]))

    @pytest.mark.parametrize("model", ["hydraulic", "tmd"])
    def test_matches_dense_svd_at_n256(self, model):
        """The low modes' K-orthogonality error, which the modal form takes
        as exact, grows with the mesh; at n_elements 256 the norms still
        match the oracle, worst at the low end of the grid."""
        gen = desk_model(model, 256)
        s_hi = spectral.RELIABLE_BAND_FRACTION * ts.mesh_frequency(gen)
        lam = spectral.energy_spectrum(gen).eigenvalues
        damped = np.sort(lam.imag[(lam.imag > 0) & (lam.imag < s_hi)])
        picks = damped[np.linspace(0, damped.size - 1, 6).astype(int)]
        assert_matches_dense_svd(gen, np.concatenate([np.geomspace(0.1, s_hi, 6), picks]))

    def test_exact_undamped_mode_frequency(self, desk_models, desk_beam, desk_params):
        """``s = omega_j`` of ``beam_modes`` makes ``Delta_j`` exactly 0, so
        the mode is bordered: on a damped model the norm is finite and
        matches the dense oracle, on the undamped beam it is a hit."""
        gen = desk_models["tmd"]
        omega, _ = ts.beam_modes(gen)
        picks = omega[[0, 1, 2, 5, 12]]
        assert (spectral._bordered(modal._modal_form(gen).d, np.zeros(gen.dim), picks, 1.0)
                .any(axis=1).all())
        assert np.isfinite(ts.resolvent_norms(gen, picks)).all()
        assert_matches_dense_svd(gen, picks)
        undamped = ts.assemble_combined(desk_beam, desk_params, 0.0, 0.0)
        omega, _ = ts.beam_modes(undamped)
        assert np.isinf(ts.resolvent_norms(undamped, omega[:4])).all()
        with pytest.raises(ts.SpectrumHit):
            ts.resolvent_norm(undamped, omega[0])

    def test_complex_gain_block_takes_the_dense_route(self, desk_beam, desk_params, monkeypatch):
        tip = ts.scole_tip_block(desk_beam, desk_params, "rotation")
        block = ts.feedback_transform(tip, np.array([[1.5 + 0.7j]]), 1.5)
        assert modal._modal_form(block) is None
        assert modal._modal_form(ts.feedback_transform(tip, np.eye(1), 1.0)) is not None
        monkeypatch.setattr(spectral, "_modal_norms", None)
        grid = np.geomspace(0.1, 100.0, 30)
        assert_matches_dense_svd(block, np.concatenate([grid, -grid]))

    @pytest.mark.parametrize("model", ["hydraulic", "tmd"])
    def test_scan_and_coupling_take_no_cubic_setup(self, model, monkeypatch):
        """The scan and the coupling check make no Schur factorisation
        (``zgees``) and form no dense ``T`` of a beam-sized object, and
        build the modal form of each object (the model and the
        feedback-transformed tip block) once."""
        runner = cli.Runner(cli.RunConfig.from_dict({"model": model, "n_elements": 16}))
        zgees, coordinates, builds = [], [], []
        schur = sla.lapack.zgees
        monkeypatch.setattr(sla.lapack, "zgees", lambda *a, **k: zgees.append(a) or schur(*a, **k))
        transform = spectral.energy_coordinates
        monkeypatch.setattr(
            spectral, "energy_coordinates", lambda gen: coordinates.append(gen.dim) or transform(gen)
        )
        rows = modal._remainder_rows
        monkeypatch.setattr(modal, "_remainder_rows", lambda gen, n: builds.append(gen) or rows(gen, n))
        runner.check_scan()
        runner.check_coupling()
        assert [(c.name, c.status) for c in runner.results] == [
            ("scan", "pass"), ("coupling_bound", "pass")
        ]
        assert zgees == []
        assert all(dim <= 3 for dim in coordinates)
        assert len(builds) == len({id(gen) for gen in builds}) == 2
        assert builds[0] is runner.gen

    def test_chunks_do_not_change_a_norm(self):
        gen = cached_model("hydraulic", 16)
        grid = np.geomspace(0.5, 0.5 * ts.mesh_frequency(gen), 300)
        assert grid.size > spectral.STACK_ENTRIES // gen.dim
        norms = ts.resolvent_norms(gen, grid)
        one_by_one = [ts.resolvent_norms(gen, [s])[0] for s in grid]
        assert np.array_equal(norms, one_by_one)
        assert np.array_equal(norms, ts.resolvent_norms(gen, grid[::-1])[::-1])


class TestLanczos:
    """``generator._top_eigenvalues``, the one Lanczos loop of the package."""

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_stack_rows_match_single_row_runs(self, dtype):
        """Eight Hermitian PSD operators of dim 12 with different spectra
        and tolerances: the loose rows stop within a few steps, so the
        stopped rows are dropped.  Row 5 is scaled by 1e200, so the square
        of its first step's norm is past the float range and the row is inf
        while the others finish.  Every row's theta equals its single-row
        run bit for bit, and each finite one matches the top eigenvalue
        within its tolerance, plus the roundoff ``n eps`` of either side."""
        n, rng = 12, np.random.default_rng(3)
        rtol = np.array([2 * EPS, 1e-1, 1e-8, 1e-1, 2 * EPS, 1e-3, 1e-12, 1e-1])
        scales = np.array([1.0, 3.0, 1e-5, 7.0, 1e4, 1e200, 0.5, 2.0])
        ops = []
        for k, scale in enumerate(scales):
            X = rng.standard_normal((n, n))
            if dtype is complex:
                X = X + 1j * rng.standard_normal((n, n))
            V = np.linalg.qr(X)[0]
            lam = scale * rng.uniform(0.0, 1.0, n) ** (k + 1)
            ops.append((V * lam) @ V.conj().T)
        ops = np.array(ops)
        start = generator._start(n, dtype)

        def run(rows):
            live, kept = [ops[rows]], []

            def apply(X):
                return (live[0] @ X[:, :, None])[:, :, 0]

            def keep(mask):
                kept.append(mask)
                live[0] = live[0][mask]

            tol = lambda theta, i: rtol[rows][i] * theta
            Q = np.tile(start, (len(rows), 1))
            return generator._top_eigenvalues(apply, Q, tol, keep), kept

        theta, kept = run(np.arange(len(ops)))
        assert kept, "no stopped row was dropped"
        assert np.isinf(theta).tolist() == [i == 5 for i in range(len(ops))]
        for i in range(len(ops)):
            assert np.array_equal(theta[i:i + 1], run(np.array([i]))[0]), i
            if i != 5:
                top = np.linalg.eigvalsh(ops[i])[-1]
                assert abs(theta[i] - top) <= rtol[i] * theta[i] + n * EPS * top, i


MODELS = ("combined", "torque", "force", "tmd", "hydraulic", "hydraulic_feedback")


@functools.lru_cache(maxsize=None)
def cached_model(model, n_elements):
    return desk_model(model, n_elements)


def dense_singular_values(gen):
    return sla.svdvals(transform_flux(gen.flux, sla.cholesky(gen.gram, lower=False)))


class TestBandedNorms:
    """``sigma_max(T)``, ``sigma_min(T)`` and the dissipation defect read off
    the banded Gram and flux.  A backward-stable dense SVD of ``T`` and the
    banded Lanczos each carry an error of order ``dim eps sigma_max`` in
    every singular value, ``sigma_min`` included."""

    @pytest.mark.parametrize("model", MODELS + ("sys_k",))
    def test_band_order_gives_bandwidths_five_and_seven(self, model):
        """``sys_k`` is the coupling check's feedback-transformed tip block,
        which keeps the beam labels of ``scole_tip_block``."""
        if model == "sys_k":
            tip = desk_model("tmd", 16).blocks[0]
            gen = ts.feedback_transform(tip, np.eye(1), 1.0)
        else:
            gen = desk_model(model, 16)
        order = generator._band_order(gen)
        assert generator._bandwidths(gen.gram, order) == (5, 5)
        assert generator._bandwidths(gen.flux, order) == (7, 7)

    def test_objects_without_the_beam_layout_keep_identity_order(self, desk_hydraulic):
        block = ts.hydraulic_block(desk_hydraulic)
        assert np.array_equal(generator._band_order(block), np.arange(block.dim))
        assert np.array_equal(generator._band_order(scalar_generator()), np.arange(1))

    def test_beam_label_off_a_node_boundary_rejected_on_construction(self):
        with pytest.raises(ts.ValidationError, match="tip_angular_velocity"):
            ts.DiscreteGenerator(
                gram=np.eye(3), flux=-np.eye(3), labels=["a", "b", "tip_angular_velocity"]
            )

    def test_one_banded_lu_per_midpoint_loop_and_kernel_check(self, monkeypatch):
        """The midpoint loop and the kernel check each factor one band, by
        ``_BandFactors.lu``: the loop ``gram - dt/2 flux``, the check the flux.
        Neither factors a Cholesky of the Gram: they read the band factor
        the generator kept from its construction."""
        gen = desk_model("tmd", 16)
        shapes, choleskys = [], []
        lu = generator._BandFactors.lu
        monkeypatch.setattr(
            generator._BandFactors, "lu", lambda self, ab: shapes.append(ab.shape) or lu(self, ab)
        )
        cholesky_banded = sla.cholesky_banded
        monkeypatch.setattr(
            sla, "cholesky_banded", lambda *a, **k: choleskys.append(a) or cholesky_banded(*a, **k)
        )
        monkeypatch.setattr(timesim, "_energy_eigenbasis", lambda gen: None)
        ts.simulate(gen, ts.classical_initial_data(gen, "tip_kick"), 0.05, 0.01)
        assert shapes == [(15, gen.dim)]
        assert choleskys == []
        assert ts.kernel_check(gen)[0] == 0
        assert shapes == [(15, gen.dim)] * 2
        assert choleskys == []

    @pytest.mark.parametrize("n_elements", [16, 64, 128])
    @pytest.mark.parametrize("model", MODELS)
    def test_extreme_singular_values_match_dense_svd(self, model, n_elements):
        gen = cached_model(model, n_elements)
        sv = dense_singular_values(gen)
        dimension, smin = ts.kernel_check(gen)
        tol = gen.dim * EPS * sv[0] / sv[-1]
        assert dimension == 0
        assert abs(energy_norm(gen) / sv[0] - 1.0) <= gen.dim * EPS
        assert abs(smin / sv[-1] - 1.0) <= tol, (smin, sv[-1], tol)

    @pytest.mark.parametrize("model", MODELS)
    def test_extreme_singular_values_match_extended_precision_svd(self, model):
        """Against a 40-digit Cholesky, transform and SVD of the same double
        Gram and flux, within 10 eps sigma_max / sigma_min relative."""
        gen = desk_model(model, 4)
        with mpmath.workdps(40):
            L = mpmath.cholesky(mpmath.matrix(gen.gram.tolist()))
            L_inv = mpmath.inverse(L)
            T = L_inv * mpmath.matrix(gen.flux.tolist()) * L_inv.T
            sv = sorted(float(x) for x in mpmath.svd_r(T, compute_uv=False))
        _, smin = ts.kernel_check(gen)
        assert abs(energy_norm(gen) / sv[-1] - 1.0) <= 10 * EPS
        assert abs(smin / sv[0] - 1.0) <= 10 * EPS * sv[-1] / sv[0]

    @pytest.mark.parametrize("n_elements", [128, 256])
    @pytest.mark.parametrize("model", MODELS)
    def test_energy_norm_does_not_hang_on_the_last_bit_of_its_start(
        self, model, n_elements, monkeypatch, lanczos_steps
    ):
        """The energy norm stops on a scale its Ritz residual crosses:
        moving one entry of the start vector by one ulp keeps the step
        count and ``sigma_max`` within ``dim eps``.  Under the former ``2
        eps theta`` rule the move flipped hydraulic and hydraulic_feedback
        between 176 and 96 steps at n_elements 128, and four models
        between about 176 and 330 at 256."""
        gen = desk_model(model, n_elements)
        sigma_max = energy_norm(gen)
        start = generator._start

        def moved(n, dtype):
            q = start(n, dtype)
            q[0] = np.nextafter(q[0], np.inf)
            return q / np.linalg.norm(q)

        monkeypatch.setattr(generator, "_start", moved)
        gen._norm = None
        assert abs(energy_norm(gen) / sigma_max - 1.0) <= gen.dim * EPS
        assert len(lanczos_steps) == 2 and lanczos_steps[0] == lanczos_steps[1], lanczos_steps

    def test_norm_whose_square_overflows(self):
        """At EI = 1e303 sigma_max is 2.0e154, so sigma_max^2 is past the
        float range: the operators act on T / scale, a power of two, and
        the Lanczos steps on T^H T and its inverse stay finite."""
        gen = cli.build_generator(
            cli.RunConfig.from_dict({"model": "combined", "n_elements": 4, "EI": 1e303})
        )
        sv = dense_singular_values(gen)
        assert sv[0] > np.sqrt(np.finfo(float).max)
        dimension, smin = ts.kernel_check(gen)
        assert dimension == 0
        assert abs(energy_norm(gen) / sv[0] - 1.0) <= gen.dim * EPS
        assert abs(smin / sv[-1] - 1.0) <= gen.dim * EPS * sv[0] / sv[-1]

    @pytest.mark.parametrize("size", ["random", "beam"])
    def test_energy_norm_of_a_complex_gain_block(self, desk_beam, desk_params, size):
        base = (
            ts.random_passive_system(4, 1, seed=2)
            if size == "random"
            else ts.scole_tip_block(desk_beam, desk_params, "rotation")
        )
        block = ts.feedback_transform(base, np.array([[1.5 + 0.7j]]), 1.5)
        assert np.iscomplexobj(block.flux)
        sv = dense_singular_values(block)
        assert abs(energy_norm(block) / sv[0] - 1.0) <= block.dim * EPS

    @pytest.mark.parametrize("n_elements", [16, 64])
    @pytest.mark.parametrize("model", MODELS)
    def test_dissipation_defect_matches_dense_eigvalsh(self, model, n_elements):
        gen = cached_model(model, n_elements)
        S = symmetric_part(gen.flux)
        tol = gen.dim * EPS * np.linalg.norm(S, 2)
        assert abs(gen.dissipation_defect() - sla.eigvalsh(S)[-1]) <= tol

    @pytest.mark.parametrize("model", MODELS)
    def test_kernel_and_dissipativity_checks_take_no_dense_transform(self, model, monkeypatch):
        runner = cli.Runner(cli.RunConfig.from_dict({"model": model, "n_elements": 64}))

        def refuse(*args, **kwargs):
            raise AssertionError("a dense transform or SVD ran")

        monkeypatch.setattr(generator, "transform_flux", refuse)
        monkeypatch.setattr(sla, "svdvals", refuse)
        runner.check_kernel()
        runner.check_dissipativity()
        assert [(c.name, c.status) for c in runner.results] == [
            ("kernel", "pass"), ("dissipativity", "pass")
        ]


class TestKernelCheck:
    @pytest.mark.parametrize("gain", [1.0, 1.0 + 1.0j])
    def test_band_factor_products(self, gain):
        """``U x`` and ``U^T x`` by ``?gbmv`` on the upper band of the kept
        factor match the dense factor, which squares to the permuted Gram;
        with real and, for a tip block under a complex gain, complex BLAS."""
        tip = cached_model("tmd", 16).blocks[0]
        b = generator._BandFactors(ts.feedback_transform(tip, gain * np.eye(1), 1.0))
        k, n = b.U.shape[0] - 1, b.U.shape[1]
        U = sum(np.diag(b.U[k - d, d:], d) for d in range(k + 1))
        gram = tip.gram[np.ix_(b.order, b.order)]
        assert np.allclose(U.T @ U, gram, rtol=0, atol=1e-12 * np.abs(gram).max())
        r = np.random.default_rng(0).standard_normal((2, n))
        x = r[0] + 1j * r[1] if np.iscomplexobj(b.U) else r[0]
        for trans, dense in ((0, U), (1, U.T)):
            assert np.allclose(b._times_U(x.copy(), trans=trans), dense @ x, rtol=1e-14, atol=0)

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

    def test_near_zero_mode_counted_by_the_dense_svd(self, desk_models):
        """A decoupled state damped at 1e-20: the banded LU of the flux has
        no zero pivot, but sigma_min <= KERNEL_TOL sigma_max sends the count
        to the dense SVD, which finds the one near-kernel direction."""
        base = desk_models["combined"]
        n = base.dim
        gram = np.eye(n + 1)
        gram[:n, :n] = base.gram
        flux = np.zeros((n + 1, n + 1))
        flux[:n, :n] = base.flux
        flux[n, n] = -1e-20
        gen = ts.DiscreteGenerator(gram=gram, labels=list(base.labels) + ["extra"], flux=flux)
        dim, smin = ts.kernel_check(gen)
        assert dim == 1
        assert smin <= spectral.KERNEL_TOL * energy_norm(gen)
