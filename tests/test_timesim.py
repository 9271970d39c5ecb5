import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

import towerstab as ts
from towerstab import timesim


def scalar_generator():
    return ts.DiscreteGenerator(
        flux=np.array([[-1.0]]), gram=np.array([[1.0]]), labels=["x"]
    )


def synthetic_trajectory(times, energies):
    return ts.EnergyTrajectory(
        times=np.asarray(times, dtype=float),
        energies=np.asarray(energies, dtype=float),
        channels={},
        midpoint_channels={},
        dt=float(times[1] - times[0]),
        final_state=np.zeros(1),
    )


class TestSimulate:
    def test_scalar_decay_matches_closed_form(self):
        """Midpoint with dt = 0.1 reproduces E = e^{-2t}/2 at t = 1 up to the
        scheme's phase error (analytically 1.67e-3 relative)."""
        traj = ts.simulate(scalar_generator(), np.array([1.0]), 1.0, 0.1)
        exact = np.exp(-2.0) / 2.0
        assert traj.energies[-1] == pytest.approx(exact, rel=2e-3)
        assert abs(traj.energies[-1] - exact) <= 1e-3

    def test_undamped_energy_constant_over_many_steps(self, desk_beam, desk_params):
        gen = ts.assemble_combined(desk_beam, desk_params, 0.0, 0.0)
        z0 = ts.classical_initial_data(gen, "smooth_modal", k_modes=12)
        traj = ts.simulate(gen, z0, 10.0, 1e-3)  # 10^4 steps
        drift = np.abs(traj.energies - traj.energies[0]).max() / traj.energies[0]
        assert drift <= 1e-9

    def test_undamped_identity_residual_tiny(self, desk_params):
        beam = ts.build_beam_matrices(desk_params, 4)
        gen = ts.assemble_combined(beam, desk_params, 0.0, 0.0)
        z0 = ts.classical_initial_data(gen, "smooth_modal", k_modes=6)
        traj = ts.simulate(gen, z0, 4.0, 0.02)
        assert ts.verify_dissipation_identity(gen, traj) <= 1e-12

    def test_damped_energy_strictly_decreasing(self, desk_models):
        gen = desk_models["combined"]
        z0 = ts.classical_initial_data(gen, "smooth_modal", k_modes=8)
        traj = ts.simulate(gen, z0, 5.0, 1e-3)
        assert traj.is_monotone()
        assert np.all(np.diff(traj.energies) < 0)

    def test_single_mode_matches_eigen_decomposition(self, desk_models):
        gen = desk_models["combined"]
        z0 = ts.classical_initial_data(gen, "smooth_modal", k_modes=1)
        lam, V = sla.eig(gen.A)
        coeff = sla.solve(V, z0.astype(complex))
        z_exact = np.real(V @ (coeff * np.exp(lam * 1.0)))
        traj = ts.simulate(gen, z0, 1.0, 1e-3)
        assert traj.energies[-1] == pytest.approx(gen.energy(z_exact), rel=1e-3)

    def test_states_converge_at_second_order(self, desk_models):
        # dt resolves the fastest retained mode so the error is in the
        # asymptotic O(dt^2) regime
        gen = desk_models["combined"]
        z0 = ts.classical_initial_data(gen, "smooth_modal", k_modes=3)
        z_ref = ts.simulate(gen, z0, 1.0, 1.25e-4).final_state
        errors = [
            np.linalg.norm(ts.simulate(gen, z0, 1.0, dt).final_state - z_ref)
            for dt in (2e-3, 1e-3)
        ]
        assert np.log2(errors[0] / errors[1]) >= 1.8

    def test_validation(self, desk_models):
        gen = desk_models["combined"]
        with pytest.raises(ts.ValidationError, match="dimension"):
            ts.simulate(gen, np.zeros(3), 1.0, 0.1)
        with pytest.raises(ts.ValidationError, match="dt"):
            ts.simulate(gen, np.zeros(gen.dim), 1.0, 0.0)

    def test_unallocatable_step_arrays_name_the_horizon(self):
        with pytest.raises(ts.NumericalError, match=r"T = 0\.5 at dt = 1e-200 \(5e\+199 steps\)"):
            ts.simulate(scalar_generator(), np.array([1.0]), 0.5, 1e-200)


def reference_midpoint(gen, z0, n_steps, dt):
    """The midpoint integrator as a plain loop over ``sla.lu_solve``."""
    M, F = gen.gram, gen.flux
    lhs = sla.lu_factor(M - 0.5 * dt * F)
    z = z0.copy()
    energies = [0.5 * float(z @ (M @ z))]
    channels = {ch.name: [ch.vector @ z] for ch in gen.damping_channels}
    midpoints = {ch.name: [] for ch in gen.damping_channels}
    for _ in range(n_steps):
        d = dt * sla.lu_solve(lhs, F @ z)
        z_mid = z + 0.5 * d
        z_next = z + d
        for ch in gen.damping_channels:
            midpoints[ch.name].append(ch.vector @ z_mid)
            channels[ch.name].append(ch.vector @ z_next)
        energies.append(energies[-1] + float(d @ (M @ z_mid)))
        z = z_next
    return np.array(energies), channels, midpoints, z


def force_path(monkeypatch, gen, path):
    """Select the step-free route, the dense LU loop or the sparse LU loop for ``gen``."""
    threshold = gen.dim if path == "sparse" else gen.dim + 1
    monkeypatch.setattr(timesim, "SPARSE_MIN_DIM", threshold)
    if path == "dense":
        monkeypatch.setattr(timesim, "_energy_eigenbasis", lambda gen: None)
    elif path == "step_free":
        assert timesim._energy_eigenbasis(gen) is not None, "the guard refuses the step-free route"


class TestKernel:
    def test_step_free_route_matches_lu_solve_loop(self, desk_models, monkeypatch):
        """Both routes are midpoint maps of ``T`` up to a backward error, so
        they agree to roundoff.  E(0) is the same quadratic form.  The energy
        changes agree to the summed identity residuals (each route's energy
        change equals its dissipated energy up to dt * residual per step).
        Each step's evaluation moves the states apart by at most
        ``dim * eps * |y_0|`` (energy norm ``|y_0|**2 = 2 E(0)``), and the
        contractive maps carry that drift along, so the states and the
        channels ``v . z = (U^{-T} v) . y`` agree to ``n * dim * eps`` of
        ``|y_0|`` and of ``|U^{-T} v| |y_0|``."""
        gen = desk_models["tmd"]
        force_path(monkeypatch, gen, "step_free")
        z0 = ts.classical_initial_data(gen, "smooth_modal", k_modes=12)
        dt = ts.default_timestep(gen, 12)
        n = 1000
        traj = ts.simulate(gen, z0, n * dt, dt)
        energies, channels, midpoints, z = reference_midpoint(gen, z0, n, dt)
        assert traj.energies[0] == energies[0]
        loop = ts.EnergyTrajectory(
            times=traj.times, energies=energies, channels={}, dt=dt, final_state=z,
            midpoint_channels={name: np.array(m) for name, m in midpoints.items()},
        )
        residuals = [ts.verify_dissipation_identity(gen, t) for t in (traj, loop)]
        change_gap = np.abs((traj.energies - traj.energies[0]) - (energies - energies[0])).max()
        assert change_gap <= n * dt * sum(residuals)
        drift = n * gen.dim * np.finfo(float).eps * np.sqrt(2.0 * energies[0])
        assert np.sqrt(2.0 * gen.energy(traj.final_state - z)) <= drift
        U = sla.cholesky(gen.gram)
        for ch in gen.damping_channels:
            tol = drift * np.linalg.norm(sla.solve_triangular(U, ch.vector, trans="T"))
            assert np.abs(traj.channels[ch.name] - channels[ch.name]).max() <= tol
            assert np.abs(traj.midpoint_channels[ch.name] - midpoints[ch.name]).max() <= tol

    def test_dense_path_reproduces_lu_solve_loop_bitwise(self, desk_models, monkeypatch):
        gen = desk_models["tmd"]
        force_path(monkeypatch, gen, "dense")
        z0 = ts.classical_initial_data(gen, "smooth_modal", k_modes=12)
        dt = ts.default_timestep(gen, 12)
        traj = ts.simulate(gen, z0, 300 * dt, dt)
        energies, channels, midpoints, z = reference_midpoint(gen, z0, 300, dt)
        assert np.array_equal(traj.energies, energies)
        assert np.array_equal(traj.final_state, z)
        for name in channels:
            assert np.array_equal(traj.channels[name], channels[name])
            assert np.array_equal(traj.midpoint_channels[name], midpoints[name])

    def test_sparse_path_agrees_with_dense_path(self, desk_params, monkeypatch):
        """Each path's energy change equals its dissipated energy up to
        dt * (its per-step identity residual) per step, and the contractive
        midpoint map keeps the two states, hence the dissipated energies, at
        roundoff distance: the energy changes agree to the summed residuals.
        E(0) itself is a dense or a CSR quadratic form, which agree to the
        dot-product rounding bound dim * eps * |z0|^T |M| |z0|."""
        gen = ts.assemble_combined(ts.build_beam_matrices(desk_params, 64), desk_params, 1.0, 1.0)
        z0 = ts.classical_initial_data(gen, "smooth_modal", k_modes=12)
        dt = ts.default_timestep(gen, 12)
        runs = {}
        for path in ("dense", "sparse"):
            force_path(monkeypatch, gen, path)
            runs[path] = ts.simulate(gen, z0, 500 * dt, dt)
        n_steps = runs["dense"].times.size - 1
        residuals = [ts.verify_dissipation_identity(gen, t) for t in runs.values()]
        dense, sparse = runs["dense"].energies, runs["sparse"].energies
        change_gap = np.abs((dense - dense[0]) - (sparse - sparse[0])).max()
        assert 0.0 < change_gap <= n_steps * dt * sum(residuals)
        rounding = gen.dim * np.finfo(float).eps * (np.abs(z0) @ np.abs(gen.gram) @ np.abs(z0))
        assert abs(dense[0] - sparse[0]) <= rounding

    @pytest.mark.parametrize("path", ["step_free", "dense", "sparse"])
    def test_blow_up_names_the_step(self, monkeypatch, path):
        """A = 1, dt = 6: every step maps z to -2 z exactly, so the energy
        increment 1.5 z_k^2 = 1.5 * 4^k first overflows at k = 512."""
        gen = ts.DiscreteGenerator(flux=np.array([[1.0]]), gram=np.array([[1.0]]), labels=["x"])
        force_path(monkeypatch, gen, path)
        with np.errstate(over="ignore"), pytest.raises(ts.NumericalError, match=r"step 512$"):
            ts.simulate(gen, np.array([1.0]), 6000.0, 6.0)
        with pytest.raises(ts.NumericalError, match=r"step 0$"):
            ts.simulate(gen, np.array([np.nan]), 60.0, 6.0)


class TestRouteGuard:
    @pytest.mark.parametrize("model", ["tmd", "combined"])
    def test_fine_mesh_keeps_the_lu_loop(self, desk_params, desk_tmd, monkeypatch, model):
        """At n_elements 48 (dim 194 and 192) the eigendecomposition's
        backward error bound ``4 ||sym(dT)||_2`` exceeds ``IDENTITY_RTOL / 2``,
        so the dense LU loop integrates, and its identity residual stays
        within the ``dissipation_identity`` bound."""
        beam = ts.build_beam_matrices(desk_params, 48)
        if model == "tmd":
            gen = ts.assemble_tmd(beam, desk_params, desk_tmd)
        else:
            gen = ts.assemble_combined(beam, desk_params, 1.0, 1.0)
        assert gen.dim < timesim.SPARSE_MIN_DIM
        assert timesim._energy_eigenbasis(gen) is None
        loops = []
        dense = timesim._dense_operators
        monkeypatch.setattr(
            timesim, "_dense_operators", lambda *args: loops.append(args) or dense(*args)
        )
        z0 = ts.classical_initial_data(gen, "smooth_modal", k_modes=12)
        traj = ts.simulate(gen, z0, 5.0, ts.default_timestep(gen, 12))
        assert len(loops) == 1
        assert ts.verify_dissipation_identity(gen, traj) <= 1e-9 * traj.energies[0]
        assert traj.is_monotone()


class TestInitialData:
    def test_tip_kick_energy_reads_gram_diagonal(self, desk_models):
        gen = desk_models["combined"]
        z0 = ts.classical_initial_data(gen, "tip_kick")
        i = gen.index("tip_velocity")
        assert gen.energy(z0) == pytest.approx(0.5 * gen.gram[i, i])

    def test_static_bend_energy_exact(self, desk_models):
        """Interpolated w = x^2 carries exactly int EI |w''|^2 / 2 = 2 (up to
        the quadratic-form evaluation roundoff, which scales with |K|)."""
        gen = desk_models["combined"]
        z0 = ts.classical_initial_data(gen, "static_bend")
        assert gen.energy(z0) == pytest.approx(2.0, rel=1e-10)

    def test_smooth_modal_energy_ladder(self, desk_models):
        """Unit-energy modes with 1/k^2 weights give total sum k^-4."""
        gen = desk_models["combined"]
        z0 = ts.classical_initial_data(gen, "smooth_modal", k_modes=12)
        expected = sum(1.0 / k**4 for k in range(1, 13))
        assert gen.energy(z0) == pytest.approx(expected, rel=1e-10)

    def test_too_many_modes_rejected(self, desk_models):
        gen = desk_models["combined"]
        with pytest.raises(ts.ValidationError, match="modes"):
            ts.classical_initial_data(gen, "smooth_modal", k_modes=1000)

    def test_unknown_profile_rejected(self, desk_models):
        with pytest.raises(ts.ValidationError, match="profile"):
            ts.classical_initial_data(desk_models["combined"], "plucked")

    def test_auxiliary_states_start_at_rest(self, desk_models):
        gen = desk_models["hydraulic"]
        z0 = ts.classical_initial_data(gen, "smooth_modal", k_modes=4)
        for label in ("pump_speed_shift", "motor_speed_shift", "pressure"):
            assert z0[gen.index(label)] == 0.0


class TestBeamModes:
    def test_initial_data_and_timestep_share_one_eigensolve(
        self, desk_beam, desk_params, monkeypatch
    ):
        gen = ts.assemble_combined(desk_beam, desk_params, 1.0, 1.0)
        calls = []
        eigh = timesim.sla.eigh

        def counted(*args, **kwargs):
            calls.append(args)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(timesim.sla, "eigh", counted)
        ts.classical_initial_data(gen, "smooth_modal", k_modes=12)
        ts.default_timestep(gen, 12)
        assert len(calls) == 1

    def test_modes_cached_read_only_on_the_generator(self, desk_models):
        gen = desk_models["hydraulic"]
        omega, phi = ts.beam_modes(gen)
        assert ts.beam_modes(gen) is ts.beam_modes(gen)
        assert not omega.flags.writeable and not phi.flags.writeable

    def test_beam_block_leads_every_layout(self, desk_models, feedback_fixture):
        for gen in [*desk_models.values(), feedback_fixture]:
            n = ts.beam_modes(gen)[1].shape[0]
            assert all(lab.startswith(("disp[", "slope[")) for lab in gen.labels[:n])
            velocities = ("vel[", "angvel[", "tip_velocity", "tip_angular_velocity")
            assert all(lab.startswith(velocities) for lab in gen.labels[n:2 * n])

    def test_generator_without_beam_rejected(self):
        blocks = ts.random_passive_system(3, 1, 0), ts.random_passive_system(2, 1, 1)
        gen = ts.couple_systems(*blocks)
        with pytest.raises(ts.ValidationError, match="does not carry beam blocks"):
            ts.beam_modes(gen)


def test_timesim_imports_only_errors_and_generator():
    """The integrator reads the beam block from the generator's layout, not
    from the model assembly: its package imports are ``errors`` and
    ``generator``."""
    tree = ast.parse(Path(timesim.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert {m for m in imported if m.startswith((".", "towerstab"))} == {".errors", ".generator"}


class TestDissipationIdentity:
    @pytest.mark.parametrize("model", ["combined", "tmd", "hydraulic"])
    def test_residual_below_energy_scale(self, desk_models, model):
        gen = desk_models[model]
        z0 = ts.classical_initial_data(gen, "smooth_modal", k_modes=12)
        traj = ts.simulate(gen, z0, 10.0, 1e-3)  # 10^4 steps
        residual = ts.verify_dissipation_identity(gen, traj)
        assert residual <= 1e-9 * traj.energies[0]

    def test_missing_channels_rejected(self, desk_models):
        gen = desk_models["combined"]
        traj = synthetic_trajectory([0.0, 0.1, 0.2], [1.0, 0.9, 0.8])
        with pytest.raises(ts.ValidationError, match="channels"):
            ts.verify_dissipation_identity(gen, traj)

    def test_channels_recorded_at_steps_and_midpoints(self, desk_models):
        gen = desk_models["tmd"]
        z0 = ts.classical_initial_data(gen, "tip_kick")
        traj = ts.simulate(gen, z0, 0.5, 0.01)
        assert set(traj.channels) == {"tmd_relative_velocity"}
        assert traj.channels["tmd_relative_velocity"].size == traj.times.size
        assert traj.midpoint_channels["tmd_relative_velocity"].size == traj.times.size - 1


class TestDecayFit:
    def test_exact_inverse_time_power_law(self):
        t = np.linspace(5.0, 50.0, 400)
        fit = ts.fit_decay_rate(synthetic_trajectory(t, 1.0 / t), 5.0, 50.0)
        assert fit.slope == pytest.approx(-1.0, abs=0.01)
        assert fit.power_law

    def test_exponential_flagged_as_non_power_law(self):
        t = np.linspace(5.0, 50.0, 400)
        fit = ts.fit_decay_rate(synthetic_trajectory(t, np.exp(-t)), 5.0, 50.0)
        assert fit.slope < -1.0
        assert not fit.power_law

    def test_zero_energy_window_rejected(self):
        t = np.linspace(1.0, 10.0, 50)
        e = np.concatenate([np.ones(25), np.zeros(25)])
        with pytest.raises(ts.ValidationError, match="positive"):
            ts.fit_decay_rate(synthetic_trajectory(t, e), 1.0, 10.0)

    def test_window_outside_horizon_rejected(self):
        t = np.linspace(0.1, 5.0, 50)
        with pytest.raises(ts.ValidationError, match="horizon"):
            ts.fit_decay_rate(synthetic_trajectory(t, 1.0 / t), 1.0, 10.0)
