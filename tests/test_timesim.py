import ast
import os
import subprocess
import sys
from pathlib import Path

import mpmath
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
    """Select the step-free route or the banded LU loop for ``gen``."""
    if path == "loop":
        monkeypatch.setattr(timesim, "_energy_eigenbasis", lambda gen: None)
    else:
        monkeypatch.setattr(timesim, "STEP_FREE_DIM_LIMIT", gen.dim + 1)
        assert timesim._energy_eigenbasis(gen) is not None, "the guard refuses the step-free route"


def random_pair():
    """Two random passive blocks (dim 4 and 3) that both name their
    channels ``loss[0..3]``."""
    return ts.couple_systems(ts.random_passive_system(4, 2, 1), ts.random_passive_system(3, 2, 2))


def real_spectrum_generator():
    """A dim-3 generator with a symmetric negative definite flux, so that
    ``T`` is symmetric and its spectrum all real."""
    gains = (1.0, 2.0, 3.0)
    return ts.DiscreteGenerator(
        gram=np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]]),
        flux=-np.diag(gains),
        labels=["a", "b", "c"],
        damping_channels=tuple(
            ts.DampingChannel(f"e{i}", gain, np.eye(3)[i]) for i, gain in enumerate(gains)
        ),
    )


def step_free_case(name, desk_models):
    """Generator, initial state and step of a step-free comparison: the
    desk tmd and combined models (complex pairs only), the desk hydraulic
    model (one real eigenvalue, -1, whose mode is the pump and motor speed
    shifts alone, so the pump starts at unit speed shift) and
    :func:`real_spectrum_generator`."""
    if name == "real_spectrum":
        return real_spectrum_generator(), np.array([1.0, -0.5, 0.25]), 0.01
    gen = desk_models[name]
    z0 = ts.classical_initial_data(gen, "smooth_modal", k_modes=12)
    if name == "hydraulic":
        z0 = z0 + gen.unit_state("pump_speed_shift")
    return gen, z0, ts.default_timestep(gen, 12)


def loop_case(name, desk_params, desk_tmd):
    """Generator, initial state and step of a banded-loop comparison: tmd at
    16 elements, combined at 64 (dim 256) and a coupled pair of random
    blocks, whose band is full (dim 7)."""
    if name == "coupled_pair":
        gen = random_pair()
        return gen, np.random.default_rng(0).standard_normal(gen.dim), 0.01
    if name == "tmd_n16":
        gen = ts.assemble_tmd(ts.build_beam_matrices(desk_params, 16), desk_params, desk_tmd)
    else:
        gen = ts.assemble_combined(ts.build_beam_matrices(desk_params, 64), desk_params, 1.0, 1.0)
    return gen, ts.classical_initial_data(gen, "smooth_modal", k_modes=12), ts.default_timestep(gen, 12)


class TestKernel:
    @pytest.mark.parametrize("case", ["tmd", "combined", "hydraulic", "real_spectrum"])
    def test_step_free_route_matches_lu_solve_loop(self, desk_models, monkeypatch, case):
        """Both routes are midpoint maps of ``T`` up to a backward error, so
        they agree to roundoff.  E(0) is the same quadratic form.  The energy
        changes agree to the summed identity residuals (each route's energy
        change equals its dissipated energy up to dt * residual per step).
        Each step's evaluation moves the states apart by at most
        ``dim * eps * |y_0|`` (energy norm ``|y_0|**2 = 2 E(0)``), and the
        contractive maps carry that drift along, so the states and the
        channels ``v . z = (U^{-T} v) . y`` agree to ``n * dim * eps`` of
        ``|y_0|`` and of ``|U^{-T} v| |y_0|``.  The cases cover spectra of
        conjugate pairs only, of pairs and one real eigenvalue, and of real
        eigenvalues only."""
        gen, z0, dt = step_free_case(case, desk_models)
        force_path(monkeypatch, gen, "step_free")
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

    @pytest.mark.parametrize("case", ["tmd_n16", "combined_n64", "coupled_pair"])
    def test_band_loop_agrees_with_lu_solve_loop(self, desk_params, desk_tmd, monkeypatch, case):
        """Each loop's energy change equals its dissipated energy up to
        dt * (its per-step identity residual) per step, and the contractive
        midpoint map keeps the two states, hence the dissipated energies, at
        roundoff distance: the energy changes agree to the summed residuals.
        E(0) itself is a dense or a banded quadratic form, which agree to the
        dot-product rounding bound dim * eps * |z0|^T |M| |z0|.  The final
        states, the banded one put back in the generator's order, agree to
        ``sqrt(eps) |y_0|`` in the energy norm, a tolerance fixed from the
        dtype.  The coupled pair has a full band, fewer rows than scipy's
        ``dgbmv`` wrapper asks for unbordered."""
        gen, z0, dt = loop_case(case, desk_params, desk_tmd)
        force_path(monkeypatch, gen, "loop")
        n = 500
        traj = ts.simulate(gen, z0, n * dt, dt)
        energies, _, midpoints, z = reference_midpoint(gen, z0, n, dt)
        loop = ts.EnergyTrajectory(
            times=traj.times, energies=energies, channels={}, dt=dt, final_state=z0,
            midpoint_channels={name: np.array(m) for name, m in midpoints.items()},
        )
        residuals = [ts.verify_dissipation_identity(gen, t) for t in (traj, loop)]
        change_gap = np.abs((traj.energies - traj.energies[0]) - (energies - energies[0])).max()
        assert change_gap <= n * dt * sum(residuals)
        rounding = gen.dim * np.finfo(float).eps * (np.abs(z0) @ np.abs(gen.gram) @ np.abs(z0))
        assert abs(traj.energies[0] - energies[0]) <= rounding
        gap = np.sqrt(2.0 * gen.energy(traj.final_state - z))
        assert gap <= np.sqrt(np.finfo(float).eps) * np.sqrt(2.0 * energies[0])

    def test_broken_conjugate_partner_refuses_the_step_free_route(self, desk_models, monkeypatch):
        """The real route reads each conjugate pair off one of its columns,
        so an ``eig`` whose partner eigenvalue is one ulp off the conjugate
        (the pair of smallest modulus, far inside the backward-error guard)
        is refused, and the banded loop integrates."""
        gen = desk_models["tmd"]
        assert timesim._energy_eigenbasis(gen) is not None
        eig = timesim.sla.eig

        def broken(*args, **kwargs):
            lam, X = eig(*args, **kwargs)
            j = np.flatnonzero(lam.imag > 0)[np.argmin(np.abs(lam[lam.imag > 0]))]
            lam[j + 1] = complex(lam[j + 1].real, np.nextafter(lam[j + 1].imag, 0.0))
            return lam, X

        monkeypatch.setattr(timesim.sla, "eig", broken)
        assert timesim._energy_eigenbasis(gen) is None
        loops = []
        band = timesim._band_operators
        monkeypatch.setattr(
            timesim, "_band_operators", lambda *args: loops.append(args) or band(*args)
        )
        z0 = ts.classical_initial_data(gen, "tip_kick")
        traj = ts.simulate(gen, z0, 0.5, 0.01)
        assert len(loops) == 1
        assert ts.verify_dissipation_identity(gen, traj) <= 1e-9 * traj.energies[0]

    def test_singular_midpoint_matrix_fails_the_factorization(self, monkeypatch):
        """A = 1 at dt = 2 makes ``M - dt/2 F`` zero."""
        gen = ts.DiscreteGenerator(flux=np.array([[1.0]]), gram=np.array([[1.0]]), labels=["x"])
        force_path(monkeypatch, gen, "loop")
        with pytest.raises(ts.NumericalError, match="^midpoint factorization failed: "):
            ts.simulate(gen, np.array([1.0]), 10.0, 2.0)

    def test_fine_mesh_loop_leaves_scipy_sparse_unloaded(self):
        """Combined at 64 elements (dim 256) skips the step-free route; the
        banded loop runs on ``scipy.linalg`` alone."""
        script = (
            "import sys; import towerstab as ts; "
            "p = ts.BeamParameters(rho=1.0, EI=1.0, m=1.0, J=1.0); "
            "gen = ts.assemble_combined(ts.build_beam_matrices(p, 64), p, 1.0, 1.0); "
            "ts.simulate(gen, ts.classical_initial_data(gen, 'tip_kick'), 0.01, 1e-3); "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"
        )
        src = str(Path(timesim.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("path", ["step_free", "loop"])
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
        so the banded LU loop integrates, and its identity residual stays
        within the ``dissipation_identity`` bound."""
        beam = ts.build_beam_matrices(desk_params, 48)
        if model == "tmd":
            gen = ts.assemble_tmd(beam, desk_params, desk_tmd)
        else:
            gen = ts.assemble_combined(beam, desk_params, 1.0, 1.0)
        assert gen.dim < timesim.STEP_FREE_DIM_LIMIT
        assert timesim._energy_eigenbasis(gen) is None
        loops = []
        band = timesim._band_operators
        monkeypatch.setattr(
            timesim, "_band_operators", lambda *args: loops.append(args) or band(*args)
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

    def test_lowest_frequencies_match_inverse_iteration(self):
        """At 256 elements the solver's eigenvalue of the fundamental is
        1.3e-6 relative off; the Rayleigh quotients are within 1e-10 of
        shift-invert inverse iteration on ``K - sigma M``, whose quotient is
        taken in 40-digit arithmetic over the nonzeros of ``K`` and ``M``."""
        params = ts.BeamParameters(rho=1.0, EI=1.0, m=1.0, J=1.0)
        gen = ts.assemble_combined(ts.build_beam_matrices(params, 256), params, 1.0, 1.0)
        omega, _ = ts.beam_modes(gen)
        n = 512
        K, M = gen.gram[:n, :n], gen.gram[n:2 * n, n:2 * n]
        start = np.random.default_rng(0).standard_normal(n)
        for k in range(3):
            lu = sla.lu_factor(K - (1.0 - 1e-6) * omega[k] ** 2 * M)
            x = start
            for _ in range(4):
                x = sla.lu_solve(lu, M @ x)
                x /= np.linalg.norm(x)
            with mpmath.workdps(40):
                forms = [
                    mpmath.fsum(mpmath.mpf(A[i, j]) * mpmath.mpf(x[i]) * mpmath.mpf(x[j])
                                for i, j in zip(*np.nonzero(A)))
                    for A in (K, M)
                ]
                reference = float(mpmath.sqrt(forms[0] / forms[1]))
            assert abs(omega[k] / reference - 1.0) <= 1e-10, (k, omega[k], reference)

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

    def test_coupled_pair_records_every_channel(self):
        """Both blocks of :func:`random_pair` name their channels
        ``loss[0..3]``; the coupled generator renames the second block's, so
        all eight are recorded and the identity counts each once."""
        gen = random_pair()
        names = [ch.name for ch in gen.damping_channels]
        assert names[4:] == [f"sys2.loss[{j}]" for j in range(4)]
        traj = ts.simulate(gen, np.random.default_rng(0).standard_normal(gen.dim), 5.0, 0.01)
        assert list(traj.midpoint_channels) == names
        assert ts.verify_dissipation_identity(gen, traj) <= timesim.IDENTITY_RTOL * traj.energies[0]

    def test_duplicate_channel_names_rejected(self):
        channel = ts.DampingChannel("loss", 1.0, np.ones(1))
        with pytest.raises(ts.ValidationError, match="channel names must be unique"):
            ts.DiscreteGenerator(
                flux=np.array([[-2.0]]), gram=np.array([[1.0]]), labels=["x"],
                damping_channels=(channel, channel),
            )

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
