import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

import towerstab as ts
from towerstab import cli, generator, models
from towerstab.generator import symmetric_part


def damping_form(gen):
    """The rank-structured matrix -sum gain v v^T the flux symmetric part
    must equal."""
    S = np.zeros((gen.dim, gen.dim))
    for ch in gen.damping_channels:
        S -= ch.gain * np.outer(ch.vector, ch.vector)
    return S


class TestParameters:
    def test_tmd_parameters_validated(self):
        with pytest.raises(ts.ValidationError):
            ts.TmdParameters(m1=0.0, k1=1.0, d1=1.0)
        with pytest.raises(ts.ValidationError):
            ts.TmdParameters(m1=1.0, k1=-1.0, d1=1.0)

    def test_hydraulic_parameters_validated(self):
        with pytest.raises(ts.ValidationError):
            ts.HydraulicParameters(Dp=0.0, Dm=1.0)
        with pytest.raises(ts.ValidationError):
            ts.HydraulicParameters(Dp=1.0, Dm=1.0, Bp=-0.1)
        with pytest.raises(ts.ValidationError, match="kleak"):
            ts.HydraulicParameters(Dp=1.0, Dm=1.0, kleak=-0.1)


class TestCombined:
    def test_zero_gains_give_exactly_skew_flux(self, desk_beam, desk_params):
        gen = ts.assemble_combined(desk_beam, desk_params, 0.0, 0.0)
        assert np.abs(symmetric_part(gen.flux)).max() == 0.0
        assert gen.dissipation_defect() <= 0.0

    def test_desk_fixture_strictly_stable(self, desk_models):
        rep = ts.eigen_report(desk_models["combined"])
        assert rep.max_real_part < 0

    def test_negative_gain_rejected(self, desk_beam, desk_params):
        with pytest.raises(ts.ValidationError, match="gains"):
            ts.assemble_combined(desk_beam, desk_params, -1.0, 0.0)

    def test_pure_force_and_pure_torque_loops(self, desk_beam, desk_params):
        force = ts.assemble_combined(desk_beam, desk_params, 1.0, 0.0)
        torque = ts.assemble_combined(desk_beam, desk_params, 0.0, 1.0)
        gains_f = {ch.name: ch.gain for ch in force.damping_channels}
        gains_t = {ch.name: ch.gain for ch in torque.damping_channels}
        assert gains_f == {"tip_velocity": 1.0, "tip_angular_velocity": 0.0}
        assert gains_t == {"tip_velocity": 0.0, "tip_angular_velocity": 1.0}

    def test_flux_symmetric_part_matches_damping_channels(
        self, desk_beam, desk_params
    ):
        gen = ts.assemble_combined(desk_beam, desk_params, 0.7, 1.3)
        assert np.abs(symmetric_part(gen.flux) - damping_form(gen)).max() == 0.0

    def test_dissipation_identity_on_random_states(self, desk_models):
        gen = desk_models["combined"]
        rng = np.random.default_rng(42)
        i_v = gen.index("tip_velocity")
        i_w = gen.index("tip_angular_velocity")
        for _ in range(100):
            z = rng.standard_normal(gen.dim)
            lhs = z @ gen.flux @ z
            rhs = -z[i_v] ** 2 - z[i_w] ** 2
            # evaluation roundoff of the bilinear form is eps |z|^T |F| |z|
            noise = 1e-13 * (np.abs(z) @ np.abs(gen.flux) @ np.abs(z))
            assert lhs == pytest.approx(rhs, abs=noise + 1e-12 * (1 + abs(rhs)))


class TestTmd:
    def test_small_damping_limit_approaches_skew(self, desk_beam, desk_params):
        tiny = ts.assemble_tmd(desk_beam, desk_params, ts.TmdParameters(1.0, 1.0, 1e-14))
        assert tiny.dissipation_defect() <= 1e-13

    def test_kernel_trivial_at_desk_parameters(self, desk_models):
        dim, smin = ts.kernel_check(desk_models["tmd"])
        assert dim == 0
        assert smin > 0

    def test_unit_offset_energy_is_half_spring_constant(self, desk_beam, desk_params):
        tmd = ts.TmdParameters(m1=2.0, k1=3.0, d1=1.0)
        gen = ts.assemble_tmd(desk_beam, desk_params, tmd)
        z = gen.unit_state("tmd_offset")
        assert ts.evaluate_energy(z, gen.gram) == pytest.approx(tmd.k1 / 2.0)

    def test_dissipation_identity_on_random_states(self, desk_models, desk_tmd):
        gen = desk_models["tmd"]
        rng = np.random.default_rng(43)
        i_v = gen.index("tip_velocity")
        i6 = gen.index("tmd_velocity")
        for _ in range(100):
            z = rng.standard_normal(gen.dim)
            lhs = z @ gen.flux @ z
            rhs = -desk_tmd.d1 * (z[i6] - z[i_v]) ** 2
            noise = 1e-13 * (np.abs(z) @ np.abs(gen.flux) @ np.abs(z))
            assert lhs == pytest.approx(rhs, abs=noise + 1e-12 * (1 + abs(rhs)))


class TestHydraulic:
    def test_lossless_limit_is_exactly_skew(self, desk_beam, desk_params):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            gen = ts.assemble_hydraulic(
                desk_beam, desk_params, ts.HydraulicParameters(Dp=1.0, Dm=1.0)
            )
        assert len(record) == 1
        assert "Bp + Bm" in str(record[0].message)
        assert np.abs(symmetric_part(gen.flux)).max() == 0.0

    def test_desk_fixture_invertible(self, desk_models):
        dim, smin = ts.kernel_check(desk_models["hydraulic"])
        assert dim == 0
        assert smin > 0

    def test_general_capacitance_still_dissipative(self, desk_beam, desk_params):
        """The pressure weight V/beta keeps the generator dissipative for
        every admissible parameter set, not only at beta = V."""
        hyd = ts.HydraulicParameters(
            Dp=1.3, Dm=0.7, Bp=0.5, Bm=1.1, kleak=0.2, beta=3.0, V=0.7,
            JT=2.0, JG=0.5,
        )
        gen = ts.assemble_hydraulic(desk_beam, desk_params, hyd)
        assert gen.dissipation_defect() <= 1e-13
        assert np.abs(symmetric_part(gen.flux) - damping_form(gen)).max() <= 1e-15

    def test_inertias_enter_only_the_gram(self, desk_beam, desk_params, desk_hydraulic):
        """JT and JG weight the drivetrain energy; the assembled flux does not
        depend on them and the transmission block stays passive."""
        hyd = dataclasses.replace(desk_hydraulic, JT=2.0, JG=0.5)
        gen = ts.assemble_hydraulic(desk_beam, desk_params, hyd)
        unit = ts.assemble_hydraulic(desk_beam, desk_params, desk_hydraulic)
        i5, i6 = gen.index("pump_speed_shift"), gen.index("motor_speed_shift")
        assert gen.gram[i5, i5] == 2.0
        assert gen.gram[i6, i6] == 0.5
        assert np.array_equal(gen.flux, unit.flux)
        assert ts.verify_passivity(ts.hydraulic_block(hyd)).passive

    def test_dissipation_identity_on_random_states(self, desk_models, desk_hydraulic):
        gen = desk_models["hydraulic"]
        rng = np.random.default_rng(44)
        i_w = gen.index("tip_angular_velocity")
        i5 = gen.index("pump_speed_shift")
        i6 = gen.index("motor_speed_shift")
        i7 = gen.index("pressure")
        h = desk_hydraulic
        for _ in range(100):
            z = rng.standard_normal(gen.dim)
            lhs = z @ gen.flux @ z
            rhs = (
                -h.Bp * (z[i_w] - z[i5]) ** 2
                - h.Bm * (z[i6] + z[i_w]) ** 2
                - h.kleak * z[i7] ** 2
            )
            noise = 1e-13 * (np.abs(z) @ np.abs(gen.flux) @ np.abs(z))
            assert lhs == pytest.approx(rhs, abs=noise + 1e-12 * (1 + abs(rhs)))


class TestAssembledOnce:
    """Each model builds its generator and blocks once: every Gram is
    validated once per object, with no intermediate generator."""

    @pytest.fixture
    def gram_checks(self, monkeypatch):
        calls = []
        real = generator.check_spd
        monkeypatch.setattr(
            generator,
            "check_spd",
            lambda M, name="gram": calls.append(name) or real(M, name),
        )
        return calls

    def test_combined_validates_one_gram(self, gram_checks, desk_beam, desk_params):
        ts.assemble_combined(desk_beam, desk_params, 1.0, 1.0)
        assert gram_checks == ["gram"]

    def test_tmd_validates_tip_block_damper_and_coupling(
        self, gram_checks, desk_beam, desk_params, desk_tmd
    ):
        ts.assemble_tmd(desk_beam, desk_params, desk_tmd)
        assert gram_checks == ["gram"] * 3


class TestStoredBands:
    """The Gram and the flux are stored as bands only; ``gram`` and ``flux``
    are dense read-only arrays formed from them on each read."""

    @pytest.mark.parametrize("model", cli.MODEL_KINDS)
    def test_dense_reads_are_read_only_and_not_kept(self, model):
        gen = cli.build_generator(cli.RunConfig.from_dict({"model": model, "n_elements": 4}))
        for name in ("gram", "flux"):
            dense = getattr(gen, name)
            with pytest.raises(ValueError, match="read-only"):
                dense[0, 0] = 1.0
            assert getattr(gen, name) is not dense
        assert not any(
            isinstance(a, np.ndarray) and a.size >= gen.dim**2 for a in vars(gen).values()
        )

    @pytest.mark.parametrize("labelled", [True, False], ids=["beam-layout", "identity-order"])
    def test_dense_input_reads_back_with_its_band_bytes(self, desk_models, labelled):
        """Signed zeros everywhere: the read equals the input, and inside the
        band of its nonzero entries, in the band order, it has the same
        bytes (outside it, the zeros read back as +0)."""
        base = desk_models["combined"]
        signs = np.random.default_rng(5).choice([-1.0, 1.0], size=(base.dim, base.dim))
        gram, flux = np.array(base.gram), base.flux * signs
        labels = base.labels if labelled else [f"s{i}" for i in range(base.dim)]
        gen = ts.DiscreteGenerator(gram=gram, flux=flux, labels=labels)
        order = generator._band_order(gen)
        rank = generator._rank(order)
        offset = rank[None, :] - rank[:, None]
        for read, given in ((gen.gram, gram), (gen.flux, flux)):
            assert np.array_equal(read, given)
            kl, ku = generator._bandwidths(given, order)
            inside = (offset >= -kl) & (offset <= ku)
            assert np.array_equal(read.view(np.int64)[inside], given.view(np.int64)[inside])
            assert not np.signbit(read[~inside]).any()


class TestRealGramAndFlux:
    """A generator's Gram and flux, and a block's Gram, are real: a complex
    one is rejected by name, not cast to float with its imaginary part
    dropped.  A block keeps its complex flux, ``gram_B``, ``C`` and ``D``."""

    HERMITIAN = np.array([[2.0, 1j], [-1j, 2.0]])

    @pytest.mark.parametrize("name", ["gram", "flux"])
    def test_generator_rejects_a_complex_matrix(self, name):
        arrays = {"gram": 2.0 * np.eye(2), "flux": -np.eye(2), name: self.HERMITIAN}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ts.ValidationError, match=f"{name} must be real"):
                ts.DiscreteGenerator(**arrays, labels=["a", "b"])

    def test_block_rejects_a_complex_gram(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ts.ValidationError, match="gram must be real"):
                ts.PassiveSystem(
                    gram=self.HERMITIAN, flux=-np.eye(2), gram_B=np.ones((2, 1)),
                    C=np.ones((1, 2)), D=np.zeros((1, 1)),
                )

    def test_complex_gain_block_still_builds(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            base = ts.random_passive_system(4, 1, seed=2)
            block = ts.feedback_transform(base, np.array([[1.5 + 0.7j]]), 1.5)
        assert not block.is_real()
        assert np.iscomplexobj(block.flux) and np.iscomplexobj(block.C)
        assert np.isrealobj(block.gram)


class TestHydraulicFeedback:
    def test_zero_gain_leaves_generator_unchanged(self, desk_models):
        base = desk_models["hydraulic"]
        out = ts.assemble_hydraulic_feedback(base, 0.0)
        assert np.allclose(out.A, base.A)
        assert np.allclose(out.flux, base.flux)

    def test_distinct_inertias_strictly_stable(self, feedback_fixture):
        rep = ts.eigen_report(feedback_fixture)
        assert rep.max_real_part < 0

    def test_equal_inertias_still_assemble(self, desk_beam, desk_params, desk_hydraulic):
        base = ts.assemble_hydraulic(desk_beam, desk_params, desk_hydraulic)
        out = ts.assemble_hydraulic_feedback(base, 1.0)
        assert out.dissipation_defect() <= 1e-10
        rep = ts.eigen_report(out)
        # stability is left to the eigensolve; with Bm > 0 the desk fixture
        # is damped either way, feedback or not
        assert rep.max_real_part < 0

    def test_feedback_channel_is_exact_unit_pair(self, feedback_fixture):
        """The loop's input map is -(e_tip_angular_velocity + e_motor_speed_shift)
        exactly, with no mass-solve roundoff fill."""
        g = feedback_fixture.damping_channels[-1].vector
        nonzero = np.flatnonzero(g)
        assert sorted(nonzero) == sorted(
            feedback_fixture.index(label)
            for label in ("tip_angular_velocity", "motor_speed_shift")
        )
        assert np.all(g[nonzero] == -1.0)

    def test_feedback_adds_quadratic_damping_channel(self, feedback_fixture):
        names = [ch.name for ch in feedback_fixture.damping_channels]
        assert names[-1] == "feedback"
        ch = feedback_fixture.damping_channels[-1]
        S = symmetric_part(feedback_fixture.flux) - damping_form(feedback_fixture)
        assert np.abs(S).max() <= 1e-12
        # measurement combines tip angular velocity and motor speed shift
        i_w = feedback_fixture.index("tip_angular_velocity")
        i6 = feedback_fixture.index("motor_speed_shift")
        assert ch.vector[i_w] == pytest.approx(-1.0, abs=1e-10)
        assert ch.vector[i6] == pytest.approx(-1.0, abs=1e-12)


def printed_reH2(kind, p, s):
    """The published ``Re H2`` diagonal, each expression written as printed."""
    if kind == "torque":
        return [(p["b"] / p["J"]) / ((p["b"] / p["J"]) ** 2 + s**2)]
    if kind == "force":
        return [(p["a"] / p["m"]) / ((p["a"] / p["m"]) ** 2 + s**2)]
    if kind == "combined":
        a, b, m, J = p["a"], p["b"], p["m"], p["J"]
        denom = (s**2 - a * b / (m * J)) ** 2 + (b / J + a / m) ** 2 * s**2
        return [a / m * (s**2 + (b / J) ** 2) / denom, b / J * (s**2 + (a / m) ** 2) / denom]
    if kind == "tmd":
        m, m1, k1, d1 = p["m"], p["m1"], p["k1"], p["d1"]
        return [d1 * m1**2 * s**4 / (m * (d1**2 * s**2 + (k1 - m1 * s**2) ** 2))]
    hyd = ts.HydraulicParameters(**{k: p[k] for k in ("Dp", "Dm", "Bp", "Bm", "kleak")})
    a2, a1, a0 = ts.hydraulic_n_coefficients(hyd)
    _, d4, d2, d0 = ts.hydraulic_d_coefficients(hyd)
    return [s**2 * (a2 * s**4 + a1 * s**2 + a0) / (s**6 + d4 * s**4 + d2 * s**2 + d0)]


class TestClosedForms:
    def test_torque_value(self):
        assert ts.closed_form_reH2("torque", {"b": 1.0, "J": 1.0}, 1.0)[0, 0] == (
            pytest.approx(0.5)
        )

    def test_hydraulic_leading_coefficient_is_total_damping(self, desk_hydraulic):
        a2, _, _ = ts.hydraulic_n_coefficients(desk_hydraulic)
        assert a2 == desk_hydraulic.Bm + desk_hydraulic.Bp

    @pytest.mark.parametrize("kind", ["torque", "force", "combined", "tmd", "hydraulic"])
    def test_grid_form_equals_the_scalar_calls_bit_for_bit(self, kind):
        """The grid form and the scalar calls both equal the printed
        expressions evaluated term by term in Python floats, bit for bit."""
        params = {"a": 1.5, "b": 0.5, "m": 2.0, "J": 3.0, "m1": 0.7, "k1": 1.3, "d1": 0.4,
                  "Dp": 1.0, "Dm": 0.5, "Bp": 0.3, "Bm": 2.0, "kleak": 0.1}
        grid = np.geomspace(0.01, 100.0, 400)
        printed = np.array([printed_reH2(kind, params, float(s)) for s in grid])
        scalar = np.array([np.diag(ts.closed_form_reH2(kind, params, s)) for s in grid])
        assert np.array_equal(models._closed_form_reH2_grid(kind, params, grid), printed)
        assert np.array_equal(scalar, printed)

    @pytest.mark.parametrize("kind", ["torque", "force", "combined", "tmd", "hydraulic"])
    def test_state_space_matches_printed_form_at_desk(self, kind, desk_hydraulic):
        params = (
            dataclasses.asdict(desk_hydraulic)
            if kind == "hydraulic"
            else {"a": 1.0, "b": 1.0, "m": 1.0, "J": 1.0, "m1": 1.0, "k1": 1.0, "d1": 1.0}
        )
        cv = ts.cross_validate_reH2(kind, params, np.geomspace(0.01, 100.0, 100))
        assert cv.matches, f"{kind}: max rel err {cv.max_rel_err:.2e}"
        assert cv.observed_ratio == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("capacitance", [{"beta": 2.0}, {"V": 2.0}])
    def test_hydraulic_compared_at_the_printed_premise(self, desk_hydraulic, capacitance):
        """The printed hydraulic formulas assume unit inertias and unit fluid
        capacitance; the state-space side is taken there too, whatever the
        configured ``V / beta``."""
        params = {**dataclasses.asdict(desk_hydraulic), **capacitance}
        cv = ts.cross_validate_reH2("hydraulic", params, np.geomspace(0.01, 100.0, 100))
        assert cv.matches, f"max rel err {cv.max_rel_err:.2e}"
        assert cv.observed_ratio == pytest.approx(1.0, abs=1e-10)

    def test_tmd_mass_factor_mismatch_reported(self):
        """Away from unit nacelle mass the printed damper formula carries an
        extra 1/m; the cross-validation reports the observed ratio m."""
        params = {"m": 2.0, "m1": 1.0, "k1": 1.0, "d1": 1.0}
        cv = ts.cross_validate_reH2("tmd", params, np.geomspace(0.1, 10.0, 25))
        assert not cv.matches
        assert cv.observed_ratio == pytest.approx(2.0, rel=1e-8)

    @pytest.mark.parametrize("kind", ["torque", "force", "combined", "tmd", "hydraulic"])
    def test_stacked_reH_matches_per_frequency_solves(self, kind):
        """``Re H`` of the grid solve on the transfer check's 400-point grid
        equals a per-frequency ``sla.solve`` of the same block, summed
        channel by channel, within the rounding bound of that sum.

        Each side's channel projection ``v . (x_j, e_j)`` carries a relative
        error of ``(n + p) eps cond`` (the solve, then a dot product of
        length ``n + p``); squaring doubles it, and the gain and the sum add
        one ``eps``.  Against ``sum gain (|v| . |(x_j, e_j)|)^2``, two sides
        therefore differ by at most ``4 (n + p + 1) eps cond``.  That is
        below 1e-13 relative except where a channel cancels: hydraulic at
        s = 0.0107, where ``Re H`` = 6.6e-9 and both sides differ by 7.7e-12
        relative.
        """
        block = models._reH2_block(kind, cli.RunConfig.from_dict({"model": kind}).block_parameters())
        grid = np.geomspace(0.01, 100.0, 400)
        stacked, hit = models._reH2(block, grid)
        assert not hit.any()
        bound = 4 * (block.n + block.p + 1) * np.finfo(float).eps
        for s, row in zip(grid, stacked):
            shifted = 1j * s * block.gram - block.flux
            xu = np.vstack([sla.solve(shifted, block.gram_B), np.eye(block.p)])
            expected, scale = (
                np.array([
                    sum(ch.gain * size(ch.vector, xu[:, j]) ** 2 for ch in block.channels)
                    for j in range(block.p)
                ])
                for size in (lambda v, w: abs(v @ w), lambda v, w: np.abs(v) @ np.abs(w))
            )
            tol = bound * np.linalg.cond(shifted) * scale
            assert np.all(np.abs(row - expected) <= tol), s

    def test_cross_validation_builds_its_block_once(self, monkeypatch):
        calls = []
        build = ts.models.control_block

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(ts.models, "control_block", counted)
        params = {"a": 1.0, "b": 1.0, "m": 1.0, "J": 1.0}
        cv = ts.cross_validate_reH2("combined", params, np.geomspace(0.01, 100.0, 400))
        assert cv.matches
        assert len(calls) == 1

    def test_denominator_matches_characteristic_polynomial(self):
        """Printed d(s) equals |det(is - A2)|^2 at unit fluid capacitance."""
        rng = np.random.default_rng(77)
        for _ in range(40):
            hyd = ts.HydraulicParameters(
                Dp=rng.uniform(0.1, 2.0),
                Dm=rng.uniform(0.1, 2.0),
                Bp=rng.uniform(0.0, 2.0),
                Bm=rng.uniform(0.05, 2.0),
                kleak=rng.uniform(0.0, 1.0),
            )
            _, d4, d2, d0 = ts.hydraulic_d_coefficients(hyd)
            cubic = ts.hydraulic_characteristic(hyd)
            for s in (0.2, 1.3, 5.0, 20.0):
                d_val = s**6 + d4 * s**4 + d2 * s**2 + d0
                det = np.polyval(cubic, 1j * s)
                assert d_val == pytest.approx(abs(det) ** 2, rel=1e-10)

    def test_denominator_nonzero_when_block_is_hurwitz(self):
        rng = np.random.default_rng(78)
        for _ in range(200):
            hyd = ts.HydraulicParameters(
                Dp=rng.uniform(0.1, 2.0),
                Dm=rng.uniform(0.1, 2.0),
                Bp=rng.uniform(0.0, 2.0),
                Bm=rng.uniform(0.05, 2.0),
                kleak=rng.uniform(0.0, 1.0),
            )
            assert ts.routh_hurwitz(ts.hydraulic_characteristic(hyd))
            _, d4, d2, d0 = ts.hydraulic_d_coefficients(hyd)
            for s in np.geomspace(0.05, 50.0, 12):
                assert s**6 + d4 * s**4 + d2 * s**2 + d0 > 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ts.ValidationError):
            ts.closed_form_reH2("rayleigh", {}, 1.0)


class TestHydraulicPositivity:
    def test_symmetric_desk_case_hits_zero_a0_branch(self, desk_hydraulic):
        report = ts.hydraulic_positivity_check(desk_hydraulic, np.geomspace(0.1, 50, 40))
        assert report.ok
        assert report.a1 == pytest.approx(2.0)
        assert report.a0 == 0.0
        assert report.n_min > 0

    def test_zero_frequency_excluded_by_definition(self, desk_hydraulic):
        report = ts.hydraulic_positivity_check(desk_hydraulic, [0.0, 1.0, 2.0])
        assert report.checked_frequencies == 2

    def test_requires_some_damping(self):
        hyd = ts.HydraulicParameters(Dp=1.0, Dm=1.0)
        with pytest.raises(ts.ValidationError, match="Bp \\+ Bm"):
            ts.hydraulic_positivity_check(hyd, [1.0])

    def test_monte_carlo_draws_have_no_violations(self):
        rng = np.random.default_rng(20250810)
        grid = np.geomspace(1e-3, 100.0, 50)
        for _ in range(300):
            hyd = ts.HydraulicParameters(
                Dp=rng.uniform(0.05, 3.0),
                Dm=rng.uniform(0.05, 3.0),
                Bp=rng.uniform(0.0, 3.0),
                Bm=rng.uniform(0.01, 3.0),
                kleak=rng.uniform(0.0, 2.0),
            )
            assert ts.hydraulic_positivity_check(hyd, grid).ok


@settings(max_examples=15, deadline=None)
@given(
    a=st.floats(0.0, 3.0),
    b=st.floats(0.0, 3.0),
    m=st.floats(0.2, 4.0),
    J=st.floats(0.2, 4.0),
)
def test_assembled_generators_always_dissipative(a, b, m, J):
    params = ts.BeamParameters(rho=1.0, EI=1.0, m=m, J=J)
    beam = ts.build_beam_matrices(params, 6)
    gen = ts.assemble_combined(beam, params, a, b)
    assert gen.dissipation_defect() <= 1e-10
    assert len(set(gen.labels)) == gen.dim


@pytest.mark.parametrize(
    "model", ["combined", "torque", "force", "tmd", "hydraulic", "hydraulic_feedback"]
)
def test_derived_A_reproduces_flux(model, desk_models, feedback_fixture):
    """The explicit A is gram^{-1} flux to within the normwise backward error
    of a Cholesky solve."""
    gen = feedback_fixture if model == "hydraulic_feedback" else desk_models[model]
    residual = np.linalg.norm(gen.gram @ gen.A - gen.flux, 2)
    scale = np.linalg.norm(gen.gram, 2) * np.linalg.norm(gen.A, 2)
    assert residual <= gen.dim * np.finfo(float).eps * scale


BLOCKS = {
    "tmd": lambda: ts.tmd_block(ts.TmdParameters(m1=2.5, k1=0.7, d1=0.3)),
    "hydraulic": lambda: ts.hydraulic_block(ts.HydraulicParameters(Dp=1.0, Dm=1.0, Bp=1.0, Bm=1.0)),
    "hydraulic_inertias": lambda: ts.hydraulic_block(
        ts.HydraulicParameters(Dp=1.0, Dm=1.0, Bp=1.0, Bm=1.0, JT=2.0, JG=0.5)
    ),
    "torque": lambda: ts.torque_block(1.3, 2.0),
    "force": lambda: ts.force_block(0.7, 3.0),
    "combined": lambda: ts.combined_block(0.7, 1.3, 3.0, 2.0),
}


@pytest.mark.parametrize("name", sorted(BLOCKS))
def test_block_channels_are_its_passivity_form(name):
    """sym([[flux, gram_B], [-C, -D]]) = -sum gain v v^T for every block."""
    sys = BLOCKS[name]()
    N = np.block([[sys.flux, sys.gram_B], [-sys.C, -sys.D]])
    S = np.zeros(N.shape)
    for ch in sys.channels:
        S -= ch.gain * np.outer(ch.vector, ch.vector)
    assert sys.channels
    assert np.array_equal(symmetric_part(N), S)


@pytest.mark.parametrize("name", sorted(BLOCKS) + ["tip_displacement", "tip_rotation"])
def test_derived_block_A_B_reproduce_flux(name, desk_beam, desk_params):
    """The explicit A and B are gram^{-1} flux and gram^{-1} gram_B to within
    the normwise backward error of a Cholesky solve, gamma_{3n+1} (Higham,
    Thm 10.4); the plain n eps of the generator test is below the rounding
    of the residual itself for the scalar blocks."""
    if name.startswith("tip_"):
        port = name.removeprefix("tip_")
        sys = ts.scole_tip_block(desk_beam, desk_params, port)
    else:
        sys = BLOCKS[name]()
    eps = np.finfo(float).eps
    for derived, assembled in ((sys.A, sys.flux), (sys.B, sys.gram_B)):
        residual = np.linalg.norm(sys.gram @ derived - assembled, 2)
        scale = np.linalg.norm(sys.gram, 2) * np.linalg.norm(derived, 2)
        assert residual <= (3 * sys.n + 1) * eps * scale


def test_lifted_tmd_channel_equals_relative_velocity(desk_models, desk_tmd):
    """The damper channel lifted by the coupling is tmd_velocity - tip_velocity,
    bit for bit."""
    gen = desk_models["tmd"]
    (ch,) = gen.damping_channels
    expected = gen.unit_state("tmd_velocity") - gen.unit_state("tip_velocity")
    assert ch.name == "tmd_relative_velocity"
    assert ch.gain == desk_tmd.d1
    assert ch.vector.tobytes() == expected.tobytes()


def test_lifted_hydraulic_channels_equal_the_loss_terms(desk_models, desk_hydraulic):
    """Pump slip w - pump, motor loss w + motor and leakage pressure, with w
    the tip angular velocity, bit for bit."""
    gen = desk_models["hydraulic"]
    unit = gen.unit_state
    w = unit("tip_angular_velocity")
    expected = [
        ("pump_velocity_mismatch", desk_hydraulic.Bp, w - unit("pump_speed_shift")),
        ("motor_velocity_sum", desk_hydraulic.Bm, w + unit("motor_speed_shift")),
        ("pressure", desk_hydraulic.kleak, unit("pressure")),
    ]
    assert len(gen.damping_channels) == len(expected)
    for ch, (name, gain, vector) in zip(gen.damping_channels, expected):
        assert (ch.name, ch.gain) == (name, gain)
        assert ch.vector.tobytes() == vector.tobytes()


def test_only_coupled_models_remember_their_blocks(desk_models, feedback_fixture):
    models = {**desk_models, "hydraulic_feedback": feedback_fixture}
    for name in ("combined", "torque", "force", "hydraulic_feedback"):
        assert models[name].blocks is None, name
    for name in ("tmd", "hydraulic"):
        sys1, sys2 = models[name].blocks
        assert isinstance(sys1, ts.PassiveSystem) and isinstance(sys2, ts.PassiveSystem)
        assert sys1.n + sys2.n == models[name].dim
