"""The spectrum of beam generators from their modal form, against oracles.

The modal route (:mod:`towerstab.modal`) is checked against a 40-digit
eigensolve, against the channel identity ``Re lambda |x|^2 = -sum gain
|w^T x|^2`` on dense eigenvectors, and against its own guard: a
representation that drops a term, or a generator without the beam layout,
goes to the dense route.
"""

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla

import towerstab as ts
import towerstab.cli as cli
from towerstab import generator, modal, spectral
from towerstab.generator import _energy_eigenvalues, energy_coordinates


def build(model, n_elements, **overrides):
    return cli.build_generator(
        cli.RunConfig.from_dict({"model": model, "n_elements": n_elements, **overrides})
    )


def nearest(reference, lam):
    """For each of ``lam``, the closest entry of ``reference``; asserts a one-to-one match."""
    idx = np.array([np.argmin(np.abs(reference - x)) for x in lam])
    assert np.unique(idx).size == idx.size
    return reference[idx]


class TestOracles:
    @pytest.mark.parametrize("model", ["torque", "tmd", "hydraulic"])
    def test_matches_extended_precision_eigensolve(self, model):
        """Every eigenvalue against a 40-digit eigensolve of ``gram^{-1} flux``
        built from the same double-precision arrays: real parts to 1e-6
        relative, imaginary parts to 1e-12 relative to the eigenvalue (a
        real root's imaginary part is roundoff on both sides)."""
        gen = build(model, 6)
        spectrum = spectral.energy_spectrum(gen)
        assert spectrum.route == "modal"
        with mpmath.workdps(40):
            A = mpmath.inverse(mpmath.matrix(gen.gram.tolist())) * mpmath.matrix(gen.flux.tolist())
            reference = np.array([complex(z) for z in mpmath.eig(A, left=False, right=False)])
        lam = spectrum.eigenvalues
        ref = nearest(reference, lam)
        assert np.all(np.abs(lam.real - ref.real) <= 1e-6 * np.abs(ref.real))
        assert np.all(np.abs(lam.imag - ref.imag) <= 1e-12 * np.abs(ref))

    @pytest.mark.parametrize(
        "model, n_elements",
        [(model, 64) for model in cli.MODEL_KINDS] + [("torque", 128), ("hydraulic", 128)],
    )
    def test_real_parts_obey_the_channel_identity(self, model, n_elements):
        """On the fit band, ``Re lambda`` equals ``-sum gain |w^T x|^2 / |x|^2``
        over the dense eigenvectors ``x`` of ``T`` (``w = U^{-T} v`` the
        channels in energy coordinates) to 1e-6 relative, where the dense
        eigenvalues' own real parts are off by up to ``eps |T|``."""
        gen = build(model, n_elements)
        rep = ts.eigen_report(gen)
        mu, X = sla.eig(energy_coordinates(gen).T)
        V = np.array([ch.vector for ch in gen.damping_channels]).T
        W = sla.solve_triangular(gen._factor(), V, trans="T")
        gains = np.array([ch.gain for ch in gen.damping_channels])
        channel_re = -(np.abs(W.T @ X) ** 2 * gains[:, None]).sum(axis=0) / np.linalg.norm(X, axis=0) ** 2
        lo, hi = rep.fit_band
        lam = rep.eigenvalues[(rep.eigenvalues.imag >= lo) & (rep.eigenvalues.imag <= hi)]
        idx = np.array([np.argmin(np.abs(mu - x)) for x in lam])
        assert np.unique(idx).size == idx.size
        assert np.all(np.abs(lam.real - channel_re[idx]) <= 1e-6 * np.abs(channel_re[idx]))

    def test_agrees_with_the_dense_spectrum_on_the_desk_models(self, desk_models, feedback_fixture):
        for gen in [*desk_models.values(), feedback_fixture]:
            lam = spectral.energy_spectrum(gen).eigenvalues
            dense = _energy_eigenvalues(gen)
            tol = 10 * gen.dim * np.finfo(float).eps * energy_coordinates(gen).norm_A
            assert np.abs(nearest(dense, lam) - lam).max() <= tol


class TestRoute:
    def test_beam_generators_make_no_dense_eigvals_call(self, monkeypatch):
        calls = []
        eigvals = generator.sla.eigvals
        monkeypatch.setattr(generator.sla, "eigvals", lambda *a, **k: calls.append(a) or eigvals(*a, **k))
        for model in cli.MODEL_KINDS:
            gen = build(model, 16)
            rep = ts.eigen_report(gen)
            assert ts.mesh_frequency(gen) == np.abs(rep.eigenvalues.imag).max()
            assert rep.route == "modal"
        assert calls == []

    def test_generator_without_beam_layout_takes_the_dense_route(self):
        gen = ts.couple_systems(ts.random_passive_system(3, 1, 0), ts.random_passive_system(2, 1, 1))
        rep = ts.eigen_report(gen)
        assert (rep.route, rep.trace_residual) == ("dense", None)
        assert np.array_equal(np.sort_complex(rep.eigenvalues), np.sort_complex(_energy_eigenvalues(gen)))

    def test_dropping_a_term_of_the_form_trips_the_trace_guard(self, monkeypatch):
        """A mutation of the representation: without the tip-velocity row,
        which carries the force channel, the roots are those of another
        generator, and the trace identity of the declared channels rejects
        them."""
        form = modal._modal_form
        monkeypatch.setattr(
            modal, "_modal_form", lambda gen: (f := form(gen))._replace(P=f.P[:, 1:], R=f.R[:, 1:])
        )
        gen = build("combined", 16)
        roots = modal.modal_roots(gen)
        assert not roots.accepted
        assert roots.trace_residual > gen.dim * np.finfo(float).eps
        spectrum = spectral.energy_spectrum(gen)
        assert spectrum.route == "dense"
        assert np.array_equal(spectrum.eigenvalues, _energy_eigenvalues(gen))

    def test_undamped_model_has_real_parts_exactly_zero(self):
        gen = build("combined", 64, a=0.0, b=0.0)
        rep = ts.eigen_report(gen)
        assert rep.route == "modal"
        assert rep.max_real_part == 0.0
        assert np.all(rep.eigenvalues.real == 0.0)

    @pytest.mark.parametrize("model, n_elements", [("hydraulic", 64), ("torque", 128)])
    def test_spectrum_check_passes_where_the_dense_solve_failed(self, model, n_elements):
        """The dense ``eigvals`` put max Re lambda at 0.0 (hydraulic, n=64) and
        +1.5e-10 (torque, n=128); the modal roots are strictly left."""
        runner = cli.Runner(cli.RunConfig.from_dict({"model": model, "n_elements": n_elements}))
        runner._run_check(("spectrum",), "check_spectrum")
        (result,) = runner.results
        assert result.status == "pass"
        assert result.evidence["route"] == "modal"
        assert result.evidence["max_real_part"] < 0
        assert 0.0 <= result.evidence["trace_residual"] <= runner.gen.dim * np.finfo(float).eps

    def test_spectrum_cached_once_per_generator(self):
        gen = build("tmd", 8)
        assert spectral.energy_spectrum(gen) is spectral.energy_spectrum(gen)
        assert not spectral.energy_spectrum(gen).eigenvalues.flags.writeable
