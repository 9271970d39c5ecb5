import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
import scipy.linalg

import towerstab as ts

DESK_SEED = 20250810


@pytest.fixture(scope="session")
def desk_params():
    return ts.BeamParameters(rho=1.0, EI=1.0, m=1.0, J=1.0)


@pytest.fixture(scope="session")
def desk_beam(desk_params):
    return ts.build_beam_matrices(desk_params, 16)


@pytest.fixture(scope="session")
def desk_hydraulic():
    return ts.HydraulicParameters(Dp=1.0, Dm=1.0, Bp=1.0, Bm=1.0)


@pytest.fixture(scope="session")
def desk_tmd():
    return ts.TmdParameters(m1=1.0, k1=1.0, d1=1.0)


@pytest.fixture(scope="session")
def desk_models(desk_beam, desk_params, desk_tmd, desk_hydraulic):
    """The damped desk fixtures keyed by model name."""
    return {
        "combined": ts.assemble_combined(desk_beam, desk_params, 1.0, 1.0),
        "torque": ts.assemble_combined(desk_beam, desk_params, 0.0, 1.0),
        "force": ts.assemble_combined(desk_beam, desk_params, 1.0, 0.0),
        "tmd": ts.assemble_tmd(desk_beam, desk_params, desk_tmd),
        "hydraulic": ts.assemble_hydraulic(desk_beam, desk_params, desk_hydraulic),
    }


@pytest.fixture(scope="session")
def feedback_fixture(desk_hydraulic):
    """Hydraulic model with distinct nacelle and generator inertias (J=2)."""
    params = ts.BeamParameters(rho=1.0, EI=1.0, m=1.0, J=2.0)
    beam = ts.build_beam_matrices(params, 16)
    base = ts.assemble_hydraulic(beam, params, desk_hydraulic)
    return ts.assemble_hydraulic_feedback(base, 1.0)


def rng(seed_offset: int = 0) -> np.random.Generator:
    return np.random.default_rng(DESK_SEED + seed_offset)


#: the factorisations and eigensolvers :func:`linalg_calls` counts, by module
COUNTED_LINALG = {
    scipy.linalg: (
        "cholesky", "cholesky_banded", "eig", "eigh", "eigvals", "eigvalsh", "svd", "svdvals",
    ),
    np.linalg: ("cholesky", "eig", "eigh", "eigvals", "eigvalsh", "svd"),
}


@pytest.fixture
def linalg_calls(monkeypatch):
    """Every call of a function of :data:`COUNTED_LINALG` made through its
    module while the test runs, in order, as ``(name, shapes)``: ``name``
    is prefixed ``np.`` for numpy's, and ``shapes`` lists the shapes of the
    array arguments (two for a generalized ``eigh``)."""
    calls = []
    for module, names in COUNTED_LINALG.items():
        prefix = "np." if module is np.linalg else ""
        for name in names:

            def counted(*args, _real=getattr(module, name), _name=prefix + name, **kwargs):
                arrays = [a for a in (*args, *kwargs.values()) if isinstance(a, np.ndarray)]
                calls.append((_name, [a.shape for a in arrays]))
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return calls


class Traced(NamedTuple):
    """Bytes traced by tracemalloc: the ``peak`` during a call, and those
    ``kept`` after it, while its result is still held."""

    peak: int
    kept: int


@pytest.fixture
def traced_peak():
    """``peak(fn)``: call ``fn()`` under tracemalloc and return the
    :class:`Traced` bytes of the call (numpy reports its array buffers to
    tracemalloc)."""

    def peak(fn) -> Traced:
        tracemalloc.start()
        try:
            result = fn()  # held, so that what it keeps is still traced
            kept, top = tracemalloc.get_traced_memory()
            del result
            return Traced(peak=top, kept=kept)
        finally:
            tracemalloc.stop()

    return peak
