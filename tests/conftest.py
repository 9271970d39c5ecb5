import numpy as np
import pytest

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
