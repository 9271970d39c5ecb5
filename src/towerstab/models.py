"""Assembly of the closed-loop tower generators and their closed forms.

Every model starts from the same lossless beam core: the first-order
system on (q, v) with Gram blkdiag(K, M) where M is the beam mass matrix
with the nacelle mass and inertia added on the tip degrees of freedom.
Tip values are genuine degrees of freedom, so the core is closed in one of
two power-preserving ways, each written once and in flux form only:
static collocated feedback (combined, torque, force and the
generator-torque loop of hydraulic_feedback) subtracts ``k g g^T`` from
the flux, and the mass damper and the hydraulic transmission are passive
blocks coupled to the core's tip port by
:func:`~towerstab.passive_core.couple_systems`, which lifts the
dissipation channels every block declares onto the generator.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields
from typing import Callable, Mapping, Sequence

import numpy as np

from .beam_fem import BeamMatrices, BeamParameters
from .errors import SpectrumHit, ValidationError
from .generator import DampingChannel, DiscreteGenerator
from .passive_core import PassiveSystem, _resolvent_apply, couple_systems
from .spectral import _as_grid

MODEL_KINDS = ("combined", "torque", "force", "tmd", "hydraulic", "hydraulic_feedback")


@dataclass(frozen=True)
class TmdParameters:
    """Mass, spring constant and damping coefficient of the nacelle damper."""

    m1: float
    k1: float
    d1: float

    def __post_init__(self):
        for name in ("m1", "k1", "d1"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"{name} must be strictly positive")


@dataclass(frozen=True)
class HydraulicParameters:
    """Pump, line and motor constants of the hydrostatic transmission.

    ``kleak`` is the total leakage (pump plus motor).  Displacements must be
    strictly positive; damping and leakage coefficients are nonnegative.
    """

    Dp: float
    Dm: float
    Bp: float = 0.0
    Bm: float = 0.0
    kleak: float = 0.0
    beta: float = 1.0
    V: float = 1.0
    JT: float = 1.0
    JG: float = 1.0

    def __post_init__(self):
        for name in ("Dp", "Dm", "beta", "V", "JT", "JG"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"{name} must be strictly positive")
        for name in ("Bp", "Bm", "kleak"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be nonnegative")


def _beam_core(
    beam: BeamMatrices, params: BeamParameters
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Gram, flux and tip unit vectors of the lossless beam on (q, v).

    The Gram is blkdiag(K, M_full), where ``M_full`` is the beam mass matrix
    with the nacelle mass and inertia added on the tip degrees of freedom;
    the flux holds the skew pair ``+-K`` once, so its symmetric part is
    exactly zero.  The third item maps the labels ``tip_velocity`` and
    ``tip_angular_velocity`` to their unit state vectors.
    """
    n = beam.n_dof
    K = 0.5 * (beam.K + beam.K.T)
    M_full = 0.5 * (beam.Mrho + beam.Mrho.T)
    M_full[beam.tip_disp_index, beam.tip_disp_index] += params.m
    M_full[beam.tip_rot_index, beam.tip_rot_index] += params.J
    flux = np.zeros((2 * n, 2 * n))
    flux[:n, n:] = K
    flux[n:, :n] = -K
    gram = np.zeros((2 * n, 2 * n))
    gram[:n, :n] = K
    gram[n:, n:] = M_full
    e = np.zeros((2, 2 * n))
    e[0, n + beam.tip_disp_index] = e[1, n + beam.tip_rot_index] = 1.0
    return gram, flux, {"tip_velocity": e[0], "tip_angular_velocity": e[1]}


def _beam_labels(beam: BeamMatrices) -> list[str]:
    labels = []
    for i in range(1, beam.n_elements + 1):
        labels += [f"disp[{i}]", f"slope[{i}]"]
    for i in range(1, beam.n_elements):
        labels += [f"vel[{i}]", f"angvel[{i}]"]
    return labels + ["tip_velocity", "tip_angular_velocity"]


def _close_loops(
    gram: np.ndarray,
    flux: np.ndarray,
    labels: Sequence[str],
    channels: tuple[DampingChannel, ...],
    *loops: DampingChannel,
) -> DiscreteGenerator:
    """Close collocated static loops ``u = -k g.z``, one per ``(name, k, g)``.

    Each loop takes ``k g g^T`` off the flux and becomes the damping channel
    ``-k (g.z)^2`` of the identity, after the given ``channels``.  The
    update is made in place on ``flux``, which the caller hands over, and
    only on the support of ``g``, so it needs no dim**2 temporary.
    """
    for _, k, g in loops:
        s = np.flatnonzero(g)
        flux[np.ix_(s, s)] -= k * np.outer(g[s], g[s])
    return DiscreteGenerator(
        gram=gram, flux=flux, labels=labels, damping_channels=channels + loops
    )


def assemble_combined(
    beam: BeamMatrices, params: BeamParameters, a: float, b: float
) -> DiscreteGenerator:
    """Closed loop with static velocity/angular-velocity feedback at the tip.

    ``a`` damps the tip velocity and ``b`` the tip angular velocity; either
    may vanish (pure torque control is ``a = 0``, pure force control is
    ``b = 0``).  The dissipation identity is
    ``dE/dt = -a |v_tip|^2 - b |v'_tip|^2``.
    """
    if a < 0 or b < 0:
        raise ValidationError(f"feedback gains must be nonnegative, got a={a}, b={b}")
    gram, flux, tip = _beam_core(beam, params)
    gains = {"tip_velocity": a, "tip_angular_velocity": b}
    loops = [DampingChannel(name, k, tip[name]) for name, k in gains.items()]
    return _close_loops(gram, flux, _beam_labels(beam), (), *loops)


def assemble_tmd(
    beam: BeamMatrices, params: BeamParameters, tmd: TmdParameters
) -> DiscreteGenerator:
    """Tower with a passive mass damper in the nacelle.

    Couples the force port of the beam to :func:`tmd_block`, which appends
    the damper offset (relative to the nacelle) and the damper velocity;
    the coupling acts only through the tip velocity row and dissipates
    ``d1 |p_t - w_t(1)|^2``, the block's lifted channel.
    """
    return couple_systems(
        scole_tip_block(beam, params, "displacement"),
        tmd_block(tmd),
        labels=_beam_labels(beam) + ["tmd_offset", "tmd_velocity"],
    )


def assemble_hydraulic(
    beam: BeamMatrices, params: BeamParameters, hyd: HydraulicParameters
) -> DiscreteGenerator:
    """Tower driven through a hydrostatic transmission in the side-side plane.

    Couples the torque port of the beam to :func:`hydraulic_block`, which
    appends the shifted pump speed, shifted motor speed and line pressure.
    The energy weight on the pressure is the fluid capacitance ``V/beta``
    (the weight that makes the assembled generator dissipative for every
    admissible parameter set); the identity is
    ``dE/dt = -Bp |w'_t(1) - (Omega_p + w'_t(1))|^2 - Bm |...|^2 - kleak P^2``
    i.e. pump slip, motor speed and leakage losses, the block's lifted
    channels.
    """
    if hyd.Bp + hyd.Bm == 0:
        warnings.warn(
            "Bp + Bm = 0: assembly permitted but the stability results "
            "require at least one nonzero damping coefficient",
            stacklevel=2,
        )
    return couple_systems(
        scole_tip_block(beam, params, "rotation"),
        hydraulic_block(hyd),
        labels=_beam_labels(beam)
        + ["pump_speed_shift", "motor_speed_shift", "pressure"],
    )


def assemble_hydraulic_feedback(gen: DiscreteGenerator, k: float) -> DiscreteGenerator:
    """Close the generator-torque loop ``u = -k y`` around the hydraulic model.

    The torque acts on the tip rotation and on the shifted motor speed; in
    flux form its input map is ``g = -(e_tip_angular_velocity +
    e_motor_speed_shift)`` exactly (the inertias ``J`` and ``JG`` sit in
    ``gen.gram``).  The measurement is ``y = g.z`` and the closed loop gains
    the dissipation term ``-k |g.z|^2``.
    """
    if k < 0:
        raise ValidationError(f"feedback gain must be nonnegative, got {k}")
    g = -(gen.unit_state("tip_angular_velocity") + gen.unit_state("motor_speed_shift"))
    return _close_loops(
        gen.gram, gen.flux.copy(), gen.labels, gen.damping_channels, DampingChannel("feedback", k, g)
    )


def scole_tip_block(
    beam: BeamMatrices, params: BeamParameters, port: str
) -> PassiveSystem:
    """Conservative beam block with a collocated force or torque port.

    ``port`` selects the tip channel: "displacement" drives the tip velocity
    row (force input, velocity output), "rotation" the tip angular-velocity
    row (torque input, angular velocity output).  The input map ``gram_B``
    is the unit vector ``e`` of that row and ``C = e^T``, ``D = 0``, so the
    block is lossless: it has no dissipation channels.  It carries the
    beam's labels, so it has the beam's band order and modal form.
    """
    labels = {"displacement": "tip_velocity", "rotation": "tip_angular_velocity"}
    if port not in labels:
        raise ValidationError(f"port must be 'displacement' or 'rotation', got {port!r}")
    gram, flux, tip = _beam_core(beam, params)
    e = tip[labels[port]][:, None]
    return PassiveSystem(
        gram=gram, flux=flux, gram_B=e, C=e.T, D=np.zeros((1, 1)), labels=_beam_labels(beam)
    )


def tmd_block(tmd: TmdParameters) -> PassiveSystem:
    """Two-state mass-damper block; its one channel is ``d1 |z2 + u|^2``."""
    m1, k1, d1 = tmd.m1, tmd.k1, tmd.d1
    return PassiveSystem(
        gram=np.diag([k1, m1]),
        flux=np.array([[0.0, k1], [-k1, -d1]]),
        gram_B=np.array([[k1], [-d1]]),
        C=np.array([[k1, d1]]),
        D=np.array([[d1]]),
        channels=(DampingChannel("tmd_relative_velocity", d1, np.array([0.0, 1.0, 1.0])),),
    )


def hydraulic_block(hyd: HydraulicParameters) -> PassiveSystem:
    """Three-state transmission block (shifted speeds and pressure).

    The Gram carries the inertias ``JT``, ``JG`` and the fluid capacitance
    ``V/beta``.  The channels are ``Bp |z1 + u|^2``, ``Bm |z2 - u|^2`` and
    ``kleak |z3|^2``, signed so that coupled to the beam (``u = -w``, the
    tip angular velocity) they read ``w - z1``, ``w + z2`` and ``z3``.
    """
    Bp, Bm, Dp, Dm, k = hyd.Bp, hyd.Bm, hyd.Dp, hyd.Dm, hyd.kleak
    return PassiveSystem(
        gram=np.diag([hyd.JT, hyd.JG, hyd.V / hyd.beta]),
        flux=np.array([[-Bp, 0.0, -Dp], [0.0, -Bm, Dm], [Dp, -Dm, -k]]),
        gram_B=np.array([[-Bp], [Bm], [Dp + Dm]]),
        C=np.array([[Bp, -Bm, Dp + Dm]]),
        D=np.array([[Bm + Bp]]),
        channels=(
            DampingChannel("pump_velocity_mismatch", Bp, np.array([-1.0, 0.0, 0.0, -1.0])),
            DampingChannel("motor_velocity_sum", Bm, np.array([0.0, 1.0, 0.0, -1.0])),
            DampingChannel("pressure", k, np.array([0.0, 0.0, 1.0, 0.0])),
        ),
    )


def _nacelle_block(gram: list[float], gains: list[tuple[str, float]]) -> PassiveSystem:
    """Diagonal block ``gram x' = -diag(gains) x + u``, ``y = x``, one channel per gain."""
    p = len(gram)
    units = np.eye(2 * p)
    return PassiveSystem(
        gram=np.diag(gram),
        flux=np.diag([-k for _, k in gains]),
        gram_B=np.eye(p),
        C=np.eye(p),
        D=np.zeros((p, p)),
        channels=tuple(DampingChannel(name, k, units[j]) for j, (name, k) in enumerate(gains)),
    )


def torque_block(b: float, J: float) -> PassiveSystem:
    """Scalar nacelle block of the torque-feedback loop."""
    return _nacelle_block([J], [("tip_angular_velocity", b)])


def force_block(a: float, m: float) -> PassiveSystem:
    """Scalar nacelle block of the force-feedback loop."""
    return _nacelle_block([m], [("tip_velocity", a)])


def combined_block(a: float, b: float, m: float, J: float) -> PassiveSystem:
    """Diagonal 2x2 nacelle block of the combined force/torque loop."""
    return _nacelle_block([m, J], [("tip_velocity", a), ("tip_angular_velocity", b)])


def control_block(kind: str, params: Mapping[str, float]) -> PassiveSystem:
    """The passive block of model ``kind``, from a mapping of its parameter names."""
    blocks = {
        "combined": lambda p: combined_block(p["a"], p["b"], p["m"], p["J"]),
        "torque": lambda p: torque_block(p["b"], p["J"]),
        "force": lambda p: force_block(p["a"], p["m"]),
        "tmd": lambda p: tmd_block(TmdParameters(p["m1"], p["k1"], p["d1"])),
        "hydraulic": lambda p: hydraulic_block(_as_hydraulic(p)),
        "hydraulic_feedback": lambda p: hydraulic_block(_as_hydraulic(p)),
    }
    if kind not in blocks:
        raise ValidationError(f"unknown block kind {kind!r}")
    return blocks[kind](params)


def hydraulic_n_coefficients(hyd: HydraulicParameters) -> tuple[float, float, float]:
    """Coefficients (a2, a1, a0) of the quartic numerator polynomial in s.

    These are the printed formulas of the positivity argument; they assume
    unit fluid capacitance (beta = V).
    """
    Bp, Bm, Dp, Dm, k = hyd.Bp, hyd.Bm, hyd.Dp, hyd.Dm, hyd.kleak
    a2 = Bm + Bp
    a1 = (
        (Bm * Bp + k**2) * (Bm + Bp)
        + (Dm + Dp) ** 2 * k
        + 2.0 * (Bm * Dp - Bp * Dm) * (Dm - Dp)
    )
    a0 = (
        (Bm * Dp**2 + Bp * Dm**2) * (Dm - Dp) ** 2
        + Bm * Bp * (Bm + Bp) * k**2
        + (2.0 * Bm * Bp * (Dm**2 + Dp**2) + (Bm * Dp - Bp * Dm) ** 2) * k
    )
    return a2, a1, a0


def hydraulic_d_coefficients(
    hyd: HydraulicParameters,
) -> tuple[float, float, float, float]:
    """Coefficients (1, d4, d2, d0) of the denominator polynomial in s^2."""
    Bp, Bm, Dp, Dm, k = hyd.Bp, hyd.Bm, hyd.Dp, hyd.Dm, hyd.kleak
    d4 = Bm**2 + Bp**2 - 2.0 * Dm**2 - 2.0 * Dp**2 + k**2
    d2 = (
        Bm**2 * Bp**2
        - 2.0 * Bm**2 * Dp**2
        + Bm**2 * k**2
        + Dp**4
        - 2.0 * Bp**2 * Dm**2
        + Bp**2 * k**2
        + 2.0 * Bp * Dp**2 * k
        + Dm**4
        + 2.0 * Dm**2 * Dp**2
        + 2.0 * Bm * Dm**2 * k
    )
    d0 = (
        Bm**2 * Bp**2 * k**2
        + 2.0 * Bm**2 * Bp * Dp**2 * k
        + Bm**2 * Dp**4
        + 2.0 * Bm * Bp**2 * Dm**2 * k
        + 2.0 * Bm * Bp * Dm**2 * Dp**2
        + Bp**2 * Dm**4
    )
    return 1.0, d4, d2, d0


def hydraulic_characteristic(hyd: HydraulicParameters) -> list[float]:
    """Monic cubic ``det(lambda - A2)`` of the transmission block (beta = V)."""
    Bp, Bm, Dp, Dm, k = hyd.Bp, hyd.Bm, hyd.Dp, hyd.Dm, hyd.kleak
    return [
        1.0,
        Bm + Bp + k,
        Dm**2 + Dp**2 + Bm * k + Bp * k + Bm * Bp,
        Bp * Dm**2 + Bm * Dp**2 + Bm * Bp * k,
    ]


def closed_form_reH2(kind: str, params: Mapping[str, float], s: float) -> np.ndarray:
    """Printed closed-form Hermitian part of the nacelle-block transfer function.

    Evaluates the published expressions verbatim (including the nacelle-mass
    factor in the mass-damper denominator); they coincide with the
    state-space transfer functions at unit inertias.  Raises
    :class:`SpectrumHit` when the printed denominator vanishes.
    """
    return np.diag(_printed_reH2(kind, params)(float(s)))


def _closed_form_reH2_grid(kind: str, params: Mapping[str, float], grid: np.ndarray) -> np.ndarray:
    """:func:`closed_form_reH2` at every grid frequency, the parameters read
    once; row ``k`` holds the diagonal at ``grid[k]``."""
    diagonal = _printed_reH2(kind, params)
    return np.array([diagonal(s) for s in grid.tolist()]).reshape(grid.size, -1)


def _printed_reH2(kind: str, params: Mapping[str, float]) -> Callable[[float], tuple]:
    """The printed diagonal of ``Re H2`` as a function of a float ``s``.

    The parameter terms are computed once; each evaluation is the printed
    expression in Python floats, so that an overflow raises
    :class:`OverflowError` as it does in the formula.
    """
    if kind in ("torque", "force"):
        rate = params["b"] / params["J"] if kind == "torque" else params["a"] / params["m"]
        return lambda s: (rate / (rate**2 + s**2),)
    if kind == "combined":
        a, b, m, J = params["a"], params["b"], params["m"], params["J"]
        ra, rb = a / m, b / J
        shift, width = a * b / (m * J), (rb + ra) ** 2

        def combined(s):
            denom = (s**2 - shift) ** 2 + width * s**2
            if denom == 0.0:
                raise SpectrumHit(s, "combined closed-form denominator vanishes")
            return ra * (s**2 + rb**2) / denom, rb * (s**2 + ra**2) / denom

        return combined
    if kind == "tmd":
        m = params["m"]
        m1, k1, d1 = params["m1"], params["k1"], params["d1"]
        gain = d1 * m1**2

        def tmd(s):
            denom = m * (d1**2 * s**2 + (k1 - m1 * s**2) ** 2)
            if denom == 0.0:
                raise SpectrumHit(s, "mass-damper closed-form denominator vanishes")
            return (gain * s**4 / denom,)

        return tmd
    if kind == "hydraulic":
        hyd = _as_hydraulic(params)
        a2, a1, a0 = hydraulic_n_coefficients(hyd)
        _, d4, d2, d0 = hydraulic_d_coefficients(hyd)

        def hydraulic(s):
            n_val = a2 * s**4 + a1 * s**2 + a0
            d_val = s**6 + d4 * s**4 + d2 * s**2 + d0
            if d_val == 0.0:
                raise SpectrumHit(s, "hydraulic closed-form denominator vanishes")
            return (s**2 * n_val / d_val,)

        return hydraulic
    raise ValidationError(f"unknown closed-form kind {kind!r}")


def _reH2_block(kind: str, params: Mapping[str, float]) -> PassiveSystem:
    """The block of model ``kind`` at the printed formulas' premise: unit
    inertias and unit fluid capacitance (``JT = JG = 1``, ``beta = V = 1``)."""
    return control_block(kind, {**params, "JT": 1.0, "JG": 1.0, "beta": 1.0, "V": 1.0})


def _reH2(sys: PassiveSystem, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``Re H_jj(is)`` of a block at every grid frequency, as the sum of its
    channels' squares, with the spectrum-hit mask of the solve.

    Evaluated through the supply-rate identity: with ``x_j = (is gram -
    flux)^{-1} gram_B e_j`` the storage term vanishes on the imaginary axis,
    so ``Re H_jj = sum gain |v . (x_j, e_j)|^2`` over the block's channels,
    free of the subtractive cancellation of ``(H + H*)/2`` when ``Re H`` is
    orders of magnitude below ``|H|``.  Row ``k`` of the result holds the
    diagonal at ``grid[k]``.
    """
    X, hit = _resolvent_apply(sys.gram, sys.flux, grid, sys.gram_B)
    V = np.array([ch.vector for ch in sys.channels]).reshape(-1, sys.n + sys.p)
    gains = np.array([ch.gain for ch in sys.channels])
    projections = V[:, : sys.n] @ X + V[:, sys.n:]  # v . (x_j, e_j) for each channel, j
    return np.einsum("c,kcj->kj", gains, np.abs(projections) ** 2), hit


def _as_hydraulic(params: Mapping[str, float]) -> HydraulicParameters:
    names = (f.name for f in fields(HydraulicParameters))
    return HydraulicParameters(**{k: params[k] for k in names if k in params})


@dataclass(frozen=True)
class TransferCrossValidation:
    """Comparison of the printed closed form with the state-space values.

    ``max_rel_err`` is the worst relative deviation over the grid and
    ``observed_ratio`` the median of state-space over closed-form values
    (a ratio away from 1 exposes a constant-factor discrepancy in the
    printed formula, as with the nacelle-mass factor of the damper case).
    """

    max_rel_err: float
    observed_ratio: float
    matches: bool


def cross_validate_reH2(
    kind: str, params: Mapping[str, float], s_grid
) -> TransferCrossValidation:
    """Compare printed and state-space Hermitian parts over a frequency grid.

    The two match when their largest relative deviation is at most 1e-10.
    """
    block = _reH2_block(kind, params)
    grid = _as_grid(s_grid)
    state_space, hit = _reH2(block, grid)
    printed = _closed_form_reH2_grid(kind, params, grid)
    if hit.any():
        raise SpectrumHit(float(grid[np.argmax(hit)]))
    scale = np.abs(printed).max(axis=1)
    nonzero = scale > 0.0
    # where the printed form vanishes, the error is the state-space value itself
    errs = np.divide(
        np.abs(state_space - printed).max(axis=1), scale,
        out=np.abs(state_space).max(axis=1), where=nonzero,
    )
    ratios = np.divide(state_space, printed, out=np.full(printed.shape, np.nan), where=printed != 0)
    ratios = np.nanmedian(ratios[nonzero], axis=1)
    max_err = float(errs.max())
    return TransferCrossValidation(
        max_rel_err=max_err,
        observed_ratio=float(np.median(ratios)) if ratios.size else float("nan"),
        matches=bool(max_err <= 1e-10),
    )


@dataclass(frozen=True)
class HydraulicPositivityReport:
    """Numerator-positivity evidence for the transmission transfer function."""

    a2: float
    a1: float
    a0: float
    a2_positive: bool
    zero_a0_branch_ok: bool
    discriminant_ok: bool
    n_min: float
    n_positive: bool
    checked_frequencies: int

    @property
    def ok(self) -> bool:
        return (
            self.a2_positive
            and self.zero_a0_branch_ok
            and self.discriminant_ok
            and self.n_positive
        )


def hydraulic_positivity_check(
    hyd: HydraulicParameters, s_grid
) -> HydraulicPositivityReport:
    """Check the quartic-numerator positivity argument on a frequency grid.

    Requires ``Bp + Bm > 0``.  Verifies a2 > 0; when a0 = 0 (which forces
    Dm = Dp) that a1 >= 0; when a1 <= 0 that the discriminant
    ``a1^2 - 4 a2 a0`` is nonpositive; and that ``n(s) > 0`` at every
    nonzero grid frequency (s = 0 is excluded by definition).
    """
    if hyd.Bp + hyd.Bm <= 0:
        raise ValidationError("positivity check requires Bp + Bm > 0")
    a2, a1, a0 = hydraulic_n_coefficients(hyd)
    # All three a0 terms are products of nonnegative factors, so a0 == 0.0
    # is exact whenever it is mathematically zero.
    if a0 == 0.0:
        zero_branch = abs(hyd.Dm - hyd.Dp) < 1e-14 * max(hyd.Dm, hyd.Dp) and a1 >= 0.0
        disc_ok = True
    else:
        zero_branch = True
        scale = a1**2 + 4.0 * a2 * a0
        disc_ok = a1 > 0.0 or (a1**2 - 4.0 * a2 * a0) <= 1e-12 * scale
    s = np.asarray(s_grid, dtype=float)
    s = s[s != 0.0]
    n_vals = a2 * s**4 + a1 * s**2 + a0
    n_min = float(n_vals.min()) if n_vals.size else float("inf")
    return HydraulicPositivityReport(
        a2=a2,
        a1=a1,
        a0=a0,
        a2_positive=a2 > 0.0,
        zero_a0_branch_ok=bool(zero_branch),
        discriminant_ok=bool(disc_ok),
        n_min=n_min,
        n_positive=bool(n_vals.size == 0 or n_min > 0.0),
        checked_frequencies=int(s.size),
    )
