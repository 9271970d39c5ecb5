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
:func:`~towerstab.passive_core.couple_systems`.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np
import scipy.linalg as sla

from .beam_fem import BeamMatrices, BeamParameters
from .errors import SpectrumHit, ValidationError
from .generator import DampingChannel, DiscreteGenerator
from .passive_core import PassiveSystem, couple_systems

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
    kleak_p: float = 0.0
    kleak_m: float = 0.0
    beta: float = 1.0
    V: float = 1.0
    JT: float = 1.0
    JG: float = 1.0

    def __post_init__(self):
        for name in ("Dp", "Dm", "beta", "V", "JT", "JG"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"{name} must be strictly positive")
        for name in ("Bp", "Bm", "kleak_p", "kleak_m"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be nonnegative")

    @property
    def kleak(self) -> float:
        return self.kleak_p + self.kleak_m


def _beam_core(beam: BeamMatrices, params: BeamParameters) -> DiscreteGenerator:
    """Lossless first-order beam on (q, v) with Gram blkdiag(K, M_full).

    ``M_full`` is the beam mass matrix with the nacelle mass and inertia
    added on the tip degrees of freedom; the flux holds the skew pair
    ``+-K`` once, so its symmetric part is exactly zero.
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
    return DiscreteGenerator(gram=gram, labels=_beam_labels(beam), flux=flux)


def _beam_labels(beam: BeamMatrices) -> list[str]:
    labels = []
    for i in range(1, beam.n_elements + 1):
        labels += [f"disp[{i}]", f"slope[{i}]"]
    for i in range(1, beam.n_elements):
        labels += [f"vel[{i}]", f"angvel[{i}]"]
    return labels + ["tip_velocity", "tip_angular_velocity"]


def _with_channels(
    gen: DiscreteGenerator, flux: np.ndarray, *channels: DampingChannel
) -> DiscreteGenerator:
    """``gen`` with a new flux and further damping channels appended."""
    return DiscreteGenerator(
        gram=gen.gram,
        labels=gen.labels,
        damping_channels=gen.damping_channels + channels,
        flux=flux,
    )


def _close_loops(gen: DiscreteGenerator, *loops: DampingChannel) -> DiscreteGenerator:
    """Close collocated static loops ``u = -k g.z``, one per ``(name, k, g)``.

    Each loop takes ``k g g^T`` off the flux and becomes the damping channel
    ``-k (g.z)^2`` of the identity.
    """
    flux = gen.flux
    for _, k, g in loops:
        flux = flux - k * np.outer(g, g)
    return _with_channels(gen, flux, *loops)


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
    gen = _beam_core(beam, params)
    return _close_loops(
        gen,
        DampingChannel("tip_velocity", a, gen.unit_state("tip_velocity")),
        DampingChannel("tip_angular_velocity", b, gen.unit_state("tip_angular_velocity")),
    )


def assemble_tmd(
    beam: BeamMatrices, params: BeamParameters, tmd: TmdParameters
) -> DiscreteGenerator:
    """Tower with a passive mass damper in the nacelle.

    Couples the force port of the beam to :func:`tmd_block`, which appends
    the damper offset (relative to the nacelle) and the damper velocity;
    the coupling acts only through the tip velocity row and dissipates
    ``d1 |p_t - w_t(1)|^2``.
    """
    gen = couple_systems(
        scole_tip_block(beam, params, "displacement"),
        tmd_block(tmd),
        labels=_beam_labels(beam) + ["tmd_offset", "tmd_velocity"],
    )
    g = gen.unit_state("tmd_velocity") - gen.unit_state("tip_velocity")
    return _with_channels(
        gen, gen.flux, DampingChannel("tmd_relative_velocity", tmd.d1, g)
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
    i.e. pump slip, motor speed and leakage losses.
    """
    if hyd.Bp + hyd.Bm == 0:
        warnings.warn(
            "Bp + Bm = 0: assembly permitted but the stability results "
            "require at least one nonzero damping coefficient",
            stacklevel=2,
        )
    gen = couple_systems(
        scole_tip_block(beam, params, "rotation"),
        hydraulic_block(hyd),
        labels=_beam_labels(beam)
        + ["pump_speed_shift", "motor_speed_shift", "pressure"],
    )
    unit = gen.unit_state
    w = unit("tip_angular_velocity")
    return _with_channels(
        gen,
        gen.flux,
        DampingChannel("pump_velocity_mismatch", hyd.Bp, w - unit("pump_speed_shift")),
        DampingChannel("motor_velocity_sum", hyd.Bm, w + unit("motor_speed_shift")),
        DampingChannel("pressure", hyd.kleak, unit("pressure")),
    )


def _state_blocks(gen: DiscreteGenerator) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays of the (q, v) beam blocks of an assembled generator."""
    q_idx = [
        i
        for i, lab in enumerate(gen.labels)
        if lab.startswith("disp[") or lab.startswith("slope[")
    ]
    v_idx = [
        i
        for i, lab in enumerate(gen.labels)
        if lab.startswith("vel[")
        or lab.startswith("angvel[")
        or lab in ("tip_velocity", "tip_angular_velocity")
    ]
    return np.asarray(q_idx), np.asarray(v_idx)


def assemble_hydraulic_feedback(
    gen: DiscreteGenerator, k: float, J: float, JG: float
) -> DiscreteGenerator:
    """Close the generator-torque loop ``u = -k y`` around the hydraulic model.

    The torque acts on the tip rotation and on the shifted motor speed; in
    flux form its input map is ``g = -(e_tip_angular_velocity +
    e_motor_speed_shift)`` exactly (the inertias ``J`` and ``JG`` sit in
    ``gen.gram``, so the arguments are accepted for call compatibility and
    not read).  The measurement is ``y = g.z`` and the closed loop gains
    the dissipation term ``-k |g.z|^2``.
    """
    if k < 0:
        raise ValidationError(f"feedback gain must be nonnegative, got {k}")
    g = -(gen.unit_state("tip_angular_velocity") + gen.unit_state("motor_speed_shift"))
    return _close_loops(gen, DampingChannel("feedback", k, g))


def scole_tip_block(
    beam: BeamMatrices, params: BeamParameters, port: str
) -> PassiveSystem:
    """Conservative beam block with a collocated force or torque port.

    ``port`` selects the tip channel: "displacement" drives the tip velocity
    row (force input, velocity output), "rotation" the tip angular-velocity
    row (torque input, angular velocity output).  The block is lossless:
    its passivity defect vanishes identically.  Its assembled input map
    ``gram @ B`` is the unit vector of the output row.
    """
    labels = {"displacement": "tip_velocity", "rotation": "tip_angular_velocity"}
    if port not in labels:
        raise ValidationError(f"port must be 'displacement' or 'rotation', got {port!r}")
    core = _beam_core(beam, params)
    n, dim = beam.n_dof, core.dim
    gram_B = core.unit_state(labels[port])[:, None]
    cho = sla.cho_factor(core.gram[n:, n:])
    A = np.zeros((dim, dim))
    A[:n, n:] = np.eye(n)
    A[n:, :n] = -sla.cho_solve(cho, core.gram[:n, :n])
    B = np.zeros((dim, 1))
    B[n:] = sla.cho_solve(cho, gram_B[n:])
    return PassiveSystem(
        A=A,
        B=B,
        C=gram_B.T,
        D=np.zeros((1, 1)),
        gram=core.gram,
        flux=core.flux,
        gram_B=gram_B,
    )


def tmd_block(tmd: TmdParameters) -> PassiveSystem:
    """Two-state mass-damper block, passive with defect ``d1 |z2 + u|^2``."""
    m1, k1, d1 = tmd.m1, tmd.k1, tmd.d1
    return PassiveSystem(
        A=np.array([[0.0, 1.0], [-k1 / m1, -d1 / m1]]),
        B=np.array([[1.0], [-d1 / m1]]),
        C=np.array([[k1, d1]]),
        D=np.array([[d1]]),
        gram=np.diag([k1, m1]),
        flux=np.array([[0.0, k1], [-k1, -d1]]),
        gram_B=np.array([[k1], [-d1]]),
    )


def hydraulic_block(hyd: HydraulicParameters) -> PassiveSystem:
    """Three-state transmission block (shifted speeds and pressure).

    Passive with defect ``Bp |z1 + u|^2 + Bm |z2 - u|^2 + kleak |z3|^2``.
    The Gram carries the turbine and generator inertias ``JT``, ``JG`` and
    the fluid capacitance ``V/beta``.
    """
    Bp, Bm, Dp, Dm, k = hyd.Bp, hyd.Bm, hyd.Dp, hyd.Dm, hyd.kleak
    JT, JG, bv = hyd.JT, hyd.JG, hyd.beta / hyd.V
    return PassiveSystem(
        A=np.array(
            [
                [-Bp / JT, 0.0, -Dp / JT],
                [0.0, -Bm / JG, Dm / JG],
                [bv * Dp, -bv * Dm, -bv * k],
            ]
        ),
        B=np.array([[-Bp / JT], [Bm / JG], [bv * (Dp + Dm)]]),
        C=np.array([[Bp, -Bm, Dp + Dm]]),
        D=np.array([[Bm + Bp]]),
        gram=np.diag([JT, JG, hyd.V / hyd.beta]),
        flux=np.array([[-Bp, 0.0, -Dp], [0.0, -Bm, Dm], [Dp, -Dm, -k]]),
        gram_B=np.array([[-Bp], [Bm], [Dp + Dm]]),
    )


def torque_block(b: float, J: float) -> PassiveSystem:
    """Scalar nacelle block of the torque-feedback loop."""
    return PassiveSystem(
        A=np.array([[-b / J]]),
        B=np.array([[1.0 / J]]),
        C=np.array([[1.0]]),
        D=np.zeros((1, 1)),
        gram=np.array([[J]]),
        flux=np.array([[-b]]),
    )


def force_block(a: float, m: float) -> PassiveSystem:
    """Scalar nacelle block of the force-feedback loop."""
    return PassiveSystem(
        A=np.array([[-a / m]]),
        B=np.array([[1.0 / m]]),
        C=np.array([[1.0]]),
        D=np.zeros((1, 1)),
        gram=np.array([[m]]),
        flux=np.array([[-a]]),
    )


def combined_block(a: float, b: float, m: float, J: float) -> PassiveSystem:
    """Diagonal 2x2 nacelle block of the combined force/torque loop."""
    return PassiveSystem(
        A=np.diag([-a / m, -b / J]),
        B=np.diag([1.0 / m, 1.0 / J]),
        C=np.eye(2),
        D=np.zeros((2, 2)),
        gram=np.diag([m, J]),
        flux=np.diag([-a, -b]),
    )


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
    s = float(s)
    if kind == "torque":
        b, J = params["b"], params["J"]
        return np.array([[(b / J) / ((b / J) ** 2 + s**2)]])
    if kind == "force":
        a, m = params["a"], params["m"]
        return np.array([[(a / m) / ((a / m) ** 2 + s**2)]])
    if kind == "combined":
        a, b, m, J = params["a"], params["b"], params["m"], params["J"]
        denom = (s**2 - a * b / (m * J)) ** 2 + (b / J + a / m) ** 2 * s**2
        if denom == 0.0:
            raise SpectrumHit(s, "combined closed-form denominator vanishes")
        return (
            np.diag(
                [
                    a / m * (s**2 + (b / J) ** 2),
                    b / J * (s**2 + (a / m) ** 2),
                ]
            )
            / denom
        )
    if kind == "tmd":
        m = params["m"]
        m1, k1, d1 = params["m1"], params["k1"], params["d1"]
        denom = m * (d1**2 * s**2 + (k1 - m1 * s**2) ** 2)
        if denom == 0.0:
            raise SpectrumHit(s, "mass-damper closed-form denominator vanishes")
        return np.array([[d1 * m1**2 * s**4 / denom]])
    if kind == "hydraulic":
        hyd = _as_hydraulic(params)
        a2, a1, a0 = hydraulic_n_coefficients(hyd)
        _, d4, d2, d0 = hydraulic_d_coefficients(hyd)
        n_val = a2 * s**4 + a1 * s**2 + a0
        d_val = s**6 + d4 * s**4 + d2 * s**2 + d0
        if d_val == 0.0:
            raise SpectrumHit(s, "hydraulic closed-form denominator vanishes")
        return np.array([[s**2 * n_val / d_val]])
    raise ValidationError(f"unknown closed-form kind {kind!r}")


def state_space_reH2(kind: str, params: Mapping[str, float], s: float) -> np.ndarray:
    """Hermitian part of the block transfer function from the state space.

    Evaluated through the supply-rate identity
    ``u* Re H(is) u = Re<Cx+Du, u> - Re<Ax+Bu, x>_M`` with
    ``x = (is-A)^{-1} B u`` (the storage term vanishes on the imaginary
    axis), whose per-block sum-of-squares form is free of the subtractive
    cancellation that limits the direct ``(H + H*)/2`` evaluation when
    ``Re H`` is orders of magnitude below ``|H|``.
    """
    from .passive_core import _resolvent_apply

    s = float(s)
    if kind == "torque":
        sys = torque_block(params["b"], params["J"])
        x = _resolvent_apply(sys.A, s, sys.B)[0, 0]
        return np.array([[params["b"] * abs(x) ** 2]])
    if kind == "force":
        sys = force_block(params["a"], params["m"])
        x = _resolvent_apply(sys.A, s, sys.B)[0, 0]
        return np.array([[params["a"] * abs(x) ** 2]])
    if kind == "combined":
        sys = combined_block(params["a"], params["b"], params["m"], params["J"])
        X = _resolvent_apply(sys.A, s, sys.B)
        out = np.zeros((2, 2))
        for j in range(2):
            out[j, j] = (
                params["a"] * abs(X[0, j]) ** 2 + params["b"] * abs(X[1, j]) ** 2
            )
        return out
    if kind == "tmd":
        tmd = TmdParameters(params["m1"], params["k1"], params["d1"])
        sys = tmd_block(tmd)
        x = _resolvent_apply(sys.A, s, sys.B)[:, 0]
        return np.array([[tmd.d1 * abs(x[1] + 1.0) ** 2]])
    if kind == "hydraulic":
        hyd = _as_hydraulic(params)
        # the printed formulas assume unit turbine and generator inertias
        sys = hydraulic_block(dataclasses.replace(hyd, JT=1.0, JG=1.0))
        x = _resolvent_apply(sys.A, s, sys.B)[:, 0]
        value = (
            hyd.Bp * abs(x[0] + 1.0) ** 2
            + hyd.Bm * abs(x[1] - 1.0) ** 2
            + hyd.kleak * abs(x[2]) ** 2
        )
        return np.array([[value]])
    raise ValidationError(f"unknown state-space kind {kind!r}")


def _as_hydraulic(params) -> HydraulicParameters:
    if isinstance(params, HydraulicParameters):
        return params
    keys = {"Dp", "Dm", "Bp", "Bm", "kleak_p", "kleak_m", "beta", "V", "JT", "JG"}
    return HydraulicParameters(**{k: params[k] for k in keys if k in params})


@dataclass(frozen=True)
class TransferCrossValidation:
    """Comparison of the printed closed form with the state-space values.

    ``max_rel_err`` is the worst relative deviation over the grid and
    ``observed_ratio`` the median of state-space over closed-form values
    (a ratio away from 1 exposes a constant-factor discrepancy in the
    printed formula, as with the nacelle-mass factor of the damper case).
    """

    kind: str
    max_rel_err: float
    observed_ratio: float
    matches: bool


def cross_validate_reH2(
    kind: str, params: Mapping[str, float], s_grid, rtol: float = 1e-10
) -> TransferCrossValidation:
    """Compare printed and state-space Hermitian parts over a frequency grid."""
    errs, ratios = [], []
    for s in np.asarray(s_grid, dtype=float):
        printed = closed_form_reH2(kind, params, s)
        actual = state_space_reH2(kind, params, s)
        scale = np.abs(printed).max()
        if scale == 0.0:
            errs.append(np.abs(actual).max())
            continue
        errs.append(np.abs(actual - printed).max() / scale)
        diag_p = np.diag(printed)
        diag_a = np.diag(actual)
        keep = diag_p != 0
        if keep.any():
            ratios.append(float(np.median(diag_a[keep] / diag_p[keep])))
    max_err = float(max(errs))
    return TransferCrossValidation(
        kind=kind,
        max_rel_err=max_err,
        observed_ratio=float(np.median(ratios)) if ratios else float("nan"),
        matches=bool(max_err <= rtol),
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
