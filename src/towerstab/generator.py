"""Semi-discrete generators with an energy Gram matrix.

A :class:`DiscreteGenerator` is a square real generator together with a
symmetric positive-definite Gram matrix ``M`` defining the state norm
``|z|^2 = z^T M z`` (twice the physical energy).  All stability notions in
this toolkit (dissipativity, resolvent norms, spectra) are taken with
respect to that norm.

Generators are flux-first: they store ``flux = M A`` as assembled (skew
blocks are stored once, so they cancel exactly in floating point), and the
explicit ``A`` is derived from it only when read.  Deriving ``M A`` by
multiplying an explicit ``A`` would amplify mass-solve roundoff by the
stiffness norm and swamp the 1e-10 dissipativity tolerances on fine meshes;
all energy balance computations therefore go through ``flux``.  The energy
coordinates, their singular values and their eigenvalues are computed once
per generator and cached on it.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg as sla

from .errors import DimensionError, NumericalError, SpectrumHit, ValidationError

SYMMETRY_RTOL = 1e-12
DISSIPATIVITY_TOL = 1e-10


class DampingChannel(NamedTuple):
    """One term of a closed-form dissipation identity.

    The generator satisfies ``Re <A z, z>_M = -sum_i gain_i * (vector_i . z)^2``.
    Channels with ``gain == 0`` are kept so the signal is still recorded
    during simulation.
    """

    name: str
    gain: float
    vector: np.ndarray


def check_spd(M: np.ndarray, name: str = "gram") -> np.ndarray:
    """Validate that ``M`` is symmetric positive definite.

    Returns the upper Cholesky factor ``U`` with ``M = U^T U``.  Raises
    :class:`ValidationError` if ``M`` is not symmetric to within
    ``SYMMETRY_RTOL`` relative or if any Cholesky pivot fails.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {M.shape}")
    scale = np.abs(M).max() or 1.0
    if np.abs(M - M.T).max() > SYMMETRY_RTOL * scale:
        raise ValidationError(f"{name} is not symmetric to {SYMMETRY_RTOL} relative")
    try:
        return sla.cholesky(M, lower=False)
    except sla.LinAlgError as exc:
        raise ValidationError(f"{name} is not positive definite: {exc}") from exc


def energy(z: np.ndarray, gram: np.ndarray) -> float:
    """Energy ``(1/2) z^T M z`` of a state in the Gram norm."""
    z = np.asarray(z)
    gram = np.asarray(gram)
    if gram.shape != (z.shape[0], z.shape[0]):
        raise DimensionError(
            f"state dimension {z.shape[0]} does not match gram {gram.shape}"
        )
    return 0.5 * float(np.real(np.conj(z) @ gram @ z))


def symmetric_part(F: np.ndarray) -> np.ndarray:
    return 0.5 * (F + F.conj().T)


class DiscreteGenerator:
    """Generator in descriptor form: energy Gram, assembled flux, coordinate labels.

    ``flux`` is the assembled product ``gram @ A``; when it is omitted it is
    formed from a given ``A``, which is then kept.  Otherwise ``A`` is derived
    on first read by one Cholesky solve.  ``damping_channels`` carries the
    model's closed-form dissipation identity so that
    ``sym(flux) = -sum gain_i v_i v_i^T``.  Instances are immutable by
    convention: the energy data of :func:`energy_coordinates` is computed
    once and cached on the generator.
    """

    def __init__(
        self,
        A: np.ndarray | None = None,
        gram: np.ndarray | None = None,
        labels: Sequence[str] = (),
        damping_channels: tuple[DampingChannel, ...] = (),
        flux: np.ndarray | None = None,
    ):
        if flux is None and A is None:
            raise ValidationError("a generator needs flux or A")
        check_spd(gram, "gram")
        self.gram = np.asarray(gram, dtype=float)
        n = self.gram.shape[0]
        self._A = None if A is None else np.asarray(A, dtype=float)
        if self._A is not None and self._A.shape != (n, n):
            raise DimensionError(f"A must be {n}x{n} like gram, got {self._A.shape}")
        self.flux = np.asarray(self.gram @ self._A if flux is None else flux, dtype=float)
        if self.flux.shape != (n, n):
            raise DimensionError("flux shape does not match gram")
        self.labels = tuple(labels)
        if len(self.labels) != n:
            raise DimensionError(f"expected {n} labels, got {len(self.labels)}")
        if len(set(self.labels)) != n:
            raise ValidationError("coordinate labels must be unique")
        self.damping_channels = tuple(damping_channels)
        self._coords: EnergyCoordinates | None = None
        self._eigenvalues: np.ndarray | None = None

    @property
    def A(self) -> np.ndarray:
        """Explicit generator ``gram^{-1} flux``."""
        if self._A is None:
            self._A = sla.cho_solve((check_spd(self.gram), False), self.flux)
        return self._A

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    def index(self, label: str) -> int:
        """Coordinate index of a labelled state component."""
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no coordinate labelled {label!r}") from None

    def unit_state(self, label: str) -> np.ndarray:
        z = np.zeros(self.dim)
        z[self.index(label)] = 1.0
        return z

    def energy(self, z: np.ndarray) -> float:
        return energy(z, self.gram)

    def dissipation_defect(self) -> float:
        """Largest eigenvalue of ``sym(gram A)``; <= 0 means Gram-dissipative."""
        return float(sla.eigvalsh(symmetric_part(self.flux))[-1])

    def is_dissipative(self, tol: float = DISSIPATIVITY_TOL) -> bool:
        return self.dissipation_defect() <= tol


class EnergyCoordinates(NamedTuple):
    """Generator transformed to coordinates where the Gram is the identity.

    ``T = U A U^{-1}`` with ``M = U^T U``; energy operator norms of functions
    of ``A`` equal Euclidean norms of the same functions of ``T``.
    ``singular_values`` is the descending singular spectrum of ``T`` and
    ``norm_A`` its largest entry, the energy operator norm of ``A``.
    """

    T: np.ndarray
    singular_values: np.ndarray
    norm_A: float


def transform_flux(flux: np.ndarray, U: np.ndarray) -> np.ndarray:
    """``U^{-T} flux U^{-1}``, the generator in energy coordinates.

    Equals ``U A U^{-1}`` for ``flux = gram A`` and ``gram = U^T U``, but the
    congruence-style evaluation preserves the assembled symmetric part.
    """
    try:
        left = sla.solve_triangular(U.T, flux, lower=True)
        return sla.solve_triangular(U.T, left.T, lower=True).T
    except sla.LinAlgError as exc:  # pragma: no cover - U is an SPD factor
        raise NumericalError(f"energy transform failed: {exc}") from exc


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def energy_coordinates(gen: DiscreteGenerator) -> EnergyCoordinates:
    """Similarity transform of the generator by the Cholesky factor of the Gram.

    Computed on the first call and cached on the generator; later calls
    return the same object.
    """
    if gen._coords is None:
        T = transform_flux(gen.flux, check_spd(gen.gram))
        sv = sla.svdvals(T)
        gen._coords = EnergyCoordinates(
            T=_frozen(T), singular_values=_frozen(sv), norm_A=float(sv[0])
        )
    return gen._coords


def _energy_eigenvalues(gen: DiscreteGenerator) -> np.ndarray:
    """Eigenvalues of ``T`` in LAPACK order, computed once per generator."""
    if gen._eigenvalues is None:
        try:
            lam = sla.eigvals(energy_coordinates(gen).T)
        except sla.LinAlgError as exc:
            raise NumericalError(f"eigensolver failed: {exc}") from exc
        gen._eigenvalues = _frozen(lam)
    return gen._eigenvalues


def _resolvent_from_shift(T: np.ndarray, s: float, norm_T: float) -> float:
    """``1 / sigma_min(is - T)``; raises :class:`SpectrumHit` when singular."""
    sv = sla.svdvals(1j * s * np.eye(T.shape[0]) - T)
    smin = float(sv[-1])
    if smin <= 10.0 * np.finfo(float).eps * (abs(s) + norm_T):
        raise SpectrumHit(s)
    return 1.0 / smin
