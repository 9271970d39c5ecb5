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
all energy balance computations therefore go through ``flux``.  The Gram
and flux logic is one core, :class:`GramSystem`, which passive blocks share;
the energy coordinates, their singular values, their eigenvalues and their
Schur factor are computed once per generator or block and cached on it.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg as sla

from .errors import DimensionError, NumericalError, ValidationError

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


def symmetric_part(F: np.ndarray) -> np.ndarray:
    """Hermitian part of a square matrix, or of each matrix of a stack."""
    return 0.5 * (F + F.conj().swapaxes(-1, -2))


class GramSystem:
    """State space with an energy Gram and the assembled ``flux = gram @ A``.

    The core of generators and passive blocks, constructed from the two
    arrays an assembly produces.  The Gram is checked symmetric positive
    definite on construction; its Cholesky factor is not kept.  ``A`` is
    derived on first read by one Cholesky solve.  Instances are immutable
    by convention, so :func:`energy_coordinates`, the spectrum
    (:func:`towerstab.spectral.energy_spectrum`) and the resolvent's Schur
    factor (:func:`towerstab.spectral.resolvent_norm`) cache their data on
    the object.
    """

    def __init__(self, gram: np.ndarray, flux: np.ndarray):
        check_spd(gram, "gram")
        self.gram = np.asarray(gram, dtype=float)
        self.flux = self._matrix(flux)
        n = self.dim
        if self.flux.shape != (n, n):
            raise DimensionError(f"flux must be {n}x{n} like gram, got {self.flux.shape}")
        self._A: np.ndarray | None = None
        self._coords: EnergyCoordinates | None = None
        self._eigenvalues = None  # a spectral.Spectrum once computed
        self._schur: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @staticmethod
    def _matrix(M: np.ndarray) -> np.ndarray:
        return np.asarray(M, dtype=float)

    def _factor(self) -> np.ndarray:
        """Upper Cholesky factor ``U`` of the (validated) Gram, ``gram = U^T U``."""
        return sla.cholesky(self.gram, lower=False)

    @property
    def A(self) -> np.ndarray:
        """Explicit state matrix ``gram^{-1} flux``."""
        if self._A is None:
            self._A = sla.cho_solve((self._factor(), False), self.flux)
        return self._A

    @property
    def dim(self) -> int:
        return self.gram.shape[0]


class DiscreteGenerator(GramSystem):
    """Generator in descriptor form: energy Gram, assembled flux, coordinate labels.

    Constructed once from the ``gram`` and ``flux`` an assembly produces;
    the explicit ``A`` is only ever derived.  ``damping_channels`` carries
    the model's closed-form dissipation identity so that ``sym(flux) = -sum
    gain_i v_i v_i^T``.  ``blocks`` is the pair of passive blocks a
    generator was coupled from (set by
    :func:`~towerstab.passive_core.couple_systems`), ``None`` otherwise.
    The dissipation defect and the undamped beam modes
    (:func:`towerstab.timesim.beam_modes`) are computed once and cached.
    """

    def __init__(
        self,
        *,
        gram: np.ndarray,
        flux: np.ndarray,
        labels: Sequence[str],
        damping_channels: tuple[DampingChannel, ...] = (),
    ):
        super().__init__(gram, flux)
        self.labels = tuple(labels)
        if len(self.labels) != self.dim:
            raise DimensionError(f"expected {self.dim} labels, got {len(self.labels)}")
        if len(set(self.labels)) != self.dim:
            raise ValidationError("coordinate labels must be unique")
        self.damping_channels = tuple(damping_channels)
        self.blocks = None
        self._defect: float | None = None
        self._modes: tuple[np.ndarray, np.ndarray] | None = None

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
        """Energy ``(1/2) z^T M z`` of a state in the Gram norm."""
        z = np.asarray(z)
        if z.shape[0] != self.dim:
            raise DimensionError(
                f"state dimension {z.shape[0]} does not match gram {self.gram.shape}"
            )
        return 0.5 * float(np.real(np.conj(z) @ self.gram @ z))

    def dissipation_defect(self) -> float:
        """Largest eigenvalue of ``sym(gram A)``; <= 0 means Gram-dissipative."""
        if self._defect is None:
            self._defect = float(sla.eigvalsh(symmetric_part(self.flux))[-1])
        return self._defect


class EnergyCoordinates(NamedTuple):
    """Generator or block in coordinates where the Gram is the identity.

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
    congruence-style evaluation preserves the assembled symmetric part.  The
    second solve runs in the first one's buffer, transposed in place, so the
    transform holds two ``dim^2`` arrays besides ``U`` instead of three.
    """
    try:
        left = sla.solve_triangular(U.T, flux, lower=True)  # Fortran-ordered
        _transpose_in_place(left)
        return sla.solve_triangular(U.T, left, lower=True, overwrite_b=True).T
    except sla.LinAlgError as exc:  # pragma: no cover - U is an SPD factor
        raise NumericalError(f"energy transform failed: {exc}") from exc


def _transpose_in_place(a: np.ndarray, block: int = 256) -> None:
    """Transpose a square array in place, one pair of ``block``-square tiles at a time."""
    n = a.shape[0]
    for i in range(0, n, block):
        rows = slice(i, i + block)
        a[rows, rows] = a[rows, rows].T.copy()
        for j in range(i + block, n, block):
            cols = slice(j, j + block)
            upper = a[rows, cols].copy()
            a[rows, cols] = a[cols, rows].T
            a[cols, rows] = upper.T


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def energy_coordinates(gen: GramSystem) -> EnergyCoordinates:
    """Similarity transform of a generator or block by the Cholesky factor of its Gram.

    Computed on the first call and cached on the object; later calls
    return the same object.
    """
    if gen._coords is None:
        T = transform_flux(gen.flux, gen._factor())
        sv = sla.svdvals(T)
        gen._coords = EnergyCoordinates(
            T=_frozen(T), singular_values=_frozen(sv), norm_A=float(sv[0])
        )
    return gen._coords


def _energy_eigenvalues(gen: GramSystem) -> np.ndarray:
    """Eigenvalues of ``T`` by a dense ``eigvals``, in LAPACK order.

    The route of :func:`towerstab.spectral.energy_spectrum` for objects
    without a modal form, and the reference that form is tested against;
    the spectrum is cached there, not here.
    """
    try:
        lam = sla.eigvals(energy_coordinates(gen).T)
    except sla.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}") from exc
    return _frozen(lam)
