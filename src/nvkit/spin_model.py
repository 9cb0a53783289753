"""NV ground-state spin Hamiltonian: construction and diagonalization.

The electron spin is S=1; optional nuclear spins (14N with I=1, 13C with
I=1/2) are tensored on in list order, electron first. Energies are in MHz,
fields in mT. The Hamiltonian in the NV frame is

    H = D Sz^2 + shift Sz^2 + 2*splitting (Sx^2 - Sy^2)
        + gamma_e (B_axial Sz + B_transverse Sx)
        + sum_k [ a_par,k Sz Iz,k + a_perp,k (Sx Ix,k + Sy Iy,k) ]

The strain/electric-field term uses the coefficient 2*splitting so that the
zero-field resonances sit at D + shift +- 2*splitting, matching the
first-order two-line approximation implemented by
:func:`resonance_frequencies_approx`. Hyperfine terms keep their full
(nonsecular) transverse part; at the fields handled here its effect is a
negligible second-order shift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .constants import (
    A_PARALLEL_C13_STRONG_MHZ,
    A_PARALLEL_N14_MHZ,
    A_PERP_N14_MHZ,
    D_ZFS_MHZ,
    GAMMA_E_MHZ_PER_MT,
    NV_AXES,
)
from .tables import frozen, numbers, require, scalar

MAX_DIMENSION = 18
LINE_WEIGHT_FLOOR = 0.01  # a line's least strength, as a share of the strongest pair's
_SQRT_HALF = 1.0 / np.sqrt(2.0)  # the entries of the S=1 Sx and Sy


class SpinModelError(ValueError):
    """Invalid spin-system input (dimension overflow, bad field, ...)."""


@dataclass(frozen=True)
class SpinOperators:
    """Canonical spin matrices (hbar = 1) for a given multiplet dimension."""

    dimension: int
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray

    def __post_init__(self):
        for name in ("sx", "sy", "sz"):
            object.__setattr__(self, name, frozen(getattr(self, name), complex))


def spin_operators(dimension: int) -> SpinOperators:
    """Spin matrices for dimension 2 (S=1/2) or 3 (S=1)."""
    if dimension == 2:
        sx = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)
        sy = 0.5 * np.array([[0, -1j], [1j, 0]], dtype=complex)
        sz = 0.5 * np.array([[1, 0], [0, -1]], dtype=complex)
    elif dimension == 3:
        sx = _SQRT_HALF * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
        sy = _SQRT_HALF * np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex)
        sz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    else:
        raise SpinModelError(f"unsupported spin dimension {dimension}; expected 2 or 3")
    return SpinOperators(dimension=dimension, sx=sx, sy=sy, sz=sz)


class NuclearSpecies(Enum):
    N14 = "N14"   # I = 1
    C13 = "C13"   # I = 1/2


_NUCLEAR_DIM = {NuclearSpecies.N14: 3, NuclearSpecies.C13: 2}


@dataclass(frozen=True)
class HyperfineCoupling:
    """Hyperfine tensor reduced to axial/transverse components (MHz)."""

    species: NuclearSpecies
    a_parallel: float
    a_perp: float = 0.0

    def __post_init__(self):
        scalar(SpinModelError, "hyperfine a_parallel", self.a_parallel)
        scalar(SpinModelError, "hyperfine a_perp", self.a_perp)

    @property
    def dimension(self) -> int:
        return _NUCLEAR_DIM[self.species]

    @staticmethod
    def nitrogen14(a_parallel: float = A_PARALLEL_N14_MHZ,
                   a_perp: float = A_PERP_N14_MHZ) -> "HyperfineCoupling":
        return HyperfineCoupling(NuclearSpecies.N14, a_parallel, a_perp)

    @staticmethod
    def carbon13(a_parallel: float = A_PARALLEL_C13_STRONG_MHZ,
                 a_perp: float = 0.0) -> "HyperfineCoupling":
        return HyperfineCoupling(NuclearSpecies.C13, a_parallel, a_perp)


def _vector3(name, value, what="3-vector") -> np.ndarray:
    """``value`` as a read-only float copy, checked to be a finite ``what``."""
    v = frozen(numbers(SpinModelError, name, value))
    if v.shape != (3,):
        raise SpinModelError(f"{name} must be a {what}, got shape {v.shape}")
    require(SpinModelError, name, v)
    return v


@dataclass(frozen=True)
class NvOrientation:
    """One of the four <111> symmetry axes, stored as a unit vector."""

    axis: np.ndarray

    def __post_init__(self):
        axis = _vector3("NV axis", self.axis)
        norm = np.linalg.norm(axis)
        if not 0.0 < norm < np.inf:
            raise SpinModelError(f"NV axis must have a finite nonzero norm, got {norm}")
        if abs(norm - 1.0) > 1e-12:
            axis = frozen(axis / norm)
        object.__setattr__(self, "axis", axis)


# the four NV orientations in a fixed order, built once
NV_ORIENTATIONS = tuple(NvOrientation(axis) for axis in NV_AXES)


def nv_orientations() -> tuple[NvOrientation, ...]:
    """The four NV orientations in a fixed order, :data:`NV_ORIENTATIONS`."""
    return NV_ORIENTATIONS


@dataclass(frozen=True)
class FieldEnvironment:
    """Applied magnetic field plus effective shift/splitting scalars.

    b_lab is the lab-frame field in mT. shift_xi moves both resonances by
    the same amount; splitting_delta separates them by 4*splitting_delta
    (resonances at D + xi +- 2*delta).
    """

    b_lab: np.ndarray = field(default_factory=lambda: np.zeros(3))
    shift_xi: float = 0.0
    splitting_delta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "b_lab", _vector3("b_lab", self.b_lab, "3-vector in mT"))
        scalar(SpinModelError, "shift_xi", self.shift_xi)
        scalar(SpinModelError, "splitting_delta", self.splitting_delta)


@dataclass(frozen=True)
class SpinSystem:
    """Electron spin plus its nuclear environment and orientation."""

    d_zfs: float = D_ZFS_MHZ
    gamma_e: float = GAMMA_E_MHZ_PER_MT
    nuclei: tuple[HyperfineCoupling, ...] = ()
    orientation: NvOrientation = NV_ORIENTATIONS[0]

    def __post_init__(self):
        scalar(SpinModelError, "d_zfs", self.d_zfs, "finite and positive")
        scalar(SpinModelError, "gamma_e", self.gamma_e)
        object.__setattr__(self, "nuclei", tuple(self.nuclei))
        for k, nuc in enumerate(self.nuclei):
            if not isinstance(nuc, HyperfineCoupling):
                raise SpinModelError(f"nuclei[{k}] must be a HyperfineCoupling, "
                                     f"got {type(nuc).__name__}")
        if self.dimension > MAX_DIMENSION:
            raise SpinModelError(
                f"Hilbert dimension {self.dimension} exceeds supported maximum {MAX_DIMENSION}"
            )

    @property
    def dimension(self) -> int:
        dim = 3
        for nuc in self.nuclei:
            dim *= nuc.dimension
        return dim


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Hermitian matrix in MHz with its Hilbert-space dimension.

    The entries are checked once, here: they must be finite, real or complex,
    and no entry of h - h^H may exceed 1e-9 times the Frobenius norm of h, a
    rule without an absolute scale. :func:`eigenlevels` trusts it as built.
    """

    entries: np.ndarray
    dimension: int

    def __post_init__(self):
        h = numbers(SpinModelError, "entries", self.entries, complex)
        if h.shape != (self.dimension, self.dimension):
            raise SpinModelError("matrix shape does not match declared dimension")
        require(SpinModelError, "entries", h, dtype=complex)
        scale = max(np.linalg.norm(h), 1e-300)
        if np.max(np.abs(h - h.conj().T)) > 1e-9 * scale:
            raise SpinModelError("matrix is not Hermitian within tolerance")
        object.__setattr__(self, "entries", h)


def project_field(b_lab):
    """Axial/transverse field components for each NV orientation.

    Returns a list of (axial, transverse) pairs in mT, in the fixed
    orientation order of :func:`nv_orientations`.
    """
    b = _vector3("b_lab", b_lab, "3-vector in mT")
    return [_projection(b, orient.axis) for orient in NV_ORIENTATIONS]


def _projection(b, axis):
    """(axial, transverse) components of the checked field ``b`` about the unit ``axis``."""
    axial = float(b @ axis)
    return axial, float(np.linalg.norm(b - axial * axis))


def _embed(op: np.ndarray, slot: int, dims: tuple[int, ...]) -> np.ndarray:
    """Tensor ``op`` (acting on subsystem ``slot``) into the full space."""
    full = np.array([[1.0 + 0.0j]])
    for k, d in enumerate(dims):
        factor = op if k == slot else np.eye(d, dtype=complex)
        full = np.kron(full, factor)
    return full


@dataclass(frozen=True)
class _Operators:
    """Shared read-only full-space operator stacks of one Hilbert space."""

    observables: np.ndarray   # Sz^2, Sx, Sy, electron ms=0 projector P0; eigenbasis rotates them
    terms: np.ndarray         # Sz^2, Sx^2 - Sy^2, Sz, Sx*sqrt2; Sz Iz, Sx Ix + Sy Iy per nucleus


@lru_cache(maxsize=None)  # SpinSystem admits at most six dims tuples
def _build_operators(dims: tuple[int, ...]) -> _Operators:
    el = spin_operators(3)
    sx, sy, sz = (_embed(op, 0, dims) for op in (el.sx, el.sy, el.sz))
    terms = [sz @ sz, sx @ sx - sy @ sy, sz, sx / _SQRT_HALF]  # the last has entries 0 and 1
    for k, d in enumerate(dims[1:], start=1):
        nuc = spin_operators(d)
        ix, iy, iz = (_embed(op, k, dims) for op in (nuc.sx, nuc.sy, nuc.sz))
        terms += [sz @ iz, sx @ ix + sy @ iy]
    p0 = _embed(np.diag([0.0, 1.0, 0.0]).astype(complex), 0, dims)  # basis (+1, 0, -1)
    return _Operators(*(frozen(a, complex) for a in ((terms[0], sx, sy, p0), terms)))


def _operators(system: SpinSystem) -> _Operators:
    return _build_operators((3, *(nuc.dimension for nuc in system.nuclei)))


def build_hamiltonian(system: SpinSystem, env: FieldEnvironment) -> HamiltonianMatrix:
    """Full spin Hamiltonian in the NV frame of ``system.orientation``.

    The lab field is projected onto the NV axis; the transverse component
    is placed along the NV-frame x axis (azimuthal phase is unobservable
    for the terms modeled here). The terms are added one after another in
    the order of ``_Operators.terms``. The Zeeman terms are stacked as Sz
    and Sx*sqrt2, whose entries are 0 and +-1, so the sum keeps the bits of
    gamma_e * (B_axial Sz + B_transverse Sx). The returned matrix is a fresh array.
    """
    h = np.add.reduce(_coefficients(system, env)[:, None, None] * _operators(system).terms, axis=0)
    return HamiltonianMatrix(entries=h, dimension=system.dimension)


def _coefficients(system: SpinSystem, env: FieldEnvironment) -> np.ndarray:
    """The coefficients of ``_Operators.terms`` that :func:`build_hamiltonian` sums."""
    # b_lab and the axis were checked by their records
    axial, transverse = _projection(env.b_lab, system.orientation.axis)
    return np.array([system.d_zfs + env.shift_xi, 2.0 * env.splitting_delta,
                     system.gamma_e * axial, system.gamma_e * (transverse * _SQRT_HALF),
                     *(a for nuc in system.nuclei for a in (nuc.a_parallel, nuc.a_perp))])


def resonance_frequencies_approx(d: float, xi: float, delta: float):
    """First-order two-line approximation: (D + xi - 2*delta, D + xi + 2*delta)."""
    for name, value in (("d", d), ("xi", xi), ("delta", delta)):
        scalar(SpinModelError, name, value)
    return d + xi - 2.0 * delta, d + xi + 2.0 * delta


def eigenlevels(h: HamiltonianMatrix | np.ndarray):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix.

    LAPACK's Hermitian solver (``np.linalg.eigh``) on the lower triangle;
    eigenvector ``k`` is column ``k``. Within a degenerate eigenvalue the
    basis of the eigenspace is whatever LAPACK returns.

    A raw array is wrapped in :class:`HamiltonianMatrix`, which checks it; a
    ``HamiltonianMatrix`` is trusted as handed in, so each solve runs the
    Hermiticity test once. Entries written after construction are not re-checked.
    """
    if not isinstance(h, HamiltonianMatrix):
        entries = numbers(SpinModelError, "entries", h, complex)
        h = HamiltonianMatrix(entries, len(entries) if entries.ndim else 0)
    return np.linalg.eigh(h.entries)


def eigenbasis(system: SpinSystem, env: FieldEnvironment):
    """The static Hamiltonian's ascending eigenvalues, and the ``(4, d, d)`` stack
    Sz^2, Sx, Sy, P0 (the electron ms=0 projector) rotated into its eigenbasis.

    One :func:`build_hamiltonian` and one :func:`eigenlevels`, both looked up
    at call time; the rotated stack is a fresh array.
    """
    evals, evecs = eigenlevels(build_hamiltonian(system, env))
    return evals, evecs.conj().T @ _operators(system).observables @ evecs


@lru_cache(maxsize=None)  # one entry per Hilbert dimension
def _pair_indices(dimension: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (i, j) indices of every level pair i < j."""
    return tuple(frozen(a, np.intp) for a in np.triu_indices(dimension, k=1))


def unmerged_lines(system: SpinSystem, env: FieldEnvironment):
    """Every drivable transition as unmerged ``(freqs, strengths)`` arrays.

    Strengths are the unnormalized weights of :func:`transition_lines`, read
    from the :func:`eigenbasis` observables. This is the one rule for what a
    line is: a level pair whose strength exceeds 1e-9 and is at least
    :data:`LINE_WEIGHT_FLOOR` of the strongest pair's. :func:`merge_lines`
    merges them at any tolerance, so one eigensolve serves several tolerances.
    """
    evals, (_, sx, sy, p0) = eigenbasis(system, env)
    pops = np.diag(p0).real / max(np.trace(p0).real, 1e-300)

    i, j = _pair_indices(len(evals))
    freqs = evals[j] - evals[i]
    strengths = (np.abs(sx[i, j]) ** 2 + np.abs(sy[i, j]) ** 2) * np.abs(pops[i] - pops[j])
    keep = (strengths > 1e-9) & (strengths >= LINE_WEIGHT_FLOOR * strengths.max())
    return freqs[keep], strengths[keep]


def merge_lines(freqs, strengths, merge_tol: float = 1e-6):
    """(frequency, weight) lines from :func:`unmerged_lines` output.

    Frequencies of ``merge_tol`` (MHz) or less are dropped, lines closer than
    ``merge_tol`` are merged at their strength-weighted mean, and the
    weights are normalized to sum to 1.
    """
    keep = freqs > merge_tol
    freqs, strengths = freqs[keep], strengths[keep]
    order = np.lexsort((strengths, freqs))  # by frequency, then strength

    merged: list[list[float]] = []
    for freq, w in zip(freqs[order], strengths[order]):
        if merged and freq - merged[-1][0] <= merge_tol:
            f0, w0 = merged[-1]
            merged[-1] = [(f0 * w0 + freq * w) / (w0 + w), w0 + w]
        else:
            merged.append([freq, w])
    total = sum(w for _, w in merged)
    if total <= 0:
        return []
    return [(f, w / total) for f, w in merged]


def transition_lines(system: SpinSystem, env: FieldEnvironment, merge_tol: float = 1e-6):
    """Optically detectable spin transition lines as (frequency, weight) pairs.

    Weights combine the initial ms=0 population prepared by optical pumping
    with the polarization-averaged magnetic drive strength |Sx_ij|^2 +
    |Sy_ij|^2; they are normalized to sum to 1. The lines are the pairs that
    :func:`unmerged_lines` keeps. Lines closer than ``merge_tol`` (MHz) are
    merged; it must be finite.
    """
    scalar(SpinModelError, "merge_tol", merge_tol)
    return merge_lines(*unmerged_lines(system, env), merge_tol)
