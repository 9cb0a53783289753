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

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .constants import (
    A_PARALLEL_C13_STRONG_MHZ,
    A_PARALLEL_N14_MHZ,
    A_PERP_N14_MHZ,
    D_ZFS_MHZ,
    GAMMA_E_MHZ_PER_MT,
    NV_AXES,
)

MAX_DIMENSION = 18


class SpinModelError(ValueError):
    """Invalid spin-system input (dimension overflow, bad field, ...)."""


@dataclass(frozen=True)
class SpinOperators:
    """Canonical spin matrices (hbar = 1) for a given multiplet dimension."""

    dimension: int
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray


def spin_operators(dimension: int) -> SpinOperators:
    """Spin matrices for dimension 2 (S=1/2) or 3 (S=1)."""
    if dimension == 2:
        sx = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)
        sy = 0.5 * np.array([[0, -1j], [1j, 0]], dtype=complex)
        sz = 0.5 * np.array([[1, 0], [0, -1]], dtype=complex)
    elif dimension == 3:
        s2 = 1.0 / np.sqrt(2.0)
        sx = s2 * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
        sy = s2 * np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex)
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


@dataclass(frozen=True)
class NvOrientation:
    """One of the four <111> symmetry axes, stored as a unit vector."""

    axis: np.ndarray

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=float)
        norm = np.linalg.norm(axis)
        if not np.isfinite(norm) or abs(norm - 1.0) > 1e-12:
            axis = axis / norm
        object.__setattr__(self, "axis", axis)


def nv_orientations() -> tuple[NvOrientation, ...]:
    """The four NV orientations in a fixed order."""
    return tuple(NvOrientation(axis) for axis in NV_AXES)


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
        b = np.asarray(self.b_lab, dtype=float)
        if b.shape != (3,) or not np.all(np.isfinite(b)):
            raise SpinModelError("b_lab must be a finite 3-vector in mT")
        if not (np.isfinite(self.shift_xi) and np.isfinite(self.splitting_delta)):
            raise SpinModelError("shift and splitting must be finite")
        object.__setattr__(self, "b_lab", b)


@dataclass(frozen=True)
class SpinSystem:
    """Electron spin plus its nuclear environment and orientation."""

    d_zfs: float = D_ZFS_MHZ
    gamma_e: float = GAMMA_E_MHZ_PER_MT
    nuclei: tuple[HyperfineCoupling, ...] = ()
    orientation: NvOrientation = field(default_factory=lambda: NvOrientation(NV_AXES[0]))

    def __post_init__(self):
        if self.d_zfs <= 0:
            raise SpinModelError("zero-field splitting must be positive")
        object.__setattr__(self, "nuclei", tuple(self.nuclei))
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


def orientation_variants(system: SpinSystem) -> tuple[SpinSystem, ...]:
    """``system`` in each of the four NV orientations, in the fixed order."""
    return tuple(replace(system, orientation=o) for o in nv_orientations())


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Hermitian matrix in MHz with its Hilbert-space dimension."""

    entries: np.ndarray
    dimension: int

    def __post_init__(self):
        h = np.asarray(self.entries, dtype=complex)
        if h.shape != (self.dimension, self.dimension):
            raise SpinModelError("matrix shape does not match declared dimension")
        scale = max(np.max(np.abs(h)), 1.0)
        if np.max(np.abs(h - h.conj().T)) > 1e-9 * scale:
            raise SpinModelError("matrix is not Hermitian within tolerance")
        object.__setattr__(self, "entries", h)


def project_field(b_lab, orientations=None):
    """Axial/transverse field components for each NV orientation.

    Returns a list of (axial, transverse) pairs in mT, in the fixed
    orientation order of :func:`nv_orientations`.
    """
    b = np.asarray(b_lab, dtype=float)
    if b.shape != (3,) or not np.all(np.isfinite(b)):
        raise SpinModelError("b_lab must be a finite 3-vector in mT")
    if orientations is None:
        orientations = nv_orientations()
    out = []
    for orient in orientations:
        axial = float(b @ orient.axis)
        transverse = float(np.linalg.norm(b - axial * orient.axis))
        out.append((axial, transverse))
    return out


def _embed(op: np.ndarray, slot: int, dims: list[int]) -> np.ndarray:
    """Tensor ``op`` (acting on subsystem ``slot``) into the full space."""
    full = np.array([[1.0 + 0.0j]])
    for k, d in enumerate(dims):
        factor = op if k == slot else np.eye(d, dtype=complex)
        full = np.kron(full, factor)
    return full


def build_hamiltonian(system: SpinSystem, env: FieldEnvironment) -> HamiltonianMatrix:
    """Full spin Hamiltonian in the NV frame of ``system.orientation``.

    The lab field is projected onto the NV axis; the transverse component
    is placed along the NV-frame x axis (azimuthal phase is unobservable
    for the terms modeled here).
    """
    dims = [3] + [nuc.dimension for nuc in system.nuclei]
    dim = int(np.prod(dims))
    if dim > MAX_DIMENSION:
        raise SpinModelError(f"Hilbert dimension {dim} exceeds {MAX_DIMENSION}")

    el = spin_operators(3)
    sx = _embed(el.sx, 0, dims)
    sy = _embed(el.sy, 0, dims)
    sz = _embed(el.sz, 0, dims)
    sz2 = sz @ sz

    axial, transverse = project_field(env.b_lab, [system.orientation])[0]
    h = (system.d_zfs + env.shift_xi) * sz2
    h = h + 2.0 * env.splitting_delta * (sx @ sx - sy @ sy)
    h = h + system.gamma_e * (axial * sz + transverse * sx)

    for k, nuc in enumerate(system.nuclei, start=1):
        ops = spin_operators(nuc.dimension)
        ix = _embed(ops.sx, k, dims)
        iy = _embed(ops.sy, k, dims)
        iz = _embed(ops.sz, k, dims)
        h = h + nuc.a_parallel * (sz @ iz)
        h = h + nuc.a_perp * (sx @ ix + sy @ iy)

    return HamiltonianMatrix(entries=h, dimension=dim)


def resonance_frequencies_approx(d: float, xi: float, delta: float):
    """First-order two-line approximation: (D + xi - 2*delta, D + xi + 2*delta)."""
    return d + xi - 2.0 * delta, d + xi + 2.0 * delta


def eigenlevels(h: HamiltonianMatrix | np.ndarray):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix.

    LAPACK's Hermitian solver (``np.linalg.eigh``) on the lower triangle;
    eigenvector ``k`` is column ``k``. Within a degenerate eigenvalue the
    basis of the eigenspace is whatever LAPACK returns.
    """
    a = h.entries if isinstance(h, HamiltonianMatrix) else np.asarray(h, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise SpinModelError("eigenlevels requires a square matrix")
    scale = max(np.linalg.norm(a), 1e-300)
    if np.max(np.abs(a - a.conj().T)) > 1e-9 * scale:
        raise SpinModelError("eigenlevels requires a Hermitian matrix")
    return np.linalg.eigh(a)


def ms0_projector(system: SpinSystem) -> np.ndarray:
    """Projector onto the electron ms=0 subspace of the full Hilbert space."""
    dims = [3] + [nuc.dimension for nuc in system.nuclei]
    p0 = np.zeros((3, 3), dtype=complex)
    p0[1, 1] = 1.0  # basis order (+1, 0, -1)
    return _embed(p0, 0, dims)


def transition_lines(system: SpinSystem, env: FieldEnvironment, merge_tol: float = 1e-6):
    """Optically detectable spin transition lines as (frequency, weight) pairs.

    Weights combine the initial ms=0 population prepared by optical pumping
    with the polarization-averaged magnetic drive strength |Sx_ij|^2 +
    |Sy_ij|^2; they are normalized to sum to 1. Lines closer than
    ``merge_tol`` (MHz) are merged.
    """
    h = build_hamiltonian(system, env)
    evals, evecs = eigenlevels(h)
    dims = [3] + [nuc.dimension for nuc in system.nuclei]
    el = spin_operators(3)
    sx = evecs.conj().T @ _embed(el.sx, 0, dims) @ evecs
    sy = evecs.conj().T @ _embed(el.sy, 0, dims) @ evecs
    p0 = evecs.conj().T @ ms0_projector(system) @ evecs
    pops = np.diag(p0).real / max(np.trace(p0).real, 1e-300)

    raw = []
    n = len(evals)
    for i in range(n):
        for j in range(i + 1, n):
            freq = evals[j] - evals[i]
            strength = (abs(sx[i, j]) ** 2 + abs(sy[i, j]) ** 2) * abs(pops[i] - pops[j])
            if strength > 1e-9 and freq > merge_tol:
                raw.append((freq, strength))
    raw.sort()

    merged: list[list[float]] = []
    for freq, w in raw:
        if merged and freq - merged[-1][0] <= merge_tol:
            f0, w0 = merged[-1]
            merged[-1] = [(f0 * w0 + freq * w) / (w0 + w), w0 + w]
        else:
            merged.append([freq, w])
    total = sum(w for _, w in merged)
    if total <= 0:
        return []
    return [(f, w / total) for f, w in merged]
