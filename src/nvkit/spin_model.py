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

MAX_DIMENSION = 18


class SpinModelError(ValueError):
    """Invalid spin-system input (dimension overflow, bad field, ...)."""


def _require_finite(name: str, value) -> None:
    if not np.all(np.isfinite(value)):
        raise SpinModelError(f"{name} must be finite, got {value!r}")


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

    def __post_init__(self):
        _require_finite("hyperfine a_parallel", self.a_parallel)
        _require_finite("hyperfine a_perp", self.a_perp)

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
        if axis.shape != (3,):
            raise SpinModelError(f"NV axis must be a 3-vector, got shape {axis.shape}")
        _require_finite("NV axis", axis)
        norm = np.linalg.norm(axis)
        if not 0.0 < norm < np.inf:
            raise SpinModelError(f"NV axis must have a finite nonzero norm, got {norm}")
        if abs(norm - 1.0) > 1e-12:
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
        _require_finite("shift_xi", self.shift_xi)
        _require_finite("splitting_delta", self.splitting_delta)
        object.__setattr__(self, "b_lab", b)


@dataclass(frozen=True)
class SpinSystem:
    """Electron spin plus its nuclear environment and orientation."""

    d_zfs: float = D_ZFS_MHZ
    gamma_e: float = GAMMA_E_MHZ_PER_MT
    nuclei: tuple[HyperfineCoupling, ...] = ()
    orientation: NvOrientation = field(default_factory=lambda: NvOrientation(NV_AXES[0]))

    def __post_init__(self):
        _require_finite("d_zfs", self.d_zfs)
        _require_finite("gamma_e", self.gamma_e)
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


def _embed(op: np.ndarray, slot: int, dims: tuple[int, ...]) -> np.ndarray:
    """Tensor ``op`` (acting on subsystem ``slot``) into the full space."""
    full = np.array([[1.0 + 0.0j]])
    for k, d in enumerate(dims):
        factor = op if k == slot else np.eye(d, dtype=complex)
        full = np.kron(full, factor)
    return full


@dataclass(frozen=True)
class _Operators:
    """Full-space operators of one Hilbert space, shared and read-only."""

    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray
    sz2: np.ndarray
    sx2_minus_sy2: np.ndarray
    p0: np.ndarray            # electron ms=0 projector
    hyperfine: tuple          # (Sz Iz, Sx Ix + Sy Iy) per nucleus


@lru_cache(maxsize=None)  # SpinSystem admits at most six dims tuples
def _build_operators(dims: tuple[int, ...]) -> _Operators:
    el = spin_operators(3)
    sx, sy, sz = (_embed(op, 0, dims) for op in (el.sx, el.sy, el.sz))
    hyperfine = []
    for k, d in enumerate(dims[1:], start=1):
        nuc = spin_operators(d)
        ix, iy, iz = (_embed(op, k, dims) for op in (nuc.sx, nuc.sy, nuc.sz))
        hyperfine.append((sz @ iz, sx @ ix + sy @ iy))
    p0 = _embed(np.diag([0.0, 1.0, 0.0]).astype(complex), 0, dims)  # basis (+1, 0, -1)
    arrays = [sx, sy, sz, sz @ sz, sx @ sx - sy @ sy, p0]
    for a in arrays + [op for pair in hyperfine for op in pair]:
        a.flags.writeable = False
    return _Operators(*arrays, tuple(hyperfine))


def _operators(system: SpinSystem) -> _Operators:
    return _build_operators((3, *(nuc.dimension for nuc in system.nuclei)))


def build_hamiltonian(system: SpinSystem, env: FieldEnvironment) -> HamiltonianMatrix:
    """Full spin Hamiltonian in the NV frame of ``system.orientation``.

    The lab field is projected onto the NV axis; the transverse component
    is placed along the NV-frame x axis (azimuthal phase is unobservable
    for the terms modeled here). The returned matrix is a fresh array.
    """
    ops = _operators(system)
    axial, transverse = project_field(env.b_lab, [system.orientation])[0]
    h = (system.d_zfs + env.shift_xi) * ops.sz2
    h = h + 2.0 * env.splitting_delta * ops.sx2_minus_sy2
    h = h + system.gamma_e * (axial * ops.sz + transverse * ops.sx)
    for nuc, (sz_iz, flip_flop) in zip(system.nuclei, ops.hyperfine):
        h = h + nuc.a_parallel * sz_iz
        h = h + nuc.a_perp * flip_flop
    return HamiltonianMatrix(entries=h, dimension=system.dimension)


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
    """Projector onto the electron ms=0 subspace of the full Hilbert space.

    This is the shared read-only array of the system's Hilbert space; copy
    it before writing to it.
    """
    return _operators(system).p0


def unmerged_lines(system: SpinSystem, env: FieldEnvironment):
    """Every drivable transition as unmerged ``(freqs, strengths)`` arrays.

    Strengths are the unnormalized weights of :func:`transition_lines`; pairs
    of strength 1e-9 or less are dropped. :func:`merge_lines` merges them at
    any tolerance, so one eigensolve serves several tolerances.
    """
    ops = _operators(system)
    evals, evecs = eigenlevels(build_hamiltonian(system, env))
    sx = evecs.conj().T @ ops.sx @ evecs
    sy = evecs.conj().T @ ops.sy @ evecs
    p0 = evecs.conj().T @ ops.p0 @ evecs
    pops = np.diag(p0).real / max(np.trace(p0).real, 1e-300)

    i, j = np.triu_indices(len(evals), k=1)
    freqs = evals[j] - evals[i]
    strengths = (np.abs(sx[i, j]) ** 2 + np.abs(sy[i, j]) ** 2) * np.abs(pops[i] - pops[j])
    keep = strengths > 1e-9
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
    |Sy_ij|^2; they are normalized to sum to 1. Lines closer than
    ``merge_tol`` (MHz) are merged.
    """
    return merge_lines(*unmerged_lines(system, env), merge_tol)
