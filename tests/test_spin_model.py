"""Spin Hamiltonian construction and diagonalization."""

import warnings
from itertools import permutations

import numpy as np
import pytest

from nvkit import spin_model
from nvkit.constants import GAMMA_E_MHZ_PER_MT
from nvkit.spin_model import (
    FieldEnvironment,
    HamiltonianMatrix,
    HyperfineCoupling,
    NuclearSpecies,
    NvOrientation,
    SpinModelError,
    SpinSystem,
    build_hamiltonian,
    eigenlevels,
    nv_orientations,
    project_field,
    resonance_frequencies_approx,
    spin_operators,
    transition_lines,
)

AXIS_111 = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)


def charpoly_eigenvalues(a):
    """Independent oracle: roots of det(a - x*I) by permutation expansion."""
    n = a.shape[0]
    poly = np.zeros(n + 1, dtype=complex)
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        term = np.array([1.0 + 0.0j])
        for row, col in enumerate(perm):
            if row == col:
                factor = np.array([a[row, col], -1.0])  # a_ii - x
            else:
                factor = np.array([a[row, col]])
            term = np.convolve(term, factor)
        padded = np.zeros(n + 1, dtype=complex)
        padded[:term.size] = term
        poly += (-1.0) ** inversions * padded
    roots = np.roots(poly[::-1])
    return np.sort(roots.real)


def random_hermitian(rng, n, scale=5.0):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (a + a.conj().T) / 2.0


# ---------------------------------------------------------------------------
# spin operators

@pytest.mark.parametrize("dim", [2, 3])
def test_spin_operators_invariants(dim):
    ops = spin_operators(dim)
    for mat in (ops.sx, ops.sy, ops.sz):
        assert np.max(np.abs(mat - mat.conj().T)) < 1e-12
    comm = ops.sx @ ops.sy - ops.sy @ ops.sx
    assert np.max(np.abs(comm - 1j * ops.sz)) < 1e-12


def test_spin_operators_canonical_sz():
    assert np.allclose(np.diag(spin_operators(3).sz), [1, 0, -1])
    assert np.allclose(np.diag(spin_operators(2).sz), [0.5, -0.5])


def test_spin1_sx_eigenvalues():
    # characteristic polynomial of S=1 Sx is x^3 - x, roots {-1, 0, 1}
    evals, _ = eigenlevels(spin_operators(3).sx)
    assert np.allclose(evals, [-1.0, 0.0, 1.0], atol=1e-12)


def test_unsupported_dimension():
    with pytest.raises(SpinModelError):
        spin_operators(4)


# ---------------------------------------------------------------------------
# eigensolver

def test_eigenlevels_diagonal_input():
    evals, evecs = eigenlevels(np.diag([1.0, 2.0, 3.0]).astype(complex))
    assert np.allclose(evals, [1.0, 2.0, 3.0])
    assert np.allclose(np.abs(evecs), np.eye(3))


def n14_c13_axial_hamiltonian(b_mt):
    system = SpinSystem(nuclei=(HyperfineCoupling.nitrogen14(), HyperfineCoupling.carbon13()))
    env = FieldEnvironment(b_lab=b_mt * system.orientation.axis)
    return build_hamiltonian(system, env).entries


@pytest.mark.parametrize("a", [
    *(pytest.param(random_hermitian(np.random.default_rng(n), n), id=str(n))
      for n in (2, 3, 4, 6, 9, 18)),
    # the dimension-18 14N+13C Hamiltonian along the NV axis
    *(pytest.param(n14_c13_axial_hamiltonian(b), id=f"n14c13-{b}mT")
      for b in (4.0, 8.3333333333)),
])
def test_eigenlevels_reconstruction_and_orthonormality(a):
    n = a.shape[0]
    evals, evecs = eigenlevels(a)
    assert np.all(np.diff(evals) >= -1e-12)
    assert np.max(np.abs(evecs.conj().T @ evecs - np.eye(n))) < 1e-10
    recon = evecs @ np.diag(evals) @ evecs.conj().T
    assert np.max(np.abs(a - recon)) < 1e-12 * np.linalg.norm(a)


def test_eigenlevels_vs_charpoly_oracle_suite():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        n = int(rng.integers(2, 5))
        a = random_hermitian(rng, n)
        evals, _ = eigenlevels(a)
        assert np.allclose(evals, charpoly_eigenvalues(a), atol=1e-8)


def test_eigenlevels_random_6x6_vs_oracle():
    rng = np.random.default_rng(66)
    a = random_hermitian(rng, 4)
    assert np.allclose(eigenlevels(a)[0], charpoly_eigenvalues(a), atol=1e-8)


def test_eigenlevels_rejects_non_hermitian():
    with pytest.raises(SpinModelError):
        eigenlevels(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_hermiticity_rule_is_relative_to_the_matrix_norm():
    tiny = np.array([[0.0, 1e-10], [0.0, 0.0]], dtype=complex)
    with pytest.raises(SpinModelError, match="not Hermitian"):
        HamiltonianMatrix(tiny, 2)
    with pytest.raises(SpinModelError, match="not Hermitian"):
        eigenlevels(tiny)
    # an asymmetry of 1e-12 relative to the norm passes at any scale
    for scale in (1e-10, 1.0, 1e10):
        near = scale * np.array([[1.0, 1e-12], [0.0, 2.0]], dtype=complex)
        assert np.allclose(eigenlevels(near)[0], [scale, 2.0 * scale])


def test_each_eigensolve_checks_hermiticity_once(monkeypatch):
    checks = []
    check = HamiltonianMatrix.__post_init__
    monkeypatch.setattr(HamiltonianMatrix, "__post_init__",
                        lambda self: checks.append(check(self)))
    system = SpinSystem(nuclei=(HyperfineCoupling.nitrogen14(),))
    env = FieldEnvironment(b_lab=np.array([1.0, 2.0, 3.0]))
    for solve in (lambda: eigenlevels(build_hamiltonian(system, env)),
                  lambda: eigenlevels(np.diag([1.0, 2.0]).astype(complex)),
                  lambda: transition_lines(system, env)):
        checks.clear()
        solve()
        assert len(checks) == 1
    # a HamiltonianMatrix is trusted as handed in: later edits are not checked again
    h = build_hamiltonian(system, env)
    h.entries[0, 1] += 1.0
    eigenlevels(h)


# ---------------------------------------------------------------------------
# Hamiltonian construction

def test_zero_field_eigenvalues():
    h = build_hamiltonian(SpinSystem(), FieldEnvironment())
    evals, _ = eigenlevels(h)
    assert np.allclose(evals, [0.0, 2870.0, 2870.0], atol=1e-9)


def test_hermiticity_random_environments():
    rng = np.random.default_rng(9)
    system = SpinSystem(nuclei=(HyperfineCoupling.nitrogen14(),
                                HyperfineCoupling.carbon13()))
    for _ in range(10):
        env = FieldEnvironment(b_lab=rng.normal(scale=3.0, size=3),
                               shift_xi=rng.normal(scale=3.0),
                               splitting_delta=rng.normal(scale=3.0))
        h = build_hamiltonian(system, env).entries
        assert np.max(np.abs(h - h.conj().T)) <= 1e-9 * max(np.max(np.abs(h)), 1.0)


def test_axial_field_transitions_analytic():
    # two-level oracle: transitions at D -/+ gamma*B for an axial field
    env = FieldEnvironment(b_lab=4.6 * AXIS_111)
    evals, _ = eigenlevels(build_hamiltonian(SpinSystem(), env))
    transitions = np.array([evals[1] - evals[0], evals[2] - evals[0]])
    gamma_b = GAMMA_E_MHZ_PER_MT * 4.6
    assert transitions == pytest.approx([2870.0 - gamma_b, 2870.0 + gamma_b],
                                        abs=1e-6)
    assert transitions == pytest.approx([2741.09, 2998.91], abs=0.01)


def test_n14_hyperfine_three_lines():
    system = SpinSystem(nuclei=(HyperfineCoupling.nitrogen14(),))
    lines = transition_lines(system, FieldEnvironment(), merge_tol=0.05)
    freqs = np.array([f for f, _ in lines])
    assert len(freqs) == 3
    assert np.allclose(np.diff(freqs), 2.16, atol=0.02)


def _every_pair(system, env):
    """(freqs, strengths) of every level pair i < j, with no floor applied."""
    observables = spin_model._operators(system).observables  # Sz^2, Sx, Sy, P0
    evals, evecs = eigenlevels(build_hamiltonian(system, env))
    sx, sy, p0 = (evecs.conj().T @ op @ evecs for op in observables[1:])
    pops = np.diag(p0).real / max(np.trace(p0).real, 1e-300)
    i, j = np.triu_indices(len(evals), k=1)
    strengths = (np.abs(sx[i, j]) ** 2 + np.abs(sy[i, j]) ** 2) * np.abs(pops[i] - pops[j])
    return evals[j] - evals[i], strengths


def _reference_transition_lines(system, env, merge_tol):
    """transition_lines as one function, with all three filters applied together."""
    freqs, strengths = _every_pair(system, env)
    keep = ((strengths > 1e-9) & (strengths >= 0.01 * strengths.max())
            & (freqs > merge_tol))
    freqs, strengths = freqs[keep], strengths[keep]
    order = np.lexsort((strengths, freqs))
    merged = []
    for freq, w in zip(freqs[order], strengths[order]):
        if merged and freq - merged[-1][0] <= merge_tol:
            f0, w0 = merged[-1]
            merged[-1] = [(f0 * w0 + freq * w) / (w0 + w), w0 + w]
        else:
            merged.append([freq, w])
    total = sum(w for _, w in merged)
    return [(f, w / total) for f, w in merged] if total > 0 else []


@pytest.mark.parametrize("nuclei", [(), (HyperfineCoupling.nitrogen14(),),
                                    (HyperfineCoupling.nitrogen14(),
                                     HyperfineCoupling.carbon13())])
def test_one_unmerged_solve_serves_every_merge_tolerance(nuclei):
    rng = np.random.default_rng(4)
    for orientation in nv_orientations():
        system = SpinSystem(nuclei=nuclei, orientation=orientation)
        env = FieldEnvironment(b_lab=rng.normal(0.0, 3.0, 3), shift_xi=rng.uniform(-3, 3),
                               splitting_delta=rng.uniform(0, 5))
        freqs, strengths = spin_model.unmerged_lines(system, env)
        for tol in (1e-6, 0.01, 0.05, 3.0):
            expected = _reference_transition_lines(system, env, tol)
            assert spin_model.merge_lines(freqs, strengths, tol) == expected
            assert transition_lines(system, env, tol) == expected


@pytest.mark.parametrize("nuclei", [(), (HyperfineCoupling.nitrogen14(),),
                                    (HyperfineCoupling.nitrogen14(),
                                     HyperfineCoupling.carbon13())])
def test_every_kept_pair_carries_the_floor_share_of_the_strongest(nuclei):
    rng = np.random.default_rng(30)
    for orientation in nv_orientations() * 25:
        system = SpinSystem(nuclei=nuclei, orientation=orientation)
        env = FieldEnvironment(b_lab=rng.uniform(-30.0, 30.0, 3) * rng.uniform(0, 1),
                               shift_xi=rng.uniform(-5, 5), splitting_delta=rng.uniform(0, 5))
        freqs, strengths = spin_model.unmerged_lines(system, env)
        every_freq, every_strength = _every_pair(system, env)
        strongest = every_strength.max()
        assert strengths.max() == strongest
        assert (strengths >= spin_model.LINE_WEIGHT_FLOOR * strongest).all()
        # a pair is dropped only below the floor, and every pair above it is kept
        above = every_strength >= spin_model.LINE_WEIGHT_FLOOR * strongest
        np.testing.assert_array_equal(freqs, every_freq[above & (every_strength > 1e-9)])


def test_eigenbasis_is_one_build_and_one_eigensolve(monkeypatch):
    # eigenbasis looks both up as module globals, so a wrapper there sees each call
    calls = []
    for name in ("build_hamiltonian", "eigenlevels"):
        def counted(*args, _name=name, _original=getattr(spin_model, name)):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(spin_model, name, counted)
    system = SpinSystem(nuclei=(HyperfineCoupling.nitrogen14(),))
    env = FieldEnvironment(b_lab=np.array([1.0, 2.0, 0.5]), splitting_delta=2.0)
    evals, observables = spin_model.eigenbasis(system, env)
    spin_model.unmerged_lines(system, env)
    assert calls == ["build_hamiltonian", "eigenlevels"] * 2
    reference, evecs = eigenlevels(build_hamiltonian(system, env))
    np.testing.assert_array_equal(evals, reference)
    assert observables.shape == (4, 9, 9)
    for op, rotated in zip(spin_model._operators(system).observables, observables):
        assert np.allclose(evecs.conj().T @ op @ evecs, rotated, rtol=0.0, atol=1e-12)


def test_spectrum_is_real():
    system = SpinSystem(nuclei=(HyperfineCoupling.nitrogen14(),))
    env = FieldEnvironment(b_lab=np.array([1.0, 2.0, 0.5]), shift_xi=1.0,
                           splitting_delta=2.0)
    evals, _ = eigenlevels(build_hamiltonian(system, env))
    assert np.all(np.isfinite(evals))  # Hermitian eigenvalues are real


@pytest.mark.parametrize("nuclei", [("n14",), (HyperfineCoupling.nitrogen14(), None)])
def test_nuclei_must_be_hyperfine_couplings(nuclei):
    bad = len(nuclei) - 1
    with pytest.raises(SpinModelError, match=rf"nuclei\[{bad}\] must be a HyperfineCoupling, "
                                             rf"got {type(nuclei[bad]).__name__}"):
        SpinSystem(nuclei=nuclei)


def test_dimension_overflow_rejected():
    with pytest.raises(SpinModelError):
        SpinSystem(nuclei=(HyperfineCoupling.nitrogen14(),
                           HyperfineCoupling.carbon13(),
                           HyperfineCoupling.carbon13()))


# every nuclear environment within the dimension-18 limit
VALID_NUCLEI = [(), ("n",), ("c",), ("n", "c"), ("c", "n"), ("c", "c")]


def nuclei_of(codes):
    return tuple(HyperfineCoupling(NuclearSpecies.N14, -2.16, -2.7) if c == "n"
                 else HyperfineCoupling(NuclearSpecies.C13, 13.0, 1.4) for c in codes)


def kron_hamiltonian(system, env):
    """Reference: every operator tensored into the full space on each call."""
    dims = [3] + [nuc.dimension for nuc in system.nuclei]

    def embed(op, slot):
        full = np.array([[1.0 + 0.0j]])
        for k, d in enumerate(dims):
            full = np.kron(full, op if k == slot else np.eye(d, dtype=complex))
        return full

    el = spin_operators(3)
    sx, sy, sz = embed(el.sx, 0), embed(el.sy, 0), embed(el.sz, 0)
    axial = float(env.b_lab @ system.orientation.axis)
    transverse = float(np.linalg.norm(env.b_lab - axial * system.orientation.axis))
    h = (system.d_zfs + env.shift_xi) * (sz @ sz)
    h = h + 2.0 * env.splitting_delta * (sx @ sx - sy @ sy)
    h = h + system.gamma_e * (axial * sz + transverse * sx)
    for k, nuc in enumerate(system.nuclei, start=1):
        ops = spin_operators(nuc.dimension)
        ix, iy, iz = embed(ops.sx, k), embed(ops.sy, k), embed(ops.sz, k)
        h = h + nuc.a_parallel * (sz @ iz)
        h = h + nuc.a_perp * (sx @ ix + sy @ iy)
    return h


@pytest.mark.parametrize("codes", VALID_NUCLEI, ids=lambda c: "+".join(c) or "bare")
def test_build_hamiltonian_equals_kron_reference_exactly(codes):
    rng = np.random.default_rng(len(codes) * 7 + len("".join(codes)))
    for orientation in nv_orientations():
        system = SpinSystem(nuclei=nuclei_of(codes), orientation=orientation)
        env = FieldEnvironment(b_lab=rng.normal(scale=5.0, size=3),
                               shift_xi=rng.normal(), splitting_delta=rng.normal())
        h = build_hamiltonian(system, env).entries
        assert np.max(np.abs(h - kron_hamiltonian(system, env))) == 0.0


@pytest.mark.parametrize("codes", VALID_NUCLEI, ids=lambda c: "+".join(c) or "bare")
def test_cached_operators_are_read_only(codes):
    system = SpinSystem(nuclei=nuclei_of(codes))
    ops = spin_model._operators(system)
    arrays = [ops.observables, *ops.observables, ops.terms, *ops.terms]
    assert len(ops.observables) == 4  # Sz^2, Sx, Sy, P0
    assert len(ops.terms) == 4 + 2 * len(codes)
    for a in arrays:
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
    pairs = spin_model._pair_indices(system.dimension)
    assert all(map(np.array_equal, pairs, np.triu_indices(system.dimension, k=1)))
    for shared, own in zip(spin_model.NV_ORIENTATIONS, nv_orientations()):
        assert np.array_equal(shared.axis, own.axis)
    for a in (*(o.axis for o in spin_model.NV_ORIENTATIONS), *pairs):
        with pytest.raises(ValueError):
            a[0] = 1

    env = FieldEnvironment(b_lab=np.array([1.0, 2.0, 3.0]))
    h = build_hamiltonian(system, env).entries
    before = h.copy()
    h[0, 0] += 1.0  # a fresh, writable array
    assert np.array_equal(build_hamiltonian(system, env).entries, before)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_spin_system_rejects_nonfinite_fields_by_name(value):
    for name in ("d_zfs", "gamma_e"):
        with pytest.raises(SpinModelError, match=f"{name} must be finite"):
            SpinSystem(**{name: value})
    for name in ("a_parallel", "a_perp"):
        with pytest.raises(SpinModelError, match=f"{name} must be finite"):
            HyperfineCoupling.nitrogen14(**{name: value})
    with pytest.raises(SpinModelError, match="NV axis must be finite"):
        NvOrientation(np.array([value, 0.0, 1.0]))


def test_nv_orientation_rejects_zero_and_malformed_axes():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SpinModelError, match="nonzero norm"):
            NvOrientation(np.zeros(3))
        with pytest.raises(SpinModelError, match="3-vector"):
            NvOrientation(np.ones(2))
    assert np.linalg.norm(NvOrientation(np.array([0.0, 0.0, 2.0])).axis) == 1.0


def test_hyperfine_preserves_transition_centroid():
    # secular hyperfine offsets sum to zero over nuclear projections
    env = FieldEnvironment(b_lab=2.0 * AXIS_111)
    bare = transition_lines(SpinSystem(), env)
    with_n = transition_lines(
        SpinSystem(nuclei=(HyperfineCoupling(
            HyperfineCoupling.nitrogen14().species, -2.16, 0.0),)), env)
    centroid = sum(f * w for f, w in bare)
    centroid_n = sum(f * w for f, w in with_n)
    assert centroid_n == pytest.approx(centroid, abs=1e-6)


# ---------------------------------------------------------------------------
# two-line approximation

def test_resonance_frequencies_approx_values():
    assert resonance_frequencies_approx(2870.0, 0.0, 0.0) == (2870.0, 2870.0)
    v_minus, v_plus = resonance_frequencies_approx(2870.0, 2.5, 4.1)
    assert (v_minus, v_plus) == pytest.approx((2864.3, 2880.7))
    assert resonance_frequencies_approx(2870.0, 2.5, 0.0) == (2872.5, 2872.5)


def test_approx_matches_exact_at_zero_field():
    env = FieldEnvironment(shift_xi=2.5, splitting_delta=4.1)
    evals, _ = eigenlevels(build_hamiltonian(SpinSystem(), env))
    exact = np.sort([evals[1] - evals[0], evals[2] - evals[0]])
    assert exact == pytest.approx(resonance_frequencies_approx(2870.0, 2.5, 4.1),
                                  abs=1e-9)


def test_approx_vs_exact_small_perturbations():
    # axial Zeeman folds into the splitting in quadrature; residual error is
    # second order in the transverse field, below (10 MHz)^2 / D
    rng = np.random.default_rng(77)
    system = SpinSystem()
    worst = 0.0
    for _ in range(100):
        xi = rng.uniform(-10, 10)
        delta = rng.uniform(0, 10)
        gb_ax = rng.uniform(-10, 10)
        gb_perp = rng.uniform(0, 6.5)
        axis = AXIS_111
        perp = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
        b = (gb_ax * axis + gb_perp * perp) / GAMMA_E_MHZ_PER_MT
        env = FieldEnvironment(b_lab=b, shift_xi=xi, splitting_delta=delta)
        evals, _ = eigenlevels(build_hamiltonian(system, env))
        exact = np.sort([evals[1] - evals[0], evals[2] - evals[0]])
        delta_eff = np.hypot(2.0 * delta, gb_ax) / 2.0
        approx = np.sort(resonance_frequencies_approx(2870.0, xi, delta_eff))
        worst = max(worst, np.max(np.abs(exact - approx)))
    assert worst < 0.035


def test_transverse_field_shift_is_second_order():
    # fully transverse field: both transitions rise by up to 2 (gamma B)^2 / D
    gb = 10.0
    b = gb / GAMMA_E_MHZ_PER_MT
    perp = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    env = FieldEnvironment(b_lab=b * perp)
    evals, _ = eigenlevels(build_hamiltonian(SpinSystem(), env))
    shifts = np.array([evals[1] - evals[0], evals[2] - evals[0]]) - 2870.0
    assert shifts.max() == pytest.approx(2.0 * gb ** 2 / 2870.0, rel=0.01)


# ---------------------------------------------------------------------------
# field projection

def test_project_field_along_one_axis():
    axes = nv_orientations()
    b = 5.0 * axes[0].axis
    pairs = project_field(b)
    assert pairs[0][0] == pytest.approx(5.0, abs=1e-9)
    assert pairs[0][1] == pytest.approx(0.0, abs=1e-9)
    for axial, _ in pairs[1:]:
        assert axial == pytest.approx(-5.0 / 3.0, abs=1e-9)  # cos = -1/3


def test_project_field_zero():
    for axial, transverse in project_field(np.zeros(3)):
        assert axial == 0.0 and transverse == 0.0


def test_project_field_generic_direction_distinct():
    b = 5.17 * np.array([0.2, 0.5, 0.84])
    b = 5.17 * b / np.linalg.norm(b)
    axials = [abs(a) for a, _ in project_field(b)]
    assert len({round(a, 6) for a in axials}) == 4


def test_orientation_geometry():
    axes = [o.axis for o in nv_orientations()]
    for i in range(4):
        assert np.linalg.norm(axes[i]) == pytest.approx(1.0, abs=1e-12)
        for j in range(i + 1, 4):
            assert axes[i] @ axes[j] == pytest.approx(-1.0 / 3.0, abs=1e-12)
