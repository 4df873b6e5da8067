"""Eigensolvers, normal modes and cutoff convergence."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from polariton.errors import ConfigurationError, DomainError, NumericalError
from polariton.model import (
    BUILDERS,
    HermitianOperator,
    HilbertSpec,
    ModelParams,
    build_bilinear_hamiltonian,
    build_dicke_hamiltonian,
    default_spec,
    total_excitation_operator,
)
from polariton.spectral import (
    cutoff_convergence,
    eigendecompose,
    ground_energy_bilinear,
    ground_state,
    jc_polariton_splitting,
    normal_modes,
)

# resonance omega=1, lambda=0.2: Omega_pm = sqrt(1 +- 0.4)
OMEGA_PLUS = 1.1832159566199232
OMEGA_MINUS = 0.7745966692414834
GROUND_ENERGY = -0.021093687069296707  # (Omega_+ + Omega_-)/2 - 1


def test_normal_modes_resonance_oracle():
    modes = normal_modes(ModelParams.from_collective(1.0, 1.0, 0.2))
    assert modes.omega_plus == pytest.approx(OMEGA_PLUS, abs=1e-14)
    assert modes.omega_minus == pytest.approx(OMEGA_MINUS, abs=1e-14)
    assert modes.splitting == pytest.approx(OMEGA_PLUS - OMEGA_MINUS, abs=1e-14)


def test_normal_modes_detuned_against_quadratic_formula():
    # eigenvalues of [[wa^2, 2 lam sqrt(wa wb)], [., wb^2]] by hand
    wa, wb, lam = 1.0, 2.0, 0.3
    off = 2.0 * lam * math.sqrt(wa * wb)
    tr, det = wa**2 + wb**2, (wa**2) * (wb**2) - off**2
    disc = math.sqrt(tr * tr - 4.0 * det)
    mu_plus, mu_minus = (tr + disc) / 2.0, (tr - disc) / 2.0
    modes = normal_modes(ModelParams.from_collective(wa, wb, lam))
    assert modes.omega_plus == pytest.approx(math.sqrt(mu_plus), rel=1e-14)
    assert modes.omega_minus == pytest.approx(math.sqrt(mu_minus), rel=1e-14)


def test_normal_modes_mode_matrix_is_orthogonal():
    modes = normal_modes(ModelParams.from_collective(1.0, 1.5, 0.25))
    r = modes.mode_matrix
    assert np.allclose(r.T @ r, np.eye(2), atol=1e-14)


@settings(max_examples=300, deadline=None)
@given(
    omega_a=st.floats(1e-3, 1e3),
    omega_b=st.floats(1e-3, 1e3),
    ulps=st.integers(0, 4),
)
@example(omega_a=3.683534797907487, omega_b=0.28041593233669865, ulps=1)
@example(omega_a=4.32383084223908, omega_b=2.524407423277123, ulps=1)
def test_normal_modes_just_inside_the_stability_boundary(omega_a, omega_b, ulps):
    # lambda a few ulps below sqrt(wa wb) / 2: the lower eigenvalue of the
    # quadratic form cancels to zero or below in eigh
    g = math.sqrt(omega_a * omega_b) / 2.0
    for _ in range(ulps):
        g = math.nextafter(g, 0.0)
    params = ModelParams(omega_a, omega_b, g, 1)
    assume(params.bilinear_stable())
    modes = normal_modes(params)
    assert 0.0 < modes.omega_minus < 1e-6 * modes.omega_plus
    assert modes.omega_plus == pytest.approx(math.hypot(omega_a, omega_b), rel=1e-12)


@pytest.mark.parametrize("omega_a, omega_b", [(1e-300, 1.0), (1.0, 1e-300)])
def test_normal_modes_where_the_smaller_square_underflows(omega_a, omega_b):
    # 4 lambda^2 / (wa wb) = 0.04: a stable model whose wa^2 wb^2 underflows,
    # while omega_- = wa wb sqrt(1 - 0.04) / omega_+ is a normal float
    modes = normal_modes(ModelParams(omega_a, omega_b, 1e-151, 1))
    assert modes.omega_plus == 1.0
    assert modes.omega_minus == pytest.approx(1e-300 * math.sqrt(0.96), rel=1e-12)


def test_normal_modes_requires_stability():
    with pytest.raises(DomainError):
        normal_modes(ModelParams.from_collective(1.0, 1.0, 0.5))


def test_ground_energy_closed_form():
    p = ModelParams.from_collective(1.0, 1.0, 0.2)
    assert ground_energy_bilinear(p) == pytest.approx(GROUND_ENERGY, abs=1e-14)
    # lambda = 0.05: leading order -lambda^2/2 within 5%
    weak = ground_energy_bilinear(ModelParams.from_collective(1.0, 1.0, 0.05))
    assert weak == pytest.approx(-0.00125, rel=0.05)


def test_dense_diagonalization_matches_closed_forms():
    p = ModelParams.from_collective(1.0, 1.0, 0.2)
    h = build_bilinear_hamiltonian(p, HilbertSpec(12, 13))
    dec = eigendecompose(h, seed=1234)
    assert dec.count == h.dim
    assert np.all(np.diff(dec.eigenvalues) >= -1e-12)
    assert dec.eigenvalues[0] == pytest.approx(GROUND_ENERGY, abs=1e-11)
    assert dec.eigenvalues[1] - dec.eigenvalues[0] == pytest.approx(OMEGA_MINUS, abs=1e-9)
    assert dec.eigenvalues[2] - dec.eigenvalues[0] == pytest.approx(OMEGA_PLUS, abs=1e-9)


def test_krylov_agrees_with_dense():
    p = ModelParams.from_collective(1.0, 1.0, 0.2)
    h = build_bilinear_hamiltonian(p, HilbertSpec(10, 11))
    dense = eigendecompose(h, seed=1234)
    sparse = eigendecompose(h, k=4, seed=1234, method="krylov")
    assert sparse.count == 4
    assert np.allclose(sparse.eigenvalues, dense.eigenvalues[:4], atol=1e-9)


def test_krylov_needs_room():
    p = ModelParams.from_collective(1.0, 1.0, 0.1)
    h = build_bilinear_hamiltonian(p, HilbertSpec(1, 2))
    with pytest.raises(ConfigurationError):
        eigendecompose(h, k=4, seed=1234, method="krylov")


def test_auto_method_serves_every_k(monkeypatch):
    from polariton import spectral

    monkeypatch.setattr(spectral, "DENSE_DIM_LIMIT", 8)
    p = ModelParams.from_collective(1.0, 1.0, 0.2)
    h = build_bilinear_hamiltonian(p, HilbertSpec(3, 4))  # dim 16 > 8
    full = eigendecompose(h, seed=1234)
    # k >= dim - 1 is beyond Krylov, so the dense path answers
    for k in (15, 16):
        dec = eigendecompose(h, k=k, seed=1234)
        assert dec.count == k
        assert np.array_equal(dec.eigenvalues, full.eigenvalues[:k])
    krylov = eigendecompose(h, k=3, seed=1234)
    assert krylov.count == 3
    assert np.allclose(krylov.eigenvalues, full.eigenvalues[:3], atol=1e-9)


def _record_solved_blocks(mp):
    """The matrix of every block that eigendecompose solves, in the order it
    solves them, recorded where the block's pairs are validated."""
    from polariton import spectral

    solved = []
    real = spectral._validate_decomposition

    def recording(scale, matrix, *rest):
        solved.append(matrix.toarray() if hasattr(matrix, "toarray") else matrix.copy())
        return real(scale, matrix, *rest)

    mp.setattr(spectral, "_validate_decomposition", recording)
    return solved


def _assert_skips_are_certified(h, k, dec, solved):
    """The k lowest values of h are returned; every block holding one of them
    was solved; every block left unsolved has its Gershgorin lower bound above
    the k-th; a value tied across blocks takes the lower block's column
    first; and the solved and the skipped blocks are all the blocks.  Blocks
    with equal matrices (twins) are told apart by how often one was solved."""
    dense = h.to_dense()
    reference = np.linalg.eigvalsh(dense)[:k]
    assert dec.count == k
    assert np.max(np.abs(dec.eigenvalues - reference)) <= 1e-9 * h.frobenius_norm()
    assert len(solved) + dec.skipped_blocks == dec.blocks
    pattern = coo_matrix((np.ones(h.rows.size), (h.rows, h.cols)), shape=(h.dim, h.dim))
    labels = connected_components(pattern, directed=False)[1]
    assert labels.max() + 1 == dec.blocks
    blocks = [dense[np.ix_(labels == b, labels == b)] for b in range(dec.blocks)]

    def twins(matrix, among):
        return [i for i, other in enumerate(among)
                if other.shape == matrix.shape and np.array_equal(other, matrix)]

    for matrix in blocks:
        group, times = twins(matrix, blocks), len(twins(matrix, solved))
        if np.linalg.eigvalsh(matrix)[0] <= reference[-1]:
            assert times == len(group)
        if times < len(group):
            magnitude = np.abs(matrix)
            radius = magnitude.sum(axis=1) - np.diag(magnitude)
            assert np.min(np.diag(matrix).real - radius) > reference[-1]
    owner = labels[np.argmax(np.abs(dec.eigenvectors), axis=0)]
    values = dec.eigenvalues
    for j in range(k):
        if j + 1 < k and values[j] == values[j + 1]:
            assert owner[j] <= owner[j + 1]
        held = np.sum((owner == owner[j]) & (values == values[j]))
        for twin in twins(blocks[owner[j]], blocks):
            if twin < owner[j]:
                assert np.sum((owner == twin) & (values == values[j])) >= held


@pytest.mark.parametrize("model, g", [
    ("dicke", 0.1), ("bilinear", 0.1), ("jc-rwa", 0.1),
    ("dicke", 0.0), ("bilinear", 0.0), ("jc-rwa", 0.0),
])
@pytest.mark.parametrize("k", [None, 3])
def test_dense_path_solves_each_symmetry_block_alone(monkeypatch, model, g, k):
    p = ModelParams(omega_a=1.0, omega_b=1.2, g=g, n_atoms=3)
    spec = default_spec(model, p, 5)
    h = BUILDERS[model](p, spec)
    if g == 0.0:
        expected = h.dim
    elif model == "jc-rwa":
        excitations = np.diag(total_excitation_operator(p, spec).to_dense())
        expected = np.unique(excitations).size
    else:
        expected = 2  # parity
    densified = []
    real = HermitianOperator.to_dense
    monkeypatch.setattr(
        HermitianOperator, "to_dense", lambda op: densified.append(op.dim) or real(op)
    )
    solved = _record_solved_blocks(monkeypatch)
    dec = eigendecompose(h, k, seed=1234)
    assert dec.blocks == expected
    assert max(densified) < h.dim
    if k is None:
        assert len(densified) == expected and sum(densified) == h.dim
    else:
        assert len(densified) + dec.skipped_blocks == dec.blocks
        _assert_skips_are_certified(h, k, dec, solved)


@settings(max_examples=80, deadline=None)
@given(
    model=st.sampled_from(sorted(BUILDERS)),
    g=st.one_of(st.just(0.0), st.floats(0.0, 0.3)),
    n_atoms=st.integers(1, 4),
    photon_cutoff=st.integers(1, 6),
    data=st.data(),
)
def test_spectrum_is_invariant_under_blocking(model, g, n_atoms, photon_cutoff, data):
    p = ModelParams(omega_a=1.0, omega_b=1.1, g=g, n_atoms=n_atoms)
    assume(model != "bilinear" or p.bilinear_stable())
    h = BUILDERS[model](p, default_spec(model, p, photon_cutoff))
    k = data.draw(st.one_of(st.none(), st.integers(1, h.dim)), label="k")
    dense = h.to_dense()
    reference = np.linalg.eigh(dense)[0]
    tol = 1e-12 * h.frobenius_norm()
    dec = eigendecompose(h, k, seed=1234)
    assert dec.count == (h.dim if k is None else k)
    assert np.max(np.abs(dec.eigenvalues - reference[: dec.count])) <= tol
    if k is None:
        v = dec.eigenvectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(h.dim))) <= 1e-10
        assert np.max(np.abs(v.conj().T @ dense @ v - np.diag(dec.eigenvalues))) <= tol


@pytest.mark.parametrize("model, g", [("jc-rwa", 0.02), ("dicke", 0.0)])
def test_krylov_keeps_the_eigenvalues_of_other_blocks(monkeypatch, model, g):
    # the ground energy 0 sits in a one-state block (the excitation-0 sector,
    # or the vacuum at g = 0), which one Lanczos run over all of H can miss
    from polariton import spectral

    monkeypatch.setattr(spectral, "DENSE_DIM_LIMIT", 64)
    p = ModelParams(omega_a=1.0, omega_b=1.0, g=g, n_atoms=40)
    h = BUILDERS[model](p, default_spec(model, p, 12))
    assert h.dim == 533
    reference = np.linalg.eigh(h.to_dense())[0][:6]
    dec = eigendecompose(h, k=6, seed=1234)
    assert np.max(np.abs(dec.eigenvalues - reference)) <= 1e-9 * h.frobenius_norm()


def test_lanczos_keeps_a_nearly_null_vacuum(monkeypatch):
    # at g = 1e-30 the vacuum shares its parity block with coupled states, but
    # H maps it to nearly 0, and ARPACK's first step H v0 would erase it
    from polariton import spectral

    monkeypatch.setattr(spectral, "DENSE_DIM_LIMIT", 2)
    p = ModelParams(omega_a=1.0, omega_b=1.1, g=1e-30, n_atoms=1)
    h = build_bilinear_hamiltonian(p, default_spec("bilinear", p, 6))
    solved = _record_solved_blocks(monkeypatch)
    dec = eigendecompose(h, k=1, seed=1234)
    # the odd block's Gershgorin bound, about min(omega_a, omega_b), lies
    # above the vacuum's 0, so only the vacuum's block is solved
    assert (dec.blocks, dec.krylov_blocks, dec.skipped_blocks) == (2, 1, 1)
    assert abs(dec.eigenvalues[0]) <= 1e-9 * h.frobenius_norm()
    _assert_skips_are_certified(h, 1, dec, solved)


def test_lanczos_shift_does_not_grow_with_a_dicke_blocks_width(monkeypatch):
    # at N = 10^4 the Gershgorin width is about N; a shift below the lower
    # bound by a fixed fraction of it crowded the top of (H - sigma)^-1, took
    # 17402 inverse applications and returned a positive ground energy
    import scipy.linalg

    real = scipy.linalg.get_lapack_funcs
    applications = []

    def counting(names, arrays):
        pbtrf, pbtrs = real(names, arrays)

        def counted(*args, **kwargs):
            applications.append(1)
            return pbtrs(*args, **kwargs)

        return pbtrf, counted

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", counting)
    p = ModelParams(omega_a=1.0, omega_b=1.0, g=1e-12, n_atoms=10000)
    h = build_dicke_hamiltonian(p, default_spec("dicke", p, 8))
    dec = eigendecompose(h, k=2, seed=1234)
    assert (dec.blocks, dec.krylov_blocks) == (2, 2)
    assert dec.eigenvalues[0] <= 0.0
    assert 0 < len(applications) < 100


def _banded_hermitian(dim: int, bandwidth: int, seed: int):
    rng = np.random.default_rng(seed)
    rows, cols, values = [], [], []
    for offset in range(bandwidth + 1):
        start = np.arange(dim - offset)
        rows.append(start)
        cols.append(start + offset)
        part = rng.standard_normal(dim - offset) + 0j
        if offset:
            part += 1j * rng.standard_normal(dim - offset)
        values.append(part)
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(values)


def _path_laplacian(dim: int) -> HermitianOperator:
    degree = np.full(dim, 2.0)
    degree[[0, -1]] = 1.0
    edge = np.arange(dim - 1)
    return HermitianOperator(
        dim,
        np.concatenate([np.arange(dim), edge]),
        np.concatenate([np.arange(dim), edge + 1]),
        np.concatenate([degree, -np.ones(dim - 1)]),
    )


@pytest.mark.parametrize(
    "case", ["complex", "complex-1e15", "complex-1e-15", "complex-1e150", "path", "identity"]
)
def test_krylov_path_on_complex_rescaled_and_gershgorin_tight_blocks(case):
    # a complex Hermitian H is not the transpose of itself, so its LU must not
    # reuse the row-major arrays; at 1e150 the Ritz values of an unscaled
    # (H - sigma)^-1 fall below ARPACK's relative test; the path Laplacian's
    # lambda_min = 0 is its Gershgorin bound, so the shift must sit strictly
    # below that bound; and 3 I, one block through stored zeros, has
    # Gershgorin width 0
    if case == "path":
        h = _path_laplacian(800)
    elif case == "identity":
        edge = np.arange(9)
        h = HermitianOperator(
            10, np.r_[np.arange(10), edge], np.r_[np.arange(10), edge + 1],
            np.r_[np.full(10, 3.0), np.zeros(9)],
        )
    else:
        scale = float(case.partition("-")[2] or 1.0)
        rows, cols, values = _banded_hermitian(700, 3, seed=7)
        h = HermitianOperator(700, rows, cols, scale * values)
    reference = np.linalg.eigvalsh(h.to_dense())[:4]
    dec = eigendecompose(h, k=4, seed=1234, method="krylov")
    assert (dec.blocks, dec.krylov_blocks) == (1, 1)
    assert np.max(np.abs(dec.eigenvalues - reference)) <= 1e-9 * h.frobenius_norm()


@pytest.mark.parametrize("method", ["krylov", "dense"])
def test_complex_operator_is_blocked_without_a_warning(method):
    # the blocks are found on the pattern of the stored triangle, so no
    # complex value is cast to real on the way
    rows, cols, values = _banded_hermitian(700, 3, seed=7)
    h = HermitianOperator(700, rows, cols, values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dec = eigendecompose(h, k=4, seed=1234, method=method)
    assert dec.blocks == 1
    reference = np.linalg.eigvalsh(h.to_dense())[:4]
    assert np.max(np.abs(dec.eigenvalues - reference)) <= 1e-9 * h.frobenius_norm()


def test_banded_factor_reorders_a_permuted_complex_block():
    # a complex band scattered by a random permutation: reverse Cuthill-McKee
    # restores a narrow band, and the entries it moves below the diagonal
    # are stored swapped and conjugated
    from polariton.spectral import _band_order

    rows, cols, values = _banded_hermitian(700, 3, seed=7)
    scatter = np.random.default_rng(8).permutation(700)
    rows, cols = scatter[rows], scatter[cols]
    swap = rows > cols
    h = HermitianOperator(
        700, np.where(swap, cols, rows), np.where(swap, rows, cols),
        np.where(swap, np.conj(values), values),
    )
    bandwidth, permutation, position = _band_order(h, h.to_sparse())
    assert permutation is not None and bandwidth < 10 < np.max(h.cols - h.rows)
    assert np.any(position[h.rows] > position[h.cols])
    dense = h.to_dense()
    dec = eigendecompose(h, k=4, seed=1234, method="krylov")
    assert (dec.blocks, dec.krylov_blocks) == (1, 1)
    scale = h.frobenius_norm()
    assert np.max(np.abs(dec.eigenvalues - np.linalg.eigvalsh(dense)[:4])) <= 1e-9 * scale
    residual = dense @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues
    assert np.max(np.linalg.norm(residual, axis=0)) <= 1e-9 * scale


def test_banded_factor_keeps_the_natural_order_of_a_bilinear_parity_block(monkeypatch):
    # within a parity block the photon-major Kronecker order is already a
    # band of width ceil(matter_dim / 2), which reverse Cuthill-McKee ties
    from polariton import spectral

    monkeypatch.setattr(spectral, "DENSE_DIM_LIMIT", 2)
    p = ModelParams(omega_a=1.0, omega_b=1.0, g=0.2, n_atoms=1)
    h = build_bilinear_hamiltonian(p, HilbertSpec(photon_cutoff=15, matter_dim=17))
    even = np.flatnonzero(np.add.outer(np.arange(16), np.arange(17)).ravel() % 2 == 0)
    block = HermitianOperator.from_dense(h.to_dense()[np.ix_(even, even)])
    bandwidth, permutation, _ = spectral._band_order(block, block.to_sparse())
    assert (bandwidth, permutation) == (9, None)
    dec = eigendecompose(h, k=4, seed=1234)
    assert (dec.blocks, dec.krylov_blocks) == (2, 2)
    reference = np.linalg.eigvalsh(h.to_dense())[:4]
    assert np.max(np.abs(dec.eigenvalues - reference)) <= 1e-9 * h.frobenius_norm()


def test_krylov_never_allocates_the_wide_natural_band():
    # the N = 2000 Dicke parity blocks have natural bandwidth 1001, a band of
    # about 1002 x 9005 doubles (72 MB); reverse Cuthill-McKee gives 9 and 17
    import tracemalloc

    p = ModelParams(omega_a=1.0, omega_b=1.0, g=0.001, n_atoms=2000)
    h = build_dicke_hamiltonian(p, default_spec("dicke", p, 8))
    tracemalloc.start()
    try:
        dec = eigendecompose(h, k=2, seed=1234)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (dec.blocks, dec.krylov_blocks) == (2, 2)
    assert peak < 20e6


def test_residual_contract_holds_where_the_squares_overflow(monkeypatch):
    # at omega_a 1e160 the squares of the stored values overflow a float
    p = ModelParams(omega_a=1e160, omega_b=1.0, g=0.2, n_atoms=3)
    h = BUILDERS["dicke"](p, default_spec("dicke", p, 12))
    unit = 2.0**-540
    reference = float(np.linalg.norm(h.to_dense() * unit) / unit)
    assert math.isfinite(h.frobenius_norm())
    assert h.frobenius_norm() == pytest.approx(reference, rel=1e-14)
    eigendecompose(h)
    # a pair off by 1e-6 |H|_F is refused, as at ordinary scales
    real_eigh = np.linalg.eigh

    def corrupted(matrix):
        values, vectors = real_eigh(matrix)
        return values + 1e-6 * reference, vectors

    monkeypatch.setattr(np.linalg, "eigh", corrupted)
    with pytest.raises(NumericalError, match="eigenpair residual"):
        eigendecompose(h)


@pytest.mark.parametrize("omega, lam", [(1e155, 1e150), (1e299, 1e153)])
def test_normal_modes_scale_with_huge_frequencies(omega, lam):
    # omega^2 overflows a float; the form is scaled by a power of two
    unit = normal_modes(ModelParams.from_collective(1.0, 1.2, lam / omega))
    modes = normal_modes(ModelParams.from_collective(omega, 1.2 * omega, lam))
    assert modes.omega_minus == pytest.approx(omega * unit.omega_minus, rel=1e-14)
    assert modes.omega_plus == pytest.approx(omega * unit.omega_plus, rel=1e-14)
    assert np.allclose(modes.mode_matrix, unit.mode_matrix, rtol=0.0, atol=1e-14)


def test_only_blocks_above_the_limit_go_to_lanczos(monkeypatch):
    import scipy.sparse.linalg

    from polariton import spectral

    p = ModelParams(omega_a=1.0, omega_b=1.2, g=0.1, n_atoms=3)
    h = BUILDERS["jc-rwa"](p, default_spec("jc-rwa", p, 5))
    # excitation sectors of 1, 2, 3, 4, 4, 4, 3, 2 and 1 states
    lanczos, densified = [], []
    real_eigsh, real_dense = scipy.sparse.linalg.eigsh, HermitianOperator.to_dense
    monkeypatch.setattr(
        scipy.sparse.linalg, "eigsh", lambda m, **kw: lanczos.append(m.shape) or real_eigsh(m, **kw)
    )
    monkeypatch.setattr(
        HermitianOperator, "to_dense", lambda op: densified.append(op.dim) or real_dense(op)
    )
    monkeypatch.setattr(spectral, "DENSE_DIM_LIMIT", 3)
    solved = _record_solved_blocks(monkeypatch)
    dec = eigendecompose(h, 2, seed=1234)
    assert all(shape == (4, 4) for shape in lanczos)
    assert all(dim <= 3 for dim in densified)
    assert (dec.blocks, dec.krylov_blocks) == (9, len(lanczos))
    assert len(lanczos) + len(densified) + dec.skipped_blocks == dec.blocks
    _assert_skips_are_certified(h, 2, dec, solved)


@settings(max_examples=80, deadline=None)
@given(
    model=st.sampled_from(sorted(BUILDERS)),
    g=st.one_of(st.just(0.0), st.floats(0.0, 0.3)),
    n_atoms=st.integers(1, 4),
    photon_cutoff=st.integers(1, 6),
    data=st.data(),
)
def test_krylov_blocks_match_a_whole_matrix_eigh(model, g, n_atoms, photon_cutoff, data):
    from polariton import spectral

    p = ModelParams(omega_a=1.0, omega_b=1.1, g=g, n_atoms=n_atoms)
    assume(model != "bilinear" or p.bilinear_stable())
    h = BUILDERS[model](p, default_spec(model, p, photon_cutoff))
    k = data.draw(st.integers(1, h.dim), label="k")
    dense = h.to_dense()
    reference = np.linalg.eigh(dense)[0][:k]
    sizes = np.bincount(connected_components(h.to_sparse(), directed=False)[1])
    with pytest.MonkeyPatch.context() as mp:
        # every solved block with room for Lanczos (k < size - 1) is served by it
        mp.setattr(spectral, "DENSE_DIM_LIMIT", 2)
        solved = _record_solved_blocks(mp)
        dec = eigendecompose(h, k, seed=1234)
    solved_sizes = np.array([m.shape[0] for m in solved])
    tol = 1e-9 * h.frobenius_norm()
    assert dec.count == k
    assert (dec.blocks, dec.krylov_blocks) == (
        sizes.size, np.sum(np.minimum(k, solved_sizes) < solved_sizes - 1)
    )
    _assert_skips_are_certified(h, k, dec, solved)
    assert np.max(np.abs(dec.eigenvalues - reference)) <= tol
    v = dec.eigenvectors
    assert np.max(np.abs(v.conj().T @ v - np.eye(k))) <= 1e-10
    assert np.max(np.abs(v.conj().T @ dense @ v - np.diag(dec.eigenvalues))) <= tol


def test_witness_ground_state_factors_only_the_even_parity_block(monkeypatch):
    # the benchmark's witness operator at g = 0.4: the odd parity block's
    # Gershgorin lower bound, about -0.04, lies above the ground energy,
    # about -0.106, so k = 1 factors and iterates on the even block alone
    import scipy.linalg

    real = scipy.linalg.get_lapack_funcs
    factored = []

    def counting(names, arrays):
        pbtrf, pbtrs = real(names, arrays)

        def counted(band, *args, **kwargs):
            factored.append(band.shape[1])
            return pbtrf(band, *args, **kwargs)

        return counted, pbtrs

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", counting)
    p = ModelParams(omega_a=1.0, omega_b=1.0, g=0.4, n_atoms=1)
    h = build_bilinear_hamiltonian(p, HilbertSpec(photon_cutoff=63, matter_dim=65))
    dec = eigendecompose(h, k=1, seed=1234)
    assert factored == [2080]
    assert (dec.blocks, dec.krylov_blocks, dec.skipped_blocks) == (2, 1, 1)
    assert dec.eigenvalues[0] == pytest.approx(ground_energy_bilinear(p), abs=1e-9)


@st.composite
def _scattered_blocks(draw):
    """A Hermitian operator made of random blocks, some shifted far above the
    rest and some repeated exactly (twins, whose values tie), with the
    indices of all blocks scattered by a random permutation."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    imaginary = draw(st.sampled_from([0.0, 1j]), label="imaginary")
    matrices = []
    for _ in range(draw(st.integers(1, 6), label="blocks")):
        if matrices and draw(st.booleans(), label="twin"):
            matrices.append(matrices[draw(st.integers(0, len(matrices) - 1))])
            continue
        size = draw(st.integers(1, 6), label="size")
        a = rng.standard_normal((size, size)) + imaginary * rng.standard_normal((size, size))
        shift = draw(st.sampled_from([0.0, 2.0, 50.0, 1e4]), label="shift")
        matrices.append(a + a.conj().T + shift * np.eye(size))
    dim = sum(m.shape[0] for m in matrices)
    scatter = rng.permutation(dim)
    dense = np.zeros((dim, dim), dtype=np.result_type(*matrices))
    start = 0
    for m in matrices:
        index = np.sort(scatter[start : start + m.shape[0]])
        dense[np.ix_(index, index)] = m
        start += m.shape[0]
    return HermitianOperator.from_dense(dense)


@settings(max_examples=150, deadline=None)
@given(h=_scattered_blocks(), limit=st.sampled_from([2, 512]), data=st.data())
def test_skipped_blocks_cannot_hold_a_wanted_value(h, limit, data):
    from polariton import spectral

    k = data.draw(st.integers(1, h.dim), label="k")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "DENSE_DIM_LIMIT", limit)
        solved = _record_solved_blocks(mp)
        dec = eigendecompose(h, k, seed=1234)
    _assert_skips_are_certified(h, k, dec, solved)


def test_a_block_whose_bound_reaches_below_the_kth_value_is_solved(monkeypatch):
    # [[1, 1.5], [1.5, 4]] holds no wanted value, its lowest being about
    # 0.38 against the ground value 0, but its Gershgorin lower bound -0.5
    # does not prove that, so it is solved; the state at 10 is skipped
    h = HermitianOperator(4, [0, 1, 1, 2, 3], [0, 1, 2, 2, 3], [0.0, 1.0, 1.5, 4.0, 10.0])
    solved = _record_solved_blocks(monkeypatch)
    dec = eigendecompose(h, k=1, seed=1234)
    assert [m.shape[0] for m in solved] == [1, 2]
    assert (dec.blocks, dec.skipped_blocks) == (3, 1)
    assert dec.eigenvalues.tolist() == [0.0]
    _assert_skips_are_certified(h, 1, dec, solved)


def test_a_value_tied_across_blocks_takes_the_lower_blocks_column_first(monkeypatch):
    # [[2, 1], [1, 2]] on states 0 and 1 and [1] on state 2 both hold exactly
    # 1; the second block is visited first, having the smaller diagonal
    # entry, but the merge keeps block order
    h = HermitianOperator(3, [0, 0, 1, 2], [0, 1, 1, 2], [2.0, 1.0, 2.0, 1.0])
    solved = _record_solved_blocks(monkeypatch)
    dec = eigendecompose(h, k=2, seed=1234)
    assert [m.shape[0] for m in solved] == [1, 2]
    assert dec.eigenvalues.tolist() == [1.0, 1.0]
    assert np.flatnonzero(dec.eigenvectors[:, 0]).tolist() == [0, 1]
    assert np.flatnonzero(dec.eigenvectors[:, 1]).tolist() == [2]
    _assert_skips_are_certified(h, 2, dec, solved)


@pytest.mark.parametrize("k", [1, None])
def test_a_solver_that_misses_a_blocks_lowest_pair_is_refused(monkeypatch, k):
    # a dense solver that returns only the upper pair of [[0, 0.1], [0.1, 5]]
    # meets the residual and orthonormality contracts, but the value it
    # returns, about 5.002, lies above the least diagonal entry 0, a
    # Rayleigh quotient and so an upper bound on the lowest eigenvalue
    import scipy.linalg

    real = np.linalg.eigh

    def dropping(matrix, **kwargs):
        values, vectors = real(matrix)
        return values[1:], vectors[:, 1:]

    monkeypatch.setattr(scipy.linalg, "eigh", dropping)
    monkeypatch.setattr(np.linalg, "eigh", dropping)
    h = HermitianOperator.from_dense([[0.0, 0.1], [0.1, 5.0]])
    with pytest.raises(NumericalError, match="missed the block's lowest pair"):
        eigendecompose(h, k)


def test_a_solver_whose_vectors_are_not_orthonormal_is_refused(monkeypatch):
    # twice the true vectors of [[0, 0.1], [0.1, 5]] still meet the residual
    # contract, but their Gram matrix is 4 I, a defect of 3
    import scipy.linalg

    real = np.linalg.eigh

    def doubling(matrix, **kwargs):
        values, vectors = real(matrix)
        return values, 2.0 * vectors

    monkeypatch.setattr(scipy.linalg, "eigh", doubling)
    monkeypatch.setattr(np.linalg, "eigh", doubling)
    h = HermitianOperator.from_dense([[0.0, 0.1], [0.1, 5.0]])
    with pytest.raises(NumericalError, match="orthonormality defect 3.000e"):
        eigendecompose(h)


def test_a_failed_banded_cholesky_factor_is_refused(monkeypatch):
    # pbtrf reporting a leading minor that is not positive definite
    import scipy.linalg

    real = scipy.linalg.get_lapack_funcs

    def failing(names, arrays):
        _, pbtrs = real(names, arrays)

        def failed(band, **kwargs):
            return band, 1

        return failed, pbtrs

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", failing)
    p = ModelParams.from_collective(1.0, 1.0, 0.2)
    h = build_bilinear_hamiltonian(p, HilbertSpec(8, 9))
    with pytest.raises(NumericalError, match=r"Cholesky factor of H - sigma failed \(info 1\)"):
        eigendecompose(h, k=1, method="krylov")


def test_an_unconverged_krylov_iteration_is_refused(monkeypatch):
    import scipy.sparse.linalg
    from scipy.sparse.linalg import ArpackNoConvergence

    def stalling(a, k, **kwargs):
        raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((a.shape[0], 0)))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalling)
    p = ModelParams.from_collective(1.0, 1.0, 0.2)
    h = build_bilinear_hamiltonian(p, HilbertSpec(8, 9))
    with pytest.raises(NumericalError,
                       match=r"did not converge within 10000 iterations \(0/2 pairs found\)"):
        eigendecompose(h, k=2, method="krylov")


def test_ground_state_phase_is_deterministic():
    p = ModelParams.from_collective(1.0, 1.0, 0.2)
    h = build_bilinear_hamiltonian(p, HilbertSpec(8, 9))
    e1, s1 = ground_state(h, seed=1234)
    e2, s2 = ground_state(h, seed=99)
    assert e1 == pytest.approx(e2, abs=1e-12)
    # the same sign convention regardless of solver seed
    assert np.allclose(s1.amplitudes, s2.amplitudes, atol=1e-9)
    lead = s1.amplitudes[np.argmax(np.abs(s1.amplitudes))]
    assert lead.imag == pytest.approx(0.0, abs=1e-12)
    assert lead.real > 0


def test_coupling_strictly_lowers_ground_energy():
    energies = []
    for lam in (0.0, 0.1, 0.2, 0.3, 0.4):
        p = ModelParams.from_collective(1.0, 1.0, lam)
        h = build_bilinear_hamiltonian(p, HilbertSpec(14, 15))
        energies.append(ground_state(h, seed=1234)[0])
    assert all(b < a - 1e-12 for a, b in zip(energies, energies[1:]))


def test_cutoff_ladder_converges():
    p = ModelParams.from_collective(1.0, 1.0, 0.2)
    report = cutoff_convergence("bilinear", p, (4, 6, 8, 10, 12), seed=1234)
    deltas = report.deltas
    assert all(d2 < d1 for d1, d2 in zip(deltas, deltas[1:]))
    assert report.final_delta < 1e-10
    assert report.converged


def test_cutoff_ladder_refuses_an_unknown_builder():
    with pytest.raises(ConfigurationError, match="unknown model 'tight-binding'"):
        cutoff_convergence("tight-binding", ModelParams(1.0, 1.0, 0.2, 1), (4, 6))


def test_jc_splitting_is_two_g_root_n():
    for n in (1, 4, 9):
        p = ModelParams(omega_a=1.0, omega_b=1.0, g=0.05, n_atoms=n)
        split = jc_polariton_splitting(p, seed=1234)
        assert split == pytest.approx(2.0 * 0.05 * math.sqrt(n), abs=1e-12)


def test_jc_splitting_rejects_overdamped_coupling():
    with pytest.raises(DomainError):
        jc_polariton_splitting(ModelParams(1.0, 1.0, 1.1, 1), seed=1234)
