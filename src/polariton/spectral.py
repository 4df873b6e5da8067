"""Eigensolvers, normal-mode analysis, and cutoff convergence ladders."""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, NumericalError
from .model import (
    BUILDERS,
    HermitianOperator,
    ModelParams,
    StateVector,
    build_jc_rwa_hamiltonian,
    default_spec,
)

DEFAULT_SEED = 1234
DENSE_DIM_LIMIT = 512  # largest block densified on the auto path
RESIDUAL_TOL = 1e-9
ORTHONORMALITY_TOL = 1e-10
KRYLOV_MAXITER = 10000


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in ascending order with eigenvectors as matching columns;
    blocks is the number of invariant blocks found in the operator,
    skipped_blocks how many of them were left unsolved because their
    Gershgorin bound proves that none of their eigenvalues is wanted, and
    krylov_blocks how many of the solved ones Lanczos served (the rest were
    dense)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    blocks: int
    krylov_blocks: int
    skipped_blocks: int

    @property
    def count(self) -> int:
        return self.eigenvalues.size


@dataclass(frozen=True)
class NormalModes:
    """Polariton branch frequencies of the stable bilinear model."""

    omega_minus: float
    omega_plus: float
    mode_matrix: np.ndarray  # orthogonal 2x2, columns are mode coordinates

    def __post_init__(self):
        if not (self.omega_minus > 0.0):
            raise DomainError(f"lower branch must be positive, got {self.omega_minus}")
        if self.omega_plus < self.omega_minus:
            raise DomainError("branches must be ordered omega_plus >= omega_minus")

    @property
    def splitting(self) -> float:
        return self.omega_plus - self.omega_minus


def _validate_decomposition(scale, matrix, values, vectors, least):
    """Residual, orthonormality and Rayleigh contracts of one block's pairs,
    in ascending order.  least, the block's smallest diagonal entry, is a
    basis vector's Rayleigh quotient, so no lowest eigenvalue lies above it."""
    # residuals are measured in units of a power of two near scale = |H|_F,
    # which is exact and keeps the squares in the norm finite at any scale
    unit = np.ldexp(1.0, -np.frexp(scale)[1])
    resid = np.linalg.norm((matrix @ vectors - vectors * values) * unit, axis=0)
    worst = float(resid.max()) if resid.size else 0.0
    if not (worst <= RESIDUAL_TOL * scale * unit):
        raise NumericalError(
            f"eigenpair residual {worst / unit:.3e} exceeds {RESIDUAL_TOL:.0e} * |H|"
        )
    gram = vectors.conj().T @ vectors
    ortho = float(np.max(np.abs(gram - np.eye(values.size))))
    if not (ortho <= ORTHONORMALITY_TOL):
        raise NumericalError(f"eigenvector orthonormality defect {ortho:.3e}")
    if not (values[0] <= least + RESIDUAL_TOL * scale):
        raise NumericalError(
            f"lowest eigenvalue {values[0]:.12g} of a block lies above its smallest "
            f"diagonal entry {least:.12g}: the solver missed the block's lowest pair"
        )


def _gershgorin(h: HermitianOperator, members, starts):
    """Per block, its Gershgorin lower and upper bounds and its smallest
    diagonal entry, from one pass over the stored triangle: members lists the
    indices block by block and starts is where each block begins in it.  A
    row's disc sums the magnitudes of its stored entries in storage order,
    with each diagonal entry's magnitude as an exact 0."""
    diag = h.rows == h.cols
    magnitude = np.abs(h.values)
    magnitude[diag] = 0.0
    centre = np.bincount(h.rows[diag], h.values[diag].real, minlength=h.dim)
    radius = np.bincount(h.rows, magnitude, minlength=h.dim)
    radius += np.bincount(h.cols, magnitude, minlength=h.dim)
    return (
        np.minimum.reduceat((centre - radius)[members], starts),
        np.maximum.reduceat((centre + radius)[members], starts),
        np.minimum.reduceat(centre[members], starts),
    )


def _band_order(block: HermitianOperator, matrix):
    """Bandwidth, permutation and inverse permutation (both None for the
    natural order) of the narrower of the natural and the reverse
    Cuthill-McKee orderings of a block, found from the index arrays of its
    stored triangle and of its full sparse matrix; a tie keeps the natural
    order."""
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    natural = int(np.max(block.cols - block.rows))
    permutation = reverse_cuthill_mckee(matrix, symmetric_mode=True)
    position = np.empty(block.dim, dtype=np.int64)
    position[permutation] = np.arange(block.dim)
    reordered = int(np.max(np.abs(position[block.rows] - position[block.cols])))
    if reordered < natural:
        return reordered, permutation, position
    return natural, None, None


def _lanczos(block: HermitianOperator, matrix, k: int, seed: int, lower, upper, least):
    """Lowest k eigenpairs of a Hermitian block, given as its stored upper
    triangle and as its full sparse matrix, by shift-invert Lanczos from a
    start vector fixed by the seed, in ascending order.  lower and upper are
    the block's Gershgorin bounds and least its smallest diagonal entry
    (_gershgorin).

    ARPACK iterates with (H - sigma)^-1, applied by one banded Cholesky factor
    of H - sigma (LAPACK pbtrf/pbtrs) in the narrower of the natural and the
    reverse Cuthill-McKee orderings (_band_order); with bandwidth b its
    memory is (b + 1) dim entries.  sigma sits below the Gershgorin lower
    bound l by a tenth of [l, smallest diagonal entry], which holds the lowest
    eigenvalue, and by at least 2^-40 of the Gershgorin width w, which grows
    with N in a Dicke block.  So H - sigma is positive definite with condition
    number at most about 2^40, and the wanted eigenvalues are the largest of
    the inverse, which has no near-null space to erase an eigenvector from
    the start vector.  H is first scaled by a power of two near 1/w, which is
    exact and keeps the inverse's Ritz values above about 1: below eps^(2/3)
    ARPACK's convergence test turns absolute."""
    from scipy.linalg import get_lapack_funcs
    from scipy.sparse.linalg import (
        ArpackNoConvergence, LinearOperator, aslinearoperator, eigsh,
    )

    dim, rows, cols, values = block.dim, block.rows, block.cols, block.values
    # the width is 0 only for a multiple of the identity, stored zeros linking it
    width = (upper - lower) or max(abs(lower), 1.0)
    unit = np.ldexp(1.0, -np.frexp(width)[1])
    sigma = (lower - max(0.1 * (least - lower), 2.0**-40 * width)) * unit

    # upper band storage ab[b + i - j, j] = H[i, j], i <= j, one stored entry
    # per place as to_dense assumes; an entry the permutation moves below
    # the diagonal is stored swapped and conjugated
    bandwidth, permutation, position = _band_order(block, matrix)
    if permutation is not None:
        rows, cols = position[rows], position[cols]
        values = np.where(rows > cols, np.conj(values), values)
        rows, cols = np.minimum(rows, cols), np.maximum(rows, cols)
    band = np.zeros((bandwidth + 1, dim), dtype=values.dtype, order="F")
    band[bandwidth + rows - cols, cols] = values * unit
    band[bandwidth] -= sigma
    pbtrf, pbtrs = get_lapack_funcs(("pbtrf", "pbtrs"), (band,))
    factor, info = pbtrf(band, overwrite_ab=1)
    if info != 0:
        raise NumericalError(f"banded Cholesky factor of H - sigma failed (info {info})")

    def solve(x):
        if permutation is None:
            return pbtrs(factor, x)[0]
        out = np.empty_like(x)
        out[permutation] = pbtrs(factor, x[permutation])[0]
        return out

    inverse = LinearOperator((dim, dim), matvec=solve, dtype=factor.dtype)
    v0 = np.random.default_rng(seed).standard_normal(dim)
    try:
        # a lazy scaled H: in shift-invert mode ARPACK applies only OPinv
        values, vectors = eigsh(
            aslinearoperator(matrix) * unit, k=k, sigma=sigma, which="LM",
            OPinv=inverse, v0=v0, maxiter=KRYLOV_MAXITER,
        )
    except ArpackNoConvergence as exc:
        got = np.asarray(exc.eigenvalues)
        raise NumericalError(
            f"Krylov iteration did not converge within {KRYLOV_MAXITER} "
            f"iterations ({got.size}/{k} pairs found)"
        ) from exc
    order = np.argsort(values)
    return values[order] / unit, vectors[:, order]


def eigendecompose(
    h: HermitianOperator,
    k: int | None = None,
    *,
    seed: int = DEFAULT_SEED,
    method: str = "auto",
) -> EigenDecomposition:
    """Lowest part of the spectrum of a Hermitian operator.

    H is split into the connected components of the sparsity graph of its
    stored upper triangle.  No stored entry links two components, so each is
    an exact invariant block (parity, excitation sectors, single states at
    g = 0); each block is solved on its own, and the lowest k pairs (all when
    k is None) are merged in block order by a stable sort.

    One pass over the stored triangle gives each block its Gershgorin lower
    bound l_B and its smallest diagonal entry d_B (_gershgorin), and the
    blocks are visited in ascending d_B.  When k is given and k values have
    been found, a block with l_B - 1e-9 |H|_F above the k-th lowest of them
    is skipped: every eigenvalue it holds is at least l_B, so none of its
    pairs, even with the residual the contract allows, could enter the merge,
    which therefore chooses the same columns in the same order as if it had
    been solved.  With k None every block is solved.  A block goes to Krylov
    (shift-invert Lanczos on one banded Cholesky factor, in natural or
    reverse Cuthill-McKee order, start vector fixed by the seed, see
    _lanczos) when k leaves it room (min(k, block size) < block
    size - 1) and method is "krylov", or "auto" with the block larger than
    DENSE_DIM_LIMIT; every other block is densified alone and LAPACK is asked
    only for its lowest min(k, block size) pairs.  No Lanczos run sees two
    blocks, so none can miss an eigenvalue in another block.  Residual
    (1e-9 |H|_F) and orthonormality (1e-10) contracts are checked for the
    pairs of every solved block against the scale of the whole operator,
    since residuals off a block and overlaps between blocks vanish
    identically, and so is the Rayleigh contract: a block's lowest value is
    at most d_B + 1e-9 |H|_F (_validate_decomposition).
    """
    from scipy.linalg import eigh
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    if k is not None and not (1 <= k <= h.dim):
        raise ConfigurationError(f"k = {k} outside 1..{h.dim}")
    if method not in ("auto", "dense", "krylov"):
        raise ConfigurationError(f"unknown method '{method}'")
    if method == "krylov" and (k is None or k >= h.dim - 1):
        raise ConfigurationError(
            f"the iterative path needs k < dim - 1, got k={k}, dim={h.dim}"
        )

    scale = max(h.frobenius_norm(), 1e-300)
    n_blocks, labels = connected_components(
        coo_matrix((np.ones(h.rows.size), (h.rows, h.cols)), shape=(h.dim, h.dim)),
        directed=False,
    )
    edges = np.arange(n_blocks + 1)
    members = np.argsort(labels, kind="stable")  # ascending within each block
    bounds = np.searchsorted(labels[members], edges)
    local = np.empty(h.dim, dtype=np.int64)
    local[members] = np.arange(h.dim) - bounds[labels[members]]
    # stored entries grouped by block; row <= col keeps the local upper triangle
    by_entry = np.argsort(labels[h.rows], kind="stable")
    entry_bounds = np.searchsorted(labels[h.rows][by_entry], edges)

    lower, upper, least = _gershgorin(h, members, bounds[:-1])
    margin = RESIDUAL_TOL * scale
    lowest = []  # the k lowest values found so far, negated: a max-heap
    solved = {}
    krylov_blocks = 0
    for b in np.argsort(least, kind="stable"):
        if k is not None and len(lowest) == k and lower[b] - margin > -lowest[0]:
            continue
        index = members[bounds[b] : bounds[b + 1]]
        entries = by_entry[entry_bounds[b] : entry_bounds[b + 1]]
        block = HermitianOperator(
            index.size, local[h.rows[entries]], local[h.cols[entries]], h.values[entries]
        )
        want = index.size if k is None else min(k, index.size)
        if want < index.size - 1 and (
            method == "krylov" or (method == "auto" and index.size > DENSE_DIM_LIMIT)
        ):
            matrix = block.to_sparse()
            values, vectors = _lanczos(block, matrix, want, seed, lower[b], upper[b], least[b])
            krylov_blocks += 1
        else:
            matrix = block.to_dense()
            if want < index.size:
                values, vectors = eigh(matrix, subset_by_index=[0, want - 1])
            else:
                values, vectors = np.linalg.eigh(matrix)
        _validate_decomposition(scale, matrix, values, vectors, least[b])
        solved[b] = (index, values, vectors)
        if k is not None:
            for value in values:
                if len(lowest) < k:
                    heapq.heappush(lowest, -value)
                elif value < -lowest[0]:
                    heapq.heapreplace(lowest, -value)

    parts = [solved[b] for b in sorted(solved)]
    values = np.concatenate([block_values for _, block_values, _ in parts])
    chosen = np.argsort(values, kind="stable")[:k]
    column = np.full(values.size, -1)
    column[chosen] = np.arange(chosen.size)
    out = np.zeros((h.dim, chosen.size), dtype=parts[0][2].dtype)
    start = 0
    for index, block_values, vectors in parts:
        cols = column[start : start + block_values.size]
        keep = cols >= 0
        out[np.ix_(index, cols[keep])] = vectors[:, keep]
        start += block_values.size
    return EigenDecomposition(
        eigenvalues=values[chosen], eigenvectors=out, blocks=n_blocks,
        krylov_blocks=krylov_blocks, skipped_blocks=n_blocks - len(solved),
    )


def ground_state(
    h: HermitianOperator, *, seed: int = DEFAULT_SEED
) -> tuple[float, StateVector]:
    """Lowest eigenpair.  The global phase is fixed by making the largest
    amplitude real and positive, so repeated runs agree bit for bit."""
    dec = eigendecompose(h, k=1, seed=seed)
    energy = float(dec.eigenvalues[0])
    vec = dec.eigenvectors[:, 0].astype(complex)
    pivot = int(np.argmax(np.abs(vec)))
    phase = vec[pivot] / abs(vec[pivot])
    vec = vec / phase
    vec = vec / np.linalg.norm(vec)
    return energy, StateVector(vec)


def normal_modes(params: ModelParams) -> NormalModes:
    """Branch frequencies of the bilinear model from the 2x2 quadratic form

        [[wa^2, 2 lambda sqrt(wa wb)], [2 lambda sqrt(wa wb), wb^2]]

    whose eigenvalues are the squared mode frequencies.  Where the larger
    frequency exceeds 2^500, wa, wb and lambda are first scaled by the power
    of two that brings it below 2^500, and where it is below 2^-500, by the
    one that brings it into [1/2, 1); this is exact and keeps the squares
    finite and normal, and the scale is divided back out of sqrt(mu).  A few
    ulps inside the stability boundary, or where wa^2 underflows, the lower
    eigenvalue cancels or underflows to zero or below; omega_- is then taken
    from the determinant, sqrt(det / mu_+) = wa wb / sqrt(mu_+)
    sqrt(1 - 4 lambda^2 / (wa wb)), which underflows only where omega_- does."""
    params.require_bilinear_stable()
    wa, wb, lam = params.omega_a, params.omega_b, params.collective_coupling
    top = max(wa, wb)
    unit = 1.0
    if top > 2.0**500:
        unit = math.ldexp(1.0, 500 - math.frexp(top)[1])
    elif top < 2.0**-500:
        unit = math.ldexp(1.0, -math.frexp(top)[1])
    wa, wb, lam = wa * unit, wb * unit, lam * unit
    off = 2.0 * lam * math.sqrt(wa * wb)
    form = np.array([[wa**2, off], [off, wb**2]])
    mu, vecs = np.linalg.eigh(form)
    if mu[0] <= 0.0:
        lower = wa * wb / math.sqrt(mu[1]) * math.sqrt(1.0 - params._coupling_ratio())
    else:
        lower = math.sqrt(mu[0])
    # deterministic column signs: largest component positive
    vecs *= np.where(vecs[np.argmax(np.abs(vecs), axis=0), [0, 1]] < 0.0, -1.0, 1.0)
    return NormalModes(
        omega_minus=float(lower / unit),
        omega_plus=float(math.sqrt(mu[1]) / unit),
        mode_matrix=vecs,
    )


def ground_energy_bilinear(params: ModelParams) -> float:
    """Exact ground energy of the untruncated bilinear model relative to the
    uncoupled vacuum: (omega_plus + omega_minus)/2 - (wa + wb)/2."""
    modes = normal_modes(params)
    return 0.5 * (modes.omega_plus + modes.omega_minus) - 0.5 * (
        params.omega_a + params.omega_b
    )


@dataclass(frozen=True)
class ConvergenceReport:
    deltas: tuple
    tol: float

    @property
    def final_delta(self) -> float:
        return self.deltas[-1]

    @property
    def converged(self) -> bool:
        return self.final_delta < self.tol


def cutoff_convergence(
    builder: str,
    params: ModelParams,
    cutoffs,
    *,
    tol: float = 1e-10,
    seed: int = DEFAULT_SEED,
) -> ConvergenceReport:
    """Track the ground energy along a strictly increasing ladder of photon
    cutoffs.  The bilinear matter block grows with the cutoff as well; the
    spin models keep their fixed matter ladder."""
    cutoffs = tuple(int(c) for c in cutoffs)
    if len(cutoffs) < 2:
        raise ConfigurationError("need at least two cutoffs to report deltas")
    if any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise ConfigurationError(f"cutoffs must increase strictly, got {cutoffs}")

    values = []
    for cutoff in cutoffs:
        spec = default_spec(builder, params, cutoff)  # refuses an unknown builder
        dec = eigendecompose(BUILDERS[builder](params, spec), 1, seed=seed)
        values.append(float(dec.eigenvalues[0]))
    deltas = tuple(abs(b - a) for a, b in zip(values, values[1:]))
    return ConvergenceReport(deltas=deltas, tol=tol)


def jc_polariton_splitting(params: ModelParams, *, seed: int = DEFAULT_SEED) -> float:
    """Separation of the two single-excitation eigenvalues of the
    rotating-wave model; equals 2 g sqrt(N) on resonance."""
    if params.collective_coupling >= min(params.omega_a, params.omega_b):
        raise DomainError(
            "single-excitation branches are no longer the lowest excited "
            "states at this coupling"
        )
    # photon cutoff 1 holds the whole one-excitation sector
    h = build_jc_rwa_hamiltonian(params, default_spec("jc-rwa", params, 1))
    dec = eigendecompose(h, 3, seed=seed)
    return float(dec.eigenvalues[2] - dec.eigenvalues[1])
