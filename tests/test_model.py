"""Operator construction and Hilbert-space bookkeeping."""
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polariton.errors import ConfigurationError, DomainError
from polariton.model import (
    BUILD_BYTES_PER_STATE,
    BUILDERS,
    HermitianOperator,
    HilbertSpec,
    ModelParams,
    StateVector,
    build_bilinear_hamiltonian,
    build_dicke_hamiltonian,
    build_jc_rwa_hamiltonian,
    default_spec,
    expectation,
    total_excitation_operator,
)
from polariton.model import _boson_ladder, _spin_ladder

SRC = Path(__file__).resolve().parent.parent / "src"


def test_params_validation():
    with pytest.raises(DomainError):
        ModelParams(omega_a=0.0, omega_b=1.0, g=0.1, n_atoms=1)
    with pytest.raises(DomainError):
        ModelParams(omega_a=1.0, omega_b=-1.0, g=0.1, n_atoms=1)
    with pytest.raises(DomainError):
        ModelParams(omega_a=1.0, omega_b=1.0, g=-0.1, n_atoms=1)
    with pytest.raises(DomainError):
        ModelParams(omega_a=1.0, omega_b=1.0, g=0.1, n_atoms=0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            ModelParams(omega_a=1.0, omega_b=1.0, g=bad, n_atoms=1)
        with pytest.raises(DomainError):
            ModelParams(omega_a=bad, omega_b=1.0, g=0.1, n_atoms=1)


def test_default_spec_truncation_rule():
    p = ModelParams(1.0, 1.0, 0.1, n_atoms=3)
    assert default_spec("bilinear", p, 12) == HilbertSpec(12, 13)
    assert default_spec("dicke", p, 12) == HilbertSpec(12, 4)
    assert default_spec("jc-rwa", p, 4) == HilbertSpec(4, 4)
    with pytest.raises(ConfigurationError):
        default_spec("tight-binding", p, 12)
    # every registered builder accepts its default truncation
    for name, build in BUILDERS.items():
        assert build(p, default_spec(name, p, 3)).dim == default_spec(name, p, 3).dimension


def test_collective_coupling_round_trip():
    p = ModelParams.from_collective(1.0, 1.0, 0.2, n_atoms=16)
    assert p.g == pytest.approx(0.05, abs=1e-15)
    assert p.collective_coupling == pytest.approx(0.2, abs=1e-15)
    assert p.total_spin == 8.0


def test_stability_threshold_is_strict():
    # 4 lambda^2 < omega_a omega_b, with equality rejected
    assert ModelParams.from_collective(1.0, 1.0, 0.49).bilinear_stable()
    boundary = ModelParams.from_collective(1.0, 1.0, 0.5)
    assert not boundary.bilinear_stable()
    with pytest.raises(DomainError):
        boundary.require_bilinear_stable()
    detuned = ModelParams.from_collective(1.0, 4.0, 0.99)
    assert detuned.bilinear_stable()  # threshold uses the geometric mean


@pytest.mark.parametrize("omega, g", [(1e-200, 1e-201), (1e160, 1e154)])
def test_stability_holds_where_the_plain_products_under_or_overflow(omega, g):
    p = ModelParams(omega_a=omega, omega_b=omega, g=g, n_atoms=1)
    assert p.bilinear_stable()
    p.require_bilinear_stable()
    assert not ModelParams(omega_a=omega, omega_b=omega, g=omega, n_atoms=1).bilinear_stable()


def test_stability_ratio_beyond_the_float_range_counts_as_unstable():
    # 4 lambda^2 / (wa wb) = 4e1200 has no float; it is not a stable model
    p = ModelParams(omega_a=1e-300, omega_b=1e-300, g=1e300, n_atoms=1)
    assert not p.bilinear_stable()
    with pytest.raises(DomainError, match="is beyond the float range, so >= 1"):
        p.require_bilinear_stable()


def test_stability_keeps_the_plain_product_rule_near_the_boundary():
    # within a few ulps of 4 lambda^2 = wa wb at ordinary scales, the
    # power-of-two split decides exactly as the plain float products do
    rng = np.random.default_rng(5)
    wa = np.exp(rng.uniform(-7.0, 7.0, 100_000))
    wb = np.exp(rng.uniform(-7.0, 7.0, 100_000))
    lam = 0.5 * np.sqrt(wa * wb) * (1.0 + rng.integers(-6, 7, 100_000) * np.finfo(float).eps)
    plain = 4.0 * lam * lam < wa * wb
    assert 0.2 < plain.mean() < 0.8
    split = [ModelParams(a, b, g, 1).bilinear_stable()
             for a, b, g in zip(wa.tolist(), wb.tolist(), lam.tolist())]
    assert np.array_equal(split, plain)


def test_hilbert_index_is_photon_major():
    spec = HilbertSpec(photon_cutoff=3, matter_dim=5)
    assert spec.photon_dim == 4
    assert spec.dimension == 20
    assert spec.index(0, 0) == 0
    assert spec.index(0, 4) == 4
    assert spec.index(1, 0) == 5
    assert spec.index(2, 3) == 13
    with pytest.raises(ConfigurationError):
        spec.index(4, 0)
    with pytest.raises(ConfigurationError):
        spec.index(0, 5)


def _annihilation(dim):
    """The dense truncated annihilation operator, a|n> = sqrt(n)|n-1>."""
    return np.diag(_boson_ladder(dim)[0], 1)


def _spin_matrices(n_atoms):
    """Dense (J_plus, J_minus, J_z) of the j = N/2 ladder in the package
    ordering, rung k = m + j ascending: entry (k+1, k) of J_plus carries the
    builders' amplitude at rung k."""
    k = np.arange(n_atoms + 1, dtype=float)
    amp = _spin_ladder(n_atoms, k[:-1])
    return np.diag(amp, -1), np.diag(amp, 1), np.diag(k - n_atoms / 2.0)


def test_annihilation_matrix_entries():
    a = _annihilation(4)
    expected = np.zeros((4, 4))
    for n in range(1, 4):
        expected[n - 1, n] = math.sqrt(n)
    assert np.array_equal(a, expected)
    number = a.conj().T @ a
    assert np.allclose(np.diag(number), [0, 1, 2, 3], atol=1e-15)
    assert np.array_equal(_boson_ladder(4)[1], np.diag(number))


def test_spin_ladder_single_atom_is_pauli():
    jp, jm, jz = _spin_matrices(1)
    assert np.array_equal(jz, np.diag([-0.5, 0.5]))
    assert np.array_equal(jp, np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert np.array_equal(jm, jp.T)


def test_spin_ladder_su2_algebra():
    # [J+, J-] = 2 Jz and [Jz, J+-] = +- J+- hold exactly for small N
    for n in (1, 2, 3, 7):
        jp, jm, jz = _spin_matrices(n)
        assert np.allclose(jp @ jm - jm @ jp, 2.0 * jz, atol=1e-13)
        assert np.allclose(jz @ jp - jp @ jz, jp, atol=1e-13)
        assert np.allclose(jz @ jm - jm @ jz, -jm, atol=1e-13)
        # Casimir j(j+1) on the maximal sector
        j = n / 2.0
        casimir = 0.5 * (jp @ jm + jm @ jp) + jz @ jz
        assert np.allclose(casimir, j * (j + 1.0) * np.eye(n + 1), atol=1e-12)


def test_uncoupled_dicke_is_diagonal_excitation_count():
    p = ModelParams(omega_a=1.0, omega_b=1.0, g=0.0, n_atoms=1)
    spec = HilbertSpec(photon_cutoff=2, matter_dim=2)
    h = build_dicke_hamiltonian(p, spec).to_dense()
    # vacuum-relative: E(n, k) = n + k
    expected = np.diag([0.0, 1.0, 1.0, 2.0, 2.0, 3.0])
    assert np.allclose(h, expected, atol=1e-15)


def test_dicke_matter_dimension_must_match():
    p = ModelParams(omega_a=1.0, omega_b=1.0, g=0.1, n_atoms=3)
    with pytest.raises(ConfigurationError):
        build_dicke_hamiltonian(p, HilbertSpec(photon_cutoff=2, matter_dim=3))


def test_bilinear_matches_manual_construction():
    p = ModelParams.from_collective(1.0, 1.0, 0.2)
    spec = HilbertSpec(photon_cutoff=3, matter_dim=4)
    h = build_bilinear_hamiltonian(p, spec).to_dense()
    a = _annihilation(4)
    ia = np.kron(a, np.eye(4))
    ib = np.kron(np.eye(4), a)
    manual = (
        ia.conj().T @ ia
        + ib.conj().T @ ib
        + 0.2 * (ia + ia.conj().T) @ (ib + ib.conj().T)
    )
    assert np.allclose(h, manual, atol=1e-14)


def test_bilinear_requires_stability():
    with pytest.raises(DomainError):
        build_bilinear_hamiltonian(
            ModelParams.from_collective(1.0, 1.0, 0.6),
            HilbertSpec(photon_cutoff=3, matter_dim=4),
        )


def test_jc_conserves_total_excitation_and_dicke_does_not():
    p = ModelParams(omega_a=1.0, omega_b=1.0, g=0.1, n_atoms=2)
    spec = HilbertSpec(photon_cutoff=4, matter_dim=3)
    n_op = total_excitation_operator(p, spec).to_dense()
    jc = build_jc_rwa_hamiltonian(p, spec).to_dense()
    assert np.linalg.norm(jc @ n_op - n_op @ jc) < 1e-13
    dicke = build_dicke_hamiltonian(p, spec).to_dense()
    assert np.linalg.norm(dicke @ n_op - n_op @ dicke) > 1e-3


def test_total_excitation_operator_is_exactly_integer():
    # JC-RWA, N = 3, cutoff 5: excitation numbers 0..8, each exactly
    p = ModelParams(omega_a=1.0, omega_b=1.2, g=0.1, n_atoms=3)
    spec = default_spec("jc-rwa", p, 5)
    n_op = total_excitation_operator(p, spec).to_dense()
    assert np.array_equal(np.unique(np.diag(n_op)), np.arange(9.0))
    assert np.array_equal(n_op, np.diag(np.diag(n_op)))


def test_hermitian_storage_round_trip():
    rng = np.random.default_rng(7)
    raw = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    dense = raw + raw.conj().T
    op = HermitianOperator.from_dense(dense)
    assert np.allclose(op.to_dense(), dense, atol=1e-14)
    assert np.allclose(op.to_sparse().toarray(), dense, atol=1e-14)
    assert op.frobenius_norm() == pytest.approx(np.linalg.norm(dense), rel=1e-13)


def _dense_reference(model, p, spec):
    """The Hamiltonian (or, for "excitation", a^dag a + J_z + j) as a dense
    sum of np.kron products."""
    a = _annihilation(spec.photon_dim)
    eye_p, eye_m = np.eye(spec.photon_dim), np.eye(spec.matter_dim)
    if model == "bilinear":
        b = _annihilation(spec.matter_dim)
        h = p.omega_a * np.kron(a.T @ a, eye_m)
        h += p.omega_b * np.kron(eye_p, b.T @ b)
        h += p.collective_coupling * np.kron(a + a.T, b + b.T)
        return h
    jp, jm, jz = _spin_matrices(p.n_atoms)
    excitation = jz + p.total_spin * eye_m
    if model == "excitation":
        number = np.diag(np.arange(spec.photon_dim, dtype=float))
        return np.kron(number, eye_m) + np.kron(eye_p, excitation)
    h = p.omega_a * np.kron(a.T @ a, eye_m)
    h += p.omega_b * np.kron(eye_p, excitation)
    if model == "dicke":
        h += p.g * np.kron(a + a.T, jp + jm)
    else:
        h += p.g * (np.kron(a.T, jm) + np.kron(a, jp))
    return h


@settings(max_examples=60, deadline=None)
@given(
    model=st.sampled_from(["bilinear", "dicke", "jc-rwa", "excitation"]),
    omega_a=st.floats(0.1, 3.0),
    omega_b=st.floats(0.1, 3.0),
    coupling=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
    n_atoms=st.integers(1, 8),
    photon_cutoff=st.integers(1, 10),
    bilinear_matter_dim=st.integers(2, 9),
)
def test_builders_match_dense_kron_reference(
    model, omega_a, omega_b, coupling, n_atoms, photon_cutoff, bilinear_matter_dim
):
    # coupling is the fraction of the bilinear stability edge 4 lambda^2 = wa wb
    g = coupling * math.sqrt(omega_a * omega_b) / (2.0 * math.sqrt(n_atoms))
    p = ModelParams(omega_a=omega_a, omega_b=omega_b, g=g, n_atoms=n_atoms)
    matter_dim = bilinear_matter_dim if model == "bilinear" else n_atoms + 1
    spec = HilbertSpec(photon_cutoff=photon_cutoff, matter_dim=matter_dim)
    build = total_excitation_operator if model == "excitation" else BUILDERS[model]
    op = build(p, spec)
    ref = HermitianOperator.from_dense(_dense_reference(model, p, spec))
    assert op.dim == ref.dim == spec.dimension
    for got, want in ((op.rows, ref.rows), (op.cols, ref.cols), (op.values, ref.values)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def _m_form(n_atoms):
    """sqrt(j(j+1) - m(m+1)) for m = -j..j-1, the ladder's textbook form."""
    j = n_atoms / 2.0
    m = -j + np.arange(n_atoms)
    return np.sqrt(j * (j + 1.0) - m * (m + 1.0))


def test_spin_ladder_integer_form_keeps_the_m_form_bits():
    # wherever the m-form's products are exact the two forms give one bit pattern
    for n in [*range(1, 2001), 10**4, 10**5, 10**6]:
        assert np.array_equal(_spin_ladder(n, np.arange(n, dtype=float)), _m_form(n)), n


def test_spin_ladder_is_correctly_rounded_where_the_m_form_is_not():
    # N = 94906265 is the first odd N with N(N+2) >= 2^53: j(j+1) - m(m+1)
    # is rounded before the sqrt, (N - k)(k + 1) is still an exact integer
    n = 94_906_265
    j = n / 2.0
    rungs = np.array([0.0, 1.0, 2.0, 12345.0, n // 2, n - 2.0, n - 1.0])
    got = _spin_ladder(n, rungs)
    for k, amp in zip(rungs.astype(int).tolist(), got.tolist()):
        exact = (n - k) * (k + 1)
        assert math.isqrt(exact) <= amp <= math.isqrt(exact) + 1
        # amp is the float nearest sqrt(exact): exact lies between the squared
        # midpoints to its float neighbours
        below, above = (Fraction(np.nextafter(amp, side)) for side in (0.0, math.inf))
        assert ((below + Fraction(amp)) / 2) ** 2 <= exact <= ((Fraction(amp) + above) / 2) ** 2
    m = -j + rungs[0]
    assert math.sqrt(j * (j + 1.0) - m * (m + 1.0)) != got[0]


def _scipy_reference(model, p, spec):
    """The builders' former assembly: sum(coef * scipy.sparse.kron(P, M)) over
    COO factors of one or two diagonals, then triu, eliminate_zeros and
    tocoo, with the spin ladder in its m-form."""
    from scipy import sparse

    def band(dim, *diagonals):
        rows, cols, values = [], [], []
        for offset, diagonal in diagonals:
            index = np.arange(len(diagonal))
            rows.append(index + max(-offset, 0))
            cols.append(index + max(offset, 0))
            values.append(diagonal)
        return sparse.coo_matrix(
            (np.concatenate(values), (np.concatenate(rows), np.concatenate(cols))), shape=(dim, dim)
        )

    pd, md = spec.photon_dim, spec.matter_dim
    eye_p, eye_m = band(pd, (0, np.ones(pd))), band(md, (0, np.ones(md)))
    a = np.sqrt(np.arange(1, pd, dtype=float))
    number = band(pd, (0, np.r_[0.0, a * a]))
    if model == "bilinear":
        b = np.sqrt(np.arange(1, md, dtype=float))
        terms = [(p.omega_a, number, eye_m),
                 (p.omega_b, eye_p, band(md, (0, np.r_[0.0, b * b]))),
                 (p.collective_coupling, band(pd, (1, a), (-1, a)), band(md, (1, b), (-1, b)))]
    else:
        jp = _m_form(p.n_atoms)
        excitation = band(md, (0, -p.total_spin + np.arange(md) + p.total_spin))
        if model == "excitation":
            terms = [(1.0, band(pd, (0, np.arange(pd, dtype=float))), eye_m), (1.0, eye_p, excitation)]
        else:
            terms = [(p.omega_a, number, eye_m), (p.omega_b, eye_p, excitation)]
        if model == "dicke":
            terms.append((p.g, band(pd, (1, a), (-1, a)), band(md, (-1, jp), (1, jp))))
        elif model == "jc-rwa":
            terms += [(p.g, band(pd, (-1, a)), band(md, (1, jp))),
                      (p.g, band(pd, (1, a)), band(md, (-1, jp)))]
    h = sum(coef * sparse.kron(ph, mat, format="csr") for coef, ph, mat in terms)
    upper = sparse.triu(h, format="csr")
    upper.eliminate_zeros()
    upper = upper.tocoo()
    return HermitianOperator(upper.shape[0], upper.row, upper.col, upper.data)


_BENCHMARK_SIZES = [
    *(("bilinear", omegas, g, 1, (63, 65)) for g in (0.1, 0.2, 0.3, 0.4)
      for omegas in ((1.0, 1.0), (0.93, 1.07))),
    *((model, omegas, 0.02, n, (12, n + 1)) for model in ("dicke", "jc-rwa", "excitation")
      for n in (100, 150, 200) for omegas in ((1.0, 1.0), (0.93, 1.07))),
]


@pytest.mark.parametrize("model, omegas, g, n_atoms, hilbert", _BENCHMARK_SIZES)
def test_builders_keep_the_scipy_kron_bits(model, omegas, g, n_atoms, hilbert):
    p = ModelParams(*omegas, g=g, n_atoms=n_atoms)
    spec = HilbertSpec(*hilbert)
    build = total_excitation_operator if model == "excitation" else BUILDERS[model]
    op, ref = build(p, spec), _scipy_reference(model, p, spec)
    assert op.dim == ref.dim == spec.dimension
    for got, want in ((op.rows, ref.rows), (op.cols, ref.cols), (op.values, ref.values)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("build, p, spec", [
    (build_bilinear_hamiltonian, ModelParams.from_collective(1.0, 1.0, 0.2), HilbertSpec(315, 316)),
    (build_dicke_hamiltonian, ModelParams(1.0, 1.0, 0.02, 9999), HilbertSpec(9, 10000)),
    (build_jc_rwa_hamiltonian, ModelParams(1.0, 1.0, 0.02, 9999), HilbertSpec(9, 10000)),
    (total_excitation_operator, ModelParams(1.0, 1.0, 0.02, 9999), HilbertSpec(9, 10000)),
], ids=["bilinear", "dicke", "jc-rwa", "excitation"])
def test_build_peak_is_at_least_the_refusal_bound(build, p, spec):
    # the size refusal charges BUILD_BYTES_PER_STATE a state; it must never
    # refuse a build that would have fit
    build(p, spec)
    tracemalloc.start()
    try:
        build(p, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak >= BUILD_BYTES_PER_STATE * spec.dimension


def _scipy_modules_after(code):
    """The scipy modules loaded once a fresh interpreter has run code."""
    code += "; import sys; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    return run.stdout.strip()


def test_a_build_imports_no_scipy():
    assert _scipy_modules_after(
        "from polariton.model import ModelParams, HilbertSpec, build_dicke_hamiltonian; "
        "build_dicke_hamiltonian(ModelParams(1.0, 1.0, 0.02, 20), HilbertSpec(12, 21))"
    ) == "[]"


def test_an_expectation_imports_no_scipy():
    assert _scipy_modules_after(
        "from polariton.model import ModelParams, HilbertSpec, StateVector, "
        "build_bilinear_hamiltonian, expectation; spec = HilbertSpec(12, 13); "
        "h = build_bilinear_hamiltonian(ModelParams(1.0, 1.0, 0.2, 1), spec); "
        "expectation(h, StateVector.product_fock(spec, 2, 1))"
    ) == "[]"


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_expectation_matches_the_dense_quadratic_form(dim, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    op = HermitianOperator.from_dense(z + z.conj().T)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    dense = np.vdot(psi, op.to_dense() @ psi).real
    assert abs(expectation(op, StateVector(psi)) - dense) <= 1e-12 * op.frobenius_norm()


def test_from_dense_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ConfigurationError):
        HermitianOperator.from_dense(bad)


def test_upper_triangle_storage_is_enforced():
    with pytest.raises(ConfigurationError):
        HermitianOperator(2, np.array([1]), np.array([0]), np.array([1.0 + 0j]))
    with pytest.raises(ConfigurationError):
        HermitianOperator(2, np.array([0]), np.array([0]), np.array([1.0j]))


def test_state_vector_normalization_guard():
    with pytest.raises(ConfigurationError):
        StateVector(np.array([1.0, 1.0]))


def test_product_fock_addressing():
    spec = HilbertSpec(photon_cutoff=2, matter_dim=3)
    s = StateVector.product_fock(spec, n_photon=1, k_matter=2)
    assert s.amplitudes[spec.index(1, 2)] == 1.0
    assert np.count_nonzero(s.amplitudes) == 1


def test_expectation_on_fock_states():
    p = ModelParams(omega_a=1.0, omega_b=1.0, g=0.0, n_atoms=1)
    spec = HilbertSpec(photon_cutoff=3, matter_dim=2)
    h = build_dicke_hamiltonian(p, spec)
    assert expectation(h, StateVector.product_fock(spec, 0, 0)) == pytest.approx(0.0, abs=1e-15)
    assert expectation(h, StateVector.product_fock(spec, 2, 1)) == pytest.approx(3.0, abs=1e-13)
