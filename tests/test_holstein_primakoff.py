"""Spin-to-boson mapping and its large-j limit."""
import math

import numpy as np
import pytest

from polariton.errors import DomainError
from polariton.holstein_primakoff import (
    SpinRep,
    commutator_residual,
    dicke_vs_bilinear_gap,
    hp_exactness_error,
    hp_operators,
    ladder_reference,
)
from polariton.model import ModelParams
from polariton.spectral import normal_modes


def test_spin_rep_validation():
    assert SpinRep(0.5).dimension == 2
    assert SpinRep(50.0).two_j == 100
    with pytest.raises(DomainError):
        SpinRep(0.0)
    with pytest.raises(DomainError):
        SpinRep(0.3)
    with pytest.raises(DomainError):
        SpinRep(-1.0)


def test_map_reproduces_ladder_matrix_elements():
    # sqrt(2j) sqrt(1 - n/2j) sqrt(n+1) against sqrt((j-m)(j+m+1)) entry by entry
    for two_j in (1, 2, 3, 7, 40, 100):
        rep = SpinRep(two_j / 2.0)
        assert hp_exactness_error(rep) <= 1e-12


def test_su2_commutators_close_on_the_truncated_ladder():
    worst = max(commutator_residual(SpinRep(0.5 * k)) for k in range(1, 101))
    assert worst <= 1e-12


def test_commutators_of_the_vectors_are_the_dense_products_bit_for_bit():
    # the shifted products round as the matrix products of the np.diag
    # matrices do, so the residual is that of the dense commutators exactly
    for two_j in (1, 2, 3, 7, 40, 99, 100):
        rep = SpinRep(two_j / 2.0)
        amp, m = hp_operators(rep)
        jp, jm, jz = np.diag(amp, 1), np.diag(amp, -1), np.diag(m)
        dense = max(
            np.max(np.abs(jp @ jm - jm @ jp - 2.0 * jz)),
            np.max(np.abs(jz @ jp - jp @ jz - jp)),
            np.max(np.abs(jz @ jm - jm @ jz + jm)),
        )
        assert commutator_residual(rep) == dense, two_j


def test_reference_ladder_is_itself_su2():
    rep = SpinRep(5.0)
    amp, m = ladder_reference(rep)
    jp, jm, jz = np.diag(amp, 1), np.diag(amp, -1), np.diag(m)
    assert np.allclose(jp @ jm - jm @ jp, 2.0 * jz, atol=1e-12)
    assert np.allclose(jp, jm.conj().T, atol=1e-15)


def test_half_spin_map_is_pauli():
    amp, jz = hp_operators(SpinRep(0.5))
    jp = np.diag(amp, 1)
    # j=1/2: one allowed raising element of unit size, jz = diag(1/2, -1/2)
    assert np.count_nonzero(jp) == 1
    assert np.max(np.abs(jp)) == pytest.approx(1.0, abs=1e-15)
    assert sorted(jz.tolist()) == [-0.5, 0.5]


def test_gap_converges_to_bilinear_limit():
    p = ModelParams.from_collective(1.0, 1.0, 0.1)
    cmp = dicke_vs_bilinear_gap(p, (2, 4, 8, 16, 32), seed=1234)
    errs = cmp.relative_errors
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert cmp.final_error < 1e-3
    assert cmp.bilinear_gap == pytest.approx(math.sqrt(0.8), abs=1e-9)
    assert cmp.bilinear_gap == normal_modes(p).omega_minus


def test_gap_error_falls_as_one_over_n():
    # the finite-N correction to the normal-mode gap is O(1/N) (Emary and
    # Brandes 2003; Vidal and Dusuel 2006); blocks of up to 45005 states
    # take the shift-invert path
    p = ModelParams.from_collective(1.0, 1.0, 0.1)
    n_values = (100, 1000, 4000, 10000)
    cmp = dicke_vs_bilinear_gap(p, n_values, seed=1234)
    slope = np.polyfit(np.log(n_values), np.log(cmp.relative_errors), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.02)
