"""Fractional FFT kernel: exactness limits, linearity, and phase accuracy."""

import numpy as np
import pytest

from gtsou import frft
from gtsou.frft import phase_mod2


def direct_sum(seq, a):
    """O(N^2) oracle with the same exact phase reduction as the kernel."""
    n = len(seq)
    j = np.arange(n)
    return np.exp(-1j * np.pi * phase_mod2(2.0 * a, np.outer(j, j))) @ seq


def per_call_frft(seq, a):
    """Reference Bluestein transform that rebuilds the chirp and the kernel
    spectrum on every call, in the kernel's arithmetic order."""
    seq = np.asarray(seq, dtype=complex)
    n = seq.size
    k = np.arange(n)
    chirp = np.exp(-1j * np.pi * phase_mod2(a, k * k))
    m = 1 << int(np.ceil(np.log2(max(2 * n - 1, 1))))
    y = np.zeros(m, dtype=complex)
    y[:n] = seq * chirp
    z = np.zeros(m, dtype=complex)
    z[:n] = np.conj(chirp)
    z[m - n + 1:] = np.conj(chirp[1:][::-1])
    return chirp * np.fft.ifft(np.fft.fft(y) * np.fft.fft(z))[:n]


def test_a_equals_1_over_n_is_dft():
    rng = np.random.default_rng(5)
    for n in (8, 64, 100):
        seq = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(frft(seq, 1.0 / n), np.fft.fft(seq),
                                   rtol=0.0, atol=1e-11 * np.abs(seq).sum())


def test_a_zero_is_plain_sum():
    rng = np.random.default_rng(6)
    seq = rng.standard_normal(33) + 1j * rng.standard_normal(33)
    out = frft(seq, 0.0)
    np.testing.assert_allclose(out, np.full(33, seq.sum()), rtol=1e-13)


def test_matches_direct_summation():
    rng = np.random.default_rng(7)
    for n in (16, 64, 256):
        seq = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a = rng.uniform(-0.7, 0.7)
        np.testing.assert_allclose(frft(seq, a), direct_sum(seq, a),
                                   rtol=0.0, atol=1e-10)


def test_linearity():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    y = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    a = 0.137
    lhs = frft(2.0 * x + 3.0j * y, a)
    rhs = 2.0 * frft(x, a) + 3.0j * frft(y, a)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12 * (np.abs(x).sum() + np.abs(y).sum()))


def test_single_point():
    out = frft(np.array([2.0 + 1.0j]), 0.42)
    np.testing.assert_allclose(out, [2.0 + 1.0j], rtol=1e-15)


def test_unit_impulse():
    # transform of e_0 is all ones regardless of a
    e0 = np.zeros(17, dtype=complex)
    e0[0] = 1.0
    np.testing.assert_allclose(frft(e0, 0.3), np.ones(17), atol=1e-13)


def test_negative_a_conjugate_symmetry():
    rng = np.random.default_rng(9)
    seq = rng.standard_normal(40)  # real input
    a = 0.21
    np.testing.assert_allclose(frft(seq, -a), np.conj(frft(seq, a)), atol=1e-12)


def test_invalid_input():
    with pytest.raises(ValueError):
        frft(np.array([]), 0.1)
    with pytest.raises(ValueError):
        frft(np.ones((3, 3)), 0.1)


def test_matches_per_call_reference():
    # bit for bit the reference Bluestein transform, at short and long n
    rng = np.random.default_rng(11)
    for n, a in ((1, 0.42), (100, 0.137), (16384, 2.3e-4)):
        for _ in range(2):
            seq = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert np.array_equal(frft(seq, a), per_call_frft(seq, a))


def test_phase_mod2_against_exact_rationals():
    # oracle: exact modular reduction through the float's integer ratio
    rng = np.random.default_rng(10)
    for _ in range(200):
        a = float(rng.uniform(-1.0, 1.0))
        m = float(rng.integers(1, 1 << 26) ** 2 % (1 << 52))
        got = float(phase_mod2(a, m))
        num, den = a.as_integer_ratio()  # a = num/den exactly, den a power of 2
        r = (int(m) * num) % (2 * den)  # (a*m) mod 2 = r/den with 0 <= r < 2 den
        exact = r / den
        # both got and exact represent the same residue class; compare mod 2
        diff = min(abs(got - exact), abs(got - exact + 2.0), abs(got - exact - 2.0))
        assert diff < 4e-16 * max(1.0, abs(exact))


def test_phase_mod2_beats_naive_product():
    # at arguments ~1e5 the naive product has already lost ~1e-11 of phase
    a = 0.7310582894871456
    m = np.array([123456.0 ** 1]) * 987654.0  # ~1.2e11
    num, den = a.as_integer_ratio()
    exact = ((int(m[0]) * num) % (2 * den)) / den
    got = float(phase_mod2(a, m)[0])
    diff = min(abs(got - exact), abs(got - exact + 2.0), abs(got - exact - 2.0))
    naive = float(np.fmod(a * m[0], 2.0))
    naive_diff = min(abs(naive - exact), abs(naive - exact + 2.0),
                     abs(naive - exact - 2.0))
    assert diff < 1e-15
    assert naive_diff > 1e-6  # the naive route is visibly wrong at this scale
