"""Fractional FFT: a DFT-like transform with arbitrary frequency spacing.

The density inversion does not use it (``InversionPlan`` runs one real FFT);
``frft`` stays public and is what check C9 tests, at n = 64 and 256 only.
Its rounding error grows with n: against the direct sum on standard-normal
sequences, max |frft - direct| / sqrt(n) is 4e-14 at n = 256 and 1e-11 at
n = 131072."""

from __future__ import annotations

import numpy as np

# Dekker's splitter 2^27 + 1 for 53-bit doubles; below 1e300 no product with
# it overflows.
_SPLIT = 2.0**27 + 1.0


def two_product(a, b) -> tuple:
    """(p, err) with p = fl(a * b) and p + err = a * b exactly: Dekker's
    two-product, which splits each factor into two 26-bit halves."""
    p = a * b
    t = _SPLIT * a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    t = _SPLIT * b
    b_hi = t - (t - b)
    b_lo = b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def phase_mod2(a: float, m) -> np.ndarray:
    """(a * m) mod 2 with m integer-valued, accurate to ~1 ulp of the result.

    A plain float product a*m keeps only ~16 digits, so for |a*m| ~ 1e5 the
    reduced phase loses ~1e-11 — visible once multiplied by pi and fed to
    exp().  ``two_product`` recovers the exact rounding error of the
    multiply, and fmod on each exact piece is itself exact.
    """
    p, err = two_product(a, np.asarray(m, dtype=float))
    return np.fmod(np.fmod(p, 2.0) + err, 2.0)


def frft(seq, a: float) -> np.ndarray:
    """G_k = sum_j seq_j * exp(-2*pi*i*j*k*a) for k = 0..N-1.

    a = 1/N reproduces the plain DFT; a = 0 makes every output the plain sum
    of the sequence.  Bluestein's split j*k = (j^2 + k^2 - (k-j)^2)/2
    rewrites the kernel as chirp_k * sum_j (seq_j chirp_j) *
    exp(+pi*i*a*(k-j)^2), a linear convolution with the conjugate chirp,
    evaluated with zero-padded FFTs in O(N log N).
    """
    seq = np.asarray(seq, dtype=complex)
    if seq.ndim != 1 or seq.size == 0:
        raise ValueError("seq must be a non-empty 1-d sequence")
    n = seq.size
    k = np.arange(n)
    chirp = np.exp(-1j * np.pi * phase_mod2(a, k * k))
    m = 1 << int(np.ceil(np.log2(max(2 * n - 1, 1))))
    y = np.zeros(m, dtype=complex)
    y[:n] = seq * chirp
    # conjugate chirp at lags -(n-1)..(n-1), laid out circularly
    z = np.zeros(m, dtype=complex)
    z[:n] = np.conj(chirp)
    z[m - n + 1:] = np.conj(chirp[1:][::-1])
    return chirp * np.fft.ifft(np.fft.fft(y) * np.fft.fft(z))[:n]
