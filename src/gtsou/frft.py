"""Fractional FFT: a DFT-like transform with arbitrary frequency spacing.

The density inversion does not use it (``InversionPlan`` runs one real FFT);
``frft`` stays public and is what check C9 tests, at n = 64 and 256 only.
Its rounding error grows with n: against the direct sum on standard-normal
sequences, max |frft - direct| / sqrt(n) is 4e-14 at n = 256 and 1e-11 at
n = 131072."""

from __future__ import annotations

import numpy as np

_SPLIT = 2.0**27 + 1.0  # Dekker splitting constant for 53-bit doubles


def phase_mod2(a: float, m) -> np.ndarray:
    """(a * m) mod 2 with m integer-valued, accurate to ~1 ulp of the result.

    A plain float product a*m keeps only ~16 digits, so for |a*m| ~ 1e5 the
    reduced phase loses ~1e-11 — visible once multiplied by pi and fed to
    exp().  The Dekker two-product recovers the exact rounding error of the
    multiply, and fmod on each exact piece is itself exact.
    """
    m = np.asarray(m, dtype=float)
    p = a * m
    aa = _SPLIT * a
    a_hi = aa - (aa - a)
    a_lo = a - a_hi
    mm = _SPLIT * m
    m_hi = mm - (mm - m)
    m_lo = m - m_hi
    err = ((a_hi * m_hi - p) + a_hi * m_lo + a_lo * m_hi) + a_lo * m_lo
    return np.fmod(np.fmod(p, 2.0) + err, 2.0)


class FrftPlan:
    """Bluestein chirp and kernel spectrum of the length-n fractional FFT with
    spacing a; applying the plan costs two FFTs of the padded length.

    The split j*k = (j^2 + k^2 - (k-j)^2)/2 rewrites the kernel as
    chirp_k * sum_j (seq_j chirp_j) * exp(+pi*i*a*(k-j)^2), a linear
    convolution with the conjugate chirp, evaluated with zero-padded FFTs in
    O(N log N).  Chirp and kernel depend only on (n, a).
    """

    def __init__(self, n: int, a: float):
        if n < 1:
            raise ValueError("frft length must be at least 1")
        self.n = n
        k = np.arange(n)
        self.chirp = np.exp(-1j * np.pi * phase_mod2(a, k * k))
        self.m = 1 << int(np.ceil(np.log2(max(2 * n - 1, 1))))
        # conjugate chirp at lags -(n-1)..(n-1), laid out circularly
        z = np.zeros(self.m, dtype=complex)
        z[:n] = np.conj(self.chirp)
        z[self.m - n + 1:] = np.conj(self.chirp[1:][::-1])
        self.kernel = np.fft.fft(z)
        self.chirp.setflags(write=False)
        self.kernel.setflags(write=False)

    def __call__(self, seq) -> np.ndarray:
        seq = np.asarray(seq, dtype=complex)
        if seq.shape != (self.n,):
            raise ValueError(f"seq must be a 1-d sequence of length {self.n}")
        y = np.zeros(self.m, dtype=complex)
        y[:self.n] = seq * self.chirp
        conv = np.fft.ifft(np.fft.fft(y) * self.kernel)[:self.n]
        return self.chirp * conv


def frft(seq, a: float) -> np.ndarray:
    """G_k = sum_j seq_j * exp(-2*pi*i*j*k*a) for k = 0..N-1.

    One application of a fresh FrftPlan.  a = 1/N reproduces the plain DFT;
    a = 0 makes every output the plain sum of the sequence.
    """
    seq = np.asarray(seq, dtype=complex)
    if seq.ndim != 1 or seq.size == 0:
        raise ValueError("seq must be a non-empty 1-d sequence")
    return FrftPlan(seq.size, a)(seq)
