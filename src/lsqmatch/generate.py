"""Seeded generation of the two benchmark matrix families.

Everything here is a pure function of (parameters, seed).  Randomness comes
from the splitmix64 stream (Steele, Lea & Flood, OOPSLA 2014): word k >= 1 of
the stream from ``seed`` is the finalizer applied to seed + k * GOLDEN mod 2^64.
``derive_seed`` reads one word; ``uniform_pattern`` maps the top 53 bits of
each word onto [-1 + 2^-53, 1], so sequences are reproducible bit-for-bit
without external dependencies.
"""

from __future__ import annotations

import math

import numpy as np

MASK = (1 << 64) - 1
#: Additive stream constant (2^64 / golden ratio, forced odd).
GOLDEN = 0x9E3779B97F4A7C15

_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
#: Words the stream mixes per step; its scratch is one block, not the whole draw.
BLOCK = 1 << 16


def _mix(z: np.ndarray, scratch: np.ndarray) -> None:
    """Splitmix64 finalizer (xor-shift / multiply avalanche), in place on uint64 ``z``."""
    z ^= np.right_shift(z, np.uint64(30), out=scratch)
    z *= np.uint64(_MIX_A)
    z ^= np.right_shift(z, np.uint64(27), out=scratch)
    z *= np.uint64(_MIX_B)
    z ^= np.right_shift(z, np.uint64(31), out=scratch)


def _stream(seed: int, count: int) -> np.ndarray:
    """Words 1 .. ``count`` of the stream from ``seed``, as uint64.

    The states seed + k * GOLDEN are affine in k, so each ``BLOCK`` of them is
    one ``np.arange``, written into the output's own slice and mixed there
    with the arange as scratch: a draw holds one output-sized buffer.
    """
    words = np.empty(count, dtype=np.uint64)
    for start in range(0, count, BLOCK):
        stop = min(start + BLOCK, count)
        scratch = np.arange(start + 1, stop + 1, dtype=np.uint64)
        z = np.multiply(scratch, np.uint64(GOLDEN), out=words[start:stop])
        z += np.uint64(seed & MASK)
        _mix(z, scratch)
    return words


def derive_seed(seed: int, index: int) -> int:
    """Independent child seed for trial ``index`` of a run seeded by ``seed``.

    It is word index + 1 of the stream from ``seed``, the finalizer of
    seed + (index + 1) * GOLDEN mod 2^64, read as the first word from
    seed + index * GOLDEN.
    """
    if index < 0:
        raise ValueError(f"index must be nonnegative, got {index}")
    return int(_stream(seed + index * GOLDEN, 1)[0])


def uniform_pattern(m: int, n: int, seed: int) -> np.ndarray:
    """m-by-n pattern matrix of independent uniform entries in [-1 + 2^-53, 1], filled row-major.

    The k-th entry in row-major order is (j + 1/2) * 2^-52 - 1 for
    j = word k >> 11, exact for j < 2^52, converted in the words' own bytes.
    For j >= 2^52, j + 1/2 rounds to even, so the upper half lies on the
    2^-51 grid of [0, 1] and can be exactly 0.0 or 1.0.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if m < n:
        raise ValueError(f"need at least as many rows as columns, got {m} rows for {n} columns")
    words = _stream(seed, m * n)
    words >>= np.uint64(11)
    values = words.view(np.float64)
    values[...] = words  # in place, with no copy; j < 2^53 converts exactly
    values += 0.5
    values *= 2.0**-52
    values -= 1.0
    return values.reshape(m, n)


def more_toraldo(n: int, kappa: float, seed: int) -> np.ndarray:
    """Conditioned square pattern X = D^(1/2) H.

    H = I - 2 h h' / h'h reflects across the hyperplane orthogonal to the
    random vector h = uniform_pattern(n, 1, seed).  D holds the geometric
    eigenvalue ladder kappa^(i/(n-1)) for i = 0 .. n-1, so X'X = H D H has
    spectrum exactly that ladder (smallest 1, largest kappa) and condition
    number kappa by construction.  D^(1/2) takes principal (nonnegative) roots.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if not 1.0 <= kappa < math.inf:
        raise ValueError(f"kappa must be finite and at least 1, got {kappa}")
    h = uniform_pattern(n, 1, seed).ravel()
    refl = np.eye(n) - (2.0 / float(h @ h)) * np.outer(h, h)
    d_sqrt = np.power(kappa, 0.5 * np.arange(n) / (n - 1))
    return d_sqrt[:, None] * refl
