"""Seeded generation of the two benchmark matrix families.

Everything here is a pure function of (parameters, seed).  Randomness comes
from a splitmix-style 64-bit shift/multiply generator mapped onto
[-1 + 2^-53, 1] by scaling the top 53 bits (see ``SplitMix64.take``), so
sequences are reproducible bit-for-bit without external dependencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import gram

MASK = (1 << 64) - 1
#: Additive stream constant (2^64 / golden ratio, forced odd).
GOLDEN = 0x9E3779B97F4A7C15

_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
#: Values ``SplitMix64.take`` mixes per step; its scratch is one block, not the whole draw.
BLOCK = 1 << 16


def mix64(value: int) -> int:
    """Finalizing bijection on 64-bit words (xor-shift / multiply avalanche)."""
    z = value & MASK
    z ^= z >> 30
    z = (z * _MIX_A) & MASK
    z ^= z >> 27
    z = (z * _MIX_B) & MASK
    z ^= z >> 31
    return z


def derive_seed(seed: int, index: int) -> int:
    """Independent child seed for trial ``index`` of a run seeded by ``seed``."""
    if index < 0:
        raise ValueError(f"index must be nonnegative, got {index}")
    return mix64((seed + (index + 1) * GOLDEN) & MASK)


class SplitMix64:
    """Stateful counter stream: state advances by GOLDEN, output is mixed state."""

    def __init__(self, seed: int):
        self._state = seed & MASK

    def take(self, count: int) -> np.ndarray:
        """Next ``count`` uniform values in [-1 + 2^-53, 1].

        The state sequence is affine (state_k = seed + k * GOLDEN mod 2^64), so
        each ``BLOCK`` of states is one ``np.arange``, mixed in place with the
        block's slice of the output as scratch: a draw holds one output-sized
        buffer.  Value k is (j + 1/2) * 2^-52 - 1 for j = mix64(state_k) >> 11,
        exact for j < 2^52.  For j >= 2^52, j + 1/2 rounds to even, so the upper
        half lies on the 2^-51 grid of [0, 1] and can be exactly 0.0 or 1.0.
        """
        if count < 1:
            raise ValueError(f"count must be at least 1, got {count}")
        out = np.empty(count)
        bits = out.view(np.uint64)
        for start in range(0, count, BLOCK):
            stop = min(start + BLOCK, count)
            z = np.arange(start + 1, stop + 1, dtype=np.uint64)
            z *= np.uint64(GOLDEN)
            z += np.uint64(self._state)
            scratch = bits[start:stop]
            z ^= np.right_shift(z, np.uint64(30), out=scratch)
            z *= np.uint64(_MIX_A)
            z ^= np.right_shift(z, np.uint64(27), out=scratch)
            z *= np.uint64(_MIX_B)
            z ^= np.right_shift(z, np.uint64(31), out=scratch)
            z >>= np.uint64(11)
            np.add(z, 0.5, out=out[start:stop])
        self._state = (self._state + count * GOLDEN) & MASK
        out *= 2.0**-52
        return np.subtract(out, 1.0, out=out)


def householder(h) -> np.ndarray:
    """Reflection I - 2 h h' / h'h across the hyperplane orthogonal to ``h``."""
    h = np.asarray(h, dtype=np.float64).reshape(-1)
    s = float(h @ h)
    if s == 0.0:
        raise ValueError("cannot build a reflection from the zero vector")
    return np.eye(h.size) - (2.0 / s) * np.outer(h, h)


@dataclass(frozen=True)
class MoreToraldoSpec:
    """Size and target condition number of a conditioned SPD test matrix."""

    n: int
    kappa: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n}")
        if not 1.0 <= self.kappa < math.inf:
            raise ValueError(f"kappa must be finite and at least 1, got {self.kappa}")


def more_toraldo(spec: MoreToraldoSpec, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Conditioned test pair (X, Z): X = D^(1/2) H, Z = X'X.

    H is a reflection built from a random vector, D holds the geometric
    eigenvalue ladder kappa^(i/(n-1)) for i = 0 .. n-1, so Z has spectrum
    exactly that ladder (smallest 1, largest kappa) and condition number
    kappa by construction.  D^(1/2) takes principal (nonnegative) roots.
    """
    n, kappa = spec.n, spec.kappa
    stream = SplitMix64(seed)
    h = stream.take(n)
    while float(h @ h) == 0.0:  # measure-zero degeneracy: draw again
        h = stream.take(n)
    refl = householder(h)
    d_sqrt = np.power(kappa, 0.5 * np.arange(n) / (n - 1))
    x = d_sqrt[:, None] * refl
    return x, gram(x)


def uniform_pattern(m: int, n: int, seed: int) -> np.ndarray:
    """m-by-n pattern matrix of independent uniform entries in [-1 + 2^-53, 1]."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if m < n:
        raise ValueError(f"need at least as many rows as columns, got {m} rows for {n} columns")
    return SplitMix64(seed).take(m * n).reshape(m, n)
