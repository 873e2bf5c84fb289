"""Dense float-matrix helpers: stable activations and reductions, seeded
randomness.

Everything operates on plain float64 numpy arrays. All functions are pure.
``Rng`` is the only stateful object here and it mutates nothing but itself.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Rng",
    "softmax_stable",
    "log_softmax",
    "clip_global_norm",
]

_U64 = (1 << 64) - 1


class Rng:
    """Deterministic xorshift64* generator, bit-reproducible across platforms.

    The state is a single nonzero 64-bit word, derived from the seed by one
    splitmix64 scramble. Each draw applies

        x ^= x >> 12;  x ^= x << 25;  x ^= x >> 27        (mod 2**64)

    and returns ``x * 0x2545F4914F6CDD1D mod 2**64``. Floats in [0, 1) take
    the top 53 bits of that product.
    """

    _MULT = 0x2545F4914F6CDD1D

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        z = (self.seed + 0x9E3779B97F4A7C15) & _U64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
        z ^= z >> 31
        self._state = z or 0x9E3779B97F4A7C15  # xorshift must never sit at 0

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x ^= (x << 25) & _U64
        x ^= x >> 27
        self._state = x
        return (x * self._MULT) & _U64

    def next_float(self) -> float:
        """Uniform draw in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_float()

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), bias-free via rejection sampling."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        limit = (_U64 + 1) - (_U64 + 1) % n
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.randrange(i + 1)
            seq[i], seq[j] = seq[j], seq[i]


def softmax_stable(logits, axis: int = -1) -> np.ndarray:
    """Softmax computed with max-subtraction so large logits cannot overflow.

    Entries equal to -inf get weight exactly 0; at least one entry per row
    must be finite. Output rows are positive and sum to 1.
    """
    z = np.asarray(logits, dtype=float)
    if z.size == 0:
        raise ValueError("softmax of an empty vector")
    m = np.max(z, axis=axis, keepdims=True)
    e = np.exp(z - m)
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax(logits, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """log(softmax(logits)) without forming the exponentials' ratio.

    The result goes into out when it is given (logits itself is fine, for a
    float64 array) and is returned.
    """
    z = np.asarray(logits, dtype=float)
    if z.size == 0:
        raise ValueError("log_softmax of an empty vector")
    shifted, log_s = _log_normalizer(z, axis, out)
    shifted -= np.expand_dims(log_s, axis)
    return shifted


def _log_normalizer(z: np.ndarray, axis: int, out: np.ndarray | None = None):
    """(shifted, log_s): z shifted by its maximum m along axis, into out
    when it is given, and log s, s the sum of the shifted exponentials,
    with axis removed. The log-softmax is shifted - log s, (z - m) - log s,
    and every log-probability the package reads has these bits, formed
    where it is read (model._output_layer leaves the subtraction to its
    readers)."""
    shifted = np.subtract(z, np.max(z, axis=axis, keepdims=True), out=out)
    return shifted, np.log(np.sum(np.exp(shifted), axis=axis))


def _c_order(arr: np.ndarray) -> np.ndarray:
    """arr, or arr.T where that is C-contiguous and arr is not: the view
    whose row-major walk is arr's memory order. Every routine that walks a
    tensor's memory goes through it, so a tensor stored as its transpose
    (model.ModelParams.W_o) is read and written in place, not copied.
    """
    return arr.T if arr.flags.f_contiguous and not arr.flags.c_contiguous else arr


def _row_slices(arr: np.ndarray, entries: int) -> list[slice]:
    """Slices of arr's consecutive row blocks, each of at most `entries`
    entries, or of one row where a row holds more. Every routine that walks
    a tensor a block at a time takes its rows from here."""
    step = max(1, entries // max(1, arr[:1].size))
    return [slice(i, i + step) for i in range(0, len(arr), step)]


def _global_norm(arrays, names=None) -> tuple[float, float]:
    """(scale, root), the global L2 norm of the arrays being scale * root.

    The squared norm is a sum of np.vdot(a, a), one dot product per array
    over its memory order (_c_order), so no array-sized temporary is
    formed, and then scale is 1.0. Only when
    that sum is not finite are the arrays read again: a ValueError names the
    first array holding a NaN or an infinity (by names[i], else by its index
    i), and otherwise the squares overflowed, so scale is the largest
    magnitude of any entry and each array's squares are summed after
    dividing it by its own largest magnitude, where neither sum can
    overflow.
    """
    arrays = [_c_order(np.asarray(a, dtype=np.float64)) for a in arrays]
    total_sq = 0.0
    for a in arrays:
        total_sq += float(np.vdot(a, a))
    if math.isfinite(total_sq):
        return 1.0, math.sqrt(total_sq)
    peaks, sums = [], []
    for i, a in enumerate(arrays):
        peak = float(np.max(np.abs(a), initial=0.0))
        if not math.isfinite(peak):  # np.max passes a NaN through
            name = i if names is None else names[i]
            raise ValueError(f"gradient {name!r} holds a non-finite value")
        if peak > 0.0:
            unit = a / peak
            peaks.append(peak)
            sums.append(float(np.vdot(unit, unit)))
    scale = max(peaks)
    return scale, math.sqrt(sum(s * (p / scale) ** 2 for p, s in zip(peaks, sums)))


def _clip_factor(grads, max_norm: float | None, names=None) -> float:
    """The scale that brings the global L2 norm of gradient arrays down to
    max_norm: max_norm / norm when the norm exceeds max_norm, else 1.0.
    With max_norm None the factor is 1.0, and the gradients are only
    checked: a non-finite one raises _global_norm's ValueError either way.
    """
    if max_norm is not None and not (math.isfinite(max_norm) and max_norm > 0):
        raise ValueError(f"max_norm must be positive and finite, got {max_norm}")
    scale, root = _global_norm(grads, names)
    if max_norm is None or scale * root <= max_norm:
        return 1.0
    return max_norm / scale / root


def clip_global_norm(grads, max_norm: float):
    """Jointly rescale gradient arrays so their global L2 norm is <= max_norm.

    Returns (list of arrays, factor), the factor from _clip_factor. When the
    norm is already within bounds the input arrays are returned untouched
    with factor 1.0.
    """
    factor = _clip_factor(grads, max_norm)
    if factor == 1.0:
        return list(grads), 1.0
    return [g * factor for g in grads], factor
