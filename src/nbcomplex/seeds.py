"""Deterministic 64-bit mixing used for all sampling in the library.

Random graph edges and per-trial seeds are produced by hashing structured
integer tuples (seed, pair index, trial index, ...) through a fixed mixer,
never by consuming a shared stream.  Results therefore do not depend on
call order, scheduling, or worker count, and are stable across platforms.

The mixer is the public-domain splitmix64 finalizer.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One round of the splitmix64 output function (64-bit in, 64-bit out)."""
    x = (x + _GAMMA) & MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def mix64(*parts: int) -> int:
    """Hash a tuple of integers to one 64-bit value.

    Order sensitive: ``mix64(a, b) != mix64(b, a)`` in general.  This is the
    documented derivation used everywhere a seed is split (per edge slot in
    G(n, p) sampling, per (p index, trial index) in surveys).  It is a left
    fold, so ``mix64(*parts, v) == splitmix64(mix64(*parts) ^
    splitmix64(v & MASK64))``: a shared prefix can be hashed once.
    """
    h = 0
    for v in parts:
        h = splitmix64(h ^ splitmix64(v & MASK64))
    return h


def unit_threshold(p: float) -> int:
    """Integer threshold t such that a uniform 64-bit draw u is a success
    iff u < t, matching probability p up to 2**-64."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")
    return int(p * (1 << 64))
