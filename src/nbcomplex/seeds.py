"""Deterministic 64-bit mixing used for all sampling in the library.

Random graph edges and per-trial seeds are produced by hashing structured
integer tuples (seed, pair index, trial index, ...) through a fixed mixer,
never by consuming a shared stream.  Results therefore do not depend on
call order, scheduling, or worker count, and are stable across platforms.

The mixer is the public-domain splitmix64 finalizer (Steele, Lea and
Flood, OOPSLA 2014).  :func:`splitmix64_lanes` runs the same finalizer on
many values at once, SIMD within a register (Lamport, CACM 1975): value t
sits in lane t, bits 128t..128t+127 of one Python int, and every step of
the finalizer is one whole-int operation.  It is exact lane by lane.
A lane holds a value below 2**64 before each step, so adding the 64-bit
constant stays below 2**65 and multiplying by a 64-bit constant stays
below 2**128: neither carries into the next lane.  A right shift moves
the low bits of the next lane into bits 64..127 of this one, and an AND
with ``MASK64`` repeated in every lane clears them, as it clears the
carries, before the next step reads the lane.  So each lane ends with the scalar
:func:`splitmix64` of its own value, bit for bit.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1

LANE_BITS = 128

_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


def splitmix64(x: int) -> int:
    """One round of the splitmix64 output function (64-bit in, 64-bit out)."""
    x = (x + _GAMMA) & MASK64
    z = x
    z = ((z ^ (z >> 30)) * _MUL1) & MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & MASK64
    return (z ^ (z >> 31)) & MASK64


def lane_ones(count: int) -> int:
    """The int whose ``count`` lanes each hold 1; times v, each holds v."""
    return int.from_bytes(b"\1".ljust(LANE_BITS // 8, b"\0") * count, "little")


def splitmix64_lanes(x: int, ones: int) -> int:
    """:func:`splitmix64` of every lane of ``x`` at once.

    ``ones`` is ``lane_ones(count)`` for the lanes of ``x``, and each lane
    of ``x`` holds a value below 2**64.  Lane t of the result is
    ``splitmix64`` of lane t of ``x``.
    """
    mask = ones * MASK64
    x = (x + ones * _GAMMA) & mask
    x = (x ^ x >> 30) & mask
    x = x * _MUL1 & mask
    x = (x ^ x >> 27) & mask
    x = x * _MUL2 & mask
    return (x ^ x >> 31) & mask


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
