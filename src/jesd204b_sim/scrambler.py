"""Self-synchronizing scrambler over G(x) = x^14 + x^13 + 1.

The scrambler divides the transmitted bit sequence by G, the descrambler
multiplies by it, so a descrambler locks onto any stream after 14 bits
regardless of its initial state.  With the newest history bit in bit 0
of the 14-bit state word, one serial step is::

    scramble:    out = in ^ state[12] ^ state[13];  state <- (state << 1 | out) & 0x3FFF
    descramble:  out = in ^ state[12] ^ state[13];  state <- (state << 1 | in)  & 0x3FFF

Bits are processed most-significant first within each octet, earliest
octet first.  There is one form per job:

* serial, one bit at a time: the reference form,
* the closed form of the 32-bit-wide XOR network of a wide-datapath
  receiver, on arrays of independent (state, word) pairs: the parallel
  form of the scrambler criterion,
* bulk octet-array forms for long streams, used by the transmitter and
  the receiver.

The last two share one algebra: descrambling is the shifted XOR
out = in ^ in>>13 ^ in>>14 over the stream behind its state, and
scrambling its inverse by operator doubling.  The bulk forms XOR each
delayed stream into an array in place, one slice XOR for a delay of
whole octets and two for any other: descrambling into one copy of its
stream, scrambling into its stream after one copy per doubling pass.
All forms are pure functions threading the state explicitly and are
verified against each other bit-for-bit by the test suite.

Both link ends reset their state to all ones on data-phase entry.  That
choice does not affect correctness (the descrambler self-synchronizes);
it only pins down the first 14 bits for golden-file determinism.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .codec8b10b import check_range

STATE_BITS = 14
STATE_MASK = (1 << STATE_BITS) - 1
ALL_ONES = STATE_MASK
_TAP_A = 13  # delay of the x^13 tap
_TAP_B = 14  # delay of the x^14 tap


# ---------------------------------------------------------------------------
# Serial (bit at a time) form.
# ---------------------------------------------------------------------------

def scramble_bits(state: int, bits: Iterable[int]) -> tuple[int, list[int]]:
    """Scramble a bit sequence; returns (state, scrambled bits)."""
    state &= STATE_MASK
    out = []
    for b in bits:
        o = (b & 1) ^ ((state >> 12) & 1) ^ ((state >> 13) & 1)
        state = ((state << 1) | o) & STATE_MASK
        out.append(o)
    return state, out


def descramble_bits(state: int, bits: Iterable[int]) -> tuple[int, list[int]]:
    """Descramble a bit sequence; returns (state, recovered bits)."""
    state &= STATE_MASK
    out = []
    for b in bits:
        b &= 1
        out.append(b ^ ((state >> 12) & 1) ^ ((state >> 13) & 1))
        state = ((state << 1) | b) & STATE_MASK
    return state, out


# ---------------------------------------------------------------------------
# 32-bit parallel form.  A (state, word) pair is one 46-bit window, the 14
# state bits above the word, oldest first: a delay of k bits is a right
# shift by k.
# ---------------------------------------------------------------------------

def _window(states: np.ndarray, words: np.ndarray) -> np.ndarray:
    states, words = np.asarray(states), np.asarray(words)
    if states.size or words.size:   # an empty list is float64 to numpy
        check_range(words, 0xFFFF_FFFF, "words")
        if states.dtype.kind not in "iu":
            raise ValueError(f"states must be integers, got dtype {states.dtype}")
    return (states.astype(np.uint64) & STATE_MASK) << 32 | words.astype(np.uint64)


def scramble_words_batch(states: np.ndarray, words: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Parallel-form scramble of independent (state, word) pairs: fold the
    oldest state bit into the newest, as :func:`scramble_octets` does, then
    apply (1 ^ D)(1 ^ D^2) with D = >>13 ^ >>14 (D^4 shifts past the window)."""
    u = _window(states, words)
    u ^= (u >> 45) << 32
    t = u ^ u >> _TAP_A ^ u >> _TAP_B
    y = t ^ t >> 2 * _TAP_A ^ t >> 2 * _TAP_B
    return (y & STATE_MASK).astype(np.uint32), (y & 0xFFFF_FFFF).astype(np.uint32)


def descramble_words_batch(states: np.ndarray, words: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Parallel-form descramble of independent (state, word) pairs."""
    x = _window(states, words)
    y = x ^ x >> _TAP_A ^ x >> _TAP_B
    return (x & STATE_MASK).astype(np.uint32), (y & 0xFFFF_FFFF).astype(np.uint32)


# ---------------------------------------------------------------------------
# Bulk octet-array forms for long per-lane streams.
# ---------------------------------------------------------------------------

def _xor_delayed(out: np.ndarray, src: np.ndarray, k: int) -> None:
    """out ^= src delayed by k bits (MSB-first octet bitstreams, zero fill)."""
    n = src.shape[0]
    q, r = divmod(k, 8)
    if q >= n:
        return
    if r == 0:
        out[q:] ^= src[: n - q]
        return
    out[q:] ^= src[: n - q] >> r              # octet i-q gives its high bits
    out[q + 1:] ^= src[: n - q - 1] << (8 - r)  # octet i-q-1 its low bits


def _state_prefix(state: int) -> np.ndarray:
    # Two octets holding [0, 0, bit13 .. bit0]: stream index -1-k maps to
    # state bit k, so the oldest bit (13) sits right after the 2-bit pad.
    return np.array([(state >> 8) & 0x3F, state & 0xFF], dtype=np.uint8)


def _octets(octets: np.ndarray) -> np.ndarray:
    octets = np.asarray(octets)
    if octets.ndim != 1:
        raise ValueError("octets must be a 1-D array")
    # The transmitter and the receiver pass uint8, so they skip the check.
    if octets.dtype != np.uint8 and octets.size:
        check_range(octets, 0xFF, "octets")
    return octets.astype(np.uint8, copy=False)


def descramble_octets(state: int, octets: np.ndarray) -> tuple[int, np.ndarray]:
    """Bulk descramble: out = in ^ in>>13 ^ in>>14 over the whole stream."""
    octets = _octets(octets)
    if octets.size == 0:
        return state & STATE_MASK, octets.copy()
    ext = np.concatenate([_state_prefix(state), octets])
    y = ext.copy()
    _xor_delayed(y, ext, _TAP_A)
    _xor_delayed(y, ext, _TAP_B)
    new_state = ((int(ext[-2]) << 8) | int(ext[-1])) & STATE_MASK
    return new_state, y[2:]


def scramble_octets(state: int, octets: np.ndarray) -> tuple[int, np.ndarray]:
    """Bulk scramble via operator doubling.

    The recurrence y = u ^ y>>13 ^ y>>14 is solved as
    y = (1 + D)(1 + D^2)(1 + D^4)... u with D = (>>13 ^ >>14), using
    D^(2^j) = (>>13*2^j ^ >>14*2^j) over GF(2), one pass per factor.
    Matches the serial form bit-for-bit, including the threaded state.
    """
    octets = _octets(octets)
    if octets.size == 0:
        return state & STATE_MASK, octets.copy()
    y = np.concatenate([_state_prefix(state), octets])
    # Fold the recurrence's reach into the state prefix: bit 15 of the
    # extended stream picks up the oldest state bit (stream index 2).
    y[1] ^= (y[0] >> 5) & 1
    j = 0
    while _TAP_A << j < 8 * y.shape[0]:
        old = y.copy()   # each pass reads the stream as it was
        _xor_delayed(y, old, _TAP_A << j)
        _xor_delayed(y, old, _TAP_B << j)
        j += 1
    new_state = ((int(y[-2]) << 8) | int(y[-1])) & STATE_MASK
    return new_state, y[2:]
