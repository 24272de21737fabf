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
scrambling its inverse by operator doubling.  The bulk forms view the
stream as big-endian 64-bit words and XOR each delayed stream into them
in place, one slice XOR for a delay of whole words and two for any other:
descrambling into one copy of its words, scrambling into its words after
copying the prefix each doubling pass reads.
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
# Bulk forms for long per-lane streams, on big-endian 64-bit words of the
# extended stream [0, 0, state bits 13..0, octets]: index -1-k is state bit k.
# ---------------------------------------------------------------------------

def _xor_delayed(out: np.ndarray, src: np.ndarray, k: int) -> None:
    """out ^= src delayed by k bits (MSB-first word bitstreams, zero fill)."""
    m = out.shape[0]
    q, r = divmod(k, 64)
    if q >= m:
        return
    if r == 0:
        out[q:] ^= src[: m - q]
        return
    out[q:] ^= src[: m - q] >> np.uint64(r)              # word i-q gives its high bits
    out[q + 1:] ^= src[: m - q - 1] << np.uint64(64 - r)  # word i-q-1 its low bits


def _words(state: int, octets: np.ndarray) -> np.ndarray:
    # Zero padding to a whole word changes no earlier bit: every delay is causal.
    ext = np.zeros((octets.shape[0] + 9) // 8 * 8, dtype=np.uint8)
    ext[0], ext[1] = state >> 8, state & 0xFF
    ext[2:octets.shape[0] + 2] = octets
    return ext.view(">u8").astype(np.uint64)


def _tail_state(words: np.ndarray, n: int) -> int:
    # The extended stream's last 14 bits: its octets n and n + 1.
    pair = words[n // 8: n // 8 + 2].astype(">u8").view(np.uint8)
    return (int(pair[n % 8]) << 8 | int(pair[n % 8 + 1])) & STATE_MASK


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
    n = octets.shape[0]
    x = _words(state & STATE_MASK, octets)
    y = x.copy()
    _xor_delayed(y, x, _TAP_A)
    _xor_delayed(y, x, _TAP_B)
    return _tail_state(x, n), y.astype(">u8").view(np.uint8)[2:n + 2]


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
    n = octets.shape[0]
    # Fold the recurrence's reach into the state: bit 0 picks up bit 13.
    y = _words(state & STATE_MASK ^ (state >> _TAP_A & 1), octets)
    old = np.empty_like(y)
    j = 0
    while _TAP_A << j < 8 * (n + 2):
        src = old[: old.shape[0] - (_TAP_A << j) // 64]   # the prefix this pass reads,
        src[:] = y[: src.shape[0]]                         # as it was before the pass
        _xor_delayed(y, src, _TAP_A << j)
        _xor_delayed(y, src, _TAP_B << j)
        j += 1
    return _tail_state(y, n), y.astype(">u8").view(np.uint8)[2:n + 2]
