"""Self-synchronizing scrambler over G(x) = x^14 + x^13 + 1.

The scrambler divides the transmitted bit sequence by G, the descrambler
multiplies by it, so a descrambler locks onto any stream after 14 bits
regardless of its initial state.  With the newest history bit in bit 0
of the 14-bit state word, one serial step is::

    scramble:    out = in ^ state[12] ^ state[13];  state <- (state << 1 | out) & 0x3FFF
    descramble:  out = in ^ state[12] ^ state[13];  state <- (state << 1 | in)  & 0x3FFF

Bits are processed most-significant first within each octet, earliest
octet first.  Equivalent forms are provided:

* serial, one bit at a time (the reference form),
* a 32-bit-wide feed-forward XOR network, mirroring a wide-datapath
  hardware implementation, applied to arrays of independent
  (state, word) pairs; ``scramble_word32`` is a one-element batch,
* bulk octet-array forms for long streams (the descramble direction is
  a plain shifted XOR; the scramble direction uses iterated operator
  doubling over GF(2), which costs O(log n) shifted-XOR passes),
* ``descramble_word32``, the bulk form on one word, for the stepped receiver.

All forms are pure functions threading the state explicitly and are
verified against each other bit-for-bit by the test suite.

Both link ends reset their state to all ones on data-phase entry.  That
choice does not affect correctness (the descrambler self-synchronizes);
it only pins down the first 14 bits for golden-file determinism.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

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


def _octets_to_bits(octets: Iterable[int]) -> list[int]:
    return [(int(o) >> k) & 1 for o in octets for k in range(7, -1, -1)]


def _bits_to_octets(bits: Sequence[int]) -> list[int]:
    return [int("".join(str(b) for b in bits[i: i + 8]), 2)
            for i in range(0, len(bits), 8)]


def scramble_octets_serial(state: int, octets: Iterable[int]) -> tuple[int, list[int]]:
    """Serial scramble of octets, MSB first within each octet."""
    state, bits = scramble_bits(state, _octets_to_bits(octets))
    return state, _bits_to_octets(bits)


def descramble_octets_serial(state: int, octets: Iterable[int]) -> tuple[int, list[int]]:
    """Serial descramble of octets, MSB first within each octet."""
    state, bits = descramble_bits(state, _octets_to_bits(octets))
    return state, _bits_to_octets(bits)


# ---------------------------------------------------------------------------
# 32-bit parallel form.  Because the update is linear over GF(2), each of
# the 32 output bits is the XOR parity of a fixed mask over the input word
# and a fixed mask over the 14 state bits.  The masks are derived once by
# running the serial recurrence symbolically.
# ---------------------------------------------------------------------------

def _build_masks(self_sync_input: bool) -> tuple[np.ndarray, np.ndarray,
                                                 np.ndarray, np.ndarray]:
    # Symbolic bit = (mask over the 32 input bits, mask over 14 state bits).
    # Input bit j (stream order) occupies uint32 bit (31 - j).
    state = [(0, 1 << k) for k in range(STATE_BITS)]
    out_in = np.zeros(32, dtype=np.uint32)
    out_st = np.zeros(32, dtype=np.uint32)
    for j in range(32):
        b_in = (1 << (31 - j), 0)
        o = (b_in[0] ^ state[12][0] ^ state[13][0],
             b_in[1] ^ state[12][1] ^ state[13][1])
        out_in[j], out_st[j] = o
        fed = b_in if self_sync_input else o
        state = [fed] + state[:13]
    st_in = np.array([m[0] for m in state], dtype=np.uint32)
    st_st = np.array([m[1] for m in state], dtype=np.uint32)
    return out_in, out_st, st_in, st_st


_SCR_OUT_IN, _SCR_OUT_ST, _SCR_ST_IN, _SCR_ST_ST = _build_masks(self_sync_input=False)
_DSC_OUT_IN, _DSC_OUT_ST, _DSC_ST_IN, _DSC_ST_ST = _build_masks(self_sync_input=True)


def _parity32(x: np.ndarray) -> np.ndarray:
    x = x ^ (x >> np.uint32(16))
    x = x ^ (x >> np.uint32(8))
    x = x ^ (x >> np.uint32(4))
    x = x ^ (x >> np.uint32(2))
    x = x ^ (x >> np.uint32(1))
    return x & np.uint32(1)


def word_from_octets(octets: Sequence[int]) -> int:
    """Pack 4 octets (earliest first) into a uint32, octet 0 in the MSBs."""
    o = list(octets)
    if len(o) != 4:
        raise ValueError("a word is exactly 4 octets")
    return ((o[0] & 0xFF) << 24) | ((o[1] & 0xFF) << 16) | ((o[2] & 0xFF) << 8) | (o[3] & 0xFF)


def octets_from_word(word: int) -> tuple[int, int, int, int]:
    return ((word >> 24) & 0xFF, (word >> 16) & 0xFF, (word >> 8) & 0xFF, word & 0xFF)


def _apply_words_batch(words: np.ndarray, states: np.ndarray,
                       out_in, out_st, st_in, st_st) -> tuple[np.ndarray, np.ndarray]:
    words = np.asarray(words, dtype=np.uint32)
    states = np.asarray(states, dtype=np.uint32)
    out = np.zeros_like(words)
    for j in range(32):
        bit = _parity32(words & out_in[j]) ^ _parity32(states & out_st[j])
        out |= bit.astype(np.uint32) << np.uint32(31 - j)
    new_states = np.zeros_like(states)
    for k in range(STATE_BITS):
        bit = _parity32(words & st_in[k]) ^ _parity32(states & st_st[k])
        new_states |= bit.astype(np.uint32) << np.uint32(k)
    return out, new_states


def scramble_words_batch(states: np.ndarray, words: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Parallel-form scramble of independent (state, word) pairs."""
    out, ns = _apply_words_batch(words, states,
                                 _SCR_OUT_IN, _SCR_OUT_ST, _SCR_ST_IN, _SCR_ST_ST)
    return ns, out


def descramble_words_batch(states: np.ndarray, words: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Parallel-form descramble of independent (state, word) pairs."""
    out, ns = _apply_words_batch(words, states,
                                 _DSC_OUT_IN, _DSC_OUT_ST, _DSC_ST_IN, _DSC_ST_ST)
    return ns, out


def scramble_word32(state: int, octets: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Scramble one 4-octet word through the parallel XOR network."""
    ns, out = scramble_words_batch(np.array([state & STATE_MASK]),
                                   np.array([word_from_octets(octets)]))
    return int(ns[0]), octets_from_word(int(out[0]))


def descramble_word32(state: int, octets: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Descramble one 4-octet word: out = in ^ in>>13 ^ in>>14 behind the state."""
    x = (state & STATE_MASK) << 32 | word_from_octets(octets)
    return x & STATE_MASK, octets_from_word((x ^ x >> _TAP_A ^ x >> _TAP_B) & 0xFFFFFFFF)


# ---------------------------------------------------------------------------
# Bulk octet-array forms for long per-lane streams.
# ---------------------------------------------------------------------------

def _shift_stream(octets: np.ndarray, k: int) -> np.ndarray:
    """Delay an MSB-first octet bitstream by k bits (zero fill)."""
    n = octets.shape[0]
    out = np.zeros(n, dtype=np.uint8)
    q, r = divmod(k, 8)
    if q >= n:
        return out
    if r == 0:
        out[q:] = octets[: n - q]
        return out
    hi = np.zeros(n, dtype=np.uint8)
    lo = np.zeros(n, dtype=np.uint8)
    if q + 1 < n:
        hi[q + 1:] = octets[: n - q - 1]   # octet i-q-1 contributes its low bits
    lo[q:] = octets[: n - q]               # octet i-q contributes its high bits
    return ((hi << (8 - r)) | (lo >> r)).astype(np.uint8)


def _state_prefix(state: int) -> np.ndarray:
    # Two octets holding [0, 0, bit13 .. bit0]: stream index -1-k maps to
    # state bit k, so the oldest bit (13) sits right after the 2-bit pad.
    return np.array([(state >> 8) & 0x3F, state & 0xFF], dtype=np.uint8)


def descramble_octets(state: int, octets: np.ndarray) -> tuple[int, np.ndarray]:
    """Bulk descramble: out = in ^ in>>13 ^ in>>14 over the whole stream."""
    octets = np.asarray(octets, dtype=np.uint8)
    if octets.size == 0:
        return state & STATE_MASK, octets.copy()
    ext = np.concatenate([_state_prefix(state), octets])
    y = ext ^ _shift_stream(ext, _TAP_A) ^ _shift_stream(ext, _TAP_B)
    new_state = ((int(ext[-2]) << 8) | int(ext[-1])) & STATE_MASK
    return new_state, y[2:]


def scramble_octets(state: int, octets: np.ndarray) -> tuple[int, np.ndarray]:
    """Bulk scramble via operator doubling.

    The recurrence y = u ^ y>>13 ^ y>>14 is solved as
    y = (1 + D)(1 + D^2)(1 + D^4)... u with D = (>>13 ^ >>14), using
    D^(2^j) = (>>13*2^j ^ >>14*2^j) over GF(2).  Matches the serial form
    bit-for-bit, including the threaded state.
    """
    octets = np.asarray(octets, dtype=np.uint8)
    if octets.size == 0:
        return state & STATE_MASK, octets.copy()
    u = np.concatenate([_state_prefix(state), octets])
    # Fold the recurrence's reach into the state prefix: bit 15 of the
    # extended stream picks up the oldest state bit (stream index 2).
    u[1] ^= (u[0] >> 5) & 1
    total_bits = 8 * u.shape[0]
    y = u
    j = 0
    while _TAP_A << j < total_bits:
        y = y ^ _shift_stream(y, _TAP_A << j) ^ _shift_stream(y, _TAP_B << j)
        j += 1
    new_state = ((int(y[-2]) << 8) | int(y[-1])) & STATE_MASK
    return new_state, y[2:]
