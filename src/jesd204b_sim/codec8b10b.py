"""8b/10b line coding, serialization and comma-based bit alignment.

Models the physical-layer transceiver: octets plus a control flag go in,
10-bit symbols come out, with the running disparity threaded explicitly.
Symbols are plain ints whose bit 9 is the first bit on the wire
(transmission order ``a b c d e i f g h j``), so ``K28.5`` at negative
disparity prints as ``0b0011111010``.

The transmit side is restricted to the five control characters the link
layer uses:

====  =======  =====
name  code     octet
====  =======  =====
/R/   K28.0    0x1C   start of multiframe
/A/   K28.3    0x7C   lane alignment
/Q/   K28.4    0x9C   start of configuration data
/K/   K28.5    0xBC   group synchronization (comma)
/F/   K28.7    0xFC   frame alignment
====  =======  =====

Decoding is table-driven and total: symbols outside the code tables come
back as octet 0 with ``not_in_table`` set, symbols legal only under the
opposite running disparity set ``disparity_error``, and the disparity
always advances deterministically (by the sign of the symbol's bit
imbalance).  Errors are flags on the decoded character, never
exceptions; the receiver state machine consumes them.

:func:`bit_align` takes what a deserializer delivers, consecutive 10-bit
words at an unknown bit phase; :func:`serialize`, one byte per bit,
serves tests and demos.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RD_NEG = 0
RD_POS = 1

# Control characters used by the link layer (K28.y -> octet 28 | y << 5).
CONTROL_OCTETS = {
    "R": 0x1C,  # K28.0
    "A": 0x7C,  # K28.3
    "Q": 0x9C,  # K28.4
    "K": 0xBC,  # K28.5
    "F": 0xFC,  # K28.7
}
K_R = CONTROL_OCTETS["R"]
K_A = CONTROL_OCTETS["A"]
K_Q = CONTROL_OCTETS["Q"]
K_K = CONTROL_OCTETS["K"]
K_F = CONTROL_OCTETS["F"]

# 7-bit commas (in K28.5/K28.7), first bit on the wire in bit 6.
_COMMA_NEG = 0b0011111
_COMMA_POS = 0b1100000
_COMMA_SEARCH_WORDS = 128  # first bit_align window


class InvalidControlCode(ValueError):
    """Control encode requested for an octet outside the K-code set."""


class NoCommaFound(ValueError):
    """Bit alignment exhausted its search window without seeing a comma."""


@dataclass(frozen=True)
class Char:
    """One decoded octet with its control flag and decode-error flags."""

    octet: int
    is_control: bool = False
    not_in_table: bool = False
    disparity_error: bool = False


# ---------------------------------------------------------------------------
# Code tables.
#
# Stored sub-block values are the positive-disparity column; entries marked
# for flipping are complemented when entered with negative disparity.  The
# alternate D.x.A7 form replaces the primary 7 sub-block where run length
# rules require it (x in 17/18/20 entering negative, 11/13/14 entering
# positive, and always for control codes).
# ---------------------------------------------------------------------------

_5B6B = [
    0b011000, 0b100010, 0b010010, 0b110001, 0b001010, 0b101001, 0b011001,
    0b000111, 0b000110, 0b100101, 0b010101, 0b110100, 0b001101, 0b101100,
    0b011100, 0b101000, 0b100100, 0b100011, 0b010011, 0b110010, 0b001011,
    0b101010, 0b011010, 0b000101, 0b001100, 0b100110, 0b010110, 0b001001,
    0b001110, 0b010001, 0b100001, 0b010100,
]
_3B4B = [0b0100, 0b1001, 0b0101, 0b0011, 0b0010, 0b1010, 0b0110, 0b0001]

_ALT7_AT_NEG = (17, 18, 20)
_ALT7_AT_POS = (11, 13, 14)


def _imbalance(word: int, nbits: int) -> int:
    return 2 * int(word).bit_count() - nbits


_5B6B_UNBAL = [_imbalance(c, 6) != 0 for c in _5B6B]
_5B6B_FLIP = list(_5B6B_UNBAL)
_5B6B_FLIP[7] = True  # D.7 alternates despite being balanced

_3B4B_UNBAL = [_imbalance(c, 4) != 0 for c in _3B4B]
_3B4B_FLIP = list(_3B4B_UNBAL)
_3B4B_FLIP[3] = True  # D.x.3 alternates despite being balanced


def _encode_raw(octet: int, is_control: bool, rd: int) -> tuple[int, int]:
    """Table encode of one character; returns (symbol, next rd)."""
    x = octet & 0x1F
    y = octet >> 5
    if is_control:
        if octet not in _K_SET:
            raise InvalidControlCode(f"octet 0x{octet:02X} is not a valid K code here")
        six, unbal6, flip6 = 0b110000, True, True
    else:
        six, unbal6, flip6 = _5B6B[x], _5B6B_UNBAL[x], _5B6B_FLIP[x]

    out6 = (~six & 0x3F) if (rd == RD_NEG and flip6) else six
    rd_inter = rd ^ int(unbal6)

    use_alt7 = y == 7 and (
        is_control
        or (rd_inter == RD_NEG and x in _ALT7_AT_NEG)
        or (rd_inter == RD_POS and x in _ALT7_AT_POS)
    )
    if use_alt7:
        out4 = 0b0111 if rd_inter == RD_NEG else 0b1000
        rd_out = rd_inter ^ 1
    else:
        code4, unbal4, flip4 = _3B4B[y], _3B4B_UNBAL[y], (True if is_control else _3B4B_FLIP[y])
        out4 = (~code4 & 0xF) if (rd_inter == RD_NEG and flip4) else code4
        rd_out = rd_inter ^ int(unbal4)

    return (out6 << 4) | out4, rd_out


_K_SET = frozenset(CONTROL_OCTETS.values())

# Encode tables: symbol and disparity flip per (rd, octet).
ENC_D_SYM = np.zeros((2, 256), dtype=np.uint16)
ENC_K_SYM = np.zeros((2, 256), dtype=np.uint16)
ENC_D_FLIP = np.zeros(256, dtype=np.uint8)
ENC_K_FLIP = np.zeros(256, dtype=np.uint8)
IS_K_OCTET = np.zeros(256, dtype=bool)

# Decode tables indexed by the 10-bit symbol.
DEC_OCTET = np.zeros(1024, dtype=np.uint8)
DEC_CTRL = np.zeros(1024, dtype=bool)
DEC_VALID = np.zeros((2, 1024), dtype=bool)   # legal when entered at this rd
DEC_IN_TABLE = np.zeros(1024, dtype=bool)

POP10 = np.array([int(s).bit_count() for s in range(1024)], dtype=np.uint8)


def _build_tables() -> None:
    for rd in (RD_NEG, RD_POS):
        for octet in range(256):
            sym, rd_out = _encode_raw(octet, False, rd)
            ENC_D_SYM[rd, octet] = sym
            if rd == RD_NEG:
                ENC_D_FLIP[octet] = rd_out != rd
            if DEC_IN_TABLE[sym] and (DEC_OCTET[sym] != octet or DEC_CTRL[sym]):
                raise AssertionError(f"8b/10b table conflict at symbol {sym:#05x}")
            DEC_OCTET[sym] = octet
            DEC_VALID[rd, sym] = True
            DEC_IN_TABLE[sym] = True
        for octet in _K_SET:
            sym, rd_out = _encode_raw(octet, True, rd)
            ENC_K_SYM[rd, octet] = sym
            if rd == RD_NEG:
                ENC_K_FLIP[octet] = rd_out != rd
            IS_K_OCTET[octet] = True
            if DEC_IN_TABLE[sym] and not (DEC_CTRL[sym] and DEC_OCTET[sym] == octet):
                raise AssertionError(f"8b/10b table conflict at symbol {sym:#05x}")
            DEC_OCTET[sym] = octet
            DEC_CTRL[sym] = True
            DEC_VALID[rd, sym] = True
            DEC_IN_TABLE[sym] = True


_build_tables()


def _next_rd(sym: int, rd: int) -> int:
    ones = POP10[sym]
    if ones > 5:
        return RD_POS
    if ones < 5:
        return RD_NEG
    return rd


def encode_octet(octet: int, is_control: bool, rd: int) -> tuple[int, int]:
    """Scalar encode without the :class:`Char` wrapper; returns (symbol, rd)."""
    octet &= 0xFF
    if is_control:
        if octet not in _K_SET:
            raise InvalidControlCode(f"octet 0x{octet:02X} is not a valid K code here")
        sym = int(ENC_K_SYM[rd, octet])
    else:
        sym = int(ENC_D_SYM[rd, octet])
    return sym, _next_rd(sym, rd)


def decode_octet(sym: int, rd: int) -> tuple[int, bool, bool, bool, int]:
    """Scalar decode; returns (octet, is_control, not_in_table, disparity_error, rd)."""
    sym &= 0x3FF
    rd_out = _next_rd(sym, rd)
    if DEC_VALID[rd, sym]:
        return int(DEC_OCTET[sym]), bool(DEC_CTRL[sym]), False, False, rd_out
    if DEC_IN_TABLE[sym]:
        return int(DEC_OCTET[sym]), bool(DEC_CTRL[sym]), False, True, rd_out
    return 0, False, True, False, rd_out


def encode_char(c: Char, rd: int) -> tuple[int, int]:
    """Encode one character at the given running disparity.

    Returns ``(symbol, next_rd)``.  Control octets outside the K-code set
    raise :class:`InvalidControlCode`.
    """
    return encode_octet(c.octet, c.is_control, rd)


def decode_symbol(sym: int, rd: int) -> tuple[Char, int]:
    """Decode one 10-bit symbol at the given running disparity.

    Never raises: out-of-table symbols decode to octet 0 with
    ``not_in_table`` set, and disparity-rule violations set
    ``disparity_error``.  The returned disparity always advances by the
    sign of the symbol's bit imbalance.
    """
    octet, ctrl, nit, derr, rd_out = decode_octet(sym, rd)
    return Char(octet, ctrl, nit, derr), rd_out


# ---------------------------------------------------------------------------
# Stream (vectorized) forms.  Disparity threading reduces to a cumulative
# XOR of per-character flips on encode, and to a "latest unbalanced symbol
# wins" scan on decode; both match the scalar forms exactly.
# ---------------------------------------------------------------------------

def encode_stream(octets: np.ndarray, ctrl: np.ndarray,
                  rd: int = RD_NEG) -> tuple[np.ndarray, int]:
    """Encode a stream of characters; returns (symbols, final rd)."""
    octets = np.asarray(octets, dtype=np.uint8)
    ctrl = np.asarray(ctrl, dtype=bool)
    n = octets.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.uint16), rd
    if bool(np.any(ctrl & ~IS_K_OCTET[octets])):
        bad = octets[ctrl & ~IS_K_OCTET[octets]][0]
        raise InvalidControlCode(f"octet 0x{bad:02X} is not a valid K code here")
    flips = np.where(ctrl, ENC_K_FLIP[octets], ENC_D_FLIP[octets])
    cum = np.bitwise_xor.accumulate(flips)
    rd_in = np.empty(n, dtype=np.uint8)
    rd_in[0] = rd
    rd_in[1:] = rd ^ cum[:-1]
    syms = np.where(ctrl, ENC_K_SYM[rd_in, octets], ENC_D_SYM[rd_in, octets])
    return syms.astype(np.uint16), int(rd ^ cum[-1])


def decode_stream(symbols: np.ndarray, rd: int = RD_NEG
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Decode a symbol stream.

    Returns ``(octets, ctrl, not_in_table, disparity_error, final rd)``.
    """
    syms = np.asarray(symbols, dtype=np.uint16) & 0x3FF
    n = syms.shape[0]
    if n == 0:
        z = np.zeros(0, dtype=bool)
        return np.zeros(0, dtype=np.uint8), z, z.copy(), z.copy(), rd
    ones = POP10[syms]
    unbalanced = ones != 5
    idx = np.maximum.accumulate(np.where(unbalanced, np.arange(n), -1))
    rd_after = np.where(idx >= 0, ones[np.maximum(idx, 0)] > 5, bool(rd))
    rd_in = np.empty(n, dtype=np.uint8)
    rd_in[0] = rd
    rd_in[1:] = rd_after[:-1]

    in_table = DEC_IN_TABLE[syms]
    octets = np.where(in_table, DEC_OCTET[syms], 0).astype(np.uint8)
    ctrl = DEC_CTRL[syms] & in_table
    nit = ~in_table
    derr = in_table & ~DEC_VALID[rd_in, syms]
    return octets, ctrl, nit, derr, int(rd_after[-1])


# ---------------------------------------------------------------------------
# Serialization and comma alignment.
# ---------------------------------------------------------------------------

def serialize(symbols: np.ndarray) -> np.ndarray:
    """Flatten symbols to a 0/1 bit array in transmission order."""
    syms = np.asarray(symbols, dtype=np.uint16)
    shifts = np.arange(9, -1, -1, dtype=np.uint16)
    return ((syms[:, None] >> shifts[None, :]) & 1).astype(np.uint8).ravel()


def _comma_starts(words: np.ndarray) -> np.ndarray:
    """(n, 10) mask of commas starting at bit j of word i, searched across
    adjacent words; a comma running past the last word does not count."""
    pairs = (words << 10) | np.append(words[1:], np.uint32(0))
    hits = np.empty((words.shape[0], 10), dtype=bool)
    for j in range(10):
        window = (pairs >> (13 - j)) & 0x7F
        hits[:, j] = (window == _COMMA_NEG) | (window == _COMMA_POS)
    hits[-1:, 4:] = False
    return hits


def bit_align(words: np.ndarray) -> tuple[int, np.ndarray]:
    """Recover symbol boundaries from raw 10-bit words at any bit phase.

    Finds the first comma in windows of doubling length from
    ``_COMMA_SEARCH_WORDS`` words and returns ``(offset, symbols)``:
    ``offset`` in 0..9 is its bit position within its word, and the
    symbols start that many bits in (the partial last word is dropped).
    Raises :class:`NoCommaFound` when the stream has no comma.
    """
    w = np.asarray(words, dtype=np.uint32) & 0x3FF
    n = w.shape[0]
    size = _COMMA_SEARCH_WORDS
    while not (hits := _comma_starts(w[:size])).any() and size < n:
        size *= 2
    if not hits.any():
        raise NoCommaFound(f"no comma in {n} words")
    k = int(np.argmax(hits)) % 10
    if k == 0:
        return 0, w.astype(np.uint16)
    return k, (((w[:-1] << k) | (w[1:] >> (10 - k))) & 0x3FF).astype(np.uint16)
