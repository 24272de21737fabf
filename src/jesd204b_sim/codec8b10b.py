"""8b/10b line coding, serialization and comma-based bit alignment.

Models the physical-layer transceiver: characters go in, 10-bit symbols
come out, with the running disparity threaded explicitly.  Symbols are
plain ints whose bit 9 is the first bit on the wire (transmission order
``a b c d e i f g h j``), so ``K28.5`` at negative disparity prints as
``0b0011111010``.

A lane's characters take one format from transmitter to receiver, the
packed character: a uint16 with the octet in bits 7:0, ``CTRL_FLAG``
(bit 8) for a control character and, once decoded, ``NIT_FLAG`` (bit 9,
not in table) and ``DERR_FLAG`` (bit 10, disparity error).  The stream
forms take and return packed arrays, and the scalar forms
(:func:`encode_octet`, :func:`decode_octet`) one packed character, through
the same table each way.

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
back as octet 0 with ``NIT_FLAG`` set, symbols legal only under the
opposite running disparity set ``DERR_FLAG``, and the disparity
always advances deterministically (by the sign of the symbol's bit
imbalance).  Errors are flags on the decoded character, never
exceptions; the receiver state machine consumes them.

:func:`bit_align` takes what a deserializer delivers, consecutive 10-bit
words at an unknown bit phase; :func:`serialize`, one byte per bit,
serves tests and demos.
"""

from __future__ import annotations

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

# Packed-character flags, above the octet in bits 7:0.
CTRL_FLAG = 1 << 8    # control (K) character
NIT_FLAG = 1 << 9     # symbol not in the code table (octet 0)
DERR_FLAG = 1 << 10   # symbol legal only at the other running disparity

# 7-bit commas (in K28.5/K28.7), first bit on the wire in bit 6.
_COMMA_NEG = 0b0011111
_COMMA_POS = 0b1100000
_COMMA_SEARCH_WORDS = 128  # first bit_align window


class InvalidControlCode(ValueError):
    """Encode requested for a control octet outside the K-code set, or for
    a character carrying error flags."""


class NoCommaFound(ValueError):
    """Bit alignment exhausted its search window without seeing a comma."""


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
    if is_control:   # one of _K_SET, all of them K28.y
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

# Encode tables indexed by packed character: the symbol at each entering
# disparity (0, never a code, for a control octet outside the K set or a
# character with error flags) and whether the character flips the disparity.
ENC_SYM = np.zeros((2, 2 * DERR_FLAG), dtype=np.uint16)
ENC_FLIP = np.zeros(2 * DERR_FLAG, dtype=np.uint8)

# Decode table: the packed character each symbol decodes to at each
# entering disparity, error flags included.
DEC_CHAR = np.full((2, 1024), NIT_FLAG, dtype=np.uint16)

POP10 = np.array([int(s).bit_count() for s in range(1024)], dtype=np.uint8)


def _build_tables() -> None:
    decoded: dict[int, int] = {}   # symbol -> the one character it encodes
    for char in [*range(256), *(CTRL_FLAG | k for k in sorted(_K_SET))]:
        for rd in (RD_NEG, RD_POS):
            sym, rd_out = _encode_raw(char & 0xFF, bool(char & CTRL_FLAG), rd)
            if decoded.setdefault(sym, char) != char:
                raise AssertionError(f"8b/10b table conflict at symbol {sym:#05x}")
            ENC_SYM[rd, char] = sym
            ENC_FLIP[char] = rd_out != rd
            DEC_CHAR[rd, sym] = char
    for sym, char in decoded.items():
        for rd in (RD_NEG, RD_POS):
            if DEC_CHAR[rd, sym] != char:
                DEC_CHAR[rd, sym] = char | DERR_FLAG


_build_tables()


def check_range(a: np.ndarray, top: int, what: str) -> None:
    """Raise ValueError unless ``a`` holds integers in 0..top (one max
    pass; a signed array also takes a min pass)."""
    if a.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers, got dtype {a.dtype}")
    if a.max(initial=0) > top or (a.dtype.kind == "i" and a.min(initial=0) < 0):
        raise ValueError(f"{what} must lie in 0..0x{top:X}")


def _check_rd(rd: int) -> None:
    if rd not in (RD_NEG, RD_POS):
        raise ValueError(f"running disparity must be RD_NEG or RD_POS, got {rd!r}")


def _invalid(char: int) -> InvalidControlCode:
    if char >= 2 * CTRL_FLAG:
        return InvalidControlCode(f"character 0x{char:03X} carries error flags")
    return InvalidControlCode(f"octet 0x{char & 0xFF:02X} is not a valid K code here")


def encode_octet(char: int, rd: int) -> tuple[int, int]:
    """Encode one packed character at the given running disparity;
    returns ``(symbol, next rd)``.

    A control octet outside the K-code set, or a character carrying
    error flags, raises :class:`InvalidControlCode`; a character outside
    0..0x7FF or a disparity not RD_NEG/RD_POS raises ValueError.
    """
    check_range(np.asarray(char), 0x7FF, "character")
    _check_rd(rd)
    sym = int(ENC_SYM[rd, char])
    if not sym:
        raise _invalid(int(char))
    return sym, rd ^ int(ENC_FLIP[char])


def decode_octet(sym: int, rd: int) -> tuple[int, int]:
    """Decode one 10-bit symbol at the given running disparity; returns
    ``(packed character, next rd)``.

    Any symbol in 0..0x3FF decodes (others, or a bad disparity, raise
    ValueError): out-of-table symbols decode to octet 0 with ``NIT_FLAG``,
    disparity-rule violations set ``DERR_FLAG``, and the returned
    disparity advances by the sign of the symbol's bit imbalance.
    """
    check_range(np.asarray(sym), 0x3FF, "symbol")
    _check_rd(rd)
    ones = POP10[sym]
    return int(DEC_CHAR[rd, sym]), rd if ones == 5 else int(ones > 5)


# ---------------------------------------------------------------------------
# Stream (vectorized) forms on packed characters.  Disparity threading
# reduces to a cumulative XOR of per-character flips on encode, and on
# decode to a count of the unbalanced symbols so far (the latest one
# sets the disparity); both match the scalar forms exactly.
# ---------------------------------------------------------------------------

def encode_stream(chars: np.ndarray, rd: int = RD_NEG) -> tuple[np.ndarray, int]:
    """Encode packed characters; returns (symbols, final rd).

    A control octet outside the K set, or a character carrying error
    flags, raises :class:`InvalidControlCode`; a non-integer array, a value
    outside 0..0x7FF or a disparity not RD_NEG/RD_POS raises ValueError.
    """
    _check_rd(rd)
    chars = np.asarray(chars)
    if chars.shape[0] == 0:
        return np.zeros(0, dtype=np.uint16), rd
    check_range(chars, 0x7FF, "characters")
    flips = ENC_FLIP[chars]
    index = np.bitwise_xor.accumulate(flips, dtype=np.uint16)
    rd_out = rd ^ int(index[-1])
    index ^= flips      # the exclusive prefix: flips before each character
    index ^= rd
    index <<= 11        # (rd << 11) | char indexes the flat table
    np.bitwise_or(index, chars, out=index, casting="unsafe")   # chars range-checked
    syms = ENC_SYM.ravel()[index]
    if not syms.all():
        raise _invalid(int(chars[syms == 0][0]))
    return syms, rd_out


def decode_stream(symbols: np.ndarray, rd: int = RD_NEG) -> tuple[np.ndarray, int]:
    """Decode symbols, integers in 0..0x3FF, from RD_NEG or RD_POS (else
    ValueError); returns (packed characters, final rd)."""
    _check_rd(rd)
    syms = np.asarray(symbols)
    if syms.shape[0] == 0:
        return np.zeros(0, dtype=np.uint16), rd
    check_range(syms, 0x3FF, "symbols")
    ones = POP10[syms]
    unbalanced = ones != 5
    # The disparity after each unbalanced symbol, after the entry one...
    after = np.empty(int(np.count_nonzero(unbalanced)) + 1, dtype=np.uint16)
    after[0] = rd
    after[1:] = np.compress(unbalanced, ones) > 5   # faster than ones[unbalanced]
    # ...indexed by the number of unbalanced symbols before each symbol.
    before = unbalanced.astype(np.int32)
    np.cumsum(before, out=before)   # in place: half the peak of a casting cumsum
    before -= unbalanced
    index = after[before]
    del ones, unbalanced, before    # freed before the gather: lowest peak memory
    index <<= 10        # (rd << 10) | symbol indexes the flat table
    np.bitwise_or(index, syms, out=index, casting="unsafe")   # syms range-checked
    return DEC_CHAR.ravel()[index], int(after[-1])


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
    Raises :class:`NoCommaFound` when the stream has no comma, and
    ValueError for a non-integer array or a value outside 0..0x3FF.
    """
    w = np.asarray(words)
    check_range(w, 0x3FF, "words")
    w = w.astype(np.uint32)
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
