"""Line coding walk-through: 8b/10b, running disparity, comma alignment.

Run:  python3 demos/01_line_coding.py
"""

import numpy as np

from jesd204b_sim.codec8b10b import (Char, bit_align, decode_symbol,
                                     encode_char, encode_stream, serialize,
                                     RD_NEG, RD_POS)

print("=== Encoding single characters ===")
for octet, ctrl, name in [(0xBC, True, "K28.5 (comma)"), (0x1C, True, "K28.0"),
                          (0x00, False, "D0.0"), (0xA5, False, "D5.5")]:
    for rd, rd_name in [(RD_NEG, "RD-"), (RD_POS, "RD+")]:
        sym, rd_out = encode_char(Char(octet, ctrl), rd)
        print(f"  {name:14s} {rd_name}: {sym:010b} -> next {'RD+' if rd_out else 'RD-'}")

print("\n=== Round trip and disparity bound over a random stream ===")
rng = np.random.default_rng(0)
octets = rng.integers(0, 256, 10_000).astype(np.uint8)
syms, _ = encode_stream(octets, np.zeros(octets.shape[0], bool))
bits = serialize(syms)
ones = int(bits.sum())
print(f"  {len(octets)} octets -> {len(bits)} line bits, "
      f"ones/zeros imbalance at the end: {2 * ones - len(bits)}")

rd = RD_NEG
errors = 0
for i, s in enumerate(syms[:2000]):
    ch, rd = decode_symbol(int(s), rd)
    errors += ch.octet != octets[i]
print(f"  decode of the first 2000 symbols: {errors} mismatches")

print("\n=== Comma alignment from an arbitrary bit phase ===")
# A deserializer hands over 10-bit words at whatever bit phase it locked
# to; bit_align finds the comma and regroups the words on its boundary.
comma_syms, _ = encode_stream(np.full(32, 0xBC, np.uint8), np.ones(32, bool))
stream = np.concatenate([serialize(comma_syms), bits])
for shift in (0, 3, 7):
    shifted = np.concatenate([rng.integers(0, 2, shift).astype(np.uint8), stream])
    n_words = shifted.shape[0] // 10
    words = shifted[: 10 * n_words].reshape(n_words, 10) @ (1 << np.arange(9, -1, -1))
    offset, recovered = bit_align(words)
    print(f"  injected shift {shift}: recovered offset {offset}, "
          f"first symbol {recovered[0]:010b}")
