"""The x^14 + x^13 + 1 self-synchronizing scrambler in its three forms.

Run:  python3 demos/02_scrambler_forms.py
"""

import numpy as np

from jesd204b_sim import scrambler as sc

print("=== Impulse response (why one wire error becomes three) ===")
_, out = sc.scramble_bits(0, [1] + [0] * 45)
print("  scramble(1, 0, 0, ...):", "".join(map(str, out)))
print("  echoes at offsets:", [i for i, b in enumerate(out) if b])

print("\n=== Self-synchronization: any initial state works after 14 bits ===")
rng = np.random.default_rng(1)
line = rng.integers(0, 2, 40).tolist()
_, a = sc.descramble_bits(0x0000, line)
_, b = sc.descramble_bits(0x3FFF, line)
first_agree = next(i for i in range(41) if a[i:] == b[i:])
print(f"  two descramblers with opposite states agree from bit {first_agree}")

print("\n=== Bit-serial vs 32-bit parallel vs bulk array form ===")
state = sc.ALL_ONES
octets = rng.integers(0, 256, 12).astype(np.uint8)
st_serial, bits = sc.scramble_bits(state, np.unpackbits(octets).tolist())
serial = np.packbits(bits).tolist()
words = octets.view(">u4")            # 32-bit words, earliest octet in the MSBs
st_word, parallel = np.array([state]), []
for i in range(words.shape[0]):      # each word's state comes from the one before
    st_word, out = sc.scramble_words_batch(st_word, words[i:i + 1])
    parallel.extend(int(out[0]).to_bytes(4, "big"))
st_bulk, bulk = sc.scramble_octets(state, octets)
print("  input   :", " ".join(f"{o:02X}" for o in octets))
print("  serial  :", " ".join(f"{o:02X}" for o in serial))
print("  parallel:", " ".join(f"{o:02X}" for o in parallel))
print("  bulk    :", " ".join(f"{o:02X}" for o in bulk))
assert serial == parallel == bulk.tolist() and st_serial == int(st_word[0]) == st_bulk
print("  all three forms agree, including the threaded state")

print("\n=== Error multiplication on the descrambled stream ===")
payload = rng.integers(0, 2, 60).tolist()
_, line = sc.scramble_bits(sc.ALL_ONES, payload)
line[20] ^= 1
_, recovered = sc.descramble_bits(sc.ALL_ONES, line)
diffs = [i for i in range(60) if recovered[i] != payload[i]]
print(f"  one line bit flipped at 20 -> payload bits corrupted at {diffs}")
