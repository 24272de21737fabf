"""Acquire a quantized tone through the full link and rebuild the table.

The transmitter streams a 16-channel quantized sine (16 samples per
period, the 5 MHz-at-80 MSPS ratio); the receiver output is reassembled
into (sample, channel, value) rows and checked against the generator.
Run:  python3 demos/06_sine_capture_roundtrip.py
"""

import numpy as np

from jesd204b_sim.captures import sample_rows
from jesd204b_sim.config import LinkConfig
from jesd204b_sim.sim_harness import ChannelSpec, Simulation
from jesd204b_sim.tx_model import PayloadSpec, payload_samples

cfg = LinkConfig(L=2, F=4, K=32, scrambling=1)
payload = PayloadSpec(kind="sine", seed=0, channels=16,
                      amplitude=20000, period=16)

sim = Simulation(cfg, payload=payload, channel=ChannelSpec(skew=[0, 6]),
                 collect_output=True)
report = sim.run(4000)
assert report.payload_match

seg = sim.segments[0]
rows = sample_rows(seg.arrays(), payload.channels, start_lane_octet=seg.m0)
print(f"decoded {rows.shape[0]} samples across {payload.channels} channels")

ch0 = rows[rows[:, 1] == 0][:, 2].astype(np.int64)
ch0[ch0 >= 32768] -= 65536
print("\nchannel 0, first two periods (16 samples each):")
for period in (0, 1):
    vals = ch0[16 * period: 16 * (period + 1)]
    print("  " + " ".join(f"{v:6d}" for v in vals))

expected = payload_samples(payload, rows[:, 0] * 16 + rows[:, 1])
assert (rows[:, 2] == expected).all()
print("\nevery decoded sample equals the generator table, bit for bit")
