"""The benchmark's fixed workloads: one link, three ways of driving it.

Every workload uses the criterion-3 link (L=2, F=4, K=32, scrambling on,
``random`` payload, lane skew [5, 38]).  The benchmark seed is the only
input; the payload and channel seeds are derived from it, so the same
seed always gives the same inputs and the same output digests.
"""

from __future__ import annotations

import hashlib

LINK = {"L": 2, "F": 4, "K": 32, "scrambling": 1}
SKEW = [5, 38]

# ``cycles`` is the size of one measured operation.  ``smoke_cycles`` is
# the size the schema smoke test uses; it only has to exercise the same
# code paths.  ``probe`` names the op.speed_probe kernel whose host-speed
# drift matches the workload's.
WORKLOADS = {
    # Clean link, long enough that the ~230 stepped bring-up cycles are
    # well under 1% of the run: the vectorized tail does the work.
    "soak_clean": {"kind": "live", "ber": 0.0, "probe": "vector",
                   "cycles": 1 << 20, "smoke_cycles": 4096},
    # Any nonzero bit-error rate keeps the run on the per-cycle stepped
    # path; 1e-5 gives about one flip per 1,250 cycles.
    "impaired_stepped": {"kind": "live", "ber": 1e-5, "probe": "scalar",
                         "cycles": 16_000, "smoke_cycles": 4_000},
    # The same clean link captured as symbol10 and replayed through the
    # ``decode`` command.  No ``sysref`` section: decode ignores it.
    "capture_replay": {"kind": "replay", "ber": 0.0, "probe": "scalar",
                       "cycles": 32_000, "smoke_cycles": 1_024},
}

# Nominal seconds of each op.speed_probe kernel on the machine the
# committed numbers come from; scaled times read as host seconds there.
REF_PROBE_S = {"vector": 0.046, "scalar": 0.055}


def derived_seeds(seed: int) -> tuple[int, int]:
    """(payload seed, channel seed) for one benchmark seed."""
    h = hashlib.sha256(f"jesd204b-sim bench {seed}".encode()).digest()
    return int.from_bytes(h[:4], "big"), int.from_bytes(h[4:8], "big")


def link_config(workload: str, seed: int, cycles: int) -> dict:
    """The workload as a ``jesd204b-sim`` config file's JSON object."""
    payload_seed, channel_seed = derived_seeds(seed)
    return dict(LINK,
                payload={"kind": "random", "seed": payload_seed},
                channel={"skew": list(SKEW),
                         "bit_error_rate": WORKLOADS[workload]["ber"],
                         "rng_seed": channel_seed},
                sim={"duration_cycles": cycles})
