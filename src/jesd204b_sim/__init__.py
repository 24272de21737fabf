"""Bit-accurate, cycle-stepped model of a JESD204B Subclass-1 serial link.

Library layout:

* :mod:`~jesd204b_sim.config`: link parameters and the 14-octet lane
  configuration image.
* :mod:`~jesd204b_sim.codec8b10b`: 8b/10b coding of packed characters
  (scalar and stream forms), serialization, comma alignment.
* :mod:`~jesd204b_sim.scrambler`: self-synchronizing scrambler over
  x^14 + x^13 + 1 (bit-serial, 32-bit parallel, bulk and one-word forms).
* :mod:`~jesd204b_sim.tx_model`: golden transmitter and payload
  generators.
* :mod:`~jesd204b_sim.rx_core`: the receiver (lane datapaths, link FSM,
  SYSREF-locked multiframe counter, elastic buffers, release).
* :mod:`~jesd204b_sim.sim_harness`: deterministic end-to-end runs,
  impairments, latency measurements.
* :mod:`~jesd204b_sim.captures` / :mod:`~jesd204b_sim.cli`: file formats
  and the ``jesd204b-sim`` command-line tool.
"""

from .codec8b10b import (InvalidControlCode, NoCommaFound, bit_align,
                         decode_octet, decode_stream, encode_octet,
                         encode_stream, serialize)
from .config import (ConfigError, ConstraintViolation, FieldOverflow,
                     IlasConfig, LinkConfig, ParseError, compute_fchk)
from .rx_core import RxFsm, RxReceiver
from .sim_harness import (ChannelSpec, LatencySweep, SimConfigError,
                          SimReport, Simulation, SysrefSpec,
                          measure_latency_determinism, run_multi_link,
                          run_simulation)
from .tx_model import PayloadSpec, TxLink, build_ilas, lane_payload_octets

__version__ = "0.1.0"

__all__ = [
    "InvalidControlCode", "NoCommaFound", "bit_align",
    "decode_octet", "decode_stream", "encode_octet", "encode_stream",
    "serialize",
    "ConfigError", "ConstraintViolation", "FieldOverflow", "IlasConfig",
    "LinkConfig", "ParseError", "compute_fchk",
    "RxFsm", "RxReceiver",
    "ChannelSpec", "LatencySweep", "SimConfigError", "SimReport",
    "Simulation", "SysrefSpec", "measure_latency_determinism",
    "run_multi_link", "run_simulation",
    "PayloadSpec", "TxLink", "build_ilas", "lane_payload_octets",
    "__version__",
]
