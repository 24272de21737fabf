"""Per-layer tracing by wrapping functions where callers look them up.

Python resolves ``from .codec8b10b import encode_octet`` once, at import
time, into the importing module's namespace, so wrapping the defining
module alone would miss those calls.  Each :class:`Tracer` target names
the namespace a caller actually reads: a module global, a module
attribute reached as ``codec.<name>``, or a class attribute for methods.

Calls are aggregated per (function, parent function) as call count,
total time and self time (total minus time in traced callees).  No span
is stored per call, so a stepped run with millions of scalar codec
calls costs a few dict updates each.  Every original is restored on
exit, also when the traced operation raises.
"""

from __future__ import annotations

import time
from typing import Callable


def _octets_arg(index: int) -> Callable:
    return lambda args, result: args[index].shape[0]


def _result_len(args, result) -> int:
    return result.shape[0]


def _capture_symbols(args, result) -> int:
    return sum(lane.shape[0] for lane in result.symbols)   # symbol10 only


def targets() -> list[tuple[object, str, str, Callable | None]]:
    """(owner, attribute, layer name, work counter) for every traced call.

    The work counter turns (args, result) into octets or symbols processed.
    """
    from jesd204b_sim import cli, rx_core as rx, sim_harness as sim, tx_model as tx
    from jesd204b_sim import codec8b10b as codec, scrambler as scr
    return [
        # names imported into sim_harness / tx_model / cli
        (tx, "lane_payload_octets", "tx_model.payload.tx", _result_len),
        (sim, "lane_payload_octets", "tx_model.payload.oracle", _result_len),
        (sim, "encode_octet", "codec8b10b.encode_octet", None),
        (sim, "decode_octet", "codec8b10b.decode_octet", None),
        (cli, "read_capture", "captures.read_capture", _capture_symbols),
        (cli, "write_capture", "captures.write_capture", None),
        (cli, "decode_capture", "cli.decode_capture", None),
        # module attributes (``codec.encode_stream``, ``scrambler.…``)
        (codec, "encode_stream", "codec8b10b.encode_stream", _octets_arg(0)),
        (codec, "decode_stream", "codec8b10b.decode_stream", _octets_arg(0)),
        (codec, "bit_align", "codec8b10b.bit_align", None),
        (scr, "scramble_octets", "scrambler.scramble_octets", _octets_arg(1)),
        (scr, "descramble_octets", "scrambler.descramble_octets", _octets_arg(1)),
        # methods, looked up through their classes
        (tx.TxLink, "step", "tx_model.step", None),
        (tx.TxLink, "bulk_data", "tx_model.bulk_data", None),
        (rx.RxReceiver, "step_packed", "rx_core.step_packed", None),
        (rx.RxReceiver, "fast_forward", "rx_core.fast_forward", None),
        (sim.Simulation, "run", "sim_harness.run", None),
    ]


class Tracer:
    """Context manager that wraps ``targets`` for the duration of a block."""

    def __init__(self, target_list):
        self._targets = target_list
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[list] = []      # [name, time spent in traced callees]
        # (name, parent) -> [calls, total_s, self_s, work, raised]
        self.stats: dict[tuple[str, str | None], list] = {}

    def __enter__(self) -> "Tracer":
        for owner, attr, name, work in self._targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, work))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name: str, work):
        stack, stats, clock = self._stack, self.stats, time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            raised = 0
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                raised = 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dt
                key = (name, parent[0] if parent is not None else None)
                entry = stats.get(key)
                if entry is None:
                    entry = stats[key] = [0, 0.0, 0.0, 0, 0]
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - frame[1]
                entry[4] += raised
                if work is not None and not raised:
                    entry[3] += work(args, result)

        traced.__wrapped__ = fn
        return traced

    def totals(self) -> dict[str, dict]:
        """Per layer, summed over parents: calls, total_s, self_s, work, raised."""
        out: dict[str, dict] = {}
        for (name, _parent), (calls, total, self_s, work, raised) in self.stats.items():
            t = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                      "work": 0, "raised": 0})
            t["calls"] += calls
            t["total_s"] += total
            t["self_s"] += self_s
            t["work"] += work
            t["raised"] += raised
        return out

    def edges(self) -> list[dict]:
        """The raw (function, parent) aggregation, largest self time first."""
        rows = [{"function": name, "parent": parent, "calls": c, "total_s": tot,
                 "self_s": s, "work": w, "raised": r}
                for (name, parent), (c, tot, s, w, r) in self.stats.items()]
        return sorted(rows, key=lambda r: -r["self_s"])
