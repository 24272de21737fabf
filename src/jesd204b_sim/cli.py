"""Command-line front end: simulate, gen, decode and sweep.

All commands read one JSON config file whose top-level keys are the link
parameters (``L``/``F``/``K`` required, other :class:`LinkConfig` fields
optional) plus optional ``ilas``, ``channel``, ``payload``, ``sysref``
and ``sim`` sections.  Unknown keys anywhere are rejected by name.

Exit codes: 0 success, 1 protocol-level failure (payload mismatch,
fault, no sync), 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import codec8b10b as codec
from .captures import (CAPTURE_FORMATS, FORMAT_OCTET_FLAG, FORMAT_SYMBOL10,
                       Capture, read_capture, sample_rows, write_capture,
                       write_sample_csv)
from .config import (ILAS_FIELD_LAYOUT, ConfigError, IlasConfig, LinkConfig,
                     ParseError, check_int, validate_config)
from .rx_core import RxReceiver
from .sim_harness import (ChannelSpec, Simulation, SysrefSpec, _SegmentCheck,
                          drive_receiver, measure_latency_determinism,
                          pack_chars)
from .tx_model import PayloadSpec

EXIT_OK = 0
EXIT_PROTOCOL = 1
EXIT_USAGE = 2

_SECTIONS = ("ilas", "channel", "payload", "sysref", "sim")
_SIM_KEYS = ("duration_cycles",)


class NoSyncAchieved(RuntimeError):
    """The receiver never completed synchronization within the input."""


def parse_config(path: str) -> tuple[LinkConfig, dict]:
    """Load and validate a config file; returns (LinkConfig, sections)."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("config must be a JSON object")

    sections = {}
    top = {}
    for key, value in data.items():
        if key in _SECTIONS:
            if not isinstance(value, dict):
                raise ParseError(f"section {key!r} must be a JSON object, "
                                 f"got {value!r}")
            sections[key] = value
        else:
            top[key] = value
    cfg = validate_config(LinkConfig.from_dict(top))
    if cfg.L > 4:
        # The library models up to 32 lanes; the command-line wrapper
        # mirrors the packaged core's 4-lane limit.
        raise ParseError(f"L={cfg.L}: the CLI supports at most 4 lanes per link")
    if cfg.links != 1:
        raise ParseError(f"links={cfg.links}: the CLI runs one link; the library's "
                         "run_multi_link runs several")

    out: dict = {"sim": {}}
    if "ilas" in sections:
        known = {f.name for f in dataclasses.fields(IlasConfig)}
        unknown = sorted(set(sections["ilas"]) - known)
        if unknown:
            raise ParseError(f"unknown ilas key(s): {', '.join(unknown)}")
        for name, value in sections["ilas"].items():
            check_int(f"ilas.{name}", value, 0, (1 << ILAS_FIELD_LAYOUT[name][2]) - 1)
        base = IlasConfig.from_link_config(cfg)
        out["ilas"] = dataclasses.replace(base, **sections["ilas"])
    if "channel" in sections:
        out["channel"] = ChannelSpec.from_dict(sections["channel"])
    if "payload" in sections:
        out["payload"] = PayloadSpec.from_dict(sections["payload"])
    if "sysref" in sections:
        out["sysref"] = SysrefSpec.from_dict(sections["sysref"])
    if "sim" in sections:
        unknown = sorted(set(sections["sim"]) - set(_SIM_KEYS))
        if unknown:
            raise ParseError(f"unknown sim key(s): {', '.join(unknown)}")
        if "duration_cycles" in sections["sim"]:
            check_int("sim.duration_cycles", sections["sim"]["duration_cycles"], 1)
        out["sim"] = sections["sim"]
    return cfg, out


def _apply_seed(sections: dict, seed: int | None) -> None:
    if seed is None:
        return
    payload = sections.get("payload") or PayloadSpec()
    sections["payload"] = dataclasses.replace(payload, seed=seed)
    channel = sections.get("channel") or ChannelSpec()
    sections["channel"] = dataclasses.replace(channel, rng_seed=seed)


def _write_report(report_json: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report_json + "\n")


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg, sections = parse_config(args.config)
    _apply_seed(sections, args.seed)
    duration = (args.duration if args.duration is not None
                else sections["sim"].get("duration_cycles", 4096))
    sim = Simulation(cfg, sections.get("ilas"), sections.get("payload"),
                     sections.get("channel"), sections.get("sysref"),
                     collect_output=bool(args.dump_samples))
    report = sim.run(duration)
    _write_report(report.to_json(), args.report)
    if args.log:
        with open(args.log, "w", encoding="ascii") as fh:
            fh.write("\n".join(report.event_log) + "\n")
    if args.dump_samples and sim.output_segments:
        payload = sections.get("payload") or PayloadSpec()
        rows = sample_rows(sim.output_segments[0], cfg.L, payload.channels,
                           start_lane_octet=sim.segment_tx_starts[0])
        write_sample_csv(args.dump_samples, rows)
    ok = (report.sync_achieved and report.payload_match
          and report.resync_count <= args.max_resyncs)
    print(f"sync={report.sync_achieved} payload_match={report.payload_match} "
          f"resyncs={report.resync_count} latency_octets={report.total_latency_octets}")
    return EXIT_OK if ok else EXIT_PROTOCOL


def cmd_gen(args: argparse.Namespace) -> int:
    cfg, sections = parse_config(args.config)
    _apply_seed(sections, args.seed)
    duration = (args.cycles if args.cycles is not None
                else sections["sim"].get("duration_cycles", 2048))
    sim = Simulation(cfg, sections.get("ilas"), sections.get("payload"),
                     sections.get("channel"), sections.get("sysref"),
                     collect_received=True)
    sim.run(duration, fast=True)
    seed = args.seed if args.seed is not None else (sections.get("payload") or PayloadSpec()).seed
    if args.format == FORMAT_SYMBOL10:
        cap = Capture(FORMAT_SYMBOL10, cfg, seed, symbols=sim.received_symbols)
    else:
        chars = []
        for syms in sim.received_symbols:
            octs, ctrl, nit, derr, _ = codec.decode_stream(syms, codec.RD_NEG)
            if bool(nit.any()) or bool(derr.any()):
                print("warning: capture contains decode errors; octet_flag "
                      "format cannot represent them", file=sys.stderr)
            chars.append((octs, ctrl))
        cap = Capture(FORMAT_OCTET_FLAG, cfg, seed, chars=chars)
    write_capture(args.out, cap)
    print(f"wrote {args.format} capture: {args.out}")
    return EXIT_OK


def _capture_chars(cap: Capture) -> list[np.ndarray]:
    """Decode a capture into per-lane packed characters, whole cycles only."""
    lanes = []
    if cap.fmt == FORMAT_SYMBOL10:
        for syms in cap.symbols:
            _, aligned = codec.bit_align(syms)
            octs, ctrl, nit, derr, _ = codec.decode_stream(aligned, codec.RD_NEG)
            lanes.append(pack_chars(octs, ctrl, nit, derr))
    else:
        for octs, ctrl in cap.chars:
            clean = np.zeros(octs.shape[0], dtype=bool)
            lanes.append(pack_chars(octs, ctrl, clean, clean))
    n_octets = 4 * (min(lane.shape[0] for lane in lanes) // 4)
    return [lane[:n_octets] for lane in lanes]


def decode_capture(cap: Capture, sysref: SysrefSpec | None = None,
                   payload: PayloadSpec | None = None
                   ) -> tuple[RxReceiver, list[_SegmentCheck]]:
    """Replay a capture through the receiver as if live, with ``sysref``.

    Returns the receiver and one segment per release, holding its output
    octets per lane.  With ``payload``, segment 0 is compared against
    the generator from lane octet 0; where the payload stood at a later
    release is unknown, so later segments are not compared.  Raises
    :class:`NoSyncAchieved` if group synchronization never completes.
    """
    cfg = cap.config
    rx = RxReceiver(cfg)
    chars = _capture_chars(cap)
    segments: list[_SegmentCheck] = []

    def on_release(cycle: int) -> None:
        segments.append(_SegmentCheck(None if segments else payload, cfg.L, 0, True))

    def on_output(outs: list[np.ndarray]) -> None:
        for lane, got in enumerate(outs):
            segments[-1].absorb(lane, got)

    n_cycles, _ = drive_receiver(rx, chars, sysref or SysrefSpec(),
                                 on_release, on_output)
    if rx.t_synced < 0:
        raise NoSyncAchieved(
            f"no synchronization within {n_cycles} captured cycles "
            f"(fsm={rx.fsm.value})")
    return rx, segments


def cmd_decode(args: argparse.Namespace) -> int:
    cap = read_capture(args.capture)
    payload = sysref = None
    channels = args.channels
    if args.config:
        _, sections = parse_config(args.config)
        payload = sections.get("payload")
        sysref = sections.get("sysref")
        if payload is not None and channels is None:
            channels = payload.channels
    try:
        rx, segments = decode_capture(cap, sysref=sysref, payload=payload)
    except NoSyncAchieved as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    total = sum(sum(seg.off) for seg in segments)
    mismatched = segments[0].mismatched if payload is not None and segments else -1
    if args.dump_samples and segments:
        rows = sample_rows(segments[0].arrays(), cap.config.L, channels or 1)
        write_sample_csv(args.dump_samples, rows)
    if args.report:
        report = {
            "sync_cycle": rx.t_synced,
            "release_cycle": rx.t_release,
            "resync_count": rx.resync_count,
            "error_counts": rx.error_counts,
            "output_octets": total,
            "payload_mismatch_octets": mismatched,
        }
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")
    print(f"synced at cycle {rx.t_synced}, {total} output octets, "
          f"resyncs={rx.resync_count}"
          + (f", mismatches={mismatched}" if mismatched >= 0 else ""))
    if mismatched > 0 or rx.resync_count > 0:
        return EXIT_PROTOCOL
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg, sections = parse_config(args.config)
    _apply_seed(sections, args.seed)
    sysref = sections.get("sysref")
    if args.negative_control:
        base = sysref or SysrefSpec()
        sysref = dataclasses.replace(base, tx_phase_offset_octets=args.control_offset)
    sweep = measure_latency_determinism(
        cfg, args.trials, seed=args.seed or 0,
        payload=sections.get("payload"), sysref=sysref)
    values = sorted(set(sweep.latencies))
    print(f"trials={args.trials} latencies={values} "
          f"deterministic={sweep.deterministic}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump({"latencies": sweep.latencies,
                       "release_phases": sweep.release_phases,
                       "deterministic": sweep.deterministic,
                       "all_synced": sweep.all_synced}, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return EXIT_OK if sweep.deterministic else EXIT_PROTOCOL


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="jesd204b-sim",
        description="Cycle-stepped JESD204B Subclass-1 link simulator")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one end-to-end simulation")
    sim.add_argument("--config", required=True)
    sim.add_argument("--seed", type=int, default=None,
                     help="override payload and channel seeds")
    sim.add_argument("--duration", type=int, default=None, help="cycles to run")
    sim.add_argument("--report", default=None, help="write the JSON report here")
    sim.add_argument("--log", default=None, help="write the event log here")
    sim.add_argument("--dump-samples", default=None,
                     help="write decoded samples as CSV (sample_index,channel,value)")
    sim.add_argument("--max-resyncs", type=int, default=0)
    sim.set_defaults(func=cmd_simulate)

    gen = sub.add_parser("gen", help="generate a capture file")
    gen.add_argument("--config", required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--format", choices=CAPTURE_FORMATS, default=FORMAT_SYMBOL10)
    gen.add_argument("--cycles", type=int, default=None)
    gen.add_argument("--seed", type=int, default=None)
    gen.set_defaults(func=cmd_gen)

    dec = sub.add_parser("decode", help="replay a capture through the receiver")
    dec.add_argument("--capture", required=True)
    dec.add_argument("--config", default=None,
                     help="optional config supplying the payload oracle")
    dec.add_argument("--channels", type=int, default=None)
    dec.add_argument("--dump-samples", default=None)
    dec.add_argument("--report", default=None)
    dec.set_defaults(func=cmd_decode)

    sw = sub.add_parser("sweep", help="latency-determinism trial sweep")
    sw.add_argument("--config", required=True)
    sw.add_argument("--trials", type=int, default=20)
    sw.add_argument("--seed", type=int, default=None)
    sw.add_argument("--report", default=None)
    sw.add_argument("--negative-control", action="store_true",
                    help="shift the transmitter grid against SYSREF")
    sw.add_argument("--control-offset", type=int, default=24)
    sw.set_defaults(func=cmd_sweep)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
