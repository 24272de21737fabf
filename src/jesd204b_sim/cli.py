"""Command-line front end: simulate, gen, decode and sweep.

All commands read one JSON config file whose top-level keys are the link
parameters (``L``/``F``/``K`` required, other :class:`LinkConfig` fields
optional) plus optional ``ilas``, ``channel``, ``payload``, ``sysref``
and ``sim`` sections.  Unknown keys anywhere are rejected by name.

Exit codes: 0 success, 1 protocol-level failure (payload mismatch,
fault, no sync, no release), 2 usage or configuration error.
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
from .config import (ILAS_FIELD_LAYOUT, IlasConfig, LinkConfig, ParseError,
                     check_int, check_keys)
from .rx_core import RxReceiver
from .sim_harness import (ChannelSpec, SegmentCheck, Simulation, SysrefSpec,
                          measure_latency_determinism)
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
    cfg = LinkConfig.from_dict(top)
    if cfg.L > 4:
        # The library models up to 32 lanes; the command-line wrapper
        # mirrors the packaged core's 4-lane limit.
        raise ParseError(f"L={cfg.L}: the CLI supports at most 4 lanes per link")
    if cfg.links != 1:
        raise ParseError(f"links={cfg.links}: the CLI runs one link; the library's "
                         "run_multi_link runs several")

    out: dict = {"sim": {}}
    if "payload" in sections:
        out["payload"] = PayloadSpec.from_dict(sections["payload"])
    # The image the transmitter sends and a strict receiver expects: derived
    # from the link and payload.channels, the ilas section's fields over it.
    overrides = sections.get("ilas", {})
    check_keys("ilas", overrides, ILAS_FIELD_LAYOUT)
    for name, value in overrides.items():
        check_int(f"ilas.{name}", value, 0, (1 << ILAS_FIELD_LAYOUT[name][2]) - 1)
    channels = out.get("payload", PayloadSpec()).channels
    out["ilas"] = dataclasses.replace(IlasConfig.from_link_config(cfg, channels=channels),
                                      **overrides)
    if "channel" in sections:
        out["channel"] = ChannelSpec.from_dict(sections["channel"])
    if "sysref" in sections:
        out["sysref"] = SysrefSpec.from_dict(sections["sysref"])
    if "sim" in sections:
        check_keys("sim", sections["sim"], _SIM_KEYS)
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


def _write_json(path: str | None, data: dict) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True, indent=2)
            fh.write("\n")


def cmd_simulate(args: argparse.Namespace) -> int:
    check_int("--max-resyncs", args.max_resyncs, 0)
    cfg, sections = parse_config(args.config)
    _apply_seed(sections, args.seed)
    duration = (args.duration if args.duration is not None
                else sections["sim"].get("duration_cycles", 4096))
    sim = Simulation(cfg, sections["ilas"], sections.get("payload"),
                     sections.get("channel"), sections.get("sysref"),
                     collect_output=bool(args.dump_samples))
    report = sim.run(duration)
    _write_json(args.report, dataclasses.asdict(report))
    if args.log:
        with open(args.log, "w", encoding="ascii") as fh:
            fh.write("\n".join(report.event_log) + "\n")
    if args.dump_samples and sim.segments:
        payload = sections.get("payload") or PayloadSpec()
        seg = sim.segments[0]
        rows = sample_rows(seg.arrays(), payload.channels, start_lane_octet=seg.m0)
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
    sim = Simulation(cfg, sections["ilas"], sections.get("payload"),
                     sections.get("channel"), sections.get("sysref"),
                     collect_received=True)
    sim.run(duration, fast=True)
    seed = args.seed if args.seed is not None else (sections.get("payload") or PayloadSpec()).seed
    if args.format == FORMAT_SYMBOL10:
        cap = Capture(FORMAT_SYMBOL10, cfg, seed, symbols=sim.received_symbols)
    else:
        chars = [codec.decode_stream(syms, codec.RD_NEG)[0]
                 for syms in sim.received_symbols]
        if any((lane & (codec.NIT_FLAG | codec.DERR_FLAG)).any() for lane in chars):
            print("warning: capture contains decode errors; octet_flag "
                  "format cannot represent them", file=sys.stderr)
        cap = Capture(FORMAT_OCTET_FLAG, cfg, seed, chars=chars)
    write_capture(args.out, cap)
    print(f"wrote {args.format} capture: {args.out}")
    return EXIT_OK


def _capture_chars(cap: Capture) -> list[np.ndarray]:
    """Decode a capture into per-lane packed characters, whole cycles only."""
    lanes = cap.chars if cap.fmt == FORMAT_OCTET_FLAG else [
        codec.decode_stream(codec.bit_align(words)[1], codec.RD_NEG)[0] for words in cap.symbols]
    if cap.fmt == FORMAT_OCTET_FLAG:   # bit_align range-checks symbol10 words
        for lane in lanes:
            codec.check_range(np.asarray(lane), 0x7FF, "chars")
    n_octets = 4 * (min(len(lane) for lane in lanes) // 4)
    return [np.asarray(lane[:n_octets], dtype=np.uint16) for lane in lanes]


def _resync_before_release(rx: RxReceiver) -> bool:
    return any(name == "resync" and c < rx.t_release for c, _, name, _ in rx.events)


def decode_capture(cap: Capture, sysref: SysrefSpec | None = None,
                   payload: PayloadSpec | None = None,
                   ilas: IlasConfig | None = None
                   ) -> tuple[RxReceiver, list[SegmentCheck]]:
    """Replay a capture through the receiver as if live, with ``sysref``
    and the expected image ``ilas`` (which the strict ILAS policy needs).

    Returns the receiver and one segment per release, holding its output
    octets per lane.  With ``payload``, segment 0 is compared against
    the generator from lane octet 0 unless a resync preceded its release
    (a resync moves the transmitter's next data entry to a later lane
    octet, which a capture does not carry); later segments never are.
    Raises :class:`NoSyncAchieved` if group synchronization never completes.
    """
    cfg = cap.config
    rx = RxReceiver(cfg, expected_ilas=ilas)
    n_cycles, _, outputs = rx.receive(_capture_chars(cap), sysref or SysrefSpec())
    payload = None if _resync_before_release(rx) else payload
    segments = []
    for _, outs in outputs:   # a fresh receiver: every segment has its release
        segments.append(SegmentCheck(None if segments else payload, cfg.L, 0, True))
        segments[-1].absorb(outs)
    if rx.t_synced < 0:
        raise NoSyncAchieved(
            f"no synchronization within {n_cycles} captured cycles "
            f"(fsm={rx.fsm.value})")
    return rx, segments


def cmd_decode(args: argparse.Namespace) -> int:
    if args.channels is not None:
        check_int("--channels", args.channels, 1)
    cap = read_capture(args.capture)
    sections = {}
    if args.config:   # the config's link, not the capture header's
        cfg, sections = parse_config(args.config)
        if cfg.L != cap.config.L:
            raise ParseError(f"the capture has {cap.config.L} lanes but the config has L={cfg.L}")
        cap = dataclasses.replace(cap, config=cfg)
    payload = sections.get("payload")
    try:
        rx, segments = decode_capture(cap, sections.get("sysref"), payload,
                                      sections.get("ilas"))
    except NoSyncAchieved as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    total = cap.config.L * sum(seg.off for seg in segments)
    mismatched = segments[0].mismatched if segments and segments[0].payload is not None else -1
    if args.dump_samples and segments:
        if _resync_before_release(rx):
            print("warning: a resync preceded the first release; sample indices "
                  "count from lane octet 0", file=sys.stderr)
        channels = args.channels or (payload.channels if payload else 1)
        rows = sample_rows(segments[0].arrays(), channels)
        write_sample_csv(args.dump_samples, rows)
    _write_json(args.report, {
        "sync_cycle": rx.t_synced,
        "release_cycle": rx.t_release,
        "resync_count": rx.resync_count,
        "error_counts": rx.error_counts,
        "output_octets": total,
        "payload_mismatch_octets": mismatched,
    })
    print(f"synced at cycle {rx.t_synced}, {total} output octets, "
          f"resyncs={rx.resync_count}"
          + (f", mismatches={mismatched}" if mismatched >= 0 else ""))
    if rx.t_release < 0:
        print("error: the link synchronized but never released", file=sys.stderr)
        return EXIT_PROTOCOL
    if mismatched > 0 or rx.resync_count > 0:
        return EXIT_PROTOCOL
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg, sections = parse_config(args.config)
    _apply_seed(sections, args.seed)
    sysref = sections.get("sysref")
    if args.negative_control:
        base = sysref or SysrefSpec()
        sysref = dataclasses.replace(base, tx_phase_offset_octets=24)
    sweep = measure_latency_determinism(
        cfg, args.trials, seed=args.seed or 0, payload=sections.get("payload"),
        sysref=sysref, duration=sections["sim"].get("duration_cycles"),
        channel=sections.get("channel"), ilas=sections["ilas"])
    values = sorted(set(sweep.latencies))
    print(f"trials={args.trials} latencies={values} "
          f"deterministic={sweep.deterministic}")
    _write_json(args.report, dataclasses.asdict(sweep))
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
                     help="config supplying the link (else the capture's), payload "
                          "oracle, SYSREF and expected ILAS image (strict needs it)")
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
                    help="shift the transmitter grid against SYSREF by 24 octets")
    sw.set_defaults(func=cmd_sweep)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
