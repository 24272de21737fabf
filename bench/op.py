"""One benchmark operation, run in a fresh interpreter by ``run.py``.

Usage: ``python3 bench/op.py '<spec JSON>'``.  The spec names the
operation (``live``, ``prepare`` or ``replay``), the workload, seed,
size, file paths in the work directory, and whether to trace or
profile.  The result is one JSON object on the last line of stdout.

``setup_s`` runs from the first line of this file to the point where the
operation is ready to start: the package import plus construction of
the ``Simulation`` (live) or of the decode path (replay: importing the
CLI and parsing its config).  Only the operation itself is inside
``run_s``.
"""

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import deque  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import Tracer, targets  # noqa: E402
from workloads import LINK, WORKLOADS, link_config  # noqa: E402


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _cli(argv: list[str]) -> int:
    """Run the ``jesd204b-sim`` entry point in-process, quietly."""
    from jesd204b_sim import cli
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def speed_probe(kind: str) -> float:
    """Seconds for a fixed kernel that never calls the package.

    The host's speed drifts by tens of percent over minutes, and code of
    different shapes drifts differently.  ``vector`` (an interpreter loop
    plus numpy on 2 MB arrays) tracks the vectorized tail.  ``scalar``
    imitates a stepped cycle: numpy scalar table lookups, small tuples
    and calls, a 40-draw random vector per lane and a deque.  ``run.py``
    scales each operation's times by its probe, taken in the same
    process right before and after the operation.
    """
    import numpy as np
    t0 = time.perf_counter()
    if kind == "vector":
        mul = np.uint64(0x9E3779B97F4A7C15)
        for _ in range(2):
            acc = 0
            for k in range(120_000):
                acc = (acc + k * k) & 0xFFFFFFFF
            a = np.arange(1 << 18, dtype=np.uint64)
            for _ in range(10):
                a = (a * mul) ^ (a >> np.uint64(29))
        return time.perf_counter() - t0
    table = (np.arange(512, dtype=np.uint16).reshape(2, 256) * 7) & 0x3FF
    ones = np.array([bin(i).count("1") for i in range(1024)], dtype=np.uint8)
    rng = np.random.default_rng(0)
    rd, acc, buf = 0, 0, deque()
    for cycle in range(2_500):
        for _lane in range(2):
            syms = []
            for k in range(4):
                sym = int(table[rd, (4 * cycle + k) & 0xFF])
                rd = _next_rd(int(ones[sym]), rd)
                syms.append(sym)
            for bit in np.flatnonzero(rng.random(40) < 1e-5):
                syms[int(bit) // 10] ^= 1
            buf.extend(tuple(sym & 0xFF for sym in syms))
            if len(buf) > 64:
                for _ in range(4):
                    acc ^= buf.popleft()
    return time.perf_counter() - t0


def _next_rd(ones: int, rd: int) -> int:
    return 1 if ones > 5 else 0 if ones < 5 else rd


def _timed(spec: dict, fn):
    """Run ``fn`` untraced, traced or profiled, between two speed probes.

    Returns (value, seconds, tracer or None, mean probe seconds).
    """
    kind = WORKLOADS[spec["workload"]]["probe"]
    probe_before = speed_probe(kind)
    tracer = None
    if spec.get("profile"):
        import cProfile
        import pstats
        prof = cProfile.Profile()
        t0 = time.perf_counter()
        value = prof.runcall(fn)
        dt = time.perf_counter() - t0
        with open(spec["profile"], "w", encoding="utf-8") as fh:
            pstats.Stats(prof, stream=fh).sort_stats("tottime").print_stats(25)
    elif spec.get("trace"):
        tracer = Tracer(targets())
        with tracer:
            t0 = time.perf_counter()
            value = fn()
            dt = time.perf_counter() - t0
    else:
        t0 = time.perf_counter()
        value = fn()
        dt = time.perf_counter() - t0
    return value, dt, tracer, (probe_before + speed_probe(kind)) / 2


def op_live(spec: dict) -> dict:
    from jesd204b_sim import ChannelSpec, LinkConfig, PayloadSpec, Simulation
    conf = link_config(spec["workload"], spec["seed"], spec["cycles"])
    sim = Simulation(LinkConfig(**LINK),
                     payload=PayloadSpec.from_dict(conf["payload"]),
                     channel=ChannelSpec.from_dict(conf["channel"]))
    setup_s = time.perf_counter() - T_START
    report, run_s, tracer, probe_s = _timed(spec, lambda: sim.run(spec["cycles"]))

    text = report.to_json() + "\n" + "\n".join(report.event_log) + "\n"
    failures = []
    if not report.sync_achieved:
        failures.append("no sync")
    if spec["workload"] == "soak_clean":
        if report.resync_count:
            failures.append(f"{report.resync_count} resyncs")
        if not report.payload_match:
            failures.append("payload mismatch")
        if any(report.error_counts.values()):
            failures.append(f"error counts {report.error_counts}")
        if not report.fast_path_used:
            failures.append("fast path not used")
    else:
        if report.flips_injected <= 0:
            failures.append("no bit flips injected")
        # the self-synchronous descrambler triples each line error at most
        if report.payload_mismatch_octets > 3 * report.flips_injected:
            failures.append(f"{report.payload_mismatch_octets} mismatched octets "
                            f"for {report.flips_injected} flips")
    return {
        "setup_s": setup_s, "run_s": run_s, "probe_s": probe_s, "failures": failures,
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "sim": {"latency_octets": report.total_latency_octets,
                "release_cycle": report.t_release,
                "sync_cycle": report.t_synced,
                "resyncs": report.resync_count,
                "mismatch_octets": report.payload_mismatch_octets,
                "flips_injected": report.flips_injected},
        "payload_octets_sent": sim.tx.lane_octets_sent * sim.cfg.L,
        "tracer": tracer,
    }


def op_prepare(spec: dict) -> dict:
    """Replay set-up: the config file, the symbol10 capture, the live reference."""
    cfg_path, cap_path, live_path = spec["config"], spec["capture"], spec["live_report"]
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(link_config(spec["workload"], spec["seed"], spec["cycles"]), fh,
                  sort_keys=True, indent=2)
    n = str(spec["cycles"])
    rc_gen = _cli(["gen", "--config", cfg_path, "--out", cap_path,
                   "--format", "symbol10", "--cycles", n])
    rc_sim = _cli(["simulate", "--config", cfg_path, "--report", live_path,
                   "--duration", n])
    if rc_gen or rc_sim:
        return {"failures": [f"set-up failed: gen exit {rc_gen}, simulate exit {rc_sim}"]}
    with open(live_path, encoding="utf-8") as fh:
        live = json.load(fh)
    return {"failures": [], "capture_sha256": _sha256_file(cap_path),
            "live_release_cycle": live["t_release"],
            "live_data_start_cycle": live["tx_data_start_cycle"]}


def op_replay(spec: dict) -> dict:
    from jesd204b_sim import cli
    cli.parse_config(spec["config"])
    setup_s = time.perf_counter() - T_START
    cap_path, report_path = spec["capture"], spec["report"]
    setup_tracer = None
    if spec.get("trace"):
        # Regenerate the capture under a tracer of its own, so write_capture
        # is measured and the replayed file is this operation's own output.
        cap_path = spec["report"] + ".sym"
        setup_tracer = Tracer(targets())
        with setup_tracer:
            _cli(["gen", "--config", spec["config"], "--out", cap_path,
                  "--format", "symbol10", "--cycles", str(spec["cycles"])])
    argv = ["decode", "--capture", cap_path, "--config", spec["config"],
            "--report", report_path]
    rc, run_s, tracer, probe_s = _timed(spec, lambda: _cli(argv))

    failures = []
    if rc != 0:
        failures.append(f"decode exit code {rc}")
        rep = {}
    else:
        with open(report_path, encoding="utf-8") as fh:
            rep = json.load(fh)
        if rep["payload_mismatch_octets"] != 0:
            failures.append(f"{rep['payload_mismatch_octets']} mismatched octets")
        if rep["output_octets"] <= 0:
            failures.append("no output octets")
        if rep["release_cycle"] != spec["live_release_cycle"]:
            failures.append(f"release cycle {rep['release_cycle']} != live "
                            f"{spec['live_release_cycle']}")
    digest = hashlib.sha256(_sha256_file(cap_path).encode())
    if rc == 0:
        with open(report_path, "rb") as fh:
            digest.update(fh.read())
    release = rep.get("release_cycle", -1)
    return {
        "setup_s": setup_s, "run_s": run_s, "probe_s": probe_s, "failures": failures,
        "digest": digest.hexdigest(),
        "sim": {"latency_octets": 4 * (release - spec["live_data_start_cycle"]),
                "release_cycle": release,
                "sync_cycle": rep.get("sync_cycle", -1),
                "resyncs": rep.get("resync_count", -1),
                "mismatch_octets": rep.get("payload_mismatch_octets", -1)},
        "tracer": tracer, "setup_tracer": setup_tracer,
    }


def main() -> None:
    spec = json.loads(sys.argv[1])
    result = {"live": op_live, "prepare": op_prepare, "replay": op_replay}[spec["op"]](spec)
    tracer, setup_tracer = result.pop("tracer", None), result.pop("setup_tracer", None)
    if tracer is not None:
        result["layers"] = tracer.totals()
        result["edges"] = tracer.edges()
    if setup_tracer is not None:
        result["setup_layers"] = setup_tracer.totals()
    result["workload"], result["cycles"] = spec["workload"], spec.get("cycles")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if "numpy" in sys.modules:
        result["numpy"] = sys.modules["numpy"].__version__
    result["python"] = platform.python_version()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
