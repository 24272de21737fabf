"""jesd204b-sim benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload soak_clean --seed 1 --seconds 10 --trace 0

``--workload`` is one of the names in ``BENCHMARK.json`` or ``all``.
The run is a closed loop: one operation at a time, each in a fresh
interpreter (``bench/op.py``) with numpy/OpenMP threads pinned to 1,
repeated on the same seeded input until ``--seconds`` have passed.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced operations and reports the per-layer
metrics.  Every operation's output is checked and its digest must match
the other repeats.  A human-readable table goes to stdout, a results
file with an environment stamp to ``bench/results/``, and the last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
from workloads import REF_PROBE_S, WORKLOADS  # noqa: E402

THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
OP_TIMEOUT_S = 150
MIN_OPS = 3
REFERENCE_FILE = BENCH_DIR / "reference_digests.json"


class BenchError(RuntimeError):
    """A broken workload set-up, or metric names that differ from BENCHMARK.json."""


def run_op(spec: dict) -> dict:
    """Run one operation in a fresh interpreter; returns its result dict."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="0", **THREAD_PINS)
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "op.py"), json.dumps(spec)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"failures": [f"timed out after {OP_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"failures": [f"exit code {proc.returncode}: {' | '.join(tail)}"]}
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def environment() -> dict:
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "platform": platform.platform(),
            "nproc": os.cpu_count(), "affinity_cpus": affinity, "cpu_model": cpu,
            "thread_pins": THREAD_PINS, **git_state()}


def git_state() -> dict:
    """Commit and dirty flag, only if ROOT itself is a git checkout."""
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != ROOT:
            raise ValueError("not the repository root")
        return {"git_sha": git("rev-parse", "HEAD"),
                "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, ValueError, subprocess.SubprocessError):
        return {"git_sha": None, "git_dirty": None}


def speed_scale(op: dict) -> float:
    """Factor that turns the operation's host seconds into nominal seconds.

    The probe ran around the operation in the same process; host speed
    drift cancels in the ratio, and raw host times stay in the results.
    """
    return REF_PROBE_S[WORKLOADS[op["workload"]]["probe"]] / op["probe_s"]


def layer_metrics(op: dict) -> dict[str, float]:
    """Per-layer metric values of one traced operation, times scaled."""
    layers, cycles, scale = op["layers"], op["cycles"], speed_scale(op)

    def get(name: str, field: str) -> float:
        value = layers.get(name, {}).get(field, 0)
        return value * scale if field == "self_s" else value

    def rate(name: str) -> float:      # millions of work units per self second
        s = get(name, "self_s")
        return get(name, "work") / s / 1e6 if s else 0.0

    ff_calls = get("rx_core.fast_forward", "calls")
    ff_refused = get("rx_core.fast_forward", "raised")
    generated = get("tx_model.payload.tx", "work") + get("tx_model.payload.oracle", "work")
    sent = op.get("payload_octets_sent", 0)
    m = {
        "tx_model.bulk_data.self_s": get("tx_model.bulk_data", "self_s"),
        "tx_model.payload.tx_s": get("tx_model.payload.tx", "self_s"),
        "tx_model.payload.tx_octets": get("tx_model.payload.tx", "work"),
        "tx_model.payload.oracle_s": get("tx_model.payload.oracle", "self_s"),
        "tx_model.payload.oracle_octets": get("tx_model.payload.oracle", "work"),
        "tx_model.payload.gen_ratio": generated / sent if sent else 0.0,
        "tx_model.step.calls": get("tx_model.step", "calls"),
        "tx_model.step.self_s": get("tx_model.step", "self_s"),
    }
    for name in ("scrambler.scramble_octets", "scrambler.descramble_octets",
                 "codec8b10b.encode_stream", "codec8b10b.decode_stream"):
        m[f"{name}.self_s"] = get(name, "self_s")
        m[f"{name}.mocts_per_s"] = rate(name)
    for name in ("codec8b10b.encode_octet", "codec8b10b.decode_octet"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.self_s"] = get(name, "self_s")
    m.update({
        "codec8b10b.bit_align.self_s": get("codec8b10b.bit_align", "self_s"),
        "rx_core.step_packed.calls": get("rx_core.step_packed", "calls"),
        "rx_core.step_packed.self_s": get("rx_core.step_packed", "self_s"),
        "rx_core.fast_forward.calls": ff_calls,
        "rx_core.fast_forward.refused": ff_refused,
        "rx_core.fast_forward.self_s": get("rx_core.fast_forward", "self_s"),
        "sim_harness.run.self_s": get("sim_harness.run", "self_s"),
        "sim_harness.stepped_cycle_frac": get("rx_core.step_packed", "calls") / cycles,
        "sim_harness.fast_chunk_accept_ratio":
            (ff_calls - ff_refused) / ff_calls if ff_calls else 0.0,
        "captures.read_capture.self_s": get("captures.read_capture", "self_s"),
        "captures.read_capture.msym_per_s": rate("captures.read_capture"),
        "captures.write_capture.self_s":
            scale * op.get("setup_layers", {}).get("captures.write_capture", {}).get("self_s", 0.0),
        "cli.decode_capture.self_s": get("cli.decode_capture", "self_s"),
    })
    for key in ("release_cycle", "sync_cycle", "resyncs", "mismatch_octets"):
        m[f"sim.{key}"] = op["sim"][key]
    return m


def load_reference() -> dict:
    try:
        with open(REFERENCE_FILE, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, results_dir: Path, profile: bool,
                 record_reference: bool, bench_spec: dict) -> dict:
    cycles = WORKLOADS[workload]["smoke_cycles" if smoke else "cycles"]
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=results_dir))
    try:
        base = {"workload": workload, "seed": seed, "cycles": cycles}
        if WORKLOADS[workload]["kind"] == "replay":
            files = {"config": str(work / "link.json"), "capture": str(work / "capture.sym")}
            prep = run_op(dict(base, op="prepare", live_report=str(work / "live.json"), **files))
            if prep["failures"]:
                raise BenchError(f"{workload} set-up failed: {prep['failures']}")
            base = dict(base, op="replay", report=str(work / "decode.json"),
                        live_release_cycle=prep["live_release_cycle"],
                        live_data_start_cycle=prep["live_data_start_cycle"], **files)
        else:
            prep = {}
            base = dict(base, op="live")

        ops = []
        t_end = time.monotonic() + seconds
        min_ops = 2 * MIN_OPS if trace else MIN_OPS
        while time.monotonic() < t_end or len(ops) < min_ops:
            traced = trace and len(ops) % 2 == 1
            ops.append(dict(run_op(dict(base, trace=traced)), traced=traced))
        if profile:
            prof_path = results_dir / f"{workload}-seed{seed}.profile.txt"
            run_op(dict(base, profile=str(prof_path)))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Every repeat of the same input must produce the same output bytes.
    digests = [op.get("digest") for op in ops]
    for op in ops:
        if op.get("digest") != digests[0]:
            op["failures"].append("digest differs from the first repeat")
    failed = sum(1 for op in ops if op["failures"])
    good = [op for op in ops if not op["failures"]]
    untraced = [op for op in good if not op["traced"]]
    traced_ops = [op for op in good if op["traced"]]

    key = f"{workload}/{seed}/{cycles}"
    reference = load_reference()
    if digests[0] is None:
        outputs = "no digest"
    elif key not in reference:
        outputs = "no reference digest for this seed and size"
    elif reference[key] == digests[0]:
        outputs = "unchanged"
    else:
        outputs = "outputs changed: explain in CHANGES.md"
    if record_reference and digests[0] is not None and failed == 0:
        reference[key] = digests[0]
        with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
            json.dump(dict(sorted(reference.items())), fh, indent=2)
            fh.write("\n")

    def speed(op: dict) -> float:
        return op["cycles"] / (op["run_s"] * speed_scale(op))

    speeds = [speed(op) for op in untraced]
    summary = {"ops_failed_frac": failed / len(ops)}
    if untraced:
        summary.update({
            "cycles_per_s": quartiles(speeds),
            "setup_s": quartiles([op["setup_s"] * speed_scale(op) for op in untraced]),
            "peak_rss_mb": quartiles([op["peak_rss_mb"] for op in untraced]),
            "speed_scale": quartiles([speed_scale(op) for op in untraced]),
            "raw_cycles_per_s": quartiles([op["cycles"] / op["run_s"] for op in untraced]),
            "raw_setup_s": quartiles([op["setup_s"] for op in untraced]),
        })
    if good:
        summary.update({f"sim.{k}": v for k, v in good[0]["sim"].items()})
    metrics: dict[str, float] = {}
    if not trace and untraced:
        metrics = {"cycles_per_s": summary["cycles_per_s"]["median"],
                   "setup_s": summary["setup_s"]["median"],
                   "peak_rss_mb": summary["peak_rss_mb"]["median"],
                   "sim.latency_octets": good[0]["sim"]["latency_octets"]}
    elif trace and traced_ops and untraced:
        per_op = [layer_metrics(op) for op in traced_ops]
        metrics = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
        traced_speed = statistics.median(speed(op) for op in traced_ops)
        metrics["trace.overhead_frac"] = 1.0 - traced_speed / statistics.median(speeds)

    wanted = bench_spec["per_layer"] if trace else bench_spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if failed == 0 and set(metrics) != set(units):
        raise BenchError(f"metric names differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")
    record = {
        "workload": workload, "seed": seed, "cycles_per_op": cycles, "trace": trace,
        "smoke": smoke, "seconds": seconds,
        "environment": dict(environment(), numpy=next(
            (op["numpy"] for op in ops if "numpy" in op), None)),
        "attempted": len(ops), "failed": failed,
        "failures": [op["failures"] for op in ops if op["failures"]],
        "digest": digests[0], "outputs": outputs,
        "capture_sha256": prep.get("capture_sha256"),
        "summary": summary,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
        "ops": [{k: v for k, v in op.items() if k != "edges"} for op in ops],
        "edges": traced_ops[0]["edges"] if traced_ops else None,
    }
    out = results_dir / f"{workload}-seed{seed}-trace{int(trace)}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print_table(record, summary, out)
    return record


def print_table(record: dict, summary: dict, path: Path) -> None:
    print(f"== {record['workload']}  seed={record['seed']}  "
          f"cycles/op={record['cycles_per_op']}  ops={record['attempted']}  "
          f"failed={record['failed']}  outputs: {record['outputs']}")
    for f in record["failures"]:
        print(f"   FAILED: {'; '.join(f)}")
    for name in ("cycles_per_s", "setup_s", "peak_rss_mb", "speed_scale",
                 "raw_cycles_per_s", "raw_setup_s"):
        q = summary.get(name)
        if q is not None:
            print(f"   {name:<34} median {q['median']:.6g}  "
                  f"[q1 {q['q1']:.6g}, q3 {q['q3']:.6g}]  n={q['n']}")
    print(f"   {'ops_failed_frac':<34} {summary['ops_failed_frac']:.6g}")
    for name, v in summary.items():
        if name.startswith("sim."):
            print(f"   {name:<34} {v}")
    if record["trace"]:
        for name, m in record["metrics"].items():
            if not name.startswith("sim."):
                print(f"   {name:<40} {m['value']:.6g} {m['unit']}")
    print(f"   results: {path}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny operation sizes; for the schema smoke test")
    p.add_argument("--results", default=str(BENCH_DIR / "results"),
                   help="directory for results files (default bench/results)")
    p.add_argument("--profile", action="store_true",
                   help="after measuring, write a cProfile top-25 beside the results")
    p.add_argument("--record-reference", action="store_true",
                   help="store this run's digest in bench/reference_digests.json")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "jesd204b_sim" / "__init__.py").is_file():
        print(f"error: no jesd204b_sim source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench_spec = json.load(fh)
    results_dir = Path(args.results)
    results_dir.mkdir(parents=True, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        records = [run_workload(w, args.seed, args.seconds, bool(args.trace), args.smoke,
                                results_dir, args.profile, args.record_reference, bench_spec)
                   for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{name}": m
                   for r in records for name, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
