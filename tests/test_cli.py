"""Command-line surface: config parsing, exit codes, files, round trips."""

import json

import numpy as np
import pytest

from jesd204b_sim.captures import (SAMPLE_CSV_HEADER, read_capture,
                                   read_sample_csv, write_capture, Capture)
from jesd204b_sim.cli import EXIT_OK, EXIT_PROTOCOL, EXIT_USAGE, main, parse_config
from jesd204b_sim.config import LinkConfig, ParseError
from jesd204b_sim.tx_model import PayloadSpec, payload_samples


@pytest.fixture
def config_path(tmp_path):
    def write(overrides=None, **sections):
        data = {"L": 2, "F": 4, "K": 32, "scrambling": 1}
        data.update(overrides or {})
        data.update(sections)
        path = tmp_path / "link.json"
        path.write_text(json.dumps(data))
        return str(path)
    return write


class TestParseConfig:
    def test_minimal_config_gets_defaults(self, config_path):
        cfg, sections = parse_config(config_path())
        assert cfg.L == 2 and cfg.buffer_depth == 256
        assert cfg.release_offset == 120
        assert sections["sim"] == {}

    def test_unknown_top_level_key_named(self, config_path):
        with pytest.raises(ParseError, match="lanes_per_link"):
            parse_config(config_path({"lanes_per_link": 2}))

    def test_unknown_section_key_named(self, config_path):
        with pytest.raises(ParseError, match="burst"):
            parse_config(config_path(channel={"skew": [0, 0], "burst": 1}))

    def test_constraint_violation_passthrough(self, config_path):
        from jesd204b_sim.config import ConfigError
        with pytest.raises(ConfigError, match="F-multiple-of-4"):
            parse_config(config_path({"F": 3}))

    def test_cli_caps_lanes_at_four(self, config_path):
        # the library itself models up to 32 lanes per link
        with pytest.raises(ParseError, match="at most 4"):
            parse_config(config_path({"L": 8}))
        assert LinkConfig(L=8, F=4, K=32).L == 8


class TestSimulateCommand:
    def test_clean_run_exit_zero(self, config_path, tmp_path):
        rep = tmp_path / "rep.json"
        rc = main(["simulate", "--config",
                   config_path(payload={"kind": "random", "seed": 5},
                               sim={"duration_cycles": 2000}),
                   "--report", str(rep)])
        assert rc == EXIT_OK
        data = json.loads(rep.read_text())
        assert data["payload_match"] is True and data["resync_count"] == 0

    def test_bad_config_exit_usage(self, config_path):
        rc = main(["simulate", "--config", config_path({"F": 3})])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("flip", [[5, 28003], [0, -7]])
    def test_mistyped_flip_exit_usage(self, config_path, flip):
        rc = main(["simulate", "--config",
                   config_path(channel={"error_positions": [flip]},
                               sim={"duration_cycles": 1000})])
        assert rc == EXIT_USAGE

    def test_skew_beyond_capacity_exit_protocol(self, config_path, tmp_path):
        rep = tmp_path / "rep.json"
        rc = main(["simulate", "--config",
                   config_path({"buffer_depth": 64},
                               channel={"skew": [0, 100]},
                               sim={"duration_cycles": 1500}),
                   "--report", str(rep)])
        assert rc == EXIT_PROTOCOL
        data = json.loads(rep.read_text())
        assert data["error_counts"]["buffer_overflow"] >= 1

    def test_same_seed_identical_report_files(self, config_path, tmp_path):
        cfgp = config_path(sim={"duration_cycles": 1500})
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["simulate", "--config", cfgp, "--seed", "9",
                     "--report", str(a)]) == EXIT_OK
        assert main(["simulate", "--config", cfgp, "--seed", "9",
                     "--report", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_event_log_written(self, config_path, tmp_path):
        log = tmp_path / "ev.log"
        main(["simulate", "--config", config_path(sim={"duration_cycles": 1200}),
              "--log", str(log)])
        lines = log.read_text().splitlines()
        assert lines and all(l.startswith("cycle=") for l in lines)


class TestGenDecodeRoundTrip:
    @pytest.mark.parametrize("fmt", ["symbol10", "octet_flag"])
    def test_capture_roundtrip_payload_identity(self, config_path, tmp_path, fmt):
        cfgp = config_path(payload={"kind": "random", "seed": 11, "channels": 4})
        cap = tmp_path / "cap.txt"
        out = tmp_path / "dec.csv"
        assert main(["gen", "--config", cfgp, "--out", str(cap),
                     "--format", fmt, "--cycles", "1200"]) == EXIT_OK
        assert main(["decode", "--capture", str(cap), "--config", cfgp,
                     "--dump-samples", str(out)]) == EXIT_OK
        rows = read_sample_csv(str(out))
        pay = PayloadSpec(kind="random", seed=11, channels=4)
        j = rows[:, 0] * 4 + rows[:, 1]
        expected = payload_samples(pay, j)
        assert (rows[:, 2] == expected).all()

    def test_gen_deterministic_files(self, config_path, tmp_path):
        cfgp = config_path()
        a, b = tmp_path / "a.cap", tmp_path / "b.cap"
        main(["gen", "--config", cfgp, "--out", str(a), "--cycles", "600"])
        main(["gen", "--config", cfgp, "--out", str(b), "--cycles", "600"])
        assert a.read_bytes() == b.read_bytes()

    def test_gen_with_skew_still_decodes(self, config_path, tmp_path):
        cfgp = config_path(channel={"skew": [3, 21]},
                           payload={"kind": "ramp", "channels": 2})
        cap = tmp_path / "cap.txt"
        main(["gen", "--config", cfgp, "--out", str(cap), "--cycles", "1500"])
        assert main(["decode", "--capture", str(cap), "--config", cfgp]) == EXIT_OK

    def test_decode_uses_the_config_sysref(self, config_path, tmp_path):
        cfgp = config_path(channel={"skew": [5, 38]},
                           sysref={"first_cycle": 51, "tx_phase_offset_octets": 12})
        cap, live, dec = (tmp_path / n for n in ("cap.txt", "live.json", "dec.json"))
        assert main(["gen", "--config", cfgp, "--out", str(cap),
                     "--cycles", "1500"]) == EXIT_OK
        assert main(["simulate", "--config", cfgp, "--duration", "1500",
                     "--report", str(live)]) == EXIT_OK
        assert main(["decode", "--capture", str(cap), "--config", cfgp,
                     "--report", str(dec)]) == EXIT_OK
        live_release = json.loads(live.read_text())["t_release"]
        assert live_release > 0
        assert json.loads(dec.read_text())["release_cycle"] == live_release

    def test_decode_leaves_the_callers_sysref_alone(self, config_path, tmp_path):
        from jesd204b_sim.cli import decode_capture
        from jesd204b_sim.sim_harness import SysrefSpec
        cap = tmp_path / "cap.txt"
        main(["gen", "--config", config_path(), "--out", str(cap), "--cycles", "600"])
        spec = SysrefSpec()
        decode_capture(read_capture(str(cap)), sysref=spec)
        assert vars(spec) == vars(SysrefSpec())

    def test_truncated_capture_no_sync(self, config_path, tmp_path):
        cfgp = config_path()
        cap = tmp_path / "cap.txt"
        main(["gen", "--config", cfgp, "--out", str(cap), "--cycles", "1200"])
        parsed = read_capture(str(cap))
        truncated = Capture(parsed.fmt, parsed.config, parsed.seed,
                            symbols=[s[:400] for s in parsed.symbols])
        write_capture(str(cap), truncated)
        assert main(["decode", "--capture", str(cap)]) == EXIT_PROTOCOL

    def test_sine_capture_decodes_to_sine_table(self, config_path, tmp_path):
        # The generator-side quantized tone is the oracle for the decoded
        # sample table.
        cfgp = config_path(payload={"kind": "sine", "seed": 0, "channels": 16,
                                    "amplitude": 20000, "period": 16})
        cap = tmp_path / "cap.txt"
        out = tmp_path / "sine.csv"
        main(["gen", "--config", cfgp, "--out", str(cap), "--cycles", "1500"])
        assert main(["decode", "--capture", str(cap), "--config", cfgp,
                     "--dump-samples", str(out)]) == EXIT_OK
        rows = read_sample_csv(str(out))
        expected = np.clip(
            np.rint(20000 * np.sin(2 * np.pi * rows[:, 0] / 16)),
            -32768, 32767).astype(np.int64)
        got = rows[:, 2].copy()  # stored as unsigned 16-bit words
        got[got >= 32768] -= 65536
        assert (got == expected).all()

    def test_capture_header_must_validate(self, tmp_path):
        cap = tmp_path / "bad.cap"
        cfg = LinkConfig(L=2, F=4, K=32)
        write_capture(str(cap), Capture("symbol10", cfg, 0, symbols=[
            np.zeros(40, np.uint16), np.zeros(40, np.uint16)]))
        text = cap.read_text().replace('"F": 4', '"F": 3')
        cap.write_text(text)
        assert main(["decode", "--capture", str(cap)]) == EXIT_USAGE


class TestSweepCommand:
    def test_sweep_deterministic_exit_zero(self, config_path, tmp_path):
        rep = tmp_path / "sweep.json"
        rc = main(["sweep", "--config", config_path(), "--trials", "4",
                   "--report", str(rep)])
        assert rc == EXIT_OK
        data = json.loads(rep.read_text())
        assert data["deterministic"] is True
        assert len(set(data["latencies"])) == 1

    def test_negative_control_reports_nondeterministic_vs_base(self, config_path):
        # The control shifts the transmitter grid; its (internally
        # consistent) latency differs from the base run's.
        import io
        import contextlib
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(["sweep", "--config", config_path(), "--trials", "3"])
            main(["sweep", "--config", config_path(), "--trials", "3",
                  "--negative-control"])
        base, control = buf.getvalue().splitlines()
        lat = [line.split("latencies=")[1].split(" ")[0] for line in (base, control)]
        assert lat[0] != lat[1]


class TestCsvSchema:
    def test_header_fixed(self, config_path, tmp_path):
        out = tmp_path / "s.csv"
        main(["simulate", "--config",
              config_path(sim={"duration_cycles": 1200}),
              "--dump-samples", str(out)])
        assert out.read_text().splitlines()[0] == SAMPLE_CSV_HEADER
