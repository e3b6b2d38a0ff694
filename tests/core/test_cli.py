"""Tests for the command-line interface."""

import dataclasses

import pytest

from repro.cli import main
from repro.core.measurements import Measurement, SweepResult
from repro.core.sweeps import DEFAULT_LATENCIES, impl_label, run_implementation
from repro.engine import simulate_fast
from repro.kernels import KERNELS
from repro.workloads import get_scale


class TestInfo:
    def test_info_prints_machine(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "FPGA-SDV" in out
        assert "DRAM latency" in out


class TestFigures:
    def test_fig4_single_kernel(self, capsys):
        rc = main(["fig4", "--kernel", "fft", "--scale", "smoke",
                   "--vls", "8,64"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out and "vl64" in out

    def test_fig3_csv_output(self, capsys):
        rc = main(["fig3", "--kernel", "fft", "--scale", "smoke",
                   "--vls", "8", "--csv"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("latency,scalar,vl8")

    def test_fig5(self, capsys):
        rc = main(["fig5", "--kernel", "fft", "--scale", "smoke",
                   "--vls", "8,64"])
        assert rc == 0
        assert "plateaus" in capsys.readouterr().out

    def test_headline(self, capsys):
        rc = main(["headline", "--scale", "smoke", "--vls", "256"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "measured" in out and "8.78x" in out

    def test_headline_times_the_counter_view_once(self, capsys,
                                                  monkeypatch):
        # the sweep runs the DES at 7 latencies for scalar and vl256; the
        # counter view's attribution then needs 4 distinct ladder rungs
        # (at full bandwidth L1 is L0), whose L0 is the counters' run
        from repro.engine import ENGINES

        runs = []
        des = ENGINES["event"]
        monkeypatch.setitem(ENGINES, "event",
                            lambda ct: runs.append(1) or des(ct))
        rc = main(["headline", "--scale", "smoke", "--vls", "256",
                   "--engine", "event", "--no-verify"])
        assert rc == 0
        assert "runs absorbed" in capsys.readouterr().out
        assert len(runs) == 2 * len(DEFAULT_LATENCIES) + 4

    def test_unknown_kernel_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig3", "--kernel", "nope", "--scale", "smoke"])
        assert exc.value.code == 2
        assert "nope" in capsys.readouterr().err

    def test_no_verify_flag(self, capsys):
        rc = main(["fig4", "--kernel", "fft", "--scale", "smoke",
                   "--vls", "8", "--no-verify"])
        assert rc == 0


class TestNewCommands:
    def test_fig3_plot_mode(self, capsys):
        rc = main(["fig3", "--kernel", "fft", "--scale", "smoke",
                   "--vls", "8,64", "--plot"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "log y" in out and "=scalar" in out

    def test_fig5_plot_mode(self, capsys):
        rc = main(["fig5", "--kernel", "fft", "--scale", "smoke",
                   "--vls", "8", "--plot", "--color"])
        assert rc == 0
        assert "t/t1" in capsys.readouterr().out

    def test_characterize(self, capsys):
        rc = main(["characterize", "--kernel", "spmv", "--scale", "smoke",
                   "--vls", "64"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "AI (flop/B)" in out and "vl64" in out

    def test_validate(self, capsys):
        rc = main(["validate", "--kernel", "pagerank", "--scale", "smoke",
                   "--vls", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "all implementations verified" in out

    def test_probe(self, capsys):
        rc = main(["probe"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "triad" in out and "B/cycle" in out

    @pytest.mark.parametrize("command,flags", [
        ("profile", [["--csv"], ["--jobs", "2"]]),
        ("headline", [["--csv"], ["--kernel", "spmv"]]),
        ("characterize", [["--csv"], ["--engine", "batch"], ["--jobs", "2"],
                          ["--trace-cache", "tc"]]),
        ("validate", [["--no-verify"], ["--csv"], ["--engine", "batch"],
                      ["--jobs", "2"], ["--trace-cache", "tc"]]),
        ("report", [["--csv"]]),
    ])
    def test_flag_the_command_ignores_is_a_usage_error(self, command, flags,
                                                       capsys):
        for flag in flags:
            with pytest.raises(SystemExit) as exc:
                main([command, "--scale", "smoke", *flag])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_probe_with_knobs(self, capsys):
        rc = main(["probe", "--max-vl", "8", "--extra-latency", "100",
                   "--bandwidth", "8"])
        assert rc == 0
        assert "max VL=8" in capsys.readouterr().out

    @pytest.mark.parametrize("argv,value", [
        (["fig3", "--vls", "8,x"], "8,x"),
        (["report", "--vls", "8,x"], "8,x"),
        (["fig3", "--vls", "7"], "VL 7"),
        (["fig3", "--scale", "nope"], "nope"),
        (["probe", "--max-vl", "7"], "got 7"),
        (["probe", "--bandwidth", "100"], "got 100"),
        (["probe", "--extra-latency", "-5"], "got -5"),
        (["headline", "--scale", "smoke", "--vls", "8"], "got 8"),
    ])
    def test_bad_value_is_a_usage_error(self, argv, value, capsys):
        # exit 2 with a one-line message naming the value, no traceback
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert value in err
        assert f"repro-sdv {argv[0]}: error:" in err


class TestSweepInfraFlags:
    def test_engine_fast_matches_default_batch(self, capsys):
        # the default engine's CSV equals one built by timing every point
        # with its specification, simulate_fast
        assert main(["fig3", "--kernel", "fft", "--scale", "smoke",
                     "--vls", "8", "--csv"]) == 0
        batch_out = capsys.readouterr().out
        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        fast = SweepResult(kernel="fft", axis="latency",
                           points=list(DEFAULT_LATENCIES),
                           impls=["scalar", "vl8"])
        for vl in (None, 8):
            sdv, trace = run_implementation(spec, workload, vl,
                                            verify=False)
            ct = sdv.classify(trace)
            for lat in DEFAULT_LATENCIES:
                cfg = sdv.config.with_extra_latency(lat)
                fast.add(Measurement(
                    kernel="fft", impl=impl_label(vl), extra_latency=lat,
                    bandwidth_bpc=int(sdv.bandwidth_bpc),
                    cycles=simulate_fast(
                        dataclasses.replace(ct, config=cfg)).cycles))
        assert batch_out == fast.to_csv() + "\n\n"

    def test_unknown_engine_rejected(self, capsys):
        # the specifications are not runtime engines either
        for name in ("warp", "fast", "event-ref"):
            with pytest.raises(SystemExit) as exc:
                main(["fig3", "--kernel", "fft", "--scale", "smoke",
                      "--engine", name])
            assert exc.value.code == 2  # argparse's usage error
            assert "invalid choice" in capsys.readouterr().err

    def test_jobs_flag(self, capsys):
        rc = main(["fig5", "--kernel", "fft", "--scale", "smoke",
                   "--vls", "8", "--jobs", "2"])
        assert rc == 0
        assert "plateaus" in capsys.readouterr().out

    def test_trace_cache_flag(self, capsys, tmp_path):
        args = ["fig3", "--kernel", "fft", "--scale", "smoke",
                "--vls", "8", "--csv", "--trace-cache", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert list(tmp_path.glob("*.npz"))
        assert main(args) == 0  # second run re-times from the cache
        assert capsys.readouterr().out == first
