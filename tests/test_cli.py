"""Tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.api import SCHEMES
from repro.cli import build_parser, main

FAST = ["--threads", "2", "--ops", "10", "--elements", "512"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheme", "bogus"])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "bogus"])

    def test_all_schemes_registered(self):
        assert set(SCHEMES) == {
            "bbb", "bbb-proc", "eadr", "pmem", "bsp", "bep", "none",
        }


class TestRun:
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_run_every_scheme(self, capsys, scheme):
        rc = main(["run", "--workload", "mutateNC", "--scheme", scheme] + FAST)
        assert rc == 0
        out = capsys.readouterr().out
        assert "execution_cycles" in out
        assert "mutateNC" in out

    def test_run_reports_persist_latency(self, capsys):
        main(["run", "--workload", "mutateNC", "--scheme", "bbb"] + FAST)
        assert "persist_latency_avg" in capsys.readouterr().out

    def test_no_finalize_flag(self, capsys):
        rc = main(
            ["run", "--workload", "mutateNC", "--scheme", "bbb", "--no-finalize"]
            + FAST
        )
        assert rc == 0

    def test_json_emits_versioned_schema(self, capsys):
        rc = main(
            ["run", "--workload", "mutateNC", "--scheme", "bbb", "--json"] + FAST
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.simstats/v1"
        assert payload["num_cores"] == len(payload["cores"])

    def test_json_out_writes_file_atomically(self, capsys, tmp_path):
        out_file = tmp_path / "stats.json"
        rc = main(
            ["run", "--workload", "mutateNC", "--scheme", "bbb", "--json",
             "--out", str(out_file)] + FAST
        )
        assert rc == 0
        assert capsys.readouterr().out == ""  # JSON went to the file
        with open(out_file) as fh:
            payload = json.load(fh)
        assert payload["schema"] == "repro.simstats/v1"
        assert list(tmp_path.iterdir()) == [out_file]  # no temp residue

    def test_events_and_trace_out(self, capsys, tmp_path):
        events = tmp_path / "events.jsonl"
        trace = tmp_path / "trace.json"
        rc = main(
            ["run", "--workload", "mutateNC", "--scheme", "bbb",
             "--events", str(events), "--trace-out", str(trace)] + FAST
        )
        assert rc == 0
        assert events.exists() and trace.exists()
        # The Chrome trace must be loadable JSON with a traceEvents array.
        payload = json.loads(trace.read_text())
        assert isinstance(payload["traceEvents"], list)
        assert payload["traceEvents"]

    def test_no_observability_flags_no_files(self, capsys, tmp_path):
        rc = main(["run", "--workload", "mutateNC", "--scheme", "bbb"] + FAST)
        assert rc == 0
        assert list(tmp_path.iterdir()) == []


class TestCompare:
    def test_compare_prints_all_schemes(self, capsys):
        rc = main(["compare", "--workload", "mutateNC"] + FAST)
        assert rc == 0
        out = capsys.readouterr().out
        for scheme in ("bbb", "eadr", "pmem", "bsp"):
            assert scheme in out

    def test_compare_trace_out_per_scheme(self, capsys, tmp_path):
        trace = tmp_path / "cmp.json"
        rc = main(
            ["compare", "--workload", "mutateNC",
             "--trace-out", str(trace)] + FAST
        )
        assert rc == 0
        for scheme in SCHEMES:
            if scheme == "none":
                continue
            per_scheme = tmp_path / f"cmp.{scheme}.json"
            assert per_scheme.exists(), scheme
            json.loads(per_scheme.read_text())


class TestProfile:
    def test_smoke_reconciles(self, capsys):
        assert main(["profile", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "event/stats reconciliation" in out
        # Every reconciliation row renders "yes"; a mismatch renders "NO".
        assert "yes" in out
        assert "NO" not in out

    def test_profile_run(self, capsys):
        rc = main(["profile", "--workload", "mutateNC", "--scheme", "bbb"] + FAST)
        assert rc == 0
        out = capsys.readouterr().out
        assert "occupancy timelines" in out


class TestCrash:
    def test_bbb_sweep_consistent(self, capsys):
        rc = main(
            ["crash", "--workload", "hashmap", "--scheme", "bbb", "--sample", "5"]
            + FAST
        )
        assert rc == 0
        assert "consistent" in capsys.readouterr().out

    def test_exit_code_reflects_consistency(self, capsys):
        rc = main(
            ["crash", "--workload", "hashmap", "--scheme", "bbb", "--sample", "3"]
            + FAST
        )
        assert rc == 0

    #: A small ctree sweep where volatile caches (``none``) expose a link
    #: persisted before its node and BBB stays consistent.
    SMALL = ["crash", "--workload", "ctree", "--threads", "2", "--ops", "50",
             "--elements", "4096", "--sample", "10"]

    @pytest.mark.parametrize("scheme, rc, expected", [
        ("none", 1,
         "ctree under none: 10 crash points, 9 consistent, 1 inconsistent\n"
         "  crash after op 4468: node 0x620010 reachable but uninitialised "
         "\u2014 link persisted before node\n"),
        ("bbb", 0,
         "ctree under bbb: 10 crash points, 10 consistent, 0 inconsistent\n"),
    ])
    def test_literal_output(self, capsys, scheme, rc, expected):
        assert main(self.SMALL + ["--scheme", scheme]) == rc
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("sample", ["0", "-1"])
    def test_sample_below_one_is_a_usage_error(self, capsys, sample):
        rc = main(["crash", "--sample", sample] + FAST)
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: --sample must be at least 1, got {sample}\n"


class TestStaticCommands:
    def test_energy(self, capsys):
        assert main(["energy"]) == 0
        out = capsys.readouterr().out
        assert "Mobile Class" in out and "Server Class" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "PoP location" in out and "bbPB/L1D" in out


class TestFaultsCommand:
    ARGS = [
        "faults", "--schemes", "bbb,none", "--workloads", "hashmap",
        "--random-plans", "1", "--threads", "2", "--ops", "16",
        "--elements", "128", "--jobs", "1",
    ]

    def test_small_campaign_reports_and_exits_zero(self, capsys, tmp_path):
        out_file = tmp_path / "faults.json"
        rc = main(self.ARGS + ["--out", str(out_file)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "silent-corruption" in out
        assert "battery-domain" in out
        with open(out_file) as fh:
            report = json.load(fh)
        assert report["schema"] == "repro.faultcampaign/v1"
        assert report["battery_domain"]["silent_corruption"] == 0
        assert report["units"]

    def test_unknown_scheme_rejected(self, capsys):
        rc = main(["faults", "--schemes", "bogus", "--jobs", "1"])
        assert rc == 2
        assert "unknown" in capsys.readouterr().err

    def test_checkpoint_resume(self, capsys, tmp_path):
        checkpoint = tmp_path / "campaign.ckpt"
        args = self.ARGS + ["--checkpoint", str(checkpoint)]
        assert main(args) == 0
        assert checkpoint.exists()
        first_out = capsys.readouterr().out
        # Rerun resumes from the checkpoint and reports identically.
        assert main(args) == 0
        assert capsys.readouterr().out == first_out


class TestCheckCommand:
    ARGS = [
        "check", "--scheme", "bbb", "--threads", "2", "--ops", "3",
        "--elements", "64", "--jobs", "1",
    ]

    def test_clean_scheme_reports_and_exits_zero(self, capsys, tmp_path):
        out_file = tmp_path / "check.json"
        rc = main(self.ARGS + ["--out", str(out_file)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "explored" in out
        with open(out_file) as fh:
            report = json.load(fh)
        assert report["schema"] == "repro.crashcheck/v1"
        assert report["consistent"]
        assert report["explored"] + report["pruned"] == report["checked_points"]

    def test_mutant_caught_minimized_and_replayable(self, capsys, tmp_path):
        cex_file = tmp_path / "cex.json"
        rc = main(self.ARGS + ["--mutant", "bbb-delayed-alloc",
                               "--cex-out", str(cex_file)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "minimized to" in out
        assert cex_file.exists()
        rc = main(["check", "--replay", str(cex_file)])
        assert rc == 0
        assert "REPRODUCED" in capsys.readouterr().out

    def test_unknown_scheme_rejected(self, capsys):
        rc = main(["check", "--scheme", "bogus", "--jobs", "1"])
        assert rc == 2
        assert "unknown" in capsys.readouterr().err

    def test_replay_rejects_wrong_schema_artifact(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "other/v9", "kind": "counterexample"}')
        rc = main(["check", "--replay", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "other/v9" in err and "repro.crashcheck/v1" in err

    def test_replay_rejects_truncated_artifact(self, capsys, tmp_path):
        bad = tmp_path / "cut.json"
        bad.write_text('{"schema": "repro.crashcheck/v1", "ki')
        rc = main(["check", "--replay", str(bad)])
        assert rc == 2
        assert "truncated" in capsys.readouterr().err


class TestLitmusCommand:
    ARGS = ["litmus", "--schemes", "bbb", "--tests", "prefix-pair",
            "--jobs", "1"]

    def test_conformant_scheme_reports_and_exits_zero(self, capsys, tmp_path):
        out_file = tmp_path / "litmus.json"
        rc = main(self.ARGS + ["--no-mutants", "--out", str(out_file)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "conformant" in out
        with open(out_file) as fh:
            report = json.load(fh)
        assert report["schema"] == "repro.litmus/v1"
        assert report["kind"] == "report"
        assert report["tests"] == ["prefix-pair"]
        assert report["conformance"]["failures"] == []

    def test_mutants_caught_minimized_and_replayable(self, capsys, tmp_path):
        rc = main(self.ARGS + ["--cex-dir", str(tmp_path)])
        out = capsys.readouterr().out
        # caught mutants are the expected outcome, not a gate failure.
        assert rc == 0
        assert "caught (expected)" in out
        assert "minimized to" in out
        cexes = sorted(tmp_path.glob("litmus-cex-*.json"))
        assert cexes
        rc = main(["litmus", "--replay", str(cexes[0])])
        assert rc == 0
        assert "REPRODUCED" in capsys.readouterr().out

    def test_replay_rejects_wrong_schema_artifact(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "other/v9"}')
        rc = main(["litmus", "--replay", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "other/v9" in err and "repro.litmus/v1" in err

    def test_replay_rejects_truncated_artifact(self, capsys, tmp_path):
        bad = tmp_path / "cut.json"
        bad.write_text('{"schema": "repro.litmus/v1", "ki')
        rc = main(["litmus", "--replay", str(bad)])
        assert rc == 2
        assert "truncated" in capsys.readouterr().err

    def test_unknown_scheme_rejected(self, capsys):
        rc = main(["litmus", "--schemes", "bogus", "--jobs", "1"])
        assert rc == 2
        assert "unknown" in capsys.readouterr().err

    def test_unknown_test_rejected(self, capsys):
        rc = main(["litmus", "--tests", "not-a-shape", "--jobs", "1"])
        assert rc == 2
        assert "not-a-shape" in capsys.readouterr().err


class TestOptCommand:
    SMALL = ["--threads", "2", "--ops", "4", "--elements", "64",
             "--jobs", "1"]

    def test_single_cell_reports_elision_and_saves_program(
        self, capsys, tmp_path
    ):
        out_file = tmp_path / "opt.trace"
        rc = main(["opt", "--workload", "hashmap", "--scheme", "bbb",
                   "--save-program", str(out_file)] + self.SMALL)
        out = capsys.readouterr().out
        assert rc == 0
        assert "100.0%" in out
        assert "verified" in out
        from repro.sim.tracefile import load_program

        program = load_program(out_file)
        assert program.total_ops > 0
        assert all(op.origin for _, _, op in program.iter_ops())

    def test_single_cell_flush_keeping_scheme(self, capsys):
        rc = main(["opt", "--workload", "hashmap", "--scheme", "pmem"]
                  + self.SMALL)
        assert rc == 0
        assert "0.0%" in capsys.readouterr().out

    def test_compare_writes_replayable_artifact(self, capsys, tmp_path):
        out_file = tmp_path / "opt.json"
        rc = main(["opt", "--compare", "--workloads", "hashmap",
                   "--schemes", "bbb,pmem", "--out", str(out_file)]
                  + self.SMALL)
        out = capsys.readouterr().out
        assert rc == 0
        assert "naive instrumentation vs persist-optimized" in out
        with open(out_file) as fh:
            report = json.load(fh)
        assert report["schema"] == "repro.optreport/v1"
        assert report["by_scheme"]["bbb"]["mean_elision_pct"] == 100.0
        rc = main(["opt", "--replay", str(out_file), "--jobs", "1"])
        assert rc == 0
        assert "REPRODUCED" in capsys.readouterr().out

    def test_replay_rejects_wrong_schema_artifact(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "other/v9"}')
        rc = main(["opt", "--replay", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "other/v9" in err and "repro.optreport/v1" in err

    def test_unknown_scheme_rejected(self, capsys):
        rc = main(["opt", "--scheme", "bogus"] + self.SMALL)
        assert rc == 2
        assert "unknown scheme" in capsys.readouterr().err

    def test_unknown_workload_rejected_in_compare(self, capsys):
        rc = main(["opt", "--compare", "--workloads", "bogus"]
                  + self.SMALL)
        assert rc == 2
        assert "bogus" in capsys.readouterr().err


class TestTraceCommand:
    def test_trace_writes_file(self, capsys, tmp_path):
        out_file = tmp_path / "w.trace"
        rc = main(
            ["trace", "--workload", "mutateNC", "--out", str(out_file)] + FAST
        )
        assert rc == 0
        assert out_file.exists()
        from repro.sim.tracefile import load_trace

        trace = load_trace(out_file)
        assert trace.num_threads == 2


class TestTrafficCommand:
    FAST_TRAFFIC = ["--requests", "30", "--entries", "16", "--tenants", "1",
                    "--keys", "256"]

    def test_smoke_gate(self, capsys):
        assert main(["traffic", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "traffic smoke ok" in out
        assert "p999" in out

    def test_curve_in_one_command(self, capsys, tmp_path):
        """The acceptance shape: one command, the default scheme trio,
        a schema-valid report with one curve per scheme."""
        out_file = tmp_path / "traffic.json"
        rc = main(["traffic", "--loads", "1,4",
                   "--out", str(out_file)] + self.FAST_TRAFFIC)
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("bbb", "eadr", "pmem"):
            assert f"{name}:" in out
        with open(out_file) as fh:
            report = json.load(fh)
        from repro.serve import validate_traffic_report

        validate_traffic_report(report)
        assert sorted(report["curves"]) == ["bbb", "eadr", "pmem"]
        assert report["loads"] == [1.0, 4.0]

    def test_serve_alias_and_closed_loop(self, capsys):
        rc = main(["serve", "--arrival", "closed", "--clients", "4",
                   "--loads", "1,2,4"] + self.FAST_TRAFFIC)
        assert rc == 0
        out = capsys.readouterr().out
        # Closed loop has no offered-load axis: the sweep collapses.
        assert out.count("bbb:") == 1

    def test_unknown_scheme_rejected(self, capsys):
        rc = main(["traffic", "--schemes", "bogus"] + self.FAST_TRAFFIC)
        assert rc == 2
        assert "unknown" in capsys.readouterr().err.lower()


class TestDrillCommand:
    def test_smoke_gate(self, capsys):
        assert main(["drill", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "drill smoke ok" in out
        assert "acked-lost" in out
        assert "bbb-delayed-alloc" in out

    def test_custom_drill_writes_report(self, capsys, tmp_path):
        out_file = tmp_path / "drill.json"
        rc = main(["drill", "--schemes", "bbb,eadr", "--crashes", "2",
                   "--requests", "30", "--entries", "8",
                   "--out", str(out_file)])
        assert rc == 0
        with open(out_file) as fh:
            report = json.load(fh)
        from repro.serve import validate_drill_report

        validate_drill_report(report)
        assert sorted(report["per_scheme"]) == ["bbb", "eadr"]
        assert report["battery_domain"]["acked_lost"] == 0

    def test_unknown_scheme_rejected(self, capsys):
        rc = main(["drill", "--schemes", "bogus"])
        assert rc == 2
        assert "unknown" in capsys.readouterr().err.lower()

    def test_unknown_mutant_rejected(self, capsys):
        rc = main(["drill", "--schemes", "bbb", "--mutants", "bogus",
                   "--requests", "20"])
        assert rc == 2
        assert "unknown mutant" in capsys.readouterr().err


class TestCommaLists:
    """Every command parses --schemes/--workloads/--loads the same way:
    names are stripped, and a bad item is a usage error (exit 2)."""

    #: A cheap spaced-list run per command.
    SPACED = {
        "drill": ["drill", "--schemes", "bbb, eadr", "--crashes", "1",
                  "--requests", "10", "--entries", "8"],
        "faults": ["faults", "--schemes", "bbb, eadr", "--workloads",
                   " hashmap", "--random-plans", "0", "--threads", "2",
                   "--ops", "4", "--elements", "64", "--jobs", "1"],
        "litmus": ["litmus", "--schemes", "bbb, eadr", "--tests",
                   "prefix-pair", "--no-mutants", "--jobs", "1"],
        "opt": ["opt", "--compare", "--schemes", "bbb, eadr", "--workloads",
                "hashmap ", "--threads", "2", "--ops", "3", "--elements",
                "64", "--jobs", "1"],
        "traffic": ["traffic", "--schemes", "bbb, eadr", "--loads",
                    "1.0, 2.0", "--requests", "10", "--tenants", "1",
                    "--keys", "64"],
    }

    @pytest.mark.parametrize("command", sorted(SPACED))
    def test_spaced_list_accepted(self, capsys, command):
        assert main(self.SPACED[command]) == 0

    @pytest.mark.parametrize("command", ["drill", "traffic"])
    def test_bad_load_is_usage_error(self, capsys, command):
        assert main([command, "--loads", "abc"]) == 2
        assert capsys.readouterr().err == (
            "error: could not convert string to float: 'abc'\n"
        )

    def test_empty_list_is_usage_error(self, capsys):
        assert main(["traffic", "--schemes", " , "]) == 2
        assert capsys.readouterr().err.startswith("error: empty list")
