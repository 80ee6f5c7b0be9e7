"""Tests for the experiment CLI."""

import pytest

from repro.experiments.cli import build_parser, main

_TINY_STREAM = [
    "stream", "flash-crowd",
    "--horizon", "8",
    "--window", "4",
    "--replicas", "2",
    "--queues", "8",
]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table_commands_parse(self):
        assert build_parser().parse_args(["table1"]).command == "table1"
        assert build_parser().parse_args(["table2"]).command == "table2"

    def test_fig5_grid_parsing(self):
        args = build_parser().parse_args(
            ["fig5", "--delta-ts", "1,2.5,10", "--queues", "40"]
        )
        assert args.delta_ts == (1.0, 2.5, 10.0)
        assert args.queues == 40

    def test_fig4_m_grid_parsing(self):
        args = build_parser().parse_args(["fig4", "--m-grid", "10,20"])
        assert args.m_grid == (10, 20)

    def test_workers_flag_on_sweep_commands(self):
        for command in ("fig4", "fig5", "fig6"):
            args = build_parser().parse_args([command, "--workers", "4"])
            assert args.workers == 4
        assert build_parser().parse_args(["fig5"]).workers == 1

    def test_scenario_parsing(self):
        args = build_parser().parse_args(
            [
                "scenario", "heterogeneous-sed",
                "--workers", "4",
                "--delta-ts", "3,7",
                "--queues", "20",
                "--runs", "2",
            ]
        )
        assert args.command == "scenario"
        assert args.name == "heterogeneous-sed"
        assert args.workers == 4
        assert args.delta_ts == (3.0, 7.0)
        assert args.queues == 20
        assert args.runs == 2


class TestExecution:
    def test_table1_prints(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Δt" in out

    def test_table2_prints(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "0.99" in out

    def test_fig4_tiny_run_with_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "out" / "fig4.csv"
        code = main(
            [
                "fig4",
                "--delta-t", "5",
                "--m-grid", "10",
                "--runs", "2",
                "--csv", str(csv_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert csv_path.exists()
        assert csv_path.read_text().startswith("M,N,")

    def test_fig5_tiny_run(self, capsys):
        code = main(
            ["fig5", "--queues", "10", "--delta-ts", "5", "--runs", "2"]
        )
        assert code == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_scenario_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("paper-baseline", "heterogeneous-sed", "bursty-mmpp",
                     "overload", "ring-local", "torus-local",
                     "random-regular", "sparse-heterogeneous"):
            assert name in out

    def test_graph_scenario_tiny_run(self, capsys):
        code = main(
            [
                "scenario", "ring-local",
                "--delta-ts", "5",
                "--queues", "10",
                "--runs", "2",
            ]
        )
        assert code == 0
        assert "Scenario ring-local" in capsys.readouterr().out

    def test_scenario_tiny_run_with_workers_and_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "scenario.csv"
        code = main(
            [
                "scenario", "overload",
                "--delta-ts", "5",
                "--queues", "10",
                "--runs", "2",
                "--workers", "2",
                "--csv", str(csv_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Scenario overload" in out
        assert csv_path.read_text().startswith("delta_t,")

    def test_scenario_unknown_name_exits_nonzero(self, capsys):
        """Unknown scenarios are a usage error, not a bare traceback."""
        assert main(["scenario", "definitely-not-registered"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario 'definitely-not-registered'" in err
        assert "available" in err and "paper-baseline" in err
        assert "scenario list" in err


class TestErrorPaths:
    """Bad flags exit non-zero with a pointed message, never a traceback."""

    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_bad_workers_rejected(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scenario", "overload", "--workers", value])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fig4", "fig5", "fig6"])
    def test_bad_workers_rejected_on_figures(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--workers", "0"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--queues", "--runs"])
    def test_bad_scenario_overrides_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scenario", "overload", flag, "0"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["", "1,abc"])
    def test_bad_delta_ts_rejected(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig5", "--delta-ts", value])
        assert exc.value.code == 2
        assert "--delta-ts" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec",
        [
            "outage@x:frac=0.1",     # non-integer epoch
            "meteor@4:frac=0.1",     # unknown event kind
            "outage@4",              # outage without victims
            "flap@4:frac=0.1",       # flap without a factor
            "",                      # empty spec
        ],
    )
    @pytest.mark.parametrize("command", ["scenario", "stream"])
    def test_malformed_chaos_spec_rejected(self, command, spec, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "overload", "--chaos", spec])
        assert exc.value.code == 2
        assert "--chaos" in capsys.readouterr().err

    def test_semantically_invalid_chaos_exits_two(self, capsys):
        """A well-formed schedule that cannot run on the scenario's
        environment fails before any simulation, as a usage error."""
        code = main(
            [
                "scenario", "overload",
                "--delta-ts", "2",
                "--queues", "8",
                "--runs", "1",
                "--chaos", "links@3:frac=0.1",
            ]
        )
        assert code == 2
        assert "graph" in capsys.readouterr().err

    def test_semantically_invalid_chaos_exits_two_on_stream(self, capsys):
        code = main(
            [
                "stream", "diurnal-stream",
                "--horizon", "12",
                "--queues", "8",
                "--replicas", "2",
                "--chaos", "outage@2:queues=20",
            ]
        )
        assert code == 2
        assert "fleet has 8" in capsys.readouterr().err

    def test_chaos_scenario_tiny_run(self, capsys):
        code = main(
            [
                "scenario", "overload",
                "--delta-ts", "5",
                "--queues", "10",
                "--runs", "2",
                "--chaos", "outage@2-5:frac=0.2,mode=preserve",
            ]
        )
        assert code == 0
        assert "Scenario overload" in capsys.readouterr().out

    def test_scenario_list_rejects_sweep_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scenario", "list", "--workers", "4"])
        assert exc.value.code == 2
        assert "takes no sweep options" in capsys.readouterr().err

    def test_scenario_list_rejects_csv(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scenario", "list", "--csv", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "--csv" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, missing",
        [
            (_TINY_STREAM, 1),
            (["scenario", "overload", "--queues", "10", "--runs", "2",
              "--delta-ts", "10"], 3),
        ],
        ids=["stream", "scenario"],
    )
    def test_merge_only_empty_store_exits_2(
        self, argv, missing, capsys, tmp_path
    ):
        code = main([*argv, "--merge-only", "--store-dir", str(tmp_path)])
        assert code == 2
        assert f"missing {missing} shard(s)" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


TINY_MANIFEST = """
title = "tiny"
seed = 0

[artifacts.table1]
kind = "table1"

[artifacts.scenario-overload]
kind = "scenario"
scenario = "overload"
queues = 10
runs = 2
delta_ts = [10.0]
"""


class TestReproduceCommand:
    @pytest.fixture
    def manifest_path(self, tmp_path):
        path = tmp_path / "manifest.toml"
        path.write_text(TINY_MANIFEST)
        return path

    def test_parsing_defaults(self):
        args = build_parser().parse_args(["reproduce"])
        assert args.command == "reproduce"
        assert args.manifest is None and args.workers == 1
        assert not args.no_store and args.only is None

    def test_list_prints_artifacts(self, manifest_path, capsys):
        assert main(
            ["reproduce", "--manifest", str(manifest_path), "--list"]
        ) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "scenario-overload" in out

    def test_list_packaged_manifest(self, capsys):
        assert main(["reproduce", "--list"]) == 0
        assert "fig5-m100" in capsys.readouterr().out

    def test_tiny_reproduction_writes_outputs(
        self, manifest_path, tmp_path, capsys
    ):
        results = tmp_path / "results"
        assert main(
            [
                "reproduce",
                "--manifest", str(manifest_path),
                "--results-dir", str(results),
                "--workers", "2",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out
        assert (results / "table1.txt").exists()
        assert (results / "scenario-overload.csv").exists()
        assert (results / "scenario-overload.provenance.json").exists()
        assert (results / ".store").is_dir()  # default store location

    def test_only_unknown_artifact_exits_2(self, manifest_path, capsys):
        assert main(
            ["reproduce", "--manifest", str(manifest_path), "--only", "nope"]
        ) == 2
        assert "unknown artifact" in capsys.readouterr().err

    def test_invalid_manifest_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text("[artifacts.x]\nkind = 'fig7'\n")
        assert main(["reproduce", "--manifest", str(bad)]) == 2
        assert "invalid manifest" in capsys.readouterr().err

    def test_missing_manifest_exits_2(self, tmp_path, capsys):
        assert main(
            ["reproduce", "--manifest", str(tmp_path / "absent.toml")]
        ) == 2
        assert "invalid manifest" in capsys.readouterr().err

    def test_no_store_skips_cache(self, manifest_path, tmp_path, capsys):
        results = tmp_path / "results"
        assert main(
            [
                "reproduce",
                "--manifest", str(manifest_path),
                "--results-dir", str(results),
                "--only", "table1",
                "--no-store",
            ]
        ) == 0
        assert not (results / ".store").exists()

    def test_store_dir_flag_on_sweep_commands(self, tmp_path):
        for command in ("fig4", "fig5", "fig6"):
            args = build_parser().parse_args(
                [command, "--store-dir", str(tmp_path)]
            )
            assert args.store_dir == tmp_path
        assert build_parser().parse_args(["fig5"]).store_dir is None

    def test_scenario_list_rejects_store_dir(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scenario", "list", "--store-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "--store-dir" in capsys.readouterr().err

    def test_scenario_store_dir_round_trip(self, tmp_path, capsys):
        argv = [
            "scenario", "overload",
            "--queues", "10",
            "--runs", "2",
            "--delta-ts", "10",
            "--store-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0  # warm: served from the store
        warm = capsys.readouterr().out
        assert cold == warm
        assert any((tmp_path / "cache").rglob("*.npz"))

    def test_store_dir_conflicts_with_no_store(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "reproduce",
                    "--store-dir", str(tmp_path),
                    "--no-store",
                ]
            )
        assert exc.value.code == 2
        assert "--no-store" in capsys.readouterr().err

    def test_unregistered_manifest_scenario_exits_2(self, tmp_path, capsys):
        manifest = tmp_path / "bad-scenario.toml"
        manifest.write_text(
            "[artifacts.x]\nkind = 'scenario'\nscenario = 'nope'\n"
        )
        assert main(
            ["reproduce", "--manifest", str(manifest), "--no-store"]
        ) == 2
        err = capsys.readouterr().err
        assert "unregistered scenario" in err and "nope" in err


class TestStreamCommand:
    def test_parsing_defaults(self):
        args = build_parser().parse_args(["stream", "diurnal-stream"])
        assert args.command == "stream"
        assert args.name == "diurnal-stream"
        assert args.horizon == 2000
        assert args.window is None
        assert args.replicas == 4
        assert args.workers == 1

    def test_tiny_stream_run(self, capsys):
        code = main(
            [
                "stream", "diurnal-stream",
                "--horizon", "10",
                "--window", "5",
                "--replicas", "2",
                "--queues", "8",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "diurnal-stream" in out
        assert "drop_rate" in out
        assert "Windowed series" in out

    def test_stream_csv_output(self, capsys, tmp_path):
        csv_path = tmp_path / "stream.csv"
        code = main(
            [
                "stream", "stochastic-delay",
                "--horizon", "8",
                "--window", "4",
                "--replicas", "1",
                "--queues", "8",
                "--csv", str(csv_path),
            ]
        )
        assert code == 0
        assert csv_path.read_text().startswith("epoch_start,width")
        assert "csv written" in capsys.readouterr().out

    def test_stream_store_round_trip(self, capsys, tmp_path):
        argv = [
            "stream", "flash-crowd",
            "--horizon", "8",
            "--window", "4",
            "--replicas", "2",
            "--queues", "8",
            "--store-dir", str(tmp_path / "store"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second  # warm rerun merges from the cache

    def test_stream_claim_needs_store_dir(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*_TINY_STREAM, "--claim"])
        assert exc.value.code == 2
        assert "pass --store-dir as well" in capsys.readouterr().err

    def test_stream_claim_then_merge_only(self, capsys, tmp_path):
        store = tmp_path / "store"
        claimed, merged = tmp_path / "claimed.csv", tmp_path / "merged.csv"
        assert main(
            [*_TINY_STREAM, "--claim", "--store-dir", str(store),
             "--csv", str(claimed)]
        ) == 0
        files = {
            path: (path.stat().st_size, path.stat().st_mtime_ns)
            for path in store.rglob("*")
        }
        assert any(path.suffix == ".npz" for path in files)
        assert main(
            [*_TINY_STREAM, "--merge-only", "--store-dir", str(store),
             "--csv", str(merged)]
        ) == 0
        assert merged.read_text() == claimed.read_text()
        # The merge read the store and wrote nothing to it.
        assert {
            path: (path.stat().st_size, path.stat().st_mtime_ns)
            for path in store.rglob("*")
        } == files

    def test_stream_unknown_scenario_exits_2(self, capsys):
        code = main(["stream", "does-not-exist", "--horizon", "5"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown scenario" in err

    def test_stream_unknown_policy_exits_2(self, capsys):
        code = main(
            [
                "stream", "diurnal-stream",
                "--horizon", "5",
                "--queues", "8",
                "--policy", "NOPE",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "no policy" in err

    @pytest.mark.parametrize("flag", ["--horizon", "--window", "--replicas"])
    def test_stream_rejects_non_positive(self, flag, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stream", "diurnal-stream", flag, "0"])

    def test_stream_rejects_bad_delta_t(self, capsys):
        with pytest.raises(SystemExit):
            main(
                [
                    "stream", "diurnal-stream",
                    "--horizon", "5",
                    "--delta-t", "-1",
                ]
            )
