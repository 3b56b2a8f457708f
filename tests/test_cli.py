"""Tests for repro.cli."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments import EXPERIMENTS
from repro.resilience.journal import TripJournal


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_parses_with_options(self):
        args = build_parser().parse_args(["run", "fig5", "--seed", "3", "--csv", "x.csv"])
        assert args.experiment == "fig5"
        assert args.seed == 3
        assert args.csv == "x.csv"


class TestMain:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in EXPERIMENTS:
            assert key in out

    def test_unknown_experiment_errors(self, capsys):
        assert main(["run", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_cheap_experiment(self, capsys):
        assert main(["run", "fig5"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 5" in out
        assert "finished in" in out

    def test_run_with_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "fig7a.csv"
        assert main(["run", "fig7a", "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("m,")
        assert len(lines) > 2

    def test_run_respects_seed(self, capsys):
        assert main(["run", "thm1", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "seed=5" in out


class TestScrubCommand:
    def test_missing_directory_is_usage_error(self, tmp_path, capsys):
        assert main(["scrub", "--dir", str(tmp_path / "absent")]) == 2
        assert "no such directory" in capsys.readouterr().err

    def test_clean_directory_exits_zero(self, tmp_path, capsys):
        assert main(["scrub", "--dir", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_check_mode_reports_damage_without_repairing(self, tmp_path, capsys):
        orphan = tmp_path / "snapshot-1.json.tmp-abc"
        orphan.write_text("half written")
        assert main(["scrub", "--dir", str(tmp_path), "--check"]) == 4
        assert orphan.exists()
        assert "orphan_tmp" in capsys.readouterr().out

    def test_repair_mode_fixes_and_exits_zero(self, tmp_path, capsys):
        orphan = tmp_path / "snapshot-1.json.tmp-abc"
        orphan.write_text("half written")
        assert main(["scrub", "--dir", str(tmp_path)]) == 0
        assert not orphan.exists()
        assert main(["scrub", "--dir", str(tmp_path), "--check"]) == 0

    def test_summary_lists_the_response_ledger(self, tmp_path, capsys):
        run = tmp_path / "ckpt"
        assert main([
            "checkpoint", "--dir", str(run), "--trips", "60", "--every", "20",
        ]) == 0
        assert (run / "responses.jsonl").exists()
        capsys.readouterr()
        assert main(["scrub", "--dir", str(run), "--check"]) == 0
        out = capsys.readouterr().out
        assert "1 journal(s), 1 ledger(s)" in out
        assert not (run / "logs").exists()  # a check writes nothing
        with open(run / "responses.jsonl", "ab") as f:
            f.write(b"0123456789abcdef {torn")
        assert main(["scrub", "--dir", str(run), "--check"]) == 4
        assert "ledger_torn_tail" in capsys.readouterr().out
        assert main(["scrub", "--dir", str(run)]) == 0
        rows = (run / "logs" / "scrub.jsonl").read_text().splitlines()
        summary = json.loads(rows[0])
        assert (summary["journals"], summary["ledgers"]) == (1, 1)
        assert json.loads(rows[1])["kind"] == "ledger_torn_tail"
        assert main(["resume", "--dir", str(run)]) == 0


class TestIncidentsCommand:
    def _logs(self, tmp_path):
        logs = tmp_path / "guard-logs"
        logs.mkdir()
        return logs

    def test_no_logs_is_usage_error(self, tmp_path, capsys):
        assert main(["incidents", "--dir", str(tmp_path)]) == 2
        assert "no guard logs" in capsys.readouterr().err

    def test_torn_trailing_line_skipped_with_warning(self, tmp_path, capsys):
        logs = self._logs(tmp_path)
        (logs / "incidents.jsonl").write_text(
            '{"seq": 1, "kind": "late", "detail": "d"}\n{"torn'
        )
        assert main(["incidents", "--dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "incidents.jsonl: 1 row(s)" in captured.out
        assert "skipped 1 torn line(s)" in captured.err

    def test_rotated_predecessor_read_first(self, tmp_path, capsys):
        logs = self._logs(tmp_path)
        (logs / "incidents.1.jsonl").write_text(
            '{"seq": 1, "kind": "old", "detail": "a"}\n'
        )
        (logs / "incidents.jsonl").write_text(
            '{"seq": 2, "kind": "new", "detail": "b"}\n'
        )
        assert main(["incidents", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "incidents.jsonl: 2 row(s) (+ rotated)" in out
        assert out.index("kind=old") < out.index("kind=new")


class TestServeArgumentHardening:
    def test_zero_shards_is_usage_error(self, tmp_path, capsys):
        assert main(["serve", "--dir", str(tmp_path), "--shards", "0"]) == 2
        assert "--shards must be >= 1" in capsys.readouterr().err

    def test_non_positive_block_size_is_usage_error(self, tmp_path, capsys):
        assert main(["serve", "--dir", str(tmp_path), "--block-size", "0"]) == 2
        assert "--block-size must be >= 1" in capsys.readouterr().err

    def test_block_size_checked_before_sharded_dispatch(self, tmp_path, capsys):
        args = ["serve", "--dir", str(tmp_path), "--shards", "2", "--block-size", "-4"]
        assert main(args) == 2
        assert "--block-size must be >= 1" in capsys.readouterr().err

    def test_unknown_scenario_is_usage_error(self, tmp_path, capsys):
        args = ["serve", "--dir", str(tmp_path), "--scenario", "tsunami"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "unknown scenario 'tsunami'" in err
        assert "stadium" in err  # the one-liner lists the known names

    def test_chaos_without_guard_is_usage_error(self, tmp_path, capsys):
        assert main(["serve", "--dir", str(tmp_path / "ckpt"), "--chaos"]) == 2
        assert "--chaos needs --guard" in capsys.readouterr().err
        assert not (tmp_path / "ckpt").exists()

    def test_named_scenario_feeds_the_serve_path(self, tmp_path, capsys):
        args = [
            "serve", "--dir", str(tmp_path / "ckpt"),
            "--scenario", "baseline", "--trips", "40", "--guard",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "guarded run:" in out
        assert "final health healthy" in out


class TestUnguardedServe:
    def test_serves_every_trip_and_resumes(self, tmp_path, capsys):
        run = tmp_path / "plain"
        assert main(["serve", "--dir", str(run), "--trips", "400"]) == 0
        assert "served 400/400 trips" in capsys.readouterr().out
        assert main(["resume", "--dir", str(run)]) == 0
        out = capsys.readouterr().out
        assert "replayed 0 journal records" in out
        assert "400 trips applied; consistency check passed" in out
        assert main(["scrub", "--dir", str(run), "--check"]) == 0


class TestShardedServe:
    def test_supervised_serve_closes_its_journals(
        self, tmp_path, capsys, monkeypatch
    ):
        journals = []
        append = TripJournal.append_block

        def spy(self, *args, **kwargs):
            journals.append(self)
            return append(self, *args, **kwargs)

        monkeypatch.setattr(TripJournal, "append_block", spy)
        args = [
            "serve", "--dir", str(tmp_path / "city"), "--shards", "2",
            "--supervise", "--trips", "200",
        ]
        assert main(args) == 0
        assert "supervised run (2 shards): " in capsys.readouterr().out
        assert journals and all(j._writer._fh is None for j in journals)

    def test_serve_has_no_workers_option(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--dir", str(tmp_path), "--shards", "2", "--workers", "2"])
        assert "--workers" in capsys.readouterr().err


class TestIncidentsKindFilter:
    def _logs(self, tmp_path):
        logs = tmp_path / "guard-logs"
        logs.mkdir()
        (logs / "incidents.jsonl").write_text(
            '{"seq": 1, "kind": "backpressure", "detail": "raised"}\n'
            '{"seq": 2, "kind": "ladder", "detail": "rung 0 -> 1"}\n'
            '{"seq": 3, "kind": "breaker", "detail": "ks open"}\n'
        )
        (logs / "deadletter.jsonl").write_text(
            '{"seq": 4, "rule": "overload_shed", "reason": "queue full"}\n'
            '{"seq": 5, "rule": "out_of_bounds", "reason": "nan"}\n'
        )
        return logs

    def test_kind_filters_incident_rows(self, tmp_path, capsys):
        self._logs(tmp_path)
        assert main(["incidents", "--dir", str(tmp_path), "--kind", "ladder"]) == 0
        out = capsys.readouterr().out
        assert "incidents.jsonl: 1 row(s) matching 'ladder' (of 3)" in out
        assert "rung 0 -> 1" in out
        assert "ks open" not in out

    def test_kind_matches_dead_letter_rules_too(self, tmp_path, capsys):
        self._logs(tmp_path)
        assert main(["incidents", "--dir", str(tmp_path), "--kind", "shed"]) == 0
        out = capsys.readouterr().out
        assert "deadletter.jsonl: 1 row(s) matching 'shed' (of 2)" in out
        assert "overload_shed" in out
        assert "out_of_bounds" not in out

    def test_no_filter_shows_everything(self, tmp_path, capsys):
        self._logs(tmp_path)
        assert main(["incidents", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "incidents.jsonl: 3 row(s)" in out
        assert "deadletter.jsonl: 2 row(s)" in out


class TestStatsCommand:
    def test_synthetic_stats(self, capsys):
        from repro.cli import main

        assert main(["stats", "--days", "3", "--volume", "300"]) == 0
        out = capsys.readouterr().out
        assert "workload: synthetic" in out
        assert "peak hours" in out

    def test_mobike_stats(self, tmp_path, capsys):
        from repro.cli import main
        from repro.datasets import SyntheticConfig, mobike_like_dataset, save_mobike_csv

        ds = mobike_like_dataset(
            seed=1, days=2,
            config=SyntheticConfig(trips_per_weekday=80, trips_per_weekend_day=60),
        )
        path = tmp_path / "trips.csv"
        save_mobike_csv(ds, path)
        assert main(["stats", "--mobike", str(path)]) == 0
        out = capsys.readouterr().out
        assert str(path) in out
        assert "trips:" in out
