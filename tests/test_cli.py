import concurrent.futures
import json
from pathlib import Path

import pytest

import liqlab.sim
from liqlab.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
ETH_DROP = str(FIXTURES / "eth_price_drop.json")
BIDDER = {"id": "keeper", "policy": "auction-bidder"}


class TestStrategyCommand:
    ARGS = ["strategy", "--c", "125", "--d", "100", "--lt", "0.75", "--ls", "0.08", "--cf", "0.5"]

    def test_prints_plan_profits_and_mitigation(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert out.startswith("field,value\n")
        assert "repay1,32.8947" in out
        assert "repay2,33.5526" in out
        assert "delta_r,0.328947" in out
        assert "alpha_threshold,0.5098" in out

    def test_json_variant(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["clamped"] == "false"
        assert doc["profit_close_factor"] == "4"

    def test_invalid_params_exit_one(self, capsys):
        rc = main(["strategy", "--c", "103", "--d", "100", "--lt", "0.95", "--ls", "0.1", "--cf", "0.5"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_out_of_range_decimal_is_validation_error(self, capsys):
        assert main(["strategy", "--c", "9" * 80] + self.ARGS[3:]) == 1
        err = capsys.readouterr().err
        assert "--c" in err and "Traceback" not in err


class TestValidateParamsCommand:
    def test_violation_names_the_product(self, capsys):
        rc = main(["validate-params", "--lt", "0.95", "--ls", "0.10"])
        assert rc == 1
        assert "1.045" in capsys.readouterr().err

    def test_valid_params_exit_zero(self, capsys):
        rc = main(["validate-params", "--lt", "ETH=0.8", "--ls", "0.1", "--cf", "0.5"])
        assert rc == 0
        assert "valid" in capsys.readouterr().out

    def test_out_of_range_threshold_rejected(self, capsys):
        assert main(["validate-params", "--lt", "1.2", "--ls", "0.1"]) == 1


class TestSimulateCommand:
    def test_writes_golden_event_log(self, tmp_path, capsys):
        out = tmp_path / "log.csv"
        rc = main(["simulate", "--scenario", ETH_DROP, "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.splitlines()[0].startswith("block,borrower,liquidator")
        assert "1,borrower-1,liquidator-1,fixed-spread,4200,4620,420,0,420" in text

    def test_stdout_by_default_and_byte_identical_reruns(self, capsys):
        assert main(["simulate", "--scenario", ETH_DROP]) == 0
        first = capsys.readouterr().out
        assert main(["simulate", "--scenario", ETH_DROP]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_scenario_is_validated_once(self, monkeypatch, capsys):
        calls = []
        real = liqlab.sim.validate_scenario

        def counting(scenario):
            calls.append(scenario)
            return real(scenario)

        monkeypatch.setattr(liqlab.sim, "validate_scenario", counting)
        assert main(["simulate", "--scenario", ETH_DROP]) == 0
        assert len(calls) == 1

    def test_jsonl_output(self, capsys):
        assert main(["simulate", "--scenario", ETH_DROP, "--json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        record = json.loads(lines[0])
        assert record["gross_profit_usd"] == "420"
        assert record["block"] == 1

    def test_multi_scenario_jobs_write_per_scenario_files(self, tmp_path):
        out_dir = tmp_path / "logs"
        rc = main(
            [
                "simulate",
                "--scenario", ETH_DROP,
                "--scenario", str(FIXTURES / "two_step.json"),
                "--scenario", str(FIXTURES / "auction.json"),
                "--out-dir", str(out_dir),
                "--jobs", "3",
            ]
        )
        assert rc == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["auction.csv", "eth_price_drop.csv", "two_step.csv"]

    @pytest.mark.parametrize("jobs", ["0", "-3", "two"])
    def test_jobs_below_one_is_a_flag_error(self, tmp_path, capsys, jobs):
        out_dir = tmp_path / "logs"
        argv = ["simulate", "--scenario", ETH_DROP, "--out-dir", str(out_dir), "--jobs", jobs]
        assert main(argv) == 1
        assert "argument --jobs: " in capsys.readouterr().err
        assert not out_dir.exists()

    def test_jobs_pool_is_capped_at_the_scenario_count(self, tmp_path, monkeypatch):
        workers = []
        real = concurrent.futures.ThreadPoolExecutor

        def recording(max_workers):
            workers.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording)
        argv = ["simulate", "--scenario", ETH_DROP, "--scenario", str(FIXTURES / "two_step.json"),
                "--out-dir", str(tmp_path), "--jobs", "8"]
        assert main(argv) == 0
        assert workers == [2]

    def test_multiple_scenarios_require_out_dir(self, capsys):
        rc = main(["simulate", "--scenario", ETH_DROP, "--scenario", ETH_DROP])
        assert rc == 1

    def test_missing_file_is_io_error(self, capsys):
        assert main(["simulate", "--scenario", "/nonexistent.json"]) == 2

    def test_malformed_json_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--scenario", str(bad)]) == 2

    def test_schema_violation_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"assets": [], "params": {}, "blocks": 0}))
        rc = main(["simulate", "--scenario", str(bad)])
        assert rc == 1
        assert "price_path" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, path, value",
        [
            ("assets[0]", ("assets",), [1]),
            ("positions[0]", ("positions",), ["x"]),
            ("params.lt", ("params", "lt"), []),
            ("auction_config", ("auction_config",), []),
            ("agents[0].script[0]", ("agents",), [{**BIDDER, "script": [1]}]),
            ("agents[0].script", ("agents",), [{**BIDDER, "script": {}}]),
            ("positions[0].owner", ("positions", 0, "owner"), ["x"]),
            ("agents[0].id", ("agents", 0, "id"), ["x"]),
            (
                "agents[0].script[0].borrower",
                ("agents",),
                [{**BIDDER, "script": [{"time": 0, "bidder": "b", "amount": "1", "borrower": []}]}],
            ),
            (
                "auction_config.auction_length",
                ("auction_config",),
                {"auction_length": float("inf")},
            ),
            ("assets[0].decimals", ("assets", 0, "decimals"), float("inf")),
        ],
    )
    def test_malformed_shape_names_the_field(self, tmp_path, capsys, field, path, value):
        doc = json.loads(Path(ETH_DROP).read_text())
        *outer, key = path
        target = doc
        for part in outer:
            target = target[part]
        target[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(bad)]) == 1
        assert f"invalid scenario: {field}: " in capsys.readouterr().err

    def test_refused_scripted_bid_names_the_script(self, tmp_path, capsys):
        doc = json.loads((FIXTURES / "auction.json").read_text())
        doc["agents"][0]["script"][0]["amount"] = "100000"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(bad)]) == 1
        assert "invalid scenario: agents.script: bid at time 0 by 'alice' refused: " in (
            capsys.readouterr().err
        )

    def test_seed_key_is_ignored(self, tmp_path, capsys):
        doc = json.loads(Path(ETH_DROP).read_text())
        doc["seed"] = "x"
        scenario = tmp_path / "seeded.json"
        scenario.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(scenario)]) == 0
        assert main(["simulate", "--scenario", ETH_DROP]) == 0
        first, second = capsys.readouterr().out.split("block,", 2)[1:]
        assert first == second


class TestSensitivityCommand:
    def test_curve_csv(self, capsys):
        rc = main(["sensitivity", "--scenario", ETH_DROP, "--asset", "ETH", "--steps", "4"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "decline_pct,lc_usd"
        assert len(lines) == 6
        assert lines[1] == "0,0"
        # at a 50% ETH decline the single borrower is under water
        assert lines[3] == "0.5,5250"

    def test_curve_json(self, capsys):
        args = ["sensitivity", "--scenario", ETH_DROP, "--asset", "ETH", "--steps", "2"]
        assert main(args + ["--json"]) == 0
        assert capsys.readouterr().out == (
            "[\n"
            '  {\n    "decline_pct": "0",\n    "lc_usd": "0"\n  },\n'
            '  {\n    "decline_pct": "0.5",\n    "lc_usd": "5250"\n  },\n'
            '  {\n    "decline_pct": "1",\n    "lc_usd": "0"\n  }\n'
            "]\n"
        )

    def test_unknown_asset(self, capsys):
        assert main(["sensitivity", "--scenario", ETH_DROP, "--asset", "BTC"]) == 1


class TestAuctionReplayCommand:
    def test_dent_settlement(self, capsys):
        rc = main(
            [
                "auction-replay",
                "--c", "110", "--d", "100",
                "--auction-length", "21600",
                "--bid-duration", "18000",
                "--script", str(FIXTURES / "dent_bids.json"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "terminated,auction-length" in out
        assert "ended_in,dent" in out
        assert "winner,bob" in out
        assert "paid_usd,100" in out
        assert "collateral_value_usd,95" in out
        assert "borrower_refund_usd,15" in out
        assert "winner_profit_usd,-5" in out

    def test_final_lot_value_marks_the_settlement(self, capsys):
        rc = main(
            [
                "auction-replay",
                "--c", "110", "--d", "100",
                "--auction-length", "21600",
                "--bid-duration", "18000",
                "--script", str(FIXTURES / "dent_bids.json"),
                "--final-c", "99",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "collateral_value_usd,85.5" in out
        assert "winner_profit_usd,-14.5" in out

    def test_empty_script_is_no_bids_error(self, tmp_path, capsys):
        script = tmp_path / "empty.json"
        script.write_text("[]")
        rc = main(
            [
                "auction-replay",
                "--c", "110", "--d", "100",
                "--auction-length", "100",
                "--bid-duration", "50",
                "--script", str(script),
            ]
        )
        assert rc == 1
        assert "no bids" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"time": 1.9, "bidder": "a"}, "time must be an integer: 1.9"),
            ({"time": True, "bidder": "a"}, "time must be an integer: True"),
            ({"time": "3", "bidder": "a"}, "time must be an integer: '3'"),
            ({"bidder": "a"}, "time must be an integer: None"),
            ({"time": 3, "bidder": ""}, "bidder missing or not a non-empty string"),
            ({"time": 3, "bidder": 7}, "bidder missing or not a non-empty string"),
            (5, "entry must be an object"),
        ],
    )
    def test_bid_script_entries_follow_the_scenario_rules(
        self, tmp_path, capsys, entry, message
    ):
        if isinstance(entry, dict):
            entry = dict(entry, amount="40")
        script = tmp_path / "bids.json"
        script.write_text(json.dumps([entry]))
        rc = main(
            [
                "auction-replay",
                "--c", "110", "--d", "100",
                "--auction-length", "100",
                "--bid-duration", "50",
                "--script", str(script),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err == f"error: script[0]: {message}\n"


class TestClassifyPathCommand:
    def test_fall_rise_fixture(self, capsys):
        rc = main(
            [
                "classify-path",
                "--input", str(FIXTURES / "path_fall_rise.csv"),
                "--liquidation-price", "100",
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out.strip() == "fall-rise"

    def test_json_output(self, capsys):
        rc = main(
            [
                "classify-path",
                "--input", str(FIXTURES / "path_fall_rise.csv"),
                "--liquidation-price", "100",
                "--json",
            ]
        )
        assert rc == 0
        assert json.loads(capsys.readouterr().out) == {"category": "fall-rise"}

    def test_bad_line_reports_position(self, tmp_path, capsys):
        path = tmp_path / "prices.csv"
        path.write_text("100\nnot-a-price\n")
        rc = main(["classify-path", "--input", str(path), "--liquidation-price", "100"])
        assert rc == 1
        assert ":2:" in capsys.readouterr().err


class TestBadDebtScanCommand:
    @pytest.fixture
    def scenario(self, tmp_path):
        doc = {
            "assets": [{"symbol": "DAI"}],
            "params": {"lt": {"DAI": "0.75"}, "ls": "0.08", "cf": "0.5"},
            "positions": [
                {"owner": "p1", "collateral": {"DAI": "90"}, "debt": {"DAI": "100"}},
                {"owner": "p2", "collateral": {"DAI": "150"}, "debt": {"DAI": "100"}},
                {"owner": "p3", "collateral": {"DAI": "250"}, "debt": {"DAI": "100"}},
                {"owner": "p4", "collateral": {"DAI": "10"}},
            ],
            "price_path": {"0": {"DAI": "1"}},
            "agents": [],
            "blocks": 0,
        }
        path = tmp_path / "scan.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_three_way_classification(self, scenario, capsys):
        rc = main(["bad-debt-scan", "--scenario", scenario, "--fee", "100"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "position_id,class,locked_usd"
        assert lines[1] == "p1,type-i,90"
        assert lines[2] == "p2,type-ii,150"
        assert lines[3] == "p3,not-bad,0"
        assert len(lines) == 4  # the debt-free p4 is not classified

    def test_json_output(self, scenario, capsys):
        rc = main(["bad-debt-scan", "--scenario", scenario, "--fee", "100", "--json"])
        assert rc == 0
        assert capsys.readouterr().out == (
            "[\n"
            '  {\n    "position_id": "p1",\n    "class": "type-i",\n    "locked_usd": "90"\n  },\n'
            '  {\n    "position_id": "p2",\n    "class": "type-ii",\n    "locked_usd": "150"\n  },\n'
            '  {\n    "position_id": "p3",\n    "class": "not-bad",\n    "locked_usd": "0"\n  }\n'
            "]\n"
        )


@pytest.mark.parametrize(
    "command",
    [
        ["simulate"],
        ["sensitivity", "--asset", "ETH"],
        ["bad-debt-scan", "--fee", "0"],
    ],
    ids=lambda command: command[0],
)
def test_collateral_worth_more_than_2_255_is_a_validation_error(tmp_path, capsys, command):
    doc = json.loads(Path(ETH_DROP).read_text())
    doc["positions"][0]["collateral"]["ETH"] = "5" + "0" * 58
    path = tmp_path / "whale.json"
    path.write_text(json.dumps(doc))
    assert main([command[0], "--scenario", str(path), *command[1:]]) == 1
    assert "exceeds 2**255" in capsys.readouterr().err


class TestLogging:
    def test_diagnostics_go_to_stderr_only(self, capsys, monkeypatch):
        monkeypatch.setenv("LIQLAB_LOG", "info")
        assert main(["simulate", "--scenario", ETH_DROP]) == 0
        captured = capsys.readouterr()
        assert "INFO" not in captured.out
        assert "1 events" in captured.err

    def test_silent_by_default(self, capsys, monkeypatch):
        monkeypatch.delenv("LIQLAB_LOG", raising=False)
        assert main(["simulate", "--scenario", ETH_DROP]) == 0
        assert capsys.readouterr().err == ""


class TestParserBehavior:
    def test_unknown_flag_is_validation_error(self, capsys):
        assert main(["strategy", "--unknown", "1"]) == 1

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "simulate" in capsys.readouterr().out

    def test_subcommand_help_documents_flags(self, capsys):
        assert main(["strategy", "--help"]) == 0
        out = capsys.readouterr().out
        for flag in ("--c", "--d", "--lt", "--ls", "--cf", "--json", "--out"):
            assert flag in out
