import argparse
import concurrent.futures
import csv
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import liqlab.cli
import liqlab.sim
from liqlab.cli import build_parser, main
from liqlab.errors import InvalidScenarioError, NestingTooDeepError

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

    def test_closed_form_past_the_dec_range_is_clamped(self, capsys):
        rc = main([
            "strategy", "--c", "1" + "0" * 45, "--d", "1" + "0" * 46,
            "--lt", "0.999999999999999999", "--ls", "0", "--cf", "0.5",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "clamped,true\n" in out
        # LS 0: the second call earns nothing, so no mitigation threshold
        assert "alpha_threshold" not in out

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

    @pytest.mark.parametrize("value, reason", [
        ("abc", "not a decimal string: 'abc'"),
        ("9" * 80, "fixed-point magnitude exceeds 2**255: integer part of 80 digits"),
    ], ids=["not-a-decimal", "past-2-255"])
    def test_a_threshold_that_is_no_dec_is_an_invalid_verdict(self, capsys, value, reason):
        assert main(["validate-params", "--lt", f"ETH={value}", "--ls", "0.1"]) == 1
        assert capsys.readouterr() == ("", f"invalid: {reason}\n")

    @pytest.mark.parametrize("lts", [
        ["ETH=0.9", "ETH=0.5"],
        ["ETH=0.5", "ETH=0.9"],
        ["0.5", "asset0=0.5"],
    ], ids=["invalid-first", "valid-first", "bare-value-name"])
    def test_a_repeated_symbol_is_an_invalid_verdict_in_either_order(self, capsys, lts):
        # 0.9*(1+0.2) = 1.08 is invalid and 0.5*(1+0.2) valid; neither wins
        argv = ["validate-params", "--ls", "0.2"]
        for lt in lts:
            argv += ["--lt", lt]
        assert main(argv) == 1
        symbol = lts[1].partition("=")[0]
        assert capsys.readouterr() == ("", f"invalid: duplicate threshold for asset {symbol}\n")


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

    def test_scenarios_with_one_stem_are_refused_before_any_runs(
        self, tmp_path, monkeypatch, capsys
    ):
        first, second = tmp_path / "a" / "x.json", tmp_path / "b" / "x.json"
        for path, name in ((first, "two_step.json"), (second, "auction.json")):
            path.parent.mkdir()
            path.write_text((FIXTURES / name).read_text())
        runs = []
        monkeypatch.setattr(liqlab.cli, "_run_one_scenario", lambda *args: runs.append(args))
        out_dir = tmp_path / "out"
        argv = ["simulate", "--scenario", str(first), "--scenario", str(second),
                "--out-dir", str(out_dir)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"{first} and {second} would both write x.csv" in err
        assert runs == [] and not out_dir.exists()

    @pytest.mark.parametrize("count", [1, 2])
    def test_out_and_out_dir_together_are_refused_before_any_runs(
        self, tmp_path, monkeypatch, capsys, count
    ):
        runs = []
        monkeypatch.setattr(liqlab.cli, "_run_one_scenario", lambda *args: runs.append(args))
        out, out_dir = tmp_path / "log.csv", tmp_path / "out"
        scenarios = [ETH_DROP, str(FIXTURES / "two_step.json")][:count]
        argv = ["simulate", "--out", str(out), "--out-dir", str(out_dir)]
        for scenario in scenarios:
            argv += ["--scenario", scenario]
        assert main(argv) == 1
        assert "--out and --out-dir cannot be used together" in capsys.readouterr().err
        assert runs == [] and not out.exists() and not out_dir.exists()

    def test_scenario_path_starting_with_a_brace_is_a_file(
        self, tmp_path, monkeypatch, capsys
    ):
        two_step = str(FIXTURES / "two_step.json")
        assert main(["simulate", "--scenario", two_step]) == 0
        expected = capsys.readouterr().out
        (tmp_path / "{two_step}.json").write_text(Path(two_step).read_text())
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--scenario", "{two_step}.json"]) == 0
        assert capsys.readouterr().out == expected

    def test_missing_file_is_io_error(self, capsys):
        assert main(["simulate", "--scenario", "/nonexistent.json"]) == 2

    def test_malformed_json_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--scenario", str(bad)]) == 2

    def test_a_document_that_is_not_an_object_is_refused(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[]")
        message = "invalid scenario: <root>: scenario document must be a JSON object"
        with pytest.raises(InvalidScenarioError) as info:
            liqlab.sim.load_scenario(bad)
        assert str(info.value) == message
        assert main(["simulate", "--scenario", str(bad)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

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

    @pytest.mark.parametrize("decimals", ["removed", 6, 19, -1, "x", 1.5, None, []])
    def test_asset_decimals_key_is_ignored(self, tmp_path, decimals):
        # an asset is its symbol: whatever an asset's decimals key holds, or
        # without one, the document loads to the same scenario and log
        doc = json.loads(Path(ETH_DROP).read_text())
        for entry in doc["assets"]:
            if decimals == "removed":
                entry.pop("decimals", None)
            else:
                entry["decimals"] = decimals
        scenario = tmp_path / "decimals.json"
        scenario.write_text(json.dumps(doc))
        assert liqlab.sim.load_scenario(scenario) == liqlab.sim.load_scenario(ETH_DROP)
        outputs = tmp_path / "decimals.csv", tmp_path / "fixture.csv"
        for source, out in zip((str(scenario), ETH_DROP), outputs):
            assert main(["simulate", "--scenario", source, "--out", str(out)]) == 0
        assert outputs[0].read_bytes() == outputs[1].read_bytes()


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

    def test_running_out_of_memory_is_a_one_line_error(self, monkeypatch, capsys):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(liqlab.cli, "sensitivity_curve", exhausted)
        argv = ["sensitivity", "--scenario", ETH_DROP, "--asset", "ETH", "--steps", "100000000"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: out of memory\n")


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
        assert capsys.readouterr().out == (
            "field,value\n"
            "terminated,auction-length\n"
            "ended_in,dent\n"
            "winner,bob\n"
            "paid_usd,100\n"
            "collateral_value_usd,95\n"
            "borrower_refund_usd,15\n"
            "winner_profit_usd,-5\n"
        )

    def test_tend_ending_by_bid_duration(self, tmp_path, capsys):
        script = tmp_path / "tend.json"
        script.write_text(json.dumps([
            {"time": 0, "bidder": "alice", "amount": "40"},
            {"time": 1800, "bidder": "bob", "amount": "80"},
        ]))
        # the last bid at 1800 ends the auction at 5400, before its length
        rc = main(
            [
                "auction-replay",
                "--c", "110", "--d", "100",
                "--auction-length", "21600",
                "--bid-duration", "3600",
                "--script", str(script),
                "--finalize-time", "5400",
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out == (
            "field,value\n"
            "terminated,bid-duration\n"
            "ended_in,tend\n"
            "winner,bob\n"
            "paid_usd,80\n"
            "collateral_value_usd,110\n"
            "borrower_refund_usd,0\n"
            "winner_profit_usd,30\n"
        )

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
            # an amount of None is left out of the entry
            ({"time": 3, "bidder": "a", "amount": None},
             "amount cannot construct Dec from NoneType"),
            ({"time": 3, "bidder": "a", "amount": 1.5},
             "amount decimals must be strings, not floats"),
            ({"time": 3, "bidder": "a", "borrower": 5},
             "borrower missing or not a non-empty string"),
        ],
    )
    def test_bid_script_entries_follow_the_scenario_rules(
        self, tmp_path, capsys, entry, message
    ):
        if isinstance(entry, dict):
            entry = {"amount": "40", **entry}
            if entry["amount"] is None:
                del entry["amount"]
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

    def test_an_oversized_bid_amount_names_its_entry(self, tmp_path, capsys):
        script = tmp_path / "bids.json"
        script.write_text(json.dumps([
            {"time": 1, "bidder": "a", "amount": "40"},
            {"time": 2, "bidder": "b", "amount": "1" + "0" * 80},
        ]))
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
        assert capsys.readouterr().err == (
            "error: script[1]: amount fixed-point magnitude exceeds 2**255: "
            "integer part of 81 digits\n"
        )


    def test_a_bid_amount_of_zero_is_refused(self, tmp_path, capsys):
        script = tmp_path / "bids.json"
        script.write_text(json.dumps([{"time": 1, "bidder": "a", "amount": "0"}]))
        assert main([*_REPLAY, str(script)]) == 1
        assert capsys.readouterr() == ("", "error: script[0]: bid amount must be > 0: 0\n")

    def test_a_string_borrower_leaves_the_output_unchanged(self, tmp_path, capsys):
        argv = [
            "auction-replay", "--c", "110", "--d", "100",
            "--auction-length", "21600", "--bid-duration", "18000", "--script",
        ]
        assert main([*argv, str(FIXTURES / "dent_bids.json")]) == 0
        expected = capsys.readouterr()
        entries = json.loads((FIXTURES / "dent_bids.json").read_text())
        script = tmp_path / "bids.json"
        script.write_text(json.dumps([{**entry, "borrower": "vault-1"} for entry in entries]))
        assert main([*argv, str(script)]) == 0
        assert capsys.readouterr() == expected

    def test_a_negative_final_lot_value_is_refused(self, capsys):
        argv = [
            "auction-replay",
            "--c", "110", "--d", "100",
            "--auction-length", "21600",
            "--bid-duration", "18000",
            "--script", str(FIXTURES / "dent_bids.json"),
            "--final-c", "-1",
        ]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: position values must be non-negative\n")


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

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_stamp_line_comes_first(self, capsys, fmt):
        argv = [
            "classify-path",
            "--input", str(FIXTURES / "path_fall_rise.csv"),
            "--liquidation-price", "100",
            *fmt,
        ]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--stamp"]) == 0
        stamp, rest = capsys.readouterr().out.split("\n", 1)
        assert stamp.startswith("# generated ")
        assert rest == plain

    def test_blank_lines_are_skipped(self, tmp_path, capsys):
        path = tmp_path / "prices.csv"
        path.write_text("\n120\n\n  \n80\n\t\n110\n")
        assert main(["classify-path", "--input", str(path), "--liquidation-price", "100"]) == 0
        assert capsys.readouterr() == ("rise-fluctuation\n", "")

    def test_bad_line_reports_position(self, tmp_path, capsys):
        path = tmp_path / "prices.csv"
        path.write_text("100\nnot-a-price\n")
        rc = main(["classify-path", "--input", str(path), "--liquidation-price", "100"])
        assert rc == 1
        assert ":2:" in capsys.readouterr().err

    @pytest.mark.parametrize("line, problem", [
        ("1" + "0" * 80, "integer part of 81 digits"),
        # few enough digits to convert, but past 2**255 once scaled
        ("6" + "0" * 58, "6" + "0" * 76),
    ], ids=["too-many-digits", "past-the-bound"])
    def test_an_oversized_line_names_its_position(self, tmp_path, capsys, line, problem):
        path = tmp_path / "prices.csv"
        path.write_text(f"100\n{line}\n")
        rc = main(["classify-path", "--input", str(path), "--liquidation-price", "100"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {path}:2: fixed-point magnitude exceeds 2**255: {problem}\n"
        )


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

    @pytest.mark.parametrize("block", ["1", "-1"])
    def test_a_block_outside_the_horizon_is_an_error(self, scenario, capsys, block):
        rc = main(["bad-debt-scan", "--scenario", scenario, "--fee", "100", "--block", block])
        assert rc == 1
        assert capsys.readouterr().err == f"error: scenario has no block {block}\n"

    @pytest.mark.parametrize("owes", [True, False], ids=["book-with-debt", "book-without-debt"])
    def test_a_negative_fee_is_an_error_on_any_book(self, scenario, capsys, owes):
        if not owes:
            doc = json.loads(Path(scenario).read_text())
            for position in doc["positions"]:
                position.pop("debt", None)
            Path(scenario).write_text(json.dumps(doc))
        rc = main(["bad-debt-scan", "--scenario", scenario, "--fee", "-1"])
        assert rc == 1
        assert capsys.readouterr() == ("", "error: fee must be >= 0: -1\n")
        # the block is checked first, as before
        rc = main(["bad-debt-scan", "--scenario", scenario, "--fee", "-1", "--block", "1"])
        assert rc == 1
        assert capsys.readouterr().err == "error: scenario has no block 1\n"

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


_REPLAY = ["auction-replay", "--c", "110", "--d", "100", "--auction-length", "100",
           "--bid-duration", "50", "--script"]

# every failure a command handler raises for main to report: its argv and
# its whole stderr, where {tmp} stands for the test's temporary directory
HANDLER_FAILURES = {
    "simulate-out-with-out-dir": (
        ["simulate", "--scenario", ETH_DROP, "--out", "{tmp}/log.csv", "--out-dir", "{tmp}/out"],
        "error: --out and --out-dir cannot be used together\n",
    ),
    "simulate-several-without-out-dir": (
        ["simulate", "--scenario", ETH_DROP, "--scenario", str(FIXTURES / "two_step.json")],
        "error: multiple scenarios require --out-dir\n",
    ),
    "simulate-one-stem": (
        ["simulate", "--scenario", "{tmp}/a/x.json", "--scenario", "{tmp}/b/x.json",
         "--out-dir", "{tmp}/out"],
        "error: scenarios {tmp}/a/x.json and {tmp}/b/x.json would both write x.csv\n",
    ),
    "sensitivity-unknown-asset": (
        ["sensitivity", "--scenario", ETH_DROP, "--asset", "NOPE"],
        "error: unknown asset 'NOPE'\n",
    ),
    "sensitivity-no-block": (
        ["sensitivity", "--scenario", ETH_DROP, "--asset", "ETH", "--block", "9"],
        "error: scenario has no block 9\n",
    ),
    "bad-debt-scan-no-block": (
        ["bad-debt-scan", "--scenario", ETH_DROP, "--fee", "0", "--block", "9"],
        "error: scenario has no block 9\n",
    ),
    "bad-debt-scan-negative-fee": (
        ["bad-debt-scan", "--scenario", ETH_DROP, "--fee", "-1"],
        "error: fee must be >= 0: -1\n",
    ),
    "classify-path-bad-line": (
        ["classify-path", "--input", "{tmp}/prices.csv", "--liquidation-price", "100"],
        "error: {tmp}/prices.csv:2: not a decimal string: 'x'\n",
    ),
    "auction-replay-not-an-array": (
        [*_REPLAY, "{tmp}/object.json"],
        "error: bid script must be a JSON array\n",
    ),
    "auction-replay-bad-time": (
        [*_REPLAY, "{tmp}/bad-time.json"],
        "error: script[0]: time must be an integer: 1.9\n",
    ),
    "auction-replay-bad-amount": (
        [*_REPLAY, "{tmp}/bad-amount.json"],
        "error: script[0]: amount not a decimal string: 'x'\n",
    ),
    "strategy-negative-values": (
        ["strategy", "--c", "-1000", "--d", "-100", "--lt", "0.75", "--ls", "0.08",
         "--cf", "0.5"],
        "error: position values must be non-negative: c=-1000, d=-100\n",
    ),
    # the auction opens before the script is read, so before any bid
    "auction-replay-negative-tab": (
        ["auction-replay", "--c", "110", "--d", "-100", *_REPLAY[5:], "{tmp}/bad-amount.json"],
        "error: position values must be non-negative\n",
    ),
    "auction-replay-negative-lot": (
        ["auction-replay", "--c", "-5", "--d", "100", *_REPLAY[5:], "{tmp}/bad-amount.json"],
        "error: position values must be non-negative\n",
    ),
    "auction-replay-no-tab": (
        ["auction-replay", "--c", "110", "--d", "0", *_REPLAY[5:], "{tmp}/bad-amount.json"],
        "error: cannot auction a healthy position (bc=0, d=0)\n",
    ),
}


@pytest.mark.parametrize("argv, expected", HANDLER_FAILURES.values(), ids=HANDLER_FAILURES)
def test_a_handler_failure_is_one_error_line(tmp_path, monkeypatch, capsys, argv, expected):
    for sub, name in (("a", "two_step.json"), ("b", "auction.json")):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "x.json").write_text((FIXTURES / name).read_text())
    (tmp_path / "prices.csv").write_text("100\nx\n")
    (tmp_path / "object.json").write_text("{}")
    (tmp_path / "bad-time.json").write_text('[{"time": 1.9, "bidder": "a", "amount": "40"}]')
    (tmp_path / "bad-amount.json").write_text('[{"time": 1, "bidder": "a", "amount": "x"}]')
    runs = []
    monkeypatch.setattr(liqlab.cli, "_run_one_scenario", lambda *args: runs.append(args))
    tmp = str(tmp_path)
    assert main([arg.replace("{tmp}", tmp) for arg in argv]) == 1
    assert capsys.readouterr() == ("", expected.replace("{tmp}", tmp))
    # refused before any scenario runs or any output exists
    assert runs == []
    assert not (tmp_path / "out").exists() and not (tmp_path / "log.csv").exists()


# every command that writes output, with the arguments of one successful run
OUTPUT_SITES = {
    "strategy": TestStrategyCommand.ARGS,
    "sensitivity": ["sensitivity", "--scenario", ETH_DROP, "--asset", "ETH", "--steps", "4"],
    "bad-debt-scan": ["bad-debt-scan", "--scenario", ETH_DROP, "--fee", "10"],
    "classify-path": [
        "classify-path",
        "--input", str(FIXTURES / "path_fall_rise.csv"),
        "--liquidation-price", "100",
    ],
    "auction-replay": [
        "auction-replay",
        "--c", "110", "--d", "100",
        "--auction-length", "21600",
        "--bid-duration", "18000",
        "--script", str(FIXTURES / "dent_bids.json"),
    ],
    "simulate": ["simulate", "--scenario", ETH_DROP],
}
STAMP_LINE = re.compile(r"# generated \d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(\.\d{6})?\+00:00\n")


def _unstamped(text):
    """``text`` without its first line, which must be a stamp line."""
    stamp, rest = text.split("\n", 1)
    assert STAMP_LINE.fullmatch(stamp + "\n"), stamp
    return rest


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["csv", "json"])
@pytest.mark.parametrize("argv", OUTPUT_SITES.values(), ids=OUTPUT_SITES)
def test_every_output_is_written_by_one_rule(tmp_path, capsys, argv, fmt):
    """``--out FILE`` writes the bytes stdout gets, and ``--stamp`` puts one
    timestamp line first and changes nothing else, on stdout and in FILE."""
    argv = [*argv, *fmt]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert plain and not plain.startswith("#")
    out = tmp_path / "out.txt"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_bytes() == plain.encode("utf-8")
    assert main([*argv, "--stamp"]) == 0
    assert _unstamped(capsys.readouterr().out) == plain
    assert main([*argv, "--stamp", "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert _unstamped(out.read_text(encoding="utf-8")) == plain


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["csv", "json"])
def test_every_out_dir_file_gets_its_own_stamp_line(tmp_path, capsys, fmt):
    scenarios = [ETH_DROP, str(FIXTURES / "two_step.json")]
    expected = {}
    for path in scenarios:
        assert main(["simulate", "--scenario", path, *fmt]) == 0
        expected[Path(path).stem + (".jsonl" if fmt else ".csv")] = capsys.readouterr().out
    argv = ["simulate", *fmt]
    for path in scenarios:
        argv += ["--scenario", path]
    for stamp, out_dir in (([], tmp_path / "plain"), (["--stamp"], tmp_path / "stamped")):
        assert main([*argv, "--out-dir", str(out_dir), *stamp]) == 0
        assert capsys.readouterr() == ("", "")
        written = {p.name: p.read_text(encoding="utf-8") for p in out_dir.iterdir()}
        if stamp:
            written = {name: _unstamped(text) for name, text in written.items()}
        assert written == expected


# -- CSV quoting -----------------------------------------------------------------

# identifiers that a plain comma join would misstate
AWKWARD_IDS = {"comma": "x,y", "quote": 'x"y', "lf": "x\ny", "cr": "x\ry", "all": 'x,"y"\r\n'}
# where an identifier shows up in an output: the command and its column
QUOTING_SITES = {
    "simulate-owner": ("simulate", "borrower"),
    "simulate-agent": ("simulate", "liquidator"),
    "bad-debt-scan-owner": ("bad-debt-scan", "position_id"),
    "auction-replay-bidder": ("auction-replay", "winner"),
}


def _awkward_argv(tmp_path, site, ident):
    """A successful run of the site's command whose output holds ``ident``."""
    command, _ = QUOTING_SITES[site]
    if command == "auction-replay":
        script = json.loads((FIXTURES / "dent_bids.json").read_text())
        for bid in script:
            if bid["bidder"] == "bob":  # the winner
                bid["bidder"] = ident
        path = tmp_path / "bids.json"
        path.write_text(json.dumps(script))
        return [*OUTPUT_SITES[command][:-1], str(path)]
    doc = json.loads(Path(ETH_DROP).read_text())
    if site == "simulate-agent":
        doc["agents"][0]["id"] = ident
    else:
        doc["positions"][0]["owner"] = ident
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return [str(path) if arg == ETH_DROP else arg for arg in OUTPUT_SITES[command]]


@pytest.mark.parametrize("ident", AWKWARD_IDS.values(), ids=AWKWARD_IDS)
@pytest.mark.parametrize("site", QUOTING_SITES)
def test_csv_rows_read_back_whole_with_awkward_identifiers(tmp_path, capsys, site, ident):
    command, column = QUOTING_SITES[site]
    argv = _awkward_argv(tmp_path, site, ident)
    assert main(argv) == 0
    header, *rows = csv.reader(io.StringIO(capsys.readouterr().out, newline=""))
    assert rows and all(len(row) == len(header) for row in rows)
    assert main([*argv, "--json"]) == 0
    text = capsys.readouterr().out
    if command == "auction-replay":  # field,value rows, or one JSON object
        from_csv = [dict(rows)]
        from_json = [json.loads(text)]
    else:
        from_csv = [dict(zip(header, row)) for row in rows]
        records = map(json.loads, text.splitlines()) if command == "simulate" else json.loads(text)
        from_json = [{key: str(value) for key, value in record.items()} for record in records]
    assert from_json[0][column] == ident
    assert from_csv == from_json


def _csv_writer_text(table):
    """``table`` as ``csv.writer`` writes it under its default ``\\r\\n``
    line ending, which quotes a field that holds CR or LF, each line then
    ended by ``\\n``."""
    text = ""
    for row in table:
        out = io.StringIO()
        csv.writer(out).writerow(row)
        text += out.getvalue().removesuffix("\r\n") + "\n"
    return text


_CSV_FIELDS = st.text(alphabet='ab ,"\r\né', min_size=1, max_size=4)


@settings(max_examples=500, deadline=None)
@given(width=st.integers(1, 4), data=st.data())
def test_csv_encodes_as_the_csv_module_writes_and_reads(width, data):
    row = st.lists(_CSV_FIELDS, min_size=width, max_size=width)
    table = [data.draw(row), *data.draw(st.lists(row, max_size=5))]
    text = liqlab.sim._csv(table[0], iter(table[1:]))
    assert text == _csv_writer_text(table)
    assert list(csv.reader(io.StringIO(text, newline=""))) == table


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


# 100,000 nested arrays, or objects inside a scenario, are past any recursion
# limit of the JSON decoder
DEEP_ARRAY = "[" * 100_000
DEEP_OBJECT = '{"assets": ' + '{"a": ' * 100_000


@pytest.mark.parametrize(
    "command, text",
    [
        (["simulate", "--scenario"], DEEP_ARRAY),
        (["bad-debt-scan", "--fee", "0", "--scenario"], DEEP_OBJECT),
        (["auction-replay", "--c", "110", "--d", "100", "--auction-length", "5",
          "--bid-duration", "3", "--script"], DEEP_ARRAY),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else None,
)
def test_deeply_nested_json_is_unreadable_input(tmp_path, capsys, command, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert main([*command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: unreadable input: {path}: JSON nested too deeply to decode\n"
    assert "Traceback" not in err


# every command that reads a JSON file, with that file's flag last
JSON_COMMANDS = [
    ["simulate", "--scenario"],
    ["sensitivity", "--asset", "ETH", "--scenario"],
    ["bad-debt-scan", "--fee", "0", "--scenario"],
    ["auction-replay", "--c", "110", "--d", "100", "--auction-length", "5",
     "--bid-duration", "3", "--script"],
]


@pytest.mark.parametrize(
    "command",
    [*JSON_COMMANDS, ["classify-path", "--liquidation-price", "100", "--input"]],
    ids=lambda command: command[0],
)
def test_a_file_that_is_not_utf8_is_unreadable_input(tmp_path, capsys, command):
    # a UTF-16 byte-order mark: \xff starts no UTF-8 character
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe[\x00]\x00")
    assert main([*command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: unreadable input: 'utf-8' codec can't decode byte 0xff in position 0: "
        f"invalid start byte in {path}\n"
    )


@pytest.mark.parametrize("command", JSON_COMMANDS, ids=lambda command: command[0])
def test_malformed_json_names_its_file(tmp_path, capsys, command):
    path = tmp_path / "truncated.json"
    path.write_text('{"a": ')
    assert main([*command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: unreadable input: {path}: Expecting value: line 1 column 7 (char 6)\n"
    )


def test_deeply_nested_scenario_file_raises_a_named_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_ARRAY)
    with pytest.raises(NestingTooDeepError, match="nested too deeply"):
        liqlab.sim.load_scenario(path)


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

    @pytest.mark.parametrize("as_json", [[], ["--json"]])
    def test_debug_logs_phase_timings_and_leaves_output_unchanged(
        self, tmp_path, capsys, monkeypatch, as_json
    ):
        monkeypatch.delenv("LIQLAB_LOG", raising=False)
        plain = tmp_path / "plain.log"
        assert main(["simulate", "--scenario", ETH_DROP, "--out", str(plain), *as_json]) == 0
        assert capsys.readouterr().err == ""

        monkeypatch.setenv("LIQLAB_LOG", "debug")
        debug = tmp_path / "debug.log"
        assert main(["simulate", "--scenario", ETH_DROP, "--out", str(debug), *as_json]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert debug.read_bytes() == plain.read_bytes()
        (line,) = [line for line in captured.err.splitlines() if line.startswith("DEBUG")]
        assert ETH_DROP in line
        phases = dict(field.split("=") for field in line.split() if "=" in field)
        assert list(phases) == ["load_s", "run_s", "serialize_s"]
        assert all(float(seconds) >= 0 for seconds in phases.values())

    def test_phase_timings_are_off_at_info(self, capsys, monkeypatch):
        monkeypatch.setenv("LIQLAB_LOG", "info")
        assert main(["simulate", "--scenario", ETH_DROP]) == 0
        assert "load_s=" not in capsys.readouterr().err


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


@pytest.mark.parametrize("argv, code", [
    (TestStrategyCommand.ARGS, 0),
    (["sensitivity", "--scenario", ETH_DROP, "--asset", "NOPE"], 1),
], ids=["strategy", "unknown-asset"])
def test_run_exits_with_mains_code(monkeypatch, capsys, argv, code):
    monkeypatch.setattr("sys.argv", ["liqlab", *argv])
    with pytest.raises(SystemExit) as exit_:
        liqlab.cli.run()
    assert exit_.value.code == code


class TestRepeatedMainCalls:
    """One parser serves every ``main`` call of a process; no call may leak
    state into the next."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_appended_scenarios_start_empty_each_call(self, tmp_path, capsys):
        two_step = str(FIXTURES / "two_step.json")
        argv = ["simulate", "--scenario", ETH_DROP, "--scenario", two_step]
        assert main([*argv, "--out-dir", str(tmp_path)]) == 0
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "eth_price_drop.csv", "two_step.csv",
        ]
        capsys.readouterr()
        # one --scenario and no --out-dir: fine only if the list was not carried over
        assert main(["simulate", "--scenario", ETH_DROP]) == 0
        out, err = capsys.readouterr()
        assert out == (tmp_path / "eth_price_drop.csv").read_text()
        assert err == ""

    def test_flag_error_then_valid_call(self, capsys):
        assert main(["strategy", "--c", "x", *TestStrategyCommand.ARGS[3:]]) == 1
        assert "argument --c" in capsys.readouterr().err
        assert main(TestStrategyCommand.ARGS) == 0
        out, err = capsys.readouterr()
        assert "repay1,32.8947" in out and err == ""
        assert main(["simulate", "--jobs", "0", "--scenario", ETH_DROP]) == 1
        capsys.readouterr()
        assert main(["simulate", "--scenario", ETH_DROP, "--json"]) == 0
        assert capsys.readouterr().out.startswith('{"block":1,')

    def test_help_then_valid_call_and_help_again(self, capsys):
        assert main(["--help"]) == 0
        first = capsys.readouterr().out
        assert main(["simulate", "--help"]) == 0
        assert "--scenario" in capsys.readouterr().out
        assert main(["simulate", "--scenario", ETH_DROP]) == 0
        assert "fixed-spread,4200,4620" in capsys.readouterr().out
        assert main(["--help"]) == 0
        assert capsys.readouterr().out == first


# -- argv fuzz -------------------------------------------------------------------

# every input a command can read: the fixtures, a directory and a missing file
_INPUTS = [*map(str, sorted(FIXTURES.iterdir())), str(FIXTURES), "/nonexistent.json"]


def _mostly(valid, invalid):
    """A value of ``valid`` nine times in ten, else one of ``invalid``."""
    return st.integers(0, 9).flatmap(lambda k: st.sampled_from(invalid if k == 0 else valid))


_DECIMALS = _mostly(
    ["0", "1", "0.5", "0.08", "0.75", "100", "125", "-1"], ["1e3", "x", "5" + "0" * 80]
)
# small on purpose: sensitivity builds steps + 1 points
_INTS = _mostly([str(k) for k in range(-3, 31)], ["x", "1.5"])
# the value drawn for each flag; a flag of the parser with no entry here fails
# the test, so a new flag is fuzzed from the start
_FLAG_VALUES = {
    **dict.fromkeys(["--scenario", "--script", "--input"], st.sampled_from(_INPUTS)),
    **dict.fromkeys(
        ["--c", "--d", "--lt", "--ls", "--cf", "--fee", "--min-increment", "--final-c",
         "--liquidation-price"],
        _DECIMALS,
    ),
    **dict.fromkeys(
        ["--steps", "--block", "--start", "--auction-length", "--bid-duration",
         "--finalize-time", "--jobs"],
        _INTS,
    ),
    "--asset": st.sampled_from(["ETH", "GEM", "COL", "BTC"]),
    # written only under the test's directory: a missing subdirectory is an
    # I/O error
    "--out": st.sampled_from(["out.txt", "missing/out.txt"]),
    "--out-dir": st.sampled_from(["logs", "out.txt"]),
}
_NO_VALUE = {"-h", "--help", "--json", "--stamp"}


def _subcommands():
    """Each subcommand of the real parser, with its option strings."""
    (commands,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return {
        name: sorted(flag for action in sub._actions for flag in action.option_strings)
        for name, sub in commands.choices.items()
    }


@st.composite
def _argv(draw, out_dir):
    commands = _subcommands()
    command = draw(st.sampled_from([*sorted(commands), "bogus"]))
    # most of the command's own flags, so that most calls reach the command,
    # and now and then one of any command's, help included
    own = [flag for flag in commands.get(command, ()) if flag not in ("-h", "--help")]
    flags = [flag for flag in draw(st.permutations(own)) if draw(st.integers(0, 19))]
    every = sorted(set().union(*commands.values()))
    if not draw(st.integers(0, 4)):
        flags.append(draw(st.sampled_from(every)))
    argv = [command]
    for flag in flags:
        argv.append(flag)
        if flag not in _NO_VALUE:
            value = draw(_FLAG_VALUES[flag])
            argv.append(str(out_dir / value) if flag in ("--out", "--out-dir") else value)
    # a stray token never starts with "-", so it cannot abbreviate --out
    if not draw(st.integers(0, 9)):
        argv.append(draw(st.text(max_size=6).filter(lambda token: not token.startswith("-"))))
    return argv


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("argv")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_any_argv_exits_0_1_or_2(argv_dir, data):
    argv = data.draw(_argv(argv_dir))
    assert main(argv) in (0, 1, 2)
