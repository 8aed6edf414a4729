import json
import os
import pickle
import random
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import example, given, note, settings, strategies as st

import liqlab.sim
from liqlab import (
    AgentPolicy,
    Asset,
    AuctionConfig,
    BadDebtKind,
    Bid,
    Dec,
    Mechanism,
    OracleSnapshot,
    PolicyKind,
    Position,
    RiskParams,
    Scenario,
    PositionValues,
    ScriptedBid,
    classify_bad_debt,
    load_scenario,
    max_repay,
    position_values,
    profit_volume_ratio,
    run_scenario,
    scan_unprofitable,
    strategy_profits,
)
from liqlab.core import value_sums
from liqlab.errors import InvalidScenarioError, ZeroVolumeError
from liqlab.sim import EventLog, StepSeries, cannot_clear_fees, fee_window

from helpers import TOL9, rel_close
from invariants import run_checked
import reference_engine

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

ETH = Asset("ETH")
USDC = Asset("USDC")


def _set_leaf(doc, path, value):
    *outer, key = path
    for part in outer:
        doc = doc[part]
    doc[key] = value


def eth_drop_scenario() -> Scenario:
    return load_scenario(str(FIXTURES / "eth_price_drop.json"))


class TestWorkedExampleScenario:
    def test_single_event_with_420_profit(self):
        log = run_scenario(eth_drop_scenario())
        assert len(log.events) == 1
        event = log.events[0]
        assert event.block == 1
        assert event.mechanism is Mechanism.FIXED_SPREAD
        assert event.repaid_usd == Dec(4200)
        assert event.seized_usd == Dec(4620)
        assert event.gross_profit_usd == Dec(420)
        assert event.fees_usd == Dec(0)
        assert event.net_profit_usd == Dec(420)

    def test_collateral_volume_recorded_pre_action(self):
        log = run_scenario(eth_drop_scenario())
        assert log.collateral_volume_by_block[0] == Dec(10500)
        assert log.collateral_volume_by_block[1] == Dec(9900)

    def test_final_positions(self):
        log = run_scenario(eth_drop_scenario())
        (position,) = log.final_positions
        assert position.collateral[ETH] == Dec("1.6")
        assert position.debt[USDC] == Dec(4200)

    def test_event_conserves_collateral_value(self):
        # the borrower's collateral value drop equals repaid plus profit
        log = run_scenario(eth_drop_scenario())
        (event,) = log.events
        (position,) = log.final_positions
        before = Dec(3) * Dec(3300)
        after = position.collateral[ETH] * Dec(3300)
        assert before - after == event.repaid_usd + event.gross_profit_usd

    def test_zero_agents_means_empty_log(self):
        scenario = replace(eth_drop_scenario(), agents=())
        log = run_scenario(scenario)
        assert log.events == ()
        assert log.final_positions == eth_drop_scenario().positions

    def test_gas_fee_blocks_marginal_liquidations(self):
        scenario = replace(eth_drop_scenario(), gas_fee_usd=Dec(500))
        assert run_scenario(scenario).events == ()
        scenario = replace(eth_drop_scenario(), gas_fee_usd=Dec(100))
        (event,) = run_scenario(scenario).events
        assert event.fees_usd == Dec(100)
        assert event.net_profit_usd == Dec(320)


class TestTwoStepScenario:
    def test_both_calls_land_in_one_block_without_mitigation(self):
        log = run_scenario(load_scenario(str(FIXTURES / "two_step.json")))
        assert [e.block for e in log.events] == [0, 0]
        total = log.events[0].gross_profit_usd + log.events[1].gross_profit_usd
        params = RiskParams(lt={}, ls=Dec("0.08"), cf=Dec("0.5"))
        profits = strategy_profits(Dec(125), Dec(100), Dec("0.75"), params)
        assert rel_close(total, profits.profit_optimal, TOL9)

    def test_mitigation_pushes_second_call_to_next_block(self):
        scenario = replace(
            load_scenario(str(FIXTURES / "two_step.json")), one_liquidation_per_block=True
        )
        log = run_scenario(scenario)
        assert [e.block for e in log.events] == [0, 1]
        per_block_positions = {}
        for event in log.events:
            per_block_positions.setdefault((event.block, event.borrower), 0)
            per_block_positions[(event.block, event.borrower)] += 1
        assert all(count == 1 for count in per_block_positions.values())

    def test_immediate_second_call_keeps_the_first_calls_pair(self):
        # the first call seizes ETH down to 1000 - 635.29 USD, below the 900
        # USD of WBTC, yet the second call still seizes ETH: all of it
        doc = {
            "assets": [
                {"symbol": "ETH"},
                {"symbol": "WBTC", "decimals": 8},
                {"symbol": "USDC", "decimals": 6},
            ],
            "params": {"lt": {"ETH": "0.8", "WBTC": "0.75"}, "ls": "0.08", "cf": "0.5"},
            "positions": [
                {
                    "owner": "p",
                    "collateral": {"ETH": "1", "WBTC": "0.02"},
                    "debt": {"USDC": "1600"},
                }
            ],
            "price_path": {"0": {"ETH": "1000", "WBTC": "45000", "USDC": "1"}},
            "agents": [{"id": "two-step", "policy": "optimal-two-step"}],
            "blocks": 0,
        }
        log = run_scenario(load_scenario(doc))
        assert [e.block for e in log.events] == [0, 0]
        second = log.events[1]
        assert second.repaid_usd == Dec("337.690631808278866667")
        assert second.seized_usd == Dec("364.705882352941176")
        (position,) = log.final_positions
        assert position.collateral == {Asset("WBTC"): Dec("0.02")}

    @pytest.mark.parametrize("policy, repaid", [
        ("up-to-close-factor", ["500", "250"]),
        ("optimal-two-step", []),
    ])
    def test_two_step_plans_with_the_seized_assets_lt_on_the_whole_collateral(
        self, policy, repaid
    ):
        # HF = (0.8 * 1000 + 0.1 * 900) / 1000 = 0.89, but the two-step plan
        # weighs all of c = 1900 at ETH's LT: 0.8 * 1900 = 1520 >= d = 1000,
        # so it is refused as healthy and that agent makes no call
        doc = {
            "assets": [
                {"symbol": "ETH"},
                {"symbol": "DAI"},
                {"symbol": "USDC", "decimals": 6},
            ],
            "params": {"lt": {"ETH": "0.8", "DAI": "0.1"}, "ls": "0.05", "cf": "0.5"},
            "positions": [
                {
                    "owner": "p",
                    "collateral": {"ETH": "1", "DAI": "900"},
                    "debt": {"USDC": "1000"},
                }
            ],
            "price_path": {"0": {"ETH": "1000", "DAI": "1", "USDC": "1"}},
            "agents": [{"id": "agent", "policy": policy}],
            "blocks": 2,
        }
        scenario = load_scenario(doc)
        values = position_values(scenario.positions[0], scenario.price_path[0], scenario.params)
        assert values.bc / values.d == Dec("0.89")
        log = run_scenario(scenario)
        assert [e.repaid_usd for e in log.events] == [Dec(r) for r in repaid]
        assert [e.block for e in log.events] == list(range(len(repaid)))

    def test_flash_revert_leaves_positions_untouched(self):
        # a 10% flash fee dwarfs the 8% spread, so no call is profitable or sent
        scenario = replace(
            load_scenario(str(FIXTURES / "two_step.json")), flash_fee_rate=Dec("0.1")
        )
        log = run_scenario(scenario)
        assert log.events == ()
        assert log.final_positions == scenario.positions


class TestAuctionScenario:
    def test_scripted_tend_dent_settlement(self):
        log = run_scenario(load_scenario(str(FIXTURES / "auction.json")))
        assert len(log.events) == 1
        event = log.events[0]
        assert event.block == 7  # last bid at 4 plus the 3-block bid duration
        assert event.mechanism is Mechanism.AUCTION
        assert event.liquidator == "bob"
        assert event.repaid_usd == Dec(100)
        assert event.seized_usd == Dec(95)
        assert event.gross_profit_usd == Dec(-5)
        (vault,) = log.final_positions
        assert vault.debt == {}
        assert vault.collateral[Asset("GEM")] == Dec(15)

    def test_auctioned_position_is_off_limits_to_fixed_spread_agents(self):
        scenario = load_scenario(str(FIXTURES / "auction.json"))
        greedy = AgentPolicy(agent_id="sniper", kind=PolicyKind.UP_TO_CLOSE_FACTOR)
        contested = replace(scenario, agents=(scenario.agents[0], greedy))
        log = run_scenario(contested)
        assert [e.mechanism for e in log.events] == [Mechanism.AUCTION]


class TestDeterminism:
    @pytest.mark.parametrize("name", ["eth_price_drop.json", "two_step.json", "auction.json"])
    def test_same_scenario_same_bytes(self, name):
        first = run_scenario(load_scenario(str(FIXTURES / name)))
        second = run_scenario(load_scenario(str(FIXTURES / name)))
        assert first.to_csv().encode() == second.to_csv().encode()
        assert first.to_jsonl().encode() == second.to_jsonl().encode()
        assert first == second

    def test_same_bytes_across_processes_and_hash_seeds(self, tmp_path):
        names = ["eth_price_drop", "two_step", "auction"]
        src = Path(liqlab.sim.__file__).resolve().parent.parent
        outputs = []
        for hash_seed in ("0", "12345"):
            out_dir = tmp_path / hash_seed
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
            for fmt in ([], ["--json"]):
                argv = [sys.executable, "-m", "liqlab.cli", "simulate", *fmt]
                for name in names:
                    argv += ["--scenario", str(FIXTURES / f"{name}.json")]
                subprocess.run([*argv, "--out-dir", str(out_dir)], env=env, check=True)
            outputs.append({f.name: f.read_bytes() for f in out_dir.iterdir()})
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) == 2 * len(names)
        for name in names:
            log = run_scenario(load_scenario(str(FIXTURES / f"{name}.json")))
            assert outputs[0][f"{name}.csv"] == log.to_csv().encode()
            assert outputs[0][f"{name}.jsonl"] == log.to_jsonl().encode()


class TestJsonl:
    def test_an_empty_log_is_empty_text(self):
        assert EventLog(events=(), collateral_volume_by_block={}, final_positions=()).to_jsonl() == ""

    @pytest.mark.parametrize("name", ["eth_price_drop.json", "two_step.json", "auction.json"])
    def test_each_event_is_one_line_ending_in_one_newline(self, name):
        log = run_scenario(load_scenario(str(FIXTURES / name)))
        text = log.to_jsonl()
        lines = text.splitlines(keepends=True)
        assert len(lines) == len(log.events) > 0
        for line, event in zip(lines, log.events):
            assert line.endswith("}\n")
            record = json.loads(line)
            assert record["block"] == event.block
            assert record["borrower"] == event.borrower


@pytest.mark.parametrize(
    "collateral", [["5" + "0" * 58], ["3" + "0" * 58, "3" + "0" * 58]],
    ids=["one-position", "volume-sum"],
)
def test_collateral_worth_more_than_2_255_overflows(collateral):
    # one position worth more than 2**255 raw, or two whose block volume is
    doc = json.loads((FIXTURES / "eth_price_drop.json").read_text())
    doc["price_path"]["0"]["ETH"] = "3500" if len(collateral) == 1 else "1"
    doc["positions"] = [
        {"owner": f"whale-{i}", "collateral": {"ETH": amount}, "debt": {"USDC": "1"}}
        for i, amount in enumerate(collateral)
    ]
    scenario = load_scenario(doc)
    with pytest.raises(OverflowError, match=r"exceeds 2\*\*255"):
        run_scenario(scenario)


class TestProfitVolumeRatio:
    def test_worked_example_ratio(self):
        log = run_scenario(eth_drop_scenario())
        assert log.collateral_volume_by_block[1] == Dec(9900)
        ratio = profit_volume_ratio(log, range(1, 2))
        assert ratio == Dec("0.042424242424242424")

    def test_no_events_is_zero(self):
        log = run_scenario(replace(eth_drop_scenario(), agents=()))
        ratio = profit_volume_ratio(log, range(0, 2))
        assert ratio == Dec(0)

    def test_homogeneity(self):
        log = run_scenario(eth_drop_scenario())
        base = profit_volume_ratio(
            replace(log, collateral_volume_by_block={1: Dec(9900)}), range(1, 2)
        )
        halved = profit_volume_ratio(
            replace(log, collateral_volume_by_block={1: Dec(19800)}), range(1, 2)
        )
        assert halved == base / Dec(2)

    def test_zero_volume_rejected(self):
        log = run_scenario(replace(eth_drop_scenario(), agents=()))
        with pytest.raises(ZeroVolumeError):
            profit_volume_ratio(
                replace(log, collateral_volume_by_block={0: Dec(0)}), range(0, 1)
            )

    def test_a_block_without_volume_is_rejected(self):
        log = run_scenario(eth_drop_scenario())
        thin = replace(log, collateral_volume_by_block={1: Dec(9900)})
        with pytest.raises(ValueError) as info:
            profit_volume_ratio(thin, range(0, 2))
        assert str(info.value) == "no collateral volume recorded for block 0"

    def test_empty_period_rejected(self):
        log = run_scenario(eth_drop_scenario())
        with pytest.raises(ValueError):
            profit_volume_ratio(replace(log, collateral_volume_by_block={}), range(0, 0))


class TestScenarioLoader:
    def test_loads_sparse_price_path_with_forward_fill(self):
        scenario = eth_drop_scenario()
        assert scenario.price_path[1].prices[USDC] == Dec(1)
        assert scenario.price_path[1].prices[ETH] == Dec(3300)

    def base_doc(self):
        return {
            "assets": [{"symbol": "ETH"}, {"symbol": "USDC"}],
            "params": {"lt": {"ETH": "0.8"}, "ls": "0.1", "cf": "0.5"},
            "positions": [
                {"owner": "a", "collateral": {"ETH": "3"}, "debt": {"USDC": "8400"}}
            ],
            "price_path": {"0": {"ETH": "3500", "USDC": "1"}},
            "agents": [],
            "blocks": 0,
        }

    def test_round_trip_of_a_dict_document(self):
        scenario = load_scenario(self.base_doc())
        assert scenario.blocks == 0
        assert scenario.positions[0].collateral[ETH] == Dec(3)

    def test_unknown_asset_reference_named(self):
        doc = self.base_doc()
        doc["positions"][0]["collateral"] = {"BTC": "1"}
        with pytest.raises(InvalidScenarioError, match="BTC"):
            load_scenario(doc)

    def test_float_decimal_rejected_with_field(self):
        doc = self.base_doc()
        doc["params"]["ls"] = 0.1
        with pytest.raises(InvalidScenarioError, match="params.ls"):
            load_scenario(doc)

    def test_unknown_policy_rejected(self):
        doc = self.base_doc()
        doc["agents"] = [{"id": "x", "policy": "martingale"}]
        with pytest.raises(InvalidScenarioError, match="policy"):
            load_scenario(doc)

    def test_missing_block_zero_rejected(self):
        doc = self.base_doc()
        doc["price_path"] = {"1": {"ETH": "3500"}}
        with pytest.raises(InvalidScenarioError, match="price_path"):
            load_scenario(doc)

    def test_block_zero_must_price_every_position_asset(self):
        doc = self.base_doc()
        doc["price_path"] = {"0": {"ETH": "3500"}}
        with pytest.raises(InvalidScenarioError, match="USDC"):
            load_scenario(doc)

    def test_duplicate_owner_rejected(self):
        doc = self.base_doc()
        doc["positions"] = doc["positions"] * 2
        with pytest.raises(InvalidScenarioError, match="duplicate"):
            load_scenario(doc)

    def test_duplicate_asset_symbol_rejected(self):
        doc = self.base_doc()
        doc["assets"].append({"symbol": "ETH", "decimals": 6})
        with pytest.raises(InvalidScenarioError) as info:
            load_scenario(doc)
        assert (info.value.field, info.value.problem) == (
            "assets[2].symbol", "duplicate symbol 'ETH'"
        )

    def test_a_path_object_is_loaded_and_an_int_is_not_a_path(self):
        path = FIXTURES / "two_step.json"
        assert load_scenario(path) == load_scenario(str(path))
        with pytest.raises(TypeError):
            load_scenario(5)

    def test_invalid_params_rejected(self):
        doc = self.base_doc()
        doc["params"]["lt"]["ETH"] = "0.95"
        with pytest.raises(InvalidScenarioError, match="0.95"):
            load_scenario(doc)

    @pytest.mark.parametrize(
        "field, path",
        [
            ("params.ls", ("params", "ls")),
            ("positions[0].debt.DAI", ("positions", 0, "debt", "DAI")),
            ("price_path.0.GEM", ("price_path", "0", "GEM")),
            ("agents[0].script[0].amount", ("agents", 0, "script", 0, "amount")),
            ("params.lt.GEM", ("params", "lt", "GEM")),
            ("positions[0].collateral.GEM", ("positions", 0, "collateral", "GEM")),
            ("agents[0].script[3].amount", ("agents", 0, "script", 3, "amount")),
        ],
    )
    def test_out_of_range_decimal_names_the_field(self, field, path):
        doc = json.loads((FIXTURES / "auction.json").read_text())
        _set_leaf(doc, path, "9" * 80)  # beyond the 2**255 fixed-point magnitude
        with pytest.raises(InvalidScenarioError) as info:
            load_scenario(doc)
        assert info.value.field == field

    @pytest.mark.parametrize(
        "path",
        [
            ("params", "lt", "GEM"),
            ("positions", 0, "collateral", "GEM"),
            ("positions", 0, "debt", "DAI"),
            ("price_path", "0", "GEM"),
            ("agents", 0, "script", 3, "amount"),
        ],
    )
    def test_leading_zeros_past_the_int_string_limit_load_as_their_value(self, path):
        doc = json.loads((FIXTURES / "auction.json").read_text())
        expected = load_scenario(doc)
        *outer, key = path
        leaf = doc
        for part in outer:
            leaf = leaf[part]
        leaf[key] = "0" * 5000 + leaf[key]
        assert load_scenario(doc) == expected

    @pytest.mark.parametrize(
        "field, path",
        [
            ("assets[1].symbol", ("assets", 1, "symbol")),
            ("positions[0].owner", ("positions", 0, "owner")),
            ("agents[0].id", ("agents", 0, "id")),
            ("agents[0].script[2].bidder", ("agents", 0, "script", 2, "bidder")),
            ("agents[0].script[4].borrower", ("agents", 0, "script", 4, "borrower")),
        ],
    )
    def test_identifier_fields_name_their_path(self, field, path):
        doc = json.loads((FIXTURES / "auction.json").read_text())
        _set_leaf(doc, path, "")
        with pytest.raises(InvalidScenarioError) as info:
            load_scenario(doc)
        assert (info.value.field, info.value.problem) == (
            field, "missing or not a non-empty string"
        )

    @pytest.mark.parametrize("clock, expected", [
        (None, Scenario.auction_config),
        ({}, Scenario.auction_config),
        ({"bid_duration": 3}, AuctionConfig(6, 3)),
        ({"auction_length": 9, "min_increment": "0"}, AuctionConfig(9, 5, Dec(0))),
    ])
    def test_missing_auction_clock_keys_take_the_scenario_default(self, clock, expected):
        doc = self.base_doc()
        if clock is not None:
            doc["auction_config"] = clock
        assert load_scenario(doc).auction_config == expected
        assert Scenario.auction_config == AuctionConfig(6, 5, Dec("0.03"))

    def test_scenario_is_validated_on_construction(self):
        scenario = load_scenario(self.base_doc())
        with pytest.raises(InvalidScenarioError, match="blocks"):
            replace(scenario, blocks=-1)

    @pytest.mark.parametrize("amount", ["0", "-1"])
    def test_scripted_bid_amount_must_be_positive(self, amount):
        doc = json.loads((FIXTURES / "auction.json").read_text())
        doc["agents"][0]["script"][0]["amount"] = amount
        with pytest.raises(InvalidScenarioError) as info:
            load_scenario(doc)
        assert info.value.field == "agents[0].script[0]"
        assert info.value.problem == f"bid amount must be > 0: {amount}"

    def test_a_scripted_amount_is_refused_where_its_entry_is_parsed(self):
        # the agents come before auction_config, so the amount is reported
        doc = json.loads((FIXTURES / "auction.json").read_text())
        doc["agents"][0]["script"][0]["amount"] = "0"
        doc["auction_config"] = []
        with pytest.raises(InvalidScenarioError) as info:
            load_scenario(doc)
        assert (info.value.field, info.value.problem) == (
            "agents[0].script[0]", "bid amount must be > 0: 0"
        )

    @pytest.mark.parametrize(
        "field, path, value",
        [
            ("auction_config.auction_length", ("auction_config", "auction_length"), 1.5),
            ("auction_config.bid_duration", ("auction_config", "bid_duration"), 3.0),
            ("agents[0].script[0].time", ("agents", 0, "script", 0, "time"), True),
            ("blocks", ("blocks",), False),
        ],
    )
    def test_integer_fields_must_be_json_integers(self, field, path, value):
        doc = json.loads((FIXTURES / "auction.json").read_text())
        _set_leaf(doc, path, value)
        with pytest.raises(InvalidScenarioError, match="must be an integer") as info:
            load_scenario(doc)
        assert info.value.field == field

    @pytest.mark.parametrize("value", ["false", "no", 2, 0, None])
    @pytest.mark.parametrize(
        "field, path",
        [
            ("one_liquidation_per_block", ("one_liquidation_per_block",)),
            ("params.cf_per_debt_asset", ("params", "cf_per_debt_asset")),
        ],
    )
    def test_boolean_fields_must_be_json_booleans(self, field, path, value):
        doc = json.loads((FIXTURES / "eth_price_drop.json").read_text())
        _set_leaf(doc, path, value)
        with pytest.raises(InvalidScenarioError) as info:
            load_scenario(doc)
        assert info.value.field == field
        assert info.value.problem == f"must be true or false: {value!r}"

    def test_script_on_an_agent_that_does_not_bid_is_rejected(self):
        doc = json.loads((FIXTURES / "eth_price_drop.json").read_text())
        doc["agents"][0]["script"] = [{"time": 1, "bidder": "x", "amount": "5"}]
        with pytest.raises(InvalidScenarioError) as info:
            load_scenario(doc)
        assert info.value.field == "agents[0].script"
        assert info.value.problem == (
            "only an auction-bidder agent takes a script, not up-to-close-factor"
        )

    def test_scripted_bid_before_block_zero_is_rejected(self):
        doc = json.loads((FIXTURES / "auction.json").read_text())
        doc["agents"][0]["script"].append({"time": -3, "bidder": "x", "amount": "5"})
        last = len(doc["agents"][0]["script"]) - 1
        with pytest.raises(InvalidScenarioError) as info:
            load_scenario(doc)
        assert info.value.field == f"agents[0].script[{last}].time"
        assert info.value.problem == "must be >= 0: -3"

    def test_scripted_bid_past_the_horizon_is_ignored(self):
        doc = json.loads((FIXTURES / "auction.json").read_text())
        expected = _log_digest(run_scenario(load_scenario(doc)))
        doc["agents"][0]["script"].append({"time": 10**6, "bidder": "x", "amount": "5"})
        assert _log_digest(run_scenario(load_scenario(doc))) == expected

    def test_omitted_boolean_fields_are_false(self):
        scenario = eth_drop_scenario()
        assert scenario.one_liquidation_per_block is False
        assert scenario.params.cf_per_debt_asset is False


class TestScenarioScripts:
    """``Scenario`` itself refuses the scripts the loader refuses."""

    @staticmethod
    def _with_bid(bid):
        scenario = load_scenario(str(FIXTURES / "auction.json"))
        (keeper,) = scenario.agents
        return scenario, (replace(keeper, script=keeper.script + (bid,)),)

    def test_a_script_on_an_agent_that_does_not_bid_is_refused(self):
        scenario = load_scenario(str(FIXTURES / "auction.json"))
        (keeper,) = scenario.agents
        two_step = replace(keeper, kind=PolicyKind.OPTIMAL_TWO_STEP)
        with pytest.raises(InvalidScenarioError) as info:
            replace(scenario, agents=(two_step,))
        assert info.value.field == "agents[0].script"
        assert info.value.problem == (
            "only an auction-bidder agent takes a script, not optimal-two-step"
        )

    def test_a_bid_before_block_zero_is_refused(self):
        scenario, agents = self._with_bid(ScriptedBid(time=-3, bidder="x", amount=Dec(5)))
        with pytest.raises(InvalidScenarioError) as info:
            replace(scenario, agents=agents)
        assert info.value.field == "agents[0].script[5].time"
        assert info.value.problem == "must be >= 0: -3"

    @pytest.mark.parametrize("time", [4, 10**6], ids=["in-horizon", "past-horizon"])
    def test_a_bid_amount_of_zero_is_refused(self, time):
        # a ScriptedBid is a Bid, so one with no positive amount cannot exist
        with pytest.raises(ValueError) as info:
            ScriptedBid(time=time, bidder="x", amount=Dec(0))
        assert str(info.value) == "bid amount must be > 0: 0"


def test_a_scripted_bid_is_a_bid_plus_its_borrower():
    bid = ScriptedBid(bidder="x", amount=Dec(5), time=3, borrower="vault-1")
    assert isinstance(bid, Bid)
    assert [field.name for field in fields(ScriptedBid)] == [
        "bidder", "amount", "time", "borrower"
    ]
    assert ScriptedBid(bidder="x", amount=Dec(5), time=3).borrower is None


def test_the_engine_hands_place_bid_the_scripted_bid_itself(monkeypatch):
    scenario = load_scenario(str(FIXTURES / "auction.json"))
    placed = _count_calls(monkeypatch, "place_bid")
    run_scenario(scenario)
    (keeper,) = scenario.agents
    assert [id(bid) for _, bid in placed] == [id(bid) for bid in keeper.script]


@pytest.mark.parametrize(
    "change, field, problem",
    [
        ({"gas_fee_usd": Dec("-0.01")}, "gas_fee_usd", "must be >= 0: -0.01"),
        ({"flash_fee_rate": Dec(-1)}, "flash_fee_rate", "must be >= 0: -1"),
    ],
    ids=["gas", "flash-fee"],
)
def test_a_negative_fee_is_refused(change, field, problem):
    with pytest.raises(InvalidScenarioError) as info:
        replace(eth_drop_scenario(), **change)
    assert (info.value.field, info.value.problem) == (field, problem)


def test_duplicate_agent_ids_are_refused():
    scenario = eth_drop_scenario()
    (agent,) = scenario.agents
    twin = replace(agent, kind=PolicyKind.OPTIMAL_TWO_STEP)
    with pytest.raises(InvalidScenarioError) as info:
        replace(scenario, agents=(agent, twin))
    assert (info.value.field, info.value.problem) == ("agents", "duplicate agent identifiers")


def test_scripted_bid_against_missing_auction_is_a_scenario_error():
    scenario = load_scenario(str(FIXTURES / "auction.json"))
    bad_script = (ScriptedBid(time=0, bidder="x", amount=Dec(1), borrower="ghost"),)
    agents = (replace(scenario.agents[0], script=bad_script),)
    with pytest.raises(InvalidScenarioError, match="ghost"):
        run_scenario(replace(scenario, agents=agents))


def test_scripted_bid_that_does_not_fit_its_auction_names_the_script():
    doc = json.loads((FIXTURES / "auction.json").read_text())
    doc["agents"][0]["script"][0]["amount"] = "100000"
    with pytest.raises(InvalidScenarioError) as info:
        run_scenario(load_scenario(doc))
    assert info.value.field == "agents.script"
    assert info.value.problem == (
        "bid at time 0 by 'alice' refused: tend bid 100000 exceeds tab 100"
    )


def _sites(node, path=()):
    """Every place a fuzzer can change in a scenario document: each value,
    leaf or container, as ``(path, False)``, and each object key as
    ``(path, True)``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,), False
        if isinstance(node, dict):
            yield path + (key,), True
        if isinstance(value, (dict, list)):
            yield from _sites(value, path + (key,))


FIXTURE_DOCS = {
    name: json.loads((FIXTURES / f"{name}.json").read_text())
    for name in ("eth_price_drop", "two_step", "auction")
}
SITES = [(name, *site) for name, doc in FIXTURE_DOCS.items() for site in _sites(doc)]
# integers up to 80 digits reach past the 2**255 fixed-point magnitude
big_integers = st.integers(min_value=-(10**80), max_value=10**80)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | big_integers
    | big_integers.map(str)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


# the keys of the fixtures, so that a renamed key can take another's name
_fixture_keys = sorted({path[-1] for _, path, is_key in SITES if is_key})


@settings(max_examples=400, deadline=None)
@given(
    site=st.sampled_from(SITES),
    value=json_values,
    key=st.text(max_size=8) | st.sampled_from(_fixture_keys),
)
def test_any_json_value_or_key_anywhere_loads_or_names_the_problem(site, value, key):
    # a value in place of any leaf or container, or a new name for any key
    name, path, is_key = site
    doc = json.loads(json.dumps(FIXTURE_DOCS[name]))
    if is_key:
        *outer, old = path
        parent = doc
        for part in outer:
            parent = parent[part]
        renamed = {(key if k == old else k): v for k, v in parent.items()}
        parent.clear()
        parent.update(renamed)
    else:
        _set_leaf(doc, path, value)
    try:
        assert isinstance(load_scenario(doc), Scenario)
    except InvalidScenarioError:
        pass


def sparse_wbtc_doc(blocks=5):
    """ETH and WBTC holders; only WBTC moves, at block 3."""
    return {
        "assets": [{"symbol": "ETH"}, {"symbol": "WBTC", "decimals": 8}, {"symbol": "USDC"}],
        "params": {"lt": {"ETH": "0.8", "WBTC": "0.7"}, "ls": "0.1", "cf": "0.5"},
        "positions": [
            {"owner": "eth-holder", "collateral": {"ETH": "3"}, "debt": {"USDC": "5000"}},
            {"owner": "btc-holder", "collateral": {"WBTC": "1"}, "debt": {"USDC": "30000"}},
        ],
        "price_path": {
            "0": {"ETH": "3000", "WBTC": "50000", "USDC": "1"},
            "3": {"WBTC": "40000"},
        },
        "agents": [{"id": "liq", "policy": "up-to-close-factor"}],
        "blocks": blocks,
    }


def _three_healthy_positions_three_agents(moves) -> Scenario:
    """Three healthy positions over 11 blocks, one agent of each policy."""
    doc = sparse_wbtc_doc(blocks=10)
    doc["price_path"] = {"0": {"ETH": "3500", "WBTC": "50000", "USDC": "1"}, **moves}
    doc["positions"].append({"owner": "idle", "collateral": {"WBTC": "1"}})
    doc["agents"] = [
        {"id": "cf", "policy": "up-to-close-factor"},
        {"id": "two-step", "policy": "optimal-two-step"},
        {"id": "keeper", "policy": "auction-bidder"},
    ]
    return load_scenario(doc)


def _count_calls(monkeypatch, name):
    """Wrap ``liqlab.sim.<name>`` so each call is appended to the returned list."""
    calls = []
    real = getattr(liqlab.sim, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(liqlab.sim, name, counting)
    return calls


def _counting(monkeypatch, cls, name):
    """Wrap the method ``cls.name`` so each call appends its arguments after
    ``self`` to the returned list."""
    calls = []
    real = getattr(cls, name)

    def wrapper(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(cls, name, wrapper)
    return calls


def _rerounded(monkeypatch):
    """Wrap ``liqlab.sim.revalue``, the engine's term kernel. The returned
    function lists, after a run, one ``(owner, side)`` for each term each
    call re-rounded, in order."""
    runs, terms = [], []
    real_init, real = liqlab.sim._Run.__init__, liqlab.sim.revalue

    def init(self, scenario):
        runs.append(self)
        real_init(self, scenario)

    def counting(batch, price, threshold=None):
        batch = list(batch)
        side = "debt" if threshold is None else "collateral"
        terms.extend((term[0], side) for term in batch)
        return real(batch, price, threshold)

    monkeypatch.setattr(liqlab.sim._Run, "__init__", init)
    monkeypatch.setattr(liqlab.sim, "revalue", counting)

    def rerounded():
        owner_of = {id(run._sums(owner)): owner for run in runs for owner in run.terms}
        return [(owner_of[id(sums)], side) for sums, side in terms]

    return rerounded


# the terms block 0 values in _three_healthy_positions_three_agents, slot by
# slot in order of first mention: ETH, USDC, then WBTC
_BLOCK_0_TERMS = [
    ("eth-holder", "collateral"),
    ("eth-holder", "debt"),
    ("btc-holder", "debt"),
    ("btc-holder", "collateral"),
    ("idle", "collateral"),
]


class TestIncrementalValuation:
    def test_position_is_revalued_when_only_its_asset_moves(self):
        log = run_scenario(load_scenario(sparse_wbtc_doc()))
        assert [(e.block, e.borrower) for e in log.events] == [(3, "btc-holder")]
        assert log.events[0].repaid_usd == Dec(15000)
        assert log.collateral_volume_by_block[2] == Dec(59000)
        assert log.collateral_volume_by_block[3] == Dec(49000)
        assert log.collateral_volume_by_block[4] == Dec(49000) - Dec(16500)

    def test_second_agent_sees_the_first_agents_liquidation(self):
        base = eth_drop_scenario()
        oracle = replace(base.price_path[0], prices={ETH: Dec(2900), USDC: Dec(1)})
        agents = tuple(
            AgentPolicy(agent_id=name, kind=PolicyKind.UP_TO_CLOSE_FACTOR) for name in "ab"
        )
        scenario = replace(base, price_path={0: oracle}, blocks=0, agents=agents)
        log = run_scenario(scenario)
        # a repays CF * 8400; b then sees the debt halved, not the stale 8400
        assert [(e.liquidator, e.repaid_usd, e.seized_usd) for e in log.events] == [
            ("a", Dec(4200), Dec(4620)),
            ("b", Dec(2100), Dec(2310)),
        ]

    # block 0 rounds every term once, and the ETH move re-rounds the one ETH
    # holder's collateral term alone
    @pytest.mark.parametrize("moves, moved", [
        ({}, []), ({"7": {"ETH": "3400"}}, [("eth-holder", "collateral")])
    ])
    def test_healthy_positions_are_valued_once_per_price_change(
        self, monkeypatch, moves, moved
    ):
        rerounded = _rerounded(monkeypatch)
        log = run_scenario(_three_healthy_positions_three_agents(moves))
        assert log.events == ()
        assert rerounded() == _BLOCK_0_TERMS + moved

    @pytest.mark.parametrize("moves, moved", [
        ({}, []), ({"7": {"ETH": "3400"}}, [("eth-holder", "collateral")])
    ])
    def test_healthy_positions_are_checked_once_per_price_change(
        self, monkeypatch, moves, moved
    ):
        rerounded = _rerounded(monkeypatch)
        built = _count_calls(monkeypatch, "PositionValues")
        log = run_scenario(_three_healthy_positions_three_agents(moves))
        assert log.events == ()
        # the scan checks the raw sums; no policy needs a healthy position's values
        assert rerounded() == _BLOCK_0_TERMS + moved
        assert built == []
        eth_price = Dec(3400) if moves else Dec(3500)
        assert log.collateral_volume_by_block[10] == Dec(3) * eth_price + Dec(100000)

    @pytest.mark.parametrize("move, revalued, volume", [
        # only the USDC debtors' debt terms depend on USDC
        ({"USDC": "1.01"}, [("eth-holder", "debt"), ("btc-holder", "debt")], Dec(169250)),
        # only the WBTC holders' collateral terms depend on WBTC
        ({"WBTC": "45000"}, [("btc-holder", "collateral"), ("idle", "collateral")],
         Dec(154250)),
    ])
    def test_a_price_move_revalues_only_the_sides_that_reference_it(
        self, monkeypatch, move, revalued, volume
    ):
        doc = sparse_wbtc_doc(blocks=10)
        doc["assets"].append({"symbol": "DAI"})
        doc["positions"] += [
            {"owner": "dai-debtor", "collateral": {"ETH": "2.5"}, "debt": {"DAI": "1000"}},
            {"owner": "idle", "collateral": {"WBTC": "2"}},
        ]
        doc["price_path"] = {
            "0": {"ETH": "3500", "WBTC": "50000", "USDC": "1", "DAI": "1"}, "5": move
        }
        scenario = load_scenario(doc)
        rerounded = _rerounded(monkeypatch)
        log = run_scenario(scenario)
        assert log.events == ()
        valued = rerounded()
        # block 0 rounds each of the 7 terms once, block 5 re-rounds only the
        # moved asset's holder terms
        assert sorted(valued[:7]) == sorted(
            (p.owner, side) for p in scenario.positions
            for side, balances in (("collateral", p.collateral), ("debt", p.debt))
            for _ in balances
        )
        assert valued[7:] == revalued
        assert log.collateral_volume_by_block[4] == Dec(169250)
        assert log.collateral_volume_by_block[10] == volume

    @pytest.mark.parametrize("one_per_block", [False, True])
    def test_a_two_step_visit_builds_the_values_of_its_plan_once(
        self, monkeypatch, one_per_block
    ):
        scenario = replace(
            load_scenario(str(FIXTURES / "two_step.json")),
            one_liquidation_per_block=one_per_block,
        )

        built = _counting(monkeypatch, PositionValues, "__post_init__")
        positions = _counting(monkeypatch, Position, "__post_init__")
        compiled = _counting(monkeypatch, liqlab.sim._Run, "_compile")
        rerounded = _rerounded(monkeypatch)
        plans = _count_calls(monkeypatch, "_optimal_repays")
        checks = _count_calls(monkeypatch, "_liquidation_call")
        log = run_scenario(scenario)
        assert len(log.events) == 2
        # the plan and its first call read the raw sums of one valuation; the
        # second call, on the changed position, reads the next valuation's.
        # Both run on the cached sums, so no PositionValues is built
        c, bc, d = (Dec(v).raw for v in ("125", "93.75", "100"))
        assert [args[:2] for args in plans] == [(c, d)]
        assert [args[1:3] for args in checks[:1]] == [(bc, d)]
        assert len(checks) == 2 and checks[1][2] < d
        # each call reads the debt and collateral balances from the book:
        # the loaded ones, then those the first call left (prices are 1)
        first = log.events[0]
        assert [args[5:7] for args in checks] == [
            (d, c), (d - first.repaid_usd.raw, c - first.seized_usd.raw)
        ]
        # block 0 rounds the two terms; each landed call then re-rounds
        # exactly the two it changed, the debt term first, and nothing else
        # re-values: the second call and block 1's scan read the kept sums
        owner = scenario.positions[0].owner
        assert rerounded() == [(owner, "collateral"), (owner, "debt")] + 2 * [
            (owner, "debt"), (owner, "collateral")
        ]
        assert built == []
        # the position is compiled once, when the run starts; the landed
        # calls update its book in place, and a Position is built once, for
        # the final positions of the owner whose balances changed
        assert compiled == [(scenario.positions[0],)]
        assert len(positions) == 1
        assert log.final_positions[0].debt == {
            Asset("DEB"): Dec(100) - first.repaid_usd - log.events[1].repaid_usd
        }

    def test_settlement_that_leaves_no_collateral_opens_no_auction(self):
        # GEM doubles at block 2, so the auctioned vault is healthy when the
        # positions are next checked; the tend settlement at block 4 takes
        # all its collateral for 80 of its 100 debt. The vault is then
        # liquidatable with nothing to sell: type-I bad debt, not a new lot
        doc = json.loads((FIXTURES / "auction.json").read_text())
        doc["price_path"]["2"] = {"GEM": "2"}
        doc["agents"][0]["script"] = [
            {"time": 0, "bidder": "alice", "amount": "40"},
            {"time": 1, "bidder": "bob", "amount": "80"},
        ]
        doc["blocks"] = 9
        scenario = load_scenario(doc)
        log = run_scenario(scenario)
        assert [(e.block, e.liquidator, e.repaid_usd, e.seized_usd) for e in log.events] == [
            (4, "bob", Dec(80), Dec(220)),
        ]
        (vault,) = log.final_positions
        assert vault.collateral == {} and vault.debt == {Asset("DAI"): Dec(20)}
        verdict = classify_bad_debt(vault, Dec(0), scenario.price_path[9])
        assert verdict.kind is BadDebtKind.TYPE_I
        # so a later bid has no auction to join
        doc["agents"][0]["script"].append({"time": 6, "bidder": "carol", "amount": "10"})
        with pytest.raises(InvalidScenarioError, match="while 0 auctions are open"):
            run_scenario(load_scenario(doc))

    def test_call_that_seizes_all_collateral_leaves_no_lot_to_auction(self, monkeypatch):
        # repay = c / (1 + LS) = 100 seizes all 110 ETH; the auction bidder
        # acts next in the same block and must not open an auction on nothing
        doc = json.loads((FIXTURES / "eth_price_drop.json").read_text())
        doc["positions"][0] = {
            "owner": "drained", "collateral": {"ETH": "110"}, "debt": {"USDC": "300"}
        }
        doc["price_path"] = {"0": {"ETH": "1", "USDC": "1"}}
        doc["agents"].append({"id": "keeper", "policy": "auction-bidder"})
        starts = _count_calls(monkeypatch, "start_auction")
        log = run_scenario(load_scenario(doc))
        assert [(e.block, e.repaid_usd, e.seized_usd) for e in log.events] == [
            (0, Dec(100), Dec(110)),
        ]
        assert log.final_positions[0].collateral == {}
        assert starts == []

    def test_gas_unprofitable_call_is_never_sent(self, monkeypatch):
        def refuse(
            owner, bc, d, debt_asset, collateral_asset, debt_native, available, repay,
            prices, params,
        ):
            raise AssertionError("an unprofitable call reached the engine")

        monkeypatch.setattr(liqlab.sim, "_liquidation_call", refuse)
        scenario = replace(eth_drop_scenario(), gas_fee_usd=Dec(500))
        assert run_scenario(scenario).events == ()

    @staticmethod
    def two_debt_asset_doc(per_asset):
        # the worked example with its 8400 of debt split 6000 USDC + 2400 DAI:
        # the agent repays cf*d = 4200 of USDC, over cf*6000 = 3000 per asset
        doc = json.loads((FIXTURES / "eth_price_drop.json").read_text())
        doc["assets"].append({"symbol": "DAI"})
        doc["positions"][0]["debt"] = {"USDC": "6000", "DAI": "2400"}
        doc["price_path"]["0"]["DAI"] = "1"
        doc["params"]["cf_per_debt_asset"] = per_asset
        return doc

    def test_call_over_the_per_asset_close_factor_is_not_sent(self):
        scenario = load_scenario(self.two_debt_asset_doc(True))
        log = run_scenario(scenario)
        assert log.events == ()
        assert log.final_positions == scenario.positions
        assert log.collateral_volume_by_block == {0: Dec(10500), 1: Dec(9900)}

    def test_same_call_lands_under_the_aggregate_close_factor(self):
        log = run_scenario(load_scenario(self.two_debt_asset_doc(False)))
        assert [(e.block, e.repaid_usd, e.seized_usd) for e in log.events] == [
            (1, Dec(4200), Dec(4620)),
        ]

    @pytest.mark.parametrize(
        "gas, flash_rate", [("420", "0"), ("210", "0.05"), ("0", "0.1")]
    )
    def test_zero_net_profit_is_not_logged(self, gas, flash_rate):
        # the worked example's only call repays 4200 for a gross profit of 420
        scenario = replace(
            eth_drop_scenario(), gas_fee_usd=Dec(gas), flash_fee_rate=Dec(flash_rate)
        )
        log = run_scenario(scenario)
        assert log.events == ()
        assert log.final_positions == scenario.positions

    def test_smallest_positive_net_profit_is_logged(self):
        gas = Dec(420) - Dec.from_raw(1)
        (event,) = run_scenario(replace(eth_drop_scenario(), gas_fee_usd=gas)).events
        assert event.net_profit_usd == Dec.from_raw(1)


# -- the bound that skips fixed-spread calls no repay can profit from --------

SCALE = 10**18
ONE = Dec(1)


def _engine_net(repay: Dec, ls: Dec, gas: Dec, flash_rate: Dec) -> Dec:
    """``sim._Run._liquidate``'s own net-profit expression."""
    gross = repay * (ONE + ls) - repay
    return gross - (gas + repay * flash_rate)


@st.composite
def _bound_inputs(draw):
    cf = draw(st.integers(1, SCALE))
    ls = draw(st.one_of(st.just(0), st.integers(0, SCALE // 2)))
    flash = draw(st.one_of(
        st.just(0), st.just(ls), st.integers(0, SCALE // 2),
        st.integers(max(ls - 3, 0), ls + 3),
    ))
    d = draw(st.one_of(st.integers(1, 10**6), st.integers(1, 10**30)))
    cap = Dec.from_raw(cf) * Dec.from_raw(d)
    # gas at, just under and just over the cap's exact bonus, or anywhere
    edge = max(cap.raw * (ls - flash) // SCALE, 0)
    gas = draw(st.one_of(
        st.just(0), st.integers(max(edge - 2, 0), edge + 2), st.integers(0, 10**24),
    ))
    return cf, ls, flash, d, gas


@settings(max_examples=400, deadline=None)
@given(_bound_inputs(), st.randoms(use_true_random=False))
# the worked example: cap 4200, bonus exactly 420 = gas, so net <= 0
@example((SCALE // 2, SCALE // 10, 0, 8400 * SCALE, 420 * SCALE), random.Random(0))
# gas 0 with the flash fee above the spread: every repay loses
@example((SCALE // 2, SCALE // 10, SCALE // 10 + 1, 8400 * SCALE, 0), random.Random(0))
# a cap of 1.5 units rounds half-even to 2, so at LS 1 its bonus of 2 units
# meets a gas of 2 units: not skipped (a cap rounded down to 1 would be)
@example((SCALE // 2, SCALE, 0, 3, 2), random.Random(0))
def test_skipped_positions_have_no_profitable_repay(inputs, rng):
    cf, ls, flash, d, gas = (Dec.from_raw(raw) for raw in inputs)
    params = RiskParams(lt={}, ls=ls, cf=cf)
    values = PositionValues(c=d, d=d, bc=Dec(0))
    cap = max_repay(values, params)
    skip = cannot_clear_fees(values.d.raw, cf.raw, ls.raw - flash.raw, gas.raw * SCALE)
    note(f"cap={cap} skip={skip}")
    # the integer screen is the test on the Dec cap that the engine repays up to
    assert skip == (cap.raw * (ls.raw - flash.raw) < gas.raw * SCALE)
    if not skip:
        return
    for repay in {cap.raw, cap.raw - 1, rng.randint(1, max(cap.raw, 1))} - {0}:
        assert _engine_net(Dec.from_raw(repay), ls, gas, flash) <= Dec(0), repay


def test_bound_does_not_skip_a_rounding_gain():
    # one unit of repay at LS = f = 0.5 and no gas: the gross rounds up to
    # one unit and the flash fee down to zero, so the net is +1 unit
    ls = flash = Dec("0.5")
    values = PositionValues(c=Dec(1), d=Dec.from_raw(1), bc=Dec(0))
    params = RiskParams(lt={}, ls=ls, cf=Dec(1))
    assert _engine_net(max_repay(values, params), ls, Dec(0), flash) == Dec.from_raw(1)
    assert not cannot_clear_fees(values.d.raw, params.cf.raw, ls.raw - flash.raw, 0)


_BOUND = 2**255


@settings(max_examples=400, deadline=None)
@given(
    cf=st.integers(1, SCALE) | st.sampled_from([1, SCALE // 2, SCALE]),
    margin=st.sampled_from([0, 1, -1]) | st.integers(-SCALE, SCALE)
    | st.integers(-(2**256), 2**256),
    gas=st.just(0) | st.integers(0, 10**40) | st.integers(0, _BOUND * SCALE),
    d=st.integers(0, _BOUND - 1) | st.integers(0, 10**24),
)
# LS = f, no gas: every debt; LS = f with gas: none
@example(cf=SCALE, margin=0, gas=0, d=1)
@example(cf=SCALE // 2, margin=0, gas=SCALE, d=10**30)
# f above LS, no gas: only a cap of 0 does not lose, d < 1 / CF unit
@example(cf=1, margin=-1, gas=0, d=5 * 10**17)
@example(cf=SCALE, margin=-(SCALE // 10), gas=0, d=0)
# a tie at the least debt: CF 0.5 and a cap of 1 or 2 units (see
# test_skipped_positions_have_no_profitable_repay's last example)
@example(cf=SCALE // 2, margin=SCALE, gas=2 * SCALE, d=3)
@example(cf=SCALE // 2, margin=SCALE, gas=SCALE, d=1)
# gas far above any cap: no debt
@example(cf=SCALE, margin=1, gas=_BOUND * SCALE - 1, d=_BOUND - 1)
def test_the_fee_window_is_where_a_call_can_clear_its_fees(cf, margin, gas, d):
    lo, hi = fee_window(cf, margin, gas)
    note(f"window [{lo}, {hi})")
    for debt in (lo - 1, lo, hi - 1, hi, d):
        if 0 <= debt < _BOUND:
            assert (lo <= debt < hi) == (not cannot_clear_fees(debt, cf, margin, gas)), debt


def test_a_call_at_the_fee_window_s_least_debt_lands():
    # at the least debt value at which some call can clear its fees, the call
    # at the close-factor cap nets one raw unit: its gross and its flash fee
    # round apart
    doc = {
        "assets": [{"symbol": "ETH"}, {"symbol": "USDC"}],
        "params": {"lt": {"ETH": "0.8"}, "ls": "0.15", "cf": "0.5"},
        "positions": [
            {"owner": "edge", "collateral": {"ETH": "0.6"},
             "debt": {"USDC": "53.691275167785234899"}}
        ],
        "price_path": {"0": {"ETH": "100", "USDC": "1"}},
        "agents": [{"id": "cf", "policy": "up-to-close-factor"}],
        "gas_fee_usd": "4",
        "flash_fee_rate": "0.001",
        "blocks": 0,
    }
    scenario = load_scenario(doc)
    lo, _ = fee_window(SCALE // 2, Dec("0.149").raw, Dec(4).raw * SCALE)
    assert lo == Dec("53.691275167785234899").raw
    assert [(e.borrower, e.net_profit_usd) for e in run_scenario(scenario).events] == [
        ("edge", Dec.from_raw(1))
    ]


def _whale_doc(gas):
    """LS 0 and LT one unit under 1: the two-step plan's closed-form first
    repay for this debt is 9e45 / 1e-18, past the Dec range."""
    return {
        "assets": [{"symbol": "ETH"}, {"symbol": "USDC"}],
        "params": {"lt": {"ETH": "0.999999999999999999"}, "ls": "0", "cf": "0.5"},
        "positions": [{"owner": "whale", "collateral": {"ETH": "1" + "0" * 45},
                       "debt": {"USDC": "1" + "0" * 46}}],
        "price_path": {"0": {"ETH": "1", "USDC": "1"}},
        "agents": [{"id": "two-step", "policy": "optimal-two-step"}],
        "gas_fee_usd": gas,
        "blocks": 0,
    }


def _cap_below_gas_scenario(agents):
    """The worked example with gas 500: at block 1 the close-factor cap of
    4200 earns a bonus of 420, so no fixed-spread call can clear the gas."""
    doc = json.loads((FIXTURES / "eth_price_drop.json").read_text())
    doc["gas_fee_usd"] = "500"
    doc["agents"] = agents
    return load_scenario(doc)


class TestUnprofitableSkip:
    def test_fixed_spread_agents_make_no_attempt_and_the_bidder_still_auctions(
        self, monkeypatch
    ):
        scenario = _cap_below_gas_scenario([
            {"id": "cf", "policy": "up-to-close-factor"},
            {"id": "two-step", "policy": "optimal-two-step"},
            {"id": "keeper", "policy": "auction-bidder"},
        ])
        attempts = []
        real = liqlab.sim._Run._liquidate

        def counting(self, *args, **kwargs):
            attempts.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(liqlab.sim._Run, "_liquidate", counting)
        checks = _count_calls(monkeypatch, "_liquidation_call")
        plans = _count_calls(monkeypatch, "_optimal_repays")
        starts = _count_calls(monkeypatch, "start_auction")
        log = run_scenario(scenario)
        assert (attempts, checks, plans) == ([], [], [])
        assert log.events == ()
        # block 1's only auction, over the whole liquidatable position
        ((values, config),) = starts
        assert (values.c, values.d) == (Dec(9900), Dec(8400))

    def test_one_unit_less_gas_is_not_skipped(self, monkeypatch):
        # the two-step plan's first repay (4000) cannot clear the gas, but
        # the cap can, so the position is planned and the cap's call lands
        plans = _count_calls(monkeypatch, "_optimal_repays")
        agents = [
            {"id": "two-step", "policy": "optimal-two-step"},
            {"id": "cf", "policy": "up-to-close-factor"},
        ]
        scenario = replace(
            _cap_below_gas_scenario(agents), gas_fee_usd=Dec(420) - Dec.from_raw(1)
        )
        log = run_scenario(scenario)
        assert len(plans) == 1
        assert [(e.block, e.liquidator, e.repaid_usd) for e in log.events] == [
            (1, "cf", Dec(4200)),
        ]

    def test_skipped_owners_are_the_papers_unprofitable_liquidations(self, monkeypatch):
        # twelve ETH-backed positions of different sizes on a falling price;
        # gas 12, LS 0.1, CF 0.5 and no flash fee
        positions = [
            {"owner": f"p{i:02d}", "collateral": {"ETH": str(Dec(debt) / Dec(2000))},
             "debt": {"USDC": debt}}
            for i, debt in enumerate(
                ["20", "60", "120", "200", "239.99", "240", "240.01", "300", "480",
                 "900", "2000", "5000"]
            )
        ]
        doc = {
            "assets": [{"symbol": "ETH"}, {"symbol": "USDC", "decimals": 6}],
            "params": {"lt": {"ETH": "0.8"}, "ls": "0.1", "cf": "0.5"},
            "positions": positions,
            "price_path": {str(b): {"ETH": str(2000 - 150 * b), "USDC": "1"}
                           for b in range(9)},
            "agents": [{"id": "cf", "policy": "up-to-close-factor"},
                       {"id": "two-step", "policy": "optimal-two-step"}],
            "gas_fee_usd": "12",
            "blocks": 8,
        }
        scenario = load_scenario(doc)
        scans = []
        oracles = []
        real_reprice, real_scan = liqlab.sim._Run._reprice, liqlab.sim._Run._scan

        def noting(self, oracle):
            oracles.append(oracle)
            real_reprice(self, oracle)

        def recording(self):
            volume = real_scan(self)
            skipped = [o for o in self.liquidatable if o not in self.fixed_spread_targets]
            positions_now = [self._position(owner) for owner in self.terms]
            scans.append((oracles[-1], positions_now, skipped))
            return volume

        monkeypatch.setattr(liqlab.sim._Run, "_reprice", noting)
        monkeypatch.setattr(liqlab.sim._Run, "_scan", recording)
        log = run_scenario(scenario)
        assert log.events
        skipped_any = set()
        for oracle, positions_now, skipped in scans:
            flagged = {
                p.owner for p, _ in scan_unprofitable(
                    positions_now, scenario.gas_fee_usd, oracle, scenario.params
                )
            }
            assert set(skipped) <= flagged
            skipped_any.update(skipped)
        # block 0: a bonus under 12 is skipped; a bonus of exactly 12 (p05) is
        # flagged but left to the engine's own net <= 0 test
        assert scans[0][2] == ["p00", "p01", "p02", "p03", "p04"]
        # and positions that liquidations shrank join them later
        assert len(skipped_any) > 6

    def test_skipped_position_is_not_planned(self):
        # with gas 1 and no spread no call can clear its fee, so the
        # position is never planned
        log = run_scenario(load_scenario(_whale_doc("1")))
        assert log.events == ()

    def test_plan_past_the_dec_range_is_clamped_and_not_sent(self, monkeypatch):
        # with gas 0 the position is planned: the closed form is past the Dec
        # range, so the plan repays the cap, which at LS 0 nets 0 and is not sent
        plans = _count_calls(monkeypatch, "_optimal_repays")
        log = run_scenario(load_scenario(_whale_doc("0")))
        assert len(plans) == 1
        assert log.events == ()

    def test_skipped_position_builds_no_position_values(self, monkeypatch):
        # block 1 of the worked example is liquidatable but cannot clear gas
        # 500; with only fixed-spread agents nothing needs its values
        scenario = _cap_below_gas_scenario([
            {"id": "cf", "policy": "up-to-close-factor"},
            {"id": "two-step", "policy": "optimal-two-step"},
        ])
        built = []
        real = PositionValues.__post_init__

        def counting(self):
            built.append(self)
            real(self)

        monkeypatch.setattr(PositionValues, "__post_init__", counting)
        log = run_scenario(scenario)
        assert log.events == ()
        assert log.collateral_volume_by_block == {0: Dec(10500), 1: Dec(9900)}
        assert built == []


# -- the slot-indexed raw book against fresh valuations ----------------------

_BOOK_ASSETS = (Asset("A"), Asset("B"), Asset("D"))  # D: debt only
_BOOK_PARAMS = RiskParams(
    lt={_BOOK_ASSETS[0]: Dec("0.8"), _BOOK_ASSETS[1]: Dec("0.7")}, ls=Dec("0.1"), cf=Dec("0.5")
)
_book_amounts = st.integers(0, 10**24).map(Dec.from_raw)
_book_prices = st.integers(1, 10**22).map(Dec.from_raw)


@st.composite
def _agentless_scenarios(draw):
    assets = _BOOK_ASSETS[:2] if draw(st.booleans()) else _BOOK_ASSETS[:1]
    assets += _BOOK_ASSETS[2:]
    collateral_assets, debt_assets = assets[:-1], (assets[0], assets[-1])
    positions = [
        Position(
            f"p{i}",
            collateral={a: draw(_book_amounts) for a in collateral_assets},
            debt={a: draw(_book_amounts) for a in debt_assets},
        )
        for i in range(draw(st.integers(1, 4)))
    ]
    prices = {a: draw(_book_prices) for a in assets}
    path = {0: OracleSnapshot(prices=prices)}
    blocks = draw(st.integers(0, 6))
    for block in range(1, blocks + 1):
        # a repeated block, or one asset (the debt-only one included) moves
        moved = draw(st.none() | st.sampled_from(assets))
        if moved is not None:
            prices = {**prices, moved: draw(_book_prices)}
        path[block] = OracleSnapshot(prices=prices)
    return Scenario(
        assets=assets, params=_BOOK_PARAMS, positions=positions, price_path=path,
        agents=(), blocks=blocks,
    )


@settings(max_examples=150, deadline=None)
@given(_agentless_scenarios())
def test_recorded_volume_equals_a_fresh_sum_every_block(scenario):
    log = run_scenario(scenario)
    for block in range(scenario.blocks + 1):
        oracle = scenario.price_path[block]
        fresh = Dec(0)
        for position in scenario.positions:
            fresh = fresh + position_values(position, oracle, scenario.params).c
        assert log.collateral_volume_by_block[block] == fresh, block


def _assert_engine_equals_reference(scenario):
    log, expected = run_scenario(scenario), reference_engine.run_reference(scenario)
    assert log.events == expected.events
    assert log.collateral_volume_by_block == expected.collateral_volume_by_block
    assert log.final_positions == expected.final_positions
    return log


def _chosen_pairs(monkeypatch):
    """Wrap ``_Run._choose_pair`` so each choice is appended to the returned
    list as its (debt, collateral) symbols."""
    chosen = []
    real = liqlab.sim._Run._choose_pair

    def recording(self, owner):
        pair = real(self, owner)
        chosen.append(tuple(self.assets[slot].symbol for slot in pair))
        return pair

    monkeypatch.setattr(liqlab.sim._Run, "_choose_pair", recording)
    return chosen


def _book_doc(positions, prices, **overrides):
    symbols = sorted({sym for p in positions for side in ("collateral", "debt")
                      for sym in p.get(side, {})})
    collateral = {sym for p in positions for sym in p.get("collateral", {})}
    return {
        "assets": [{"symbol": sym} for sym in symbols],
        "params": {"lt": {sym: "0.8" for sym in collateral}, "ls": "0.1", "cf": "0.6"},
        "positions": positions,
        "price_path": {"0": prices},
        "agents": [{"id": "cf", "policy": "up-to-close-factor"}],
        "blocks": 2,
        **overrides,
    }


class TestBookBalances:
    @pytest.mark.parametrize("collateral, debt, kept", [
        # two assets on each side, as in the paper's multi-asset positions
        ({"A": "110", "B": "100"}, {"X": "100", "Y": "90"}, (["B"], ["Y"])),
        # a third, small asset listed first on each side: the survivors keep
        # the position's order, not the slot order the bystander sets
        ({"C": "5", "A": "110", "B": "100"}, {"Z": "5", "X": "100", "Y": "90"},
         (["C", "B"], ["Z", "Y"])),
    ])
    def test_a_call_that_zeroes_a_balance_drops_it(self, monkeypatch, collateral, debt, kept):
        # at price 1 block 0's call repays all 100 of X, the largest debt,
        # and seizes 100 * 1.1 = all 110 of A, the largest collateral; CF
        # 0.6 keeps the rest liquidatable, so blocks 1 and 2 act again
        bystander = {"owner": "bystander", "collateral": {"B": "1"}, "debt": {"Y": "0.1"}}
        doc = _book_doc(
            [bystander, {"owner": "subject", "collateral": collateral, "debt": debt}],
            {sym: "1" for sym in "ABCXYZ" if sym in {**collateral, **debt}},
        )
        scenario = load_scenario(doc)
        chosen = _chosen_pairs(monkeypatch)
        log = _assert_engine_equals_reference(scenario)
        first = log.events[0]
        assert (first.block, first.borrower, first.repaid_usd, first.seized_usd) == (
            0, "subject", Dec(100), Dec(110)
        )
        assert [e.block for e in log.events] == [0, 1, 2]
        # no later visit chooses a zeroed asset
        assert chosen == [("X", "A"), ("Y", "B"), ("Y", "B")]
        untouched, subject = log.final_positions
        assert untouched is scenario.positions[0]
        assert [a.symbol for a in subject.collateral] == kept[0]
        assert [a.symbol for a in subject.debt] == kept[1]
        # the book itself holds no zero balance, and a slot's holders are
        # exactly the positions whose side still holds it
        run = liqlab.sim._Run(scenario)
        run.run()
        book = run.terms["subject"]
        for side, symbols in enumerate(kept):
            assert list(book[side]) == [run.slots[Asset(sym)] for sym in symbols]
            for slot, holders in enumerate(run.holders[side]):
                assert holders.get("subject") is book[side].get(slot)
                assert all(term[1] > 0 for term in holders.values())

    def test_equal_rounded_collateral_values_go_to_the_larger_symbol(self, monkeypatch):
        # 0.5 A at 2.000000000000000001 is worth 1.0000000000000000005
        # exactly, which rounds half-even to 1, the value of 1 B: the tie
        # goes to B, listed first and worth less before rounding
        doc = _book_doc(
            [{"owner": "tie", "collateral": {"B": "1", "A": "0.5"}, "debt": {"X": "1.8"}}],
            {"A": "2.000000000000000001", "B": "1", "X": "1"},
            blocks=0,
        )
        doc["params"]["cf"] = "0.5"
        scenario = load_scenario(doc)
        chosen = _chosen_pairs(monkeypatch)
        log = _assert_engine_equals_reference(scenario)
        assert chosen == [("X", "B")]
        assert [(e.repaid_usd, e.seized_usd) for e in log.events] == [
            (Dec("0.9"), Dec("0.99"))
        ]
        assert log.final_positions[0].collateral == {
            Asset("B"): Dec("0.01"), Asset("A"): Dec("0.5")
        }


def _settlement_doc(collateral, debt, bids, moves):
    """A vault with two assets on each side, liquidatable at block 0 and
    auctioned from there, beside a healthy bystander; ``moves`` maps a block
    to the prices it overrides."""
    return {
        "assets": [{"symbol": sym} for sym in "ABXY"],
        "params": {"lt": {"A": "0.8", "B": "0.7"}, "ls": "0.1", "cf": "0.5"},
        "positions": [
            {"owner": "bystander", "collateral": {"A": "10"}, "debt": {"Y": "1"}},
            {"owner": "vault", "collateral": collateral, "debt": debt},
        ],
        "price_path": {"0": {"A": "1", "B": "1", "X": "1", "Y": "1.3"}, **moves},
        "agents": [{"id": "keeper", "policy": "auction-bidder", "script": [
            {"time": time, "bidder": bidder, "amount": amount, "borrower": "vault"}
            for time, bidder, amount in bids
        ]}],
        "auction_config": {"auction_length": 6, "bid_duration": 3},
        "blocks": 6,
    }


_VAULT = ({"A": "60.123456789012345678", "B": "40.3"}, {"X": "70", "Y": "30"})


class TestSettlementBook:
    """An auction settlement writes the engine's book; every case ends at
    block 4, three blocks after the last bid, matches the reference
    engine's ``Dec`` port of the settlement and keeps ``CheckedRun``'s
    settlement invariant."""

    @pytest.mark.parametrize("collateral, debt, bids, moves, final", [
        # tend: the lot goes for 70 of the 109.3 debt; each debt balance
        # keeps 39.3/109.3 of itself, rounded half-even
        (*_VAULT, [(0, "alice", "40"), (1, "bob", "70")],
         {"2": {"A": "1.1"}, "3": {"Y": "1.31"}},
         ({}, {"X": "25.169258920402561757", "Y": "10.786825251601097896"})),
        # tend paying more than the debt is now worth: the debt is cleared
        (*_VAULT, [(0, "alice", "40"), (1, "bob", "70")], {"3": {"X": "0.4"}},
         ({}, {})),
        # dent: the tab of 109 is met, then bob takes 77.7 of the 100.423...
        # lot, marked to A's new price; the borrower keeps the refunded
        # fraction of each collateral balance
        (*_VAULT, [(0, "alice", "109"), (1, "bob", "77.7")], {"2": {"A": "1.13"}},
         ({"A": "13.604518466453096026", "B": "9.118938322559249652"}, {})),
        # a tend bid of the whole tab with no dent bid after it ends in the
        # dent phase: the winner takes the whole lot and pays the tab of 109,
        # but Y's rise makes the debt worth 112 by the settlement, so each
        # debt balance keeps the unpaid 3/112 of itself
        (*_VAULT, [(0, "alice", "40"), (1, "bob", "109")], {"3": {"Y": "1.4"}},
         ({}, {"X": "1.875", "Y": "0.803571428571428571"})),
        # dent with a dent bid whose debt rose: the borrower keeps the
        # refunded fraction of each collateral balance, as in "dent", and
        # the unpaid 3/112 of each debt balance
        (*_VAULT, [(0, "alice", "109"), (1, "bob", "77.7")], {"3": {"Y": "1.4"}},
         ({"A": "13.604518466453096026", "B": "9.118938322559249652"},
          {"X": "1.875", "Y": "0.803571428571428571"})),
        # dent on a lot that is worth nothing by the settlement: 0.4 A and
        # 0.3 B at 10**-18 each round to 0, so the refund is 0 and so is the
        # lot's value, the settlement's total
        ({"A": "0.4", "B": "0.3"}, {"X": "50", "Y": "30"},
         [(0, "alice", "89"), (1, "bob", "0.5")],
         {"2": {"A": "0.000000000000000001", "B": "0.000000000000000001"}},
         ({}, {})),
    ], ids=["tend", "tend-past-the-debt", "dent", "dent-without-dent-bids", "dent-debt-rose",
            "dent-worthless-lot"])
    def test_a_settlement_writes_the_book(
        self, monkeypatch, collateral, debt, bids, moves, final
    ):
        scenario = load_scenario(_settlement_doc(collateral, debt, bids, moves))
        positions = _counting(monkeypatch, Position, "__post_init__")
        compiled = _counting(monkeypatch, liqlab.sim._Run, "_compile")
        settled = []
        real = liqlab.sim._Run._settle_auctions

        def settling(run, block):
            before = len(positions)
            real(run, block)
            settled.append((block, len(positions) - before))

        monkeypatch.setattr(liqlab.sim._Run, "_settle_auctions", settling)
        log = run_scenario(scenario)
        # the settlement builds no Position and compiles nothing: each
        # position is compiled once, when the run starts, and the vault's
        # Position is built once, for the final positions
        assert (4, 0) in settled and all(built == 0 for _, built in settled)
        assert compiled == [(p,) for p in scenario.positions]
        assert len(positions) == 1
        monkeypatch.undo()
        assert _assert_engine_equals_reference(scenario) == log
        assert run_checked(scenario) == log
        assert [(e.block, e.borrower, e.mechanism) for e in log.events] == [
            (4, "vault", Mechanism.AUCTION)
        ]
        bystander, vault = log.final_positions
        assert bystander is scenario.positions[0]
        assert vault.collateral == {Asset(sym): Dec(v) for sym, v in final[0].items()}
        assert vault.debt == {Asset(sym): Dec(v) for sym, v in final[1].items()}


def test_position_passing_2_255_at_a_later_block_raises_the_kernels_overflow():
    # worth just under 2**255 raw at block 0; ETH doubles at block 1
    doc = json.loads((FIXTURES / "eth_price_drop.json").read_text())
    doc["positions"] = [
        {"owner": "small", "collateral": {"ETH": "1"}, "debt": {"USDC": "1"}},
        {"owner": "whale", "collateral": {"USDC": "1000", "ETH": "5" + "0" * 58},
         "debt": {"USDC": "1"}},
    ]
    doc["params"]["lt"]["USDC"] = "0.5"
    doc["price_path"] = {"0": {"ETH": "1", "USDC": "1"}, "1": {"ETH": "2"}}
    scenario = load_scenario(doc)
    with pytest.raises(OverflowError) as expected:
        value_sums(scenario.positions[1], scenario.price_path[1], scenario.params)
    with pytest.raises(OverflowError) as raised:
        run_scenario(scenario)
    assert str(raised.value) == str(expected.value)


def _whale_overflow_doc(positions, path):
    """ETH, USDC and WBTC at price 1 unless ``path`` says otherwise, each
    held as collateral at LT 0.5, and a close-factor agent."""
    doc = json.loads((FIXTURES / "eth_price_drop.json").read_text())
    doc["assets"].append({"symbol": "WBTC"})
    doc["params"]["lt"] = {"ETH": "0.5", "USDC": "0.5", "WBTC": "0.5"}
    doc["positions"] = positions
    doc["price_path"] = {"0": {"ETH": "1", "USDC": "1", "WBTC": "1"}, **path}
    return doc


_E58 = "0" * 58  # an amount of 5 followed by these is worth 5 * 10**76 raw at price 1;
# 2**255 is about 5.79 * 10**76


def _assert_raises_the_kernels_overflow(doc, block, owner):
    """The run raises the overflow that ``value_sums`` raises for ``owner``
    at ``block``, and no other position of the document raises that one."""
    scenario = load_scenario(doc)
    messages = {}
    for position in scenario.positions:
        try:
            value_sums(position, scenario.price_path[block], scenario.params)
        except OverflowError as exc:
            messages[position.owner] = str(exc)
    with pytest.raises(OverflowError) as raised:
        run_scenario(scenario)
    assert str(raised.value) == messages[owner]
    assert list(messages.values()).count(messages[owner]) == 1


def test_two_positions_passing_2_255_at_one_repricing_name_the_first():
    # block 1 triples ETH and WBTC; the first position passes 2**255 through
    # WBTC, the second through ETH, whose holders a re-pricing walks first.
    # Block 0's volume, 4.5 * 10**76 and a little, is in range
    doc = _whale_overflow_doc(
        [
            {"owner": "small", "collateral": {"ETH": "1"}, "debt": {"USDC": "1"}},
            {"owner": "wbtc-whale", "collateral": {"ETH": "1", "WBTC": "2" + _E58},
             "debt": {"USDC": "1"}},
            {"owner": "eth-whale", "collateral": {"ETH": "25" + _E58[1:]},
             "debt": {"USDC": "1"}},
        ],
        {"1": {"ETH": "3", "WBTC": "3"}},
    )
    _assert_raises_the_kernels_overflow(doc, 1, "wbtc-whale")


def test_debt_passing_2_255_at_a_later_block_raises_the_kernels_overflow():
    # healthy at block 0 (bc 2.25 * 10**76 against d 2 * 10**76); ETH, owed
    # and not held, triples at block 1
    doc = _whale_overflow_doc(
        [
            {"owner": "small", "collateral": {"ETH": "1"}, "debt": {"USDC": "1"}},
            {"owner": "debtor", "collateral": {"USDC": "45" + _E58[1:]},
             "debt": {"ETH": "2" + _E58}},
        ],
        {"1": {"ETH": "3"}},
    )
    _assert_raises_the_kernels_overflow(doc, 1, "debtor")


def test_a_position_past_2_255_at_block_0_raises_the_kernels_overflow():
    # the first position passes on its debt side, the second on its
    # collateral side, which block 0 rounds first (both are ETH terms)
    doc = _whale_overflow_doc(
        [
            {"owner": "debtor", "collateral": {"USDC": "1"}, "debt": {"ETH": "3" + _E58}},
            {"owner": "holder", "collateral": {"ETH": "4" + _E58}, "debt": {"USDC": "1"}},
        ],
        {},
    )
    doc["price_path"]["0"]["ETH"] = "2"
    _assert_raises_the_kernels_overflow(doc, 0, "debtor")


def test_a_sum_past_2_255_only_midway_through_a_repricing_is_no_error():
    # block 1 doubles ETH and halves WBTC: re-rounding the ETH terms first
    # takes the whale's c to 6 * 10**76, the WBTC terms bring it back to
    # 5 * 10**76, which the kernel values without error. Both positions stay
    # healthy, so the volume is their value
    doc = _whale_overflow_doc(
        [
            {"owner": "small", "collateral": {"ETH": "3"}, "debt": {"USDC": "1"}},
            {"owner": "whale", "collateral": {"ETH": "2" + _E58, "WBTC": "2" + _E58},
             "debt": {"USDC": "1"}},
        ],
        {"1": {"ETH": "2", "WBTC": "0.5"}},
    )
    scenario = load_scenario(doc)
    log = run_scenario(scenario)
    c = sum(value_sums(p, scenario.price_path[1], scenario.params)[0] for p in scenario.positions)
    assert c == 5 * 10**76 + 6 * SCALE
    assert log.collateral_volume_by_block[1] == Dec.from_raw(c)


# -- one oracle snapshot per price change ------------------------------------

WBTC = Asset("WBTC")


class TestSharedSnapshots:
    def test_quiet_blocks_share_one_snapshot_and_override_blocks_do_not(self):
        doc = sparse_wbtc_doc(blocks=6)
        doc["price_path"].update({"1": {}, "5": {"WBTC": "40000"}})
        path = load_scenario(doc).price_path
        # blocks 0-2 (1 overrides nothing), then 3-4, then 5-6
        assert path[1] is path[0] and path[2] is path[0]
        assert path[3] is not path[2] and path[4] is path[3]
        # an override that repeats a price is a new, equal snapshot
        assert path[5] is not path[4] and path[5] == path[4] and path[6] is path[5]
        assert path[3].prices == {ETH: Dec(3000), WBTC: Dec(40000), Asset("USDC"): Dec(1)}

    def test_one_snapshot_is_built_per_price_change(self, monkeypatch):
        # the loader checks each block's overrides itself, so it builds its
        # snapshots through _of_checked, and none of them checks every price
        built, rechecked = [], []
        real = OracleSnapshot._of_checked.__func__

        def counting(cls, prices):
            built.append(prices)
            return real(cls, prices)

        monkeypatch.setattr(OracleSnapshot, "_of_checked", classmethod(counting))
        monkeypatch.setattr(OracleSnapshot, "__post_init__", rechecked.append)
        path = load_scenario(sparse_wbtc_doc(blocks=40)).price_path
        assert len(built) == 2 and len({id(s) for s in path.values()}) == 2
        assert rechecked == []

    @pytest.mark.parametrize("moves, snapshots", [({}, 1), ({"7": {"ETH": "3400"}}, 2)])
    def test_quiet_blocks_are_neither_validated_nor_repriced(self, moves, snapshots):
        reads = []

        class CountingPrices(dict):
            def __contains__(self, asset):
                reads.append(("validate", asset.symbol))
                return super().__contains__(asset)

            def __getitem__(self, asset):
                reads.append(("reprice", asset.symbol))
                return super().__getitem__(asset)

        scenario = _three_healthy_positions_three_agents(moves)
        for snapshot in {id(s): s for s in scenario.price_path.values()}.values():
            object.__setattr__(snapshot, "prices", CountingPrices(snapshot.prices))
        scenario = replace(scenario)  # validated again, on the counting snapshots
        log = run_scenario(scenario)
        assert log.events == ()
        # the three referenced assets are looked up once per snapshot, not per block
        assert sorted(reads) == sorted(
            (step, asset) for step in ("validate", "reprice")
            for asset in ("ETH", "WBTC", "USDC") for _ in range(snapshots)
        )

    @pytest.mark.parametrize("moves", [{}, {"4": {"ETH": "2000"}}])
    def test_distinct_equal_snapshots_run_like_shared_ones(self, monkeypatch, moves):
        doc = sparse_wbtc_doc(blocks=8)
        doc["price_path"].update(moves)
        doc["agents"].append({"id": "two-step", "policy": "optimal-two-step"})
        shared = load_scenario(doc)
        distinct = replace(shared, price_path={
            block: OracleSnapshot(prices=snapshot.prices)
            for block, snapshot in shared.price_path.items()
        })
        assert distinct == shared
        assert len({id(s) for s in distinct.price_path.values()}) == 9
        logs, counts = [], []
        for scenario in (shared, distinct):
            rerounded = _rerounded(monkeypatch)
            logs.append(run_scenario(scenario))
            counts.append(len(rerounded()))
            monkeypatch.undo()
        assert logs[0].events  # the agents act
        assert _log_digest(logs[1]) == _log_digest(logs[0])
        assert counts[1] == counts[0]


# -- each amount checked once ------------------------------------------------

_AMOUNT_FIELD = "positions[0].{side}.{symbol}"
# (key, value, outcome) in place of one side of the worked example's
# position; the key None stands for that side's own asset. The outcome is
# the amount kept (None: dropped), or the error's (field, problem), as the
# loader reported them before strings were parsed straight into Dec
_ONE_AMOUNT = {
    "str": (None, "1.5", Dec("1.5")),
    "str-zero": (None, "0", None),
    "str-negative": (None, "-1", ("positions[0]", "negative {side} amount for {symbol}: -1")),
    "int": (None, 5, Dec(5)),
    "int-zero": (None, 0, None),
    "float": (None, 1.5, (_AMOUNT_FIELD, "decimals must be strings, not floats")),
    "bool": (None, True, (_AMOUNT_FIELD, "cannot construct Dec from bool")),
    "null": (None, None, (_AMOUNT_FIELD, "cannot construct Dec from NoneType")),
    "list": (None, [], (_AMOUNT_FIELD, "cannot construct Dec from list")),
    "exponent": (None, "1e5", (_AMOUNT_FIELD, "not a decimal string: '1e5'")),
    "19-digits": (None, "0." + "1" * 19, (
        _AMOUNT_FIELD, "more than 18 fractional digits: '0.1111111111111111111'"
    )),
    "str-past-2**255": (None, "1" + "0" * 59, (
        _AMOUNT_FIELD, "fixed-point magnitude exceeds 2**255: integer part of 60 digits"
    )),
    "int-past-2**255": (None, 2**255, (
        _AMOUNT_FIELD, f"fixed-point magnitude exceeds 2**255: {2**255 * SCALE}"
    )),
    "unknown-symbol": ("BTC", "1", (_AMOUNT_FIELD, "unknown asset 'BTC'")),
}


@pytest.mark.parametrize("side, asset", [("collateral", ETH), ("debt", USDC)])
@pytest.mark.parametrize("key, value, outcome", _ONE_AMOUNT.values(), ids=_ONE_AMOUNT)
def test_one_amount_loads_as_the_public_constructors_build_it(side, asset, key, value, outcome):
    doc = json.loads(json.dumps(FIXTURE_DOCS["eth_price_drop"]))
    symbol = key or asset.symbol
    doc["positions"][0][side] = {symbol: value}
    if isinstance(outcome, tuple):
        with pytest.raises(InvalidScenarioError) as raised:
            load_scenario(doc)
        field, problem = (part.format(side=side, symbol=symbol) for part in outcome)
        assert (raised.value.field, raised.value.problem) == (field, problem)
        return
    amounts = {"collateral": {ETH: Dec(3)}, "debt": {USDC: Dec(8400)}}
    amounts[side] = {asset: Dec(value)}
    built = Position("borrower-1", **amounts)
    loaded = load_scenario(doc).positions[0]
    assert loaded == built
    assert getattr(loaded, side) == ({} if outcome is None else {asset: outcome})
    assert all(type(amount) is Dec for amount in getattr(loaded, side).values())


# (position, side, symbol, amount) zeros added to a book of three positions;
# USDC has no threshold, so a zero USDC collateral must be dropped
@pytest.mark.parametrize("zeros, rechecked", [
    ([], 0),
    ([(0, "collateral", "USDC", "0"), (0, "debt", "ETH", 0)], 1),
    ([(0, "collateral", "USDC", "0"), (2, "debt", "ETH", "0.0")], 2),
], ids=["all-positive", "two-zeros-in-one-position", "zeros-in-two-positions"])
def test_only_a_position_holding_a_zero_goes_through_its_constructor(
    monkeypatch, zeros, rechecked
):
    doc = sparse_wbtc_doc()
    doc["positions"].append({"owner": "idle", "collateral": {"ETH": "1", "WBTC": "2"}})
    for i, side, symbol, amount in zeros:
        doc["positions"][i].setdefault(side, {})[symbol] = amount
    built = _counting(monkeypatch, Position, "__post_init__")
    scenario = load_scenario(doc)
    assert len(built) == rechecked
    assets = {asset.symbol: asset for asset in scenario.assets}
    assert scenario.positions == tuple(
        Position(entry["owner"], *(
            {assets[symbol]: Dec(amount) for symbol, amount in entry.get(side, {}).items()}
            for side in ("collateral", "debt")
        ))
        for entry in doc["positions"]
    )


def test_a_negative_amount_goes_through_its_constructor(monkeypatch):
    doc = sparse_wbtc_doc()
    doc["positions"][1]["debt"]["ETH"] = "-1"
    built = _counting(monkeypatch, Position, "__post_init__")
    with pytest.raises(InvalidScenarioError) as raised:
        load_scenario(doc)
    assert str(raised.value) == (
        "invalid scenario: positions[1]: negative debt amount for ETH: -1"
    )
    assert len(built) == 1


def test_step_series_repr():
    series = StepSeries([0, 3], [Dec(1), Dec(2)], 5)
    assert repr(series) == "StepSeries([0, 3], [Dec('1'), Dec('2')], last=5)"


class TestSnapshotValidation:
    def test_unpriced_asset_is_reported_at_block_zero(self):
        doc = sparse_wbtc_doc(blocks=6)
        del doc["price_path"]["0"]["USDC"]
        with pytest.raises(InvalidScenarioError) as info:
            load_scenario(doc)
        assert info.value.field == "price_path"
        assert info.value.problem == "block 0 misses price for USDC"

    def test_distinct_snapshot_missing_a_price_is_reported_at_its_block(self):
        scenario = load_scenario(sparse_wbtc_doc(blocks=6))
        path = dict(scenario.price_path)
        path[4] = OracleSnapshot(prices={ETH: Dec(3000), WBTC: Dec(40000)})
        with pytest.raises(InvalidScenarioError) as info:
            replace(scenario, price_path=path)
        assert info.value.problem == "block 4 misses price for USDC"
        del path[5]
        with pytest.raises(InvalidScenarioError) as info:
            replace(scenario, price_path=path)
        assert info.value.problem == "block 4 misses price for USDC"
        path[4] = path[3]
        with pytest.raises(InvalidScenarioError) as info:
            replace(scenario, price_path=path)
        assert info.value.problem == "missing snapshot for block 5"

    @pytest.mark.parametrize(
        "override, field, problem",
        [
            ({"ETH": "0"}, "price_path.4", "oracle price for ETH must be > 0"),
            ({"ETH": "-2"}, "price_path.4", "oracle price for ETH must be > 0"),
            ({"ETH": 2.5}, "price_path.4.ETH", "decimals must be strings, not floats"),
            ({"GEM": "1"}, "price_path.4.GEM", "unknown asset 'GEM'"),
            (["ETH"], "price_path.4", "must be an object"),
            (None, "price_path.4", "must be an object"),
        ],
    )
    def test_bad_override_at_block_k_names_that_block(self, override, field, problem):
        doc = sparse_wbtc_doc(blocks=6)
        doc["price_path"]["4"] = override
        with pytest.raises(InvalidScenarioError) as info:
            load_scenario(doc)
        assert (info.value.field, info.value.problem) == (field, problem)

    @pytest.mark.parametrize("wbtc, named", [("0", "WBTC"), ("1", "DAI")])
    def test_first_bad_price_is_named_in_the_merged_order(self, wbtc, named):
        # the override names DAI (a new key, merged last) before WBTC (an
        # inherited key, merged second): the merged prices' order decides
        doc = sparse_wbtc_doc(blocks=6)
        doc["assets"].append({"symbol": "DAI"})
        doc["price_path"]["4"] = {"DAI": "-1", "WBTC": wbtc}
        with pytest.raises(InvalidScenarioError) as info:
            load_scenario(doc)
        assert str(info.value) == (
            f"invalid scenario: price_path.4: oracle price for {named} must be > 0"
        )

    @pytest.mark.parametrize(
        "override, field, problem",
        [
            ({"DAI": "-1", "WBTC": "x"}, "price_path.4.WBTC", "not a decimal string: 'x'"),
            ({"WBTC": "x", "DAI": "-1"}, "price_path.4.WBTC", "not a decimal string: 'x'"),
            ({"ETH": "0", "GEM": "1"}, "price_path.4.GEM", "unknown asset 'GEM'"),
        ],
    )
    def test_every_override_is_parsed_before_any_price_is_checked(
        self, override, field, problem
    ):
        # a bad decimal or an unknown asset anywhere in the block's overrides
        # is reported before a non-positive price, whichever comes first
        doc = sparse_wbtc_doc(blocks=6)
        doc["assets"].append({"symbol": "DAI"})
        doc["price_path"]["4"] = override
        with pytest.raises(InvalidScenarioError) as info:
            load_scenario(doc)
        assert (info.value.field, info.value.problem) == (field, problem)

    def test_inherited_prices_stay_in_the_snapshot(self):
        doc = sparse_wbtc_doc(blocks=6)
        doc["assets"].append({"symbol": "DAI"})
        doc["price_path"]["4"] = {"DAI": "2", "ETH": "2900"}
        path = load_scenario(doc).price_path
        assert list(path[4].prices.values()) == [Dec(2900), Dec(40000), Dec(1), Dec(2)]
        assert path[4] == OracleSnapshot(path[4].prices) and path[3].prices[ETH] == Dec(3000)


class TestPricePathKeys:
    @pytest.mark.parametrize(
        "key", ["1.0", "01", "00", "-1", "+1", "x", "", " 1", "1 ", "1e1", "٣", "²"]
    )
    def test_a_key_no_block_can_read_is_rejected(self, key):
        doc = sparse_wbtc_doc(blocks=6)
        doc["price_path"][key] = {"ETH": "1"}
        with pytest.raises(InvalidScenarioError) as info:
            load_scenario(doc)
        assert info.value.field == "price_path"
        assert info.value.problem == f"key {key!r} is not a block number"

    def test_a_non_string_key_of_a_dict_document_is_rejected(self):
        doc = sparse_wbtc_doc(blocks=6)
        doc["price_path"][2] = {"ETH": "1"}
        with pytest.raises(InvalidScenarioError, match="key 2 is not a block number"):
            load_scenario(doc)

    def test_keys_past_the_horizon_are_ignored_with_their_content(self):
        doc = sparse_wbtc_doc(blocks=6)
        expected = load_scenario(doc)
        doc["price_path"].update({"7": {"ETH": "0"}, "1000": {"GEM": 1.5}, "9" * 50: []})
        # more digits than int() converts by default
        doc["price_path"]["9" * 5000] = {"ETH": "0"}
        assert load_scenario(doc) == expected

    def test_keys_are_read_in_block_order_whatever_their_order(self):
        doc = sparse_wbtc_doc(blocks=6)
        doc["price_path"].update({"5": {"ETH": "2000"}, "2": {"ETH": "2500"}})
        expected = load_scenario(doc)
        doc["price_path"] = dict(reversed(doc["price_path"].items()))
        scenario = load_scenario(doc)
        assert scenario == expected
        assert [scenario.price_path[b].prices[ETH] for b in (1, 2, 4, 5)] == [
            Dec(3000), Dec(2500), Dec(2500), Dec(2000)
        ]


_path_prices = {
    "ETH": st.sampled_from(["1500", "1900", "2100", "2500", "3000", "3500"]),
    "WBTC": st.sampled_from(["30000", "38000", "42000", "45000", "50000"]),
}


@st.composite
def _sparse_paths(draw):
    """A sparse price path over the sparse_wbtc_doc book, some overrides
    empty and some repeating the current price."""
    blocks = draw(st.integers(0, 10))
    path = {"0": {"ETH": draw(_path_prices["ETH"]), "WBTC": draw(_path_prices["WBTC"]),
                  "USDC": "1"}}
    for block in range(1, blocks + 1):
        moved = draw(st.sets(st.sampled_from(sorted(_path_prices)), max_size=2))
        if moved or draw(st.booleans()):
            path[str(block)] = {sym: draw(_path_prices[sym]) for sym in sorted(moved)}
    return blocks, path


def _dense(blocks, path):
    """The same path with every block pricing every asset."""
    dense, current = {}, {}
    for block in range(blocks + 1):
        current.update(path.get(str(block), {}))
        dense[str(block)] = dict(current)
    return dense


def _log_digest(log):
    return (
        log.to_csv(),
        log.to_jsonl(),
        log.collateral_volume_by_block,
        log.final_positions,
    )


@settings(max_examples=100, deadline=None)
@given(_sparse_paths(), st.booleans())
def test_sparse_path_and_its_dense_expansion_give_the_same_run(sparse, one_per_block):
    blocks, path = sparse
    doc = sparse_wbtc_doc(blocks=blocks)
    doc["agents"].append({"id": "two-step", "policy": "optimal-two-step"})
    doc["one_liquidation_per_block"] = one_per_block
    doc["price_path"] = path
    sparse_scenario = load_scenario(doc)
    doc["price_path"] = _dense(blocks, path)
    dense_scenario = load_scenario(doc)
    assert sparse_scenario == dense_scenario
    assert _log_digest(run_scenario(sparse_scenario)) == _log_digest(
        run_scenario(dense_scenario)
    )


_path_keys = st.sampled_from(["0", "1", "2", "3", "01", "1.0", "-1", "x"]) | st.text(max_size=3)
_path_entries = json_values | st.dictionaries(
    st.sampled_from(["ETH", "USDC", "WBTC", "DAI", "GEM"]) | st.text(max_size=3),
    json_values,
    max_size=3,
)


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(FIXTURE_DOCS)),
    path=json_values | st.dictionaries(_path_keys, _path_entries, max_size=4),
)
def test_any_json_price_path_loads_or_names_the_problem(name, path):
    doc = json.loads(json.dumps(FIXTURE_DOCS[name]))
    doc["price_path"] = path
    try:
        assert isinstance(load_scenario(doc), Scenario)
    except InvalidScenarioError:
        pass


# -- step-function price path and volume series -----------------------------


def _step_mapping(which):
    """A loaded price path or a run's volume series, over blocks 0..6, and
    the plain dict of every block it stands for."""
    doc = sparse_wbtc_doc(blocks=6)
    doc["price_path"].update({"1": {}, "5": {"WBTC": "40000"}})
    scenario = load_scenario(doc)
    if which == "volume":
        expected = reference_engine.run_reference(scenario).collateral_volume_by_block
        return run_scenario(scenario).collateral_volume_by_block, expected
    by_symbol = {asset.symbol: asset for asset in scenario.assets}
    expected = {
        int(block): OracleSnapshot({by_symbol[sym]: Dec(p) for sym, p in prices.items()})
        for block, prices in _dense(6, doc["price_path"]).items()
    }
    return scenario.price_path, expected


@pytest.mark.parametrize("which", ["price_path", "volume"])
class TestStepSeries:
    def test_it_reads_as_the_dict_of_every_block(self, which):
        series, expected = _step_mapping(which)
        assert isinstance(series, StepSeries)
        assert len(series) == len(expected) == 7
        assert list(series) == list(expected) == list(range(7))
        assert list(series.items()) == list(expected.items())
        assert series == expected and expected == series
        assert not (series != expected or expected != series)

    def test_it_differs_from_a_dict_that_differs(self, which):
        series, expected = _step_mapping(which)
        for changed in (
            {**expected, 3: object()},
            {**expected, 7: expected[6]},
            {block: value for block, value in expected.items() if block != 6},
        ):
            assert series != changed and changed != series

    def test_a_block_outside_the_horizon_is_missing(self, which):
        series, _ = _step_mapping(which)
        for key in (-1, 7, 10**30, "3", None):
            assert key not in series
            assert series.get(key) is None
            with pytest.raises(KeyError):
                series[key]

    def test_it_pickles(self, which):
        series, _ = _step_mapping(which)
        loaded = pickle.loads(pickle.dumps(series))
        assert type(loaded) is StepSeries and loaded == series
        assert list(loaded.items()) == list(series.items())


def test_two_paths_are_equal_when_their_prices_are():
    doc = sparse_wbtc_doc(blocks=6)
    path = load_scenario(doc).price_path
    # an override that repeats a price stores a new, equal snapshot
    doc["price_path"]["2"] = {"ETH": "3000"}
    assert load_scenario(doc).price_path == path
    doc["price_path"]["4"] = doc["price_path"].pop("3")
    assert load_scenario(doc).price_path != path
    assert load_scenario(sparse_wbtc_doc(blocks=7)).price_path != path


class TestProgrammaticPricePath:
    def test_a_dict_is_read_once_without_its_keys_past_the_horizon(self):
        scenario = load_scenario(sparse_wbtc_doc(blocks=6))
        path = dict(scenario.price_path)
        # past the horizon, so neither validated (it lacks WBTC) nor kept
        path[7] = OracleSnapshot(prices={ETH: Dec(1)})
        given = replace(scenario, price_path=path)
        assert type(given.price_path) is StepSeries
        assert given == scenario and given.price_path.get(7) is None
        del path[3]  # the scenario holds its own copy
        assert given.price_path[3] is scenario.price_path[3]
        assert _log_digest(run_scenario(given)) == _log_digest(run_scenario(scenario))

    def test_a_smaller_horizon_cuts_the_path(self):
        scenario = load_scenario(sparse_wbtc_doc(blocks=6))
        cut = replace(scenario, blocks=2)
        assert len(cut.price_path) == 3 and cut.price_path.get(3) is None
        assert cut == load_scenario(sparse_wbtc_doc(blocks=2))

    def test_a_loaded_path_is_missing_the_blocks_past_its_horizon(self):
        scenario = load_scenario(sparse_wbtc_doc(blocks=6))
        with pytest.raises(InvalidScenarioError, match="missing snapshot for block 7"):
            replace(scenario, blocks=8)

    @pytest.mark.parametrize("gap", [0, 4])
    def test_the_first_missing_block_is_reported(self, gap):
        scenario = load_scenario(sparse_wbtc_doc(blocks=6))
        path = dict(scenario.price_path)
        del path[gap]
        with pytest.raises(InvalidScenarioError, match=f"missing snapshot for block {gap}$"):
            replace(scenario, price_path=path)


HUGE = 10**9


def test_a_huge_horizon_costs_what_its_changes_cost():
    # a fresh interpreter, so that the peak RSS it reports is this run's own
    code = (
        "import json, resource, sys, time\n"
        "from liqlab import load_scenario, run_scenario\n"
        "doc = json.loads(open(sys.argv[1], encoding='utf-8').read())\n"
        "short = run_scenario(load_scenario(doc))\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "doc['blocks'] = int(sys.argv[2])\n"
        "start = time.perf_counter()\n"
        "log = run_scenario(load_scenario(doc))\n"
        "elapsed = time.perf_counter() - start\n"
        "rise = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before\n"
        "volume = log.collateral_volume_by_block\n"
        "print(json.dumps({\n"
        "    'elapsed_s': elapsed, 'rise_kib': rise,\n"
        "    'same_events': log.events == short.events,\n"
        "    'same_positions': log.final_positions == short.final_positions,\n"
        "    'volume_blocks': len(volume),\n"
        "    'last_volume': volume[doc['blocks']] == short.collateral_volume_by_block[1],\n"
        "}))\n"
    )
    src = Path(liqlab.sim.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-c", code, str(FIXTURES / "two_step.json"), str(HUGE)]
    report = json.loads(subprocess.run(argv, env=env, check=True, capture_output=True).stdout)
    assert report["elapsed_s"] < 1
    assert report["rise_kib"] < 20 * 1024  # ru_maxrss is in KiB on Linux
    assert report["same_events"] and report["same_positions"] and report["last_volume"]
    assert report["volume_blocks"] == HUGE + 1


def test_a_huge_horizon_runs_only_its_wake_up_blocks(monkeypatch):
    doc = sparse_wbtc_doc(blocks=HUGE)
    # WBTC falls at block 3 and ETH near the end; each liquidates its holder
    doc["price_path"][str(HUGE - 5)] = {"ETH": "1000"}
    acted = _count_run_calls(monkeypatch, "_act_close_factor")
    log = run_scenario(load_scenario(doc))
    assert [(e.block, e.borrower) for e in log.events] == [
        (3, "btc-holder"), (HUGE - 5, "eth-holder"), (HUGE - 4, "eth-holder")
    ]
    # the price moves, and each block after a block that changed a position
    assert acted == [0, 3, 4, HUGE - 5, HUGE - 4, HUGE - 3]


# -- event-driven block clock ------------------------------------------------

QUIET_BLOCKS = 100_000


def _count_run_calls(monkeypatch, name):
    """Wrap ``liqlab.sim._Run.<name>`` so each call's block is appended to the
    returned list."""
    blocks = []
    real = getattr(liqlab.sim._Run, name)

    def counting(run, *args):
        blocks.append(args[1] if len(args) > 1 else args[0])
        return real(run, *args)

    monkeypatch.setattr(liqlab.sim._Run, name, counting)
    return blocks


def _vault_auction_doc(script=(), blocks=12, auction_length=5, bid_duration=3):
    """One position liquidatable from block 0 and one auction bidder."""
    return {
        "assets": [{"symbol": "ETH"}, {"symbol": "USDC"}],
        "params": {"lt": {"ETH": "0.8"}, "ls": "0.1", "cf": "0.5"},
        "positions": [{"owner": "vault", "collateral": {"ETH": "1"}, "debt": {"USDC": "90"}}],
        "price_path": {"0": {"ETH": "100", "USDC": "1"}},
        "agents": [{"id": "keeper", "policy": "auction-bidder", "script": list(script)}],
        "auction_config": {"auction_length": auction_length, "bid_duration": bid_duration},
        "blocks": blocks,
    }


class TestIdleBlocks:
    @pytest.mark.parametrize("distinct_at", [(), (1, 17, 50_000, QUIET_BLOCKS)])
    def test_a_quiet_scenario_runs_each_policy_once(self, monkeypatch, distinct_at):
        base = _three_healthy_positions_three_agents({})
        snapshot = base.price_path[0]
        path = dict.fromkeys(range(QUIET_BLOCKS + 1), snapshot)
        for block in distinct_at:
            path[block] = OracleSnapshot(prices=snapshot.prices)
        scenario = replace(base, price_path=path, blocks=QUIET_BLOCKS)
        names = ("_act_close_factor", "_act_two_step", "_act_auction_bidder", "_settle_auctions")
        calls = {name: _count_run_calls(monkeypatch, name) for name in names}
        log = run_scenario(scenario)
        assert log.events == ()
        assert calls == dict.fromkeys(names, [0])
        volume = log.collateral_volume_by_block
        assert len(volume) == QUIET_BLOCKS + 1
        assert set(volume.values()) == {Dec(3) * Dec(3500) + Dec(100000)}

    def test_an_auction_expiring_unbid_is_reopened_in_the_next_block(self, monkeypatch):
        opened = []
        real = liqlab.sim.start_auction

        def recording(*args, **kwargs):
            opened.append(kwargs["now"])
            return real(*args, **kwargs)

        monkeypatch.setattr(liqlab.sim, "start_auction", recording)
        log = run_scenario(load_scenario(_vault_auction_doc(blocks=12)))
        assert log.events == ()
        # each auction expires at its start plus the length of 5
        assert opened == [0, 6, 12]

    def test_an_auction_expiring_unbid_is_dropped_without_a_termination(self, monkeypatch):
        terminated = _count_calls(monkeypatch, "apply_termination")
        log = run_scenario(load_scenario(_vault_auction_doc(blocks=12)))
        assert log.events == ()
        # the auctions opened at 0 and 6 expire unbid at 5 and 11: nothing
        # is settled, so nothing is terminated
        assert terminated == []

    def test_a_scripted_bid_at_a_quiet_block_lands(self, monkeypatch):
        acted = _count_run_calls(monkeypatch, "_act_auction_bidder")
        terminated = _count_calls(monkeypatch, "apply_termination")
        bid = {"time": 10, "bidder": "bob", "amount": "45", "borrower": "vault"}
        doc = _vault_auction_doc([bid], blocks=20, auction_length=50, bid_duration=5)
        log = run_scenario(load_scenario(doc))
        # the bid at 10 ends the auction at 15, and the tend settlement
        # leaves no collateral to auction again
        assert [(e.block, e.liquidator, e.mechanism) for e in log.events] == [
            (15, "bob", Mechanism.AUCTION)
        ]
        assert log.events[0].repaid_usd == Dec(45)
        assert log.events[0].gross_profit_usd == Dec(55)
        # a block runs for the bid, for the deadline, or when the block
        # before it changed a position, as the settlement at 15 does; the
        # auction's start at 0 and the bid at 10 wake no block of their own.
        # The engine terminates the auction once, at the deadline
        assert acted == [0, 10, 15, 16]
        assert [args[1] for args in terminated] == [15]

    def test_a_pending_second_call_runs_in_the_next_block(self):
        doc = json.loads((FIXTURES / "two_step.json").read_text(encoding="utf-8"))
        # healthy until COL halves at block 10, then quiet to block 20
        doc["price_path"] = {"0": {"COL": "2", "DEB": "1"}, "10": {"COL": "1"}}
        doc["blocks"] = 20
        doc["one_liquidation_per_block"] = True
        log = run_scenario(load_scenario(doc))
        assert [(e.block, e.liquidator) for e in log.events] == [
            (10, "two-step-1"),
            (11, "two-step-1"),
        ]
