from dataclasses import replace
from pathlib import Path

import pytest

import liqlab.sim
from liqlab import (
    AgentPolicy,
    Asset,
    Dec,
    Mechanism,
    PolicyKind,
    RiskParams,
    Scenario,
    ScriptedBid,
    load_scenario,
    profit_volume_ratio,
    run_scenario,
    strategy_profits,
)
from liqlab.errors import InvalidScenarioError, ZeroVolumeError

from helpers import TOL9, rel_close

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

ETH = Asset("ETH")
USDC = Asset("USDC", decimals=6)


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
        assert position.collateral == {Asset("WBTC", decimals=8): Dec("0.02")}

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

    def test_invalid_params_rejected(self):
        doc = self.base_doc()
        doc["params"]["lt"]["ETH"] = "0.95"
        with pytest.raises(InvalidScenarioError, match="0.95"):
            load_scenario(doc)

    def test_scenario_is_validated_on_construction(self):
        scenario = load_scenario(self.base_doc())
        with pytest.raises(InvalidScenarioError, match="blocks"):
            replace(scenario, blocks=-1)


def test_scripted_bid_against_missing_auction_is_a_scenario_error():
    scenario = load_scenario(str(FIXTURES / "auction.json"))
    bad_script = (ScriptedBid(time=0, bidder="x", amount=Dec(1), borrower="ghost"),)
    agents = (replace(scenario.agents[0], script=bad_script),)
    with pytest.raises(InvalidScenarioError, match="ghost"):
        run_scenario(replace(scenario, agents=agents))


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

    @pytest.mark.parametrize("moves, valuations", [({}, 3), ({"7": {"ETH": "3400"}}, 6)])
    def test_healthy_positions_are_valued_once_per_price_change(
        self, monkeypatch, moves, valuations
    ):
        doc = sparse_wbtc_doc(blocks=10)
        doc["price_path"] = {"0": {"ETH": "3500", "WBTC": "50000", "USDC": "1"}, **moves}
        doc["positions"].append({"owner": "idle", "collateral": {"WBTC": "1"}})
        doc["agents"] = [
            {"id": "cf", "policy": "up-to-close-factor"},
            {"id": "two-step", "policy": "optimal-two-step"},
            {"id": "keeper", "policy": "auction-bidder"},
        ]
        scenario = load_scenario(doc)
        calls = []
        real = liqlab.sim.position_values

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(liqlab.sim, "position_values", counting)
        log = run_scenario(scenario)
        assert log.events == ()
        assert len(calls) == valuations

    def test_gas_unprofitable_call_is_never_sent(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an unprofitable call reached the engine")

        monkeypatch.setattr(liqlab.sim, "execute_liquidation_call", refuse)
        scenario = replace(eth_drop_scenario(), gas_fee_usd=Dec(500))
        assert run_scenario(scenario).events == ()

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
