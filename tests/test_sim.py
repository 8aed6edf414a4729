import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import liqlab.sim
from liqlab import (
    AgentPolicy,
    Asset,
    BadDebtKind,
    Dec,
    Mechanism,
    PolicyKind,
    RiskParams,
    Scenario,
    ScriptedBid,
    classify_bad_debt,
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

    @pytest.mark.parametrize(
        "field, path",
        [
            ("params.ls", ("params", "ls")),
            ("positions[0].debt.DAI", ("positions", 0, "debt", "DAI")),
            ("price_path.0.GEM", ("price_path", "0", "GEM")),
            ("agents[0].script[0].amount", ("agents", 0, "script", 0, "amount")),
        ],
    )
    def test_out_of_range_decimal_names_the_field(self, field, path):
        doc = json.loads((FIXTURES / "auction.json").read_text())
        _set_leaf(doc, path, "9" * 80)  # beyond the 2**255 fixed-point magnitude
        with pytest.raises(InvalidScenarioError) as info:
            load_scenario(doc)
        assert info.value.field == field

    def test_scenario_is_validated_on_construction(self):
        scenario = load_scenario(self.base_doc())
        with pytest.raises(InvalidScenarioError, match="blocks"):
            replace(scenario, blocks=-1)

    @pytest.mark.parametrize("amount", ["0", "-1"])
    def test_scripted_bid_amount_must_be_positive(self, amount):
        doc = json.loads((FIXTURES / "auction.json").read_text())
        doc["agents"][0]["script"][0]["amount"] = amount
        with pytest.raises(InvalidScenarioError, match=f"must be > 0: {amount}") as info:
            load_scenario(doc)
        assert info.value.field == "agents[0].script[0].amount"

    @pytest.mark.parametrize(
        "field, path, value",
        [
            ("auction_config.auction_length", ("auction_config", "auction_length"), 1.5),
            ("auction_config.bid_duration", ("auction_config", "bid_duration"), 3.0),
            ("agents[0].script[0].time", ("agents", 0, "script", 0, "time"), True),
            ("assets[0].decimals", ("assets", 0, "decimals"), True),
            ("assets[0].decimals", ("assets", 0, "decimals"), 18.0),
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

    def test_omitted_boolean_fields_are_false(self):
        scenario = eth_drop_scenario()
        assert scenario.one_liquidation_per_block is False
        assert scenario.params.cf_per_debt_asset is False


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


def _decimal_leaves(node, path=()):
    """Paths to every decimal string in a scenario document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _decimal_leaves(value, path + (key,))
        elif isinstance(value, str):
            try:
                Dec(value)
            except ValueError:
                continue
            yield path + (key,)


FIXTURE_DOCS = {
    name: json.loads((FIXTURES / f"{name}.json").read_text())
    for name in ("eth_price_drop", "two_step", "auction")
}
DECIMAL_LEAVES = [
    (name, path) for name, doc in FIXTURE_DOCS.items() for path in _decimal_leaves(doc)
]
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


@settings(max_examples=150, deadline=None)
@given(leaf=st.sampled_from(DECIMAL_LEAVES), value=json_values)
def test_any_json_value_in_a_decimal_field_loads_or_names_the_problem(leaf, value):
    name, path = leaf
    doc = json.loads(json.dumps(FIXTURE_DOCS[name]))
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
        calls = _count_calls(monkeypatch, "value_sums")
        log = run_scenario(_three_healthy_positions_three_agents(moves))
        assert log.events == ()
        assert len(calls) == valuations

    @pytest.mark.parametrize("moves, checks", [({}, 3), ({"7": {"ETH": "3400"}}, 6)])
    def test_healthy_positions_are_checked_once_per_price_change(
        self, monkeypatch, moves, checks
    ):
        calls = _count_calls(monkeypatch, "value_sums")
        built = _count_calls(monkeypatch, "PositionValues")
        log = run_scenario(_three_healthy_positions_three_agents(moves))
        assert log.events == ()
        # the scan checks the raw sums; no policy needs a healthy position's values
        assert len(calls) == checks
        assert built == []
        eth_price = Dec(3400) if moves else Dec(3500)
        assert log.collateral_volume_by_block[10] == Dec(3) * eth_price + Dec(100000)

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
        def refuse(*args):
            raise AssertionError("an unprofitable call reached the engine")

        monkeypatch.setattr(liqlab.sim, "check_liquidation_call", refuse)
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
