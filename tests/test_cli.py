import dataclasses
import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_isolated
from dispersal import SolverError, Strategy, cli
from dispersal.cli import main, round_distribution
from dispersal.ess import EssVerdict
from dispersal.game import MAX_PLAYERS
from dispersal.montecarlo import SimReport


def write_instance(tmp_path, name="instance.json", **fields):
    payload = {
        "values": [1.0, 0.5],
        "players": 2,
        "policy": {"type": "exclusive"},
    }
    payload.update(fields)
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_sigma_star_output(self, tmp_path, capsys):
        path = write_instance(tmp_path)
        code, out, _ = run(capsys, ["solve", "--instance", path, "--mode", "sigma-star"])
        assert code == 0
        payload = json.loads(out)
        assert payload["strategy"] == [0.666666667, 0.333333333]
        assert payload["support_size"] == 2
        assert payload["normalizer"] == 0.333333333
        assert payload["common_value"] == 0.333333333
        assert payload["residual"] <= 1e-9

    def test_ifd_single_site_sharing(self, tmp_path, capsys):
        path = write_instance(tmp_path, values=[1.0], players=3, policy={"type": "sharing"})
        code, out, _ = run(capsys, ["solve", "--instance", path, "--mode", "ifd"])
        assert code == 0
        payload = json.loads(out)
        assert payload["strategy"] == [1.0]

    def test_welfare_opt_output(self, tmp_path, capsys):
        path = write_instance(tmp_path)
        code, out, _ = run(capsys, ["solve", "--instance", path, "--mode", "welfare-opt"])
        assert code == 0
        payload = json.loads(out)
        assert payload["strategy"] == [0.5, 0.5]
        assert payload["payoff"] == 0.375

    def test_zero_value_rejected_with_field_path(self, tmp_path, capsys):
        path = write_instance(tmp_path, values=[1.0, 0.0])
        code, _, err = run(capsys, ["solve", "--instance", path, "--mode", "sigma-star"])
        assert code == 2
        assert "values[1]" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["solve", "--instance", "/nonexistent.json", "--mode", "ifd"])
        assert code == 2

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"values": [1.0,\n')
        code, _, err = run(capsys, ["solve", "--instance", str(path), "--mode", "ifd"])
        assert code == 2
        assert "line" in err

    def test_deeply_nested_json_is_a_validation_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"values": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, _, err = run(capsys, ["solve", "--instance", str(path), "--mode", "ifd"])
        assert code == 2
        assert "invalid JSON" in err

    def test_unknown_policy_type(self, tmp_path, capsys):
        path = write_instance(tmp_path, policy={"type": "mystery"})
        code, _, err = run(capsys, ["solve", "--instance", path, "--mode", "ifd"])
        assert code == 2
        assert "policy.type" in err

    def test_short_table_rejected(self, tmp_path, capsys):
        path = write_instance(tmp_path, players=3, policy={"type": "table", "table": [1.0, 0.5]})
        code, _, err = run(capsys, ["solve", "--instance", path, "--mode", "ifd"])
        assert code == 2
        assert err == f"error: {path}: policy.table: needs at least 3 entries, got 2\n"

    def test_single_player_is_trivial_with_warning(self, tmp_path, capsys):
        path = write_instance(tmp_path, players=1)
        code, out, err = run(capsys, ["solve", "--instance", path, "--mode", "sigma-star"])
        assert code == 0
        assert "warning" in err
        assert json.loads(out)["strategy"] == [1.0, 0.0]

    def test_single_player_reports_site_order(self, tmp_path, capsys):
        path = write_instance(tmp_path, values=[0.5, 1.0], players=1)
        code, out, err = run(capsys, ["solve", "--instance", path, "--mode", "sigma-star"])
        assert code == 0
        assert "warning" in err
        payload = json.loads(out)
        assert payload["strategy"] == [1.0, 0.0]
        assert payload["site_order"] == [2, 1]

    def test_unsorted_values_are_canonicalized(self, tmp_path, capsys):
        path = write_instance(tmp_path, values=[0.5, 1.0])
        code, out, _ = run(capsys, ["solve", "--instance", path, "--mode", "sigma-star"])
        assert code == 0
        payload = json.loads(out)
        assert payload["strategy"] == [0.666666667, 0.333333333]
        assert payload["site_order"] == [2, 1]

    def test_emitted_strategy_revalidates(self, tmp_path, capsys):
        path = write_instance(tmp_path, values=[1.0] * 20)
        code, out, _ = run(capsys, ["solve", "--instance", path, "--mode", "sigma-star"])
        assert code == 0
        Strategy(tuple(json.loads(out)["strategy"]))

    def test_many_players(self, tmp_path, capsys):
        # The log-space kernel forms no binomial coefficient, so k = 1100
        # solves, past where C(k-1, j) leaves the float range.
        values = [1.0, 0.5, 0.25]
        path = write_instance(tmp_path, values=values, players=1100)
        code, out, _ = run(capsys, ["solve", "--instance", path, "--mode", "sigma-star"])
        assert code == 0
        assert json.loads(out)["support_size"] == 3
        path = write_instance(tmp_path, "sharing.json", values=values, players=1100, policy={"type": "sharing"})
        code, out, _ = run(capsys, ["solve", "--instance", path, "--mode", "ifd"])
        assert code == 0
        assert json.loads(out)["residual"] <= 1e-8

    def test_table_weights_beyond_the_binomial_range_end_cleanly(self, tmp_path, capsys):
        # Each weight times its binomial coefficient would pass the float
        # range; the solve must end in an answer or exit 3, never in NaN.
        table = {"type": "table", "table": [1.0] + [-1e200] * 599}
        path = write_instance(tmp_path, values=[1.0, 0.5], players=600, policy=table)
        for argv in (["solve", "--instance", path, "--mode", "ifd"], ["spoa", "--instance", path]):
            code, out, err = run(capsys, argv)
            assert code in (0, 3)
            assert "NaN" not in out + err
            assert "Traceback" not in err

    def test_steep_table_solves(self, tmp_path, capsys):
        # C(l) = 1 - 1e6 (l - 1): the common value is about -4.7e7, so the
        # residual is compared with 1e-8 times the largest site value magnitude.
        table = {"type": "table", "table": [1.0 - 1e6 * l for l in range(100)]}
        path = write_instance(tmp_path, values=[1.0, 0.9], players=100, policy=table)
        for argv in (["solve", "--instance", path, "--mode", "ifd"], ["spoa", "--instance", path]):
            code, _, err = run(capsys, argv)
            assert (code, err) == (0, "")

    def test_common_value_at_the_table_floor_solves(self, tmp_path, capsys):
        # f(2) / f(1) = 0.42 lies just above C(8) = 0.419: the equilibrium's
        # common value is within an ulp of the low end of the outer bracket.
        table = {"type": "table", "table": [1.0, 0.78] + [0.419] * 6}
        path = write_instance(tmp_path, values=[1.0, 0.42], players=8, policy=table)
        code, out, err = run(capsys, ["solve", "--instance", path, "--mode", "ifd"])
        assert (code, err) == (0, "")
        assert json.loads(out)["strategy"] == [0.998458454, 0.001541546]
        code, out, err = run(capsys, ["spoa", "--instance", path])
        assert (code, err) == (0, "")

    def test_solver_error_diagnostics_are_json(self, tmp_path, capsys, monkeypatch):
        diagnostics = {"residual": 2.5e-6, "common_value": 0.25, "value": 0.25}

        def failing_solve(instance):
            raise SolverError("equilibrium residual exceeds tolerance", **diagnostics)

        monkeypatch.setattr(cli, "solve_ifd", failing_solve)
        code, _, err = run(capsys, ["solve", "--instance", write_instance(tmp_path), "--mode", "ifd"])
        assert code == 3
        assert err.startswith("error: equilibrium residual exceeds tolerance ")
        assert json.loads(err[err.index("{") :]) == diagnostics


class TestSpoa:
    def test_exclusive_prints_exact_one(self, tmp_path, capsys):
        path = write_instance(tmp_path)
        code, out, _ = run(capsys, ["spoa", "--instance", path])
        assert code == 0
        assert out.strip() == "1.000000000"

    def test_sharing_two_sites(self, tmp_path, capsys):
        path = write_instance(tmp_path, policy={"type": "sharing"})
        code, out, _ = run(capsys, ["spoa", "--instance", path])
        assert code == 0
        assert out.strip() == "1.166666667"

    def test_sharing_randomized_stays_below_two(self, tmp_path, capsys):
        import numpy as np

        rng = np.random.default_rng(123)
        for i in range(5):
            values = sorted(np.exp(rng.uniform(-2, 0, int(rng.integers(1, 8)))), reverse=True)
            path = write_instance(
                tmp_path,
                name=f"inst{i}.json",
                values=[float(v) for v in values],
                players=int(rng.integers(2, 6)),
                policy={"type": "sharing"},
            )
            code, out, _ = run(capsys, ["spoa", "--instance", path])
            assert code == 0
            assert float(out.strip()) <= 2.0

    @pytest.mark.parametrize(
        "values, players, table, expected",
        [
            ([1.0, 0.1], 8, [1.0] * 7 + [0.0], "1.085437947"),
            ([1.0, 1e-6, 1e-12], 4, [1.0, 1.0, 1.0, 0.0], "1.000000029"),
        ],
    )
    def test_flat_start_tables(self, tmp_path, capsys, values, players, table, expected):
        # C(2) = C(1): the bracket on the common value runs out before the
        # sum test holds, and the strategies at its two ends, mixed to sum
        # to one, finish the solve.
        path = write_instance(tmp_path, values=values, players=players, policy={"type": "table", "table": table})
        code, out, _ = run(capsys, ["spoa", "--instance", path])
        assert code == 0
        assert out.strip() == expected

    @pytest.mark.parametrize(
        "values, players, expected",
        [
            ([1.0, 0.95], 2000, 3),
            ([1.0, 0.999999], 2000, 3),
            ([1.0, 0.5], 1040, 3),
            ([1.0, 0.5], 1500, 3),
            ([1.0, 0.5], 1000, 0),
        ],
    )
    def test_exclusive_crowds_end(self, tmp_path, values, players, expected):
        # The common value is about 0.5^(k-1); from k = 1040 on, the bracket
        # runs out below the normal float range, which exits 3 with how far
        # the solve got: its steps, its kernel evaluations and its bracket.
        path = write_instance(tmp_path, values=values, players=players)
        result = run_isolated("-m", "dispersal.cli", "spoa", "--instance", path)
        assert result.returncode == expected
        if expected == 3:
            assert result.stdout == ""
            assert result.stderr.startswith("error: common value below the float range {")
            diagnostics = json.loads(result.stderr[result.stderr.index("{") :])
            assert sorted(diagnostics) == ["bracket", "evaluations", "iterations", "value"]
            assert 0.0 <= diagnostics["value"] < sys.float_info.min
            low, high = diagnostics["bracket"]
            assert 0.0 <= low <= high == diagnostics["value"]
            assert diagnostics["iterations"] >= 1 and diagnostics["evaluations"] >= 1
        else:
            assert float(result.stdout) == 1.0


class TestEssCheck:
    def test_exclusive_instance_all_pass(self, tmp_path, capsys):
        path = write_instance(tmp_path)
        code, out, _ = run(capsys, ["ess-check", "--instance", path, "--mutants", "100", "--seed", "7"])
        assert code == 0
        payload = json.loads(out)
        assert payload["checked"] == 100
        assert payload["passed"] == 100
        assert payload["all_passed"] is True

    @pytest.mark.parametrize(
        "values, players", [((1.0, 0.5), 30), ((1.0, 0.1), 30), ((1.0, 0.5, 0.25), 60), ((1.0, 0.9, 0.8, 0.7), 100)]
    )
    def test_small_common_values_do_not_invade_the_exclusive_optimum(self, tmp_path, capsys, values, players):
        # The common value alpha^(k-1) f(1) is 1.3e-9 f(1) and less: a tie band
        # floored at f(1) tied every mix, and 3, 7, 8 and 8 of the 20 mutants
        # failed on the tie at m = k - 1.
        path = write_instance(tmp_path, values=list(values), players=players)
        code, out, _ = run(capsys, ["ess-check", "--instance", path, "--mutants", "20", "--seed", "0"])
        payload = json.loads(out)
        assert (code, payload["checked"], payload["failed"]) == (0, 20, 0)

    def test_equilibrium_probability_below_support_eps_solves_and_is_stable(self, tmp_path, capsys):
        # The equilibrium plays the second site with probability 1e-12; trimmed
        # to 0, its point mass pays 0 at site 1 and 1e-12 at site 2.
        path = write_instance(tmp_path, values=[1.0, 1e-12])
        code, out, _ = run(capsys, ["solve", "--instance", path, "--mode", "ifd"])
        assert code == 0 and json.loads(out)["support_size"] == 1
        code, out, _ = run(capsys, ["ess-check", "--instance", path, "--mutants", "20", "--seed", "0"])
        assert (code, json.loads(out)["failed"]) == (0, 0)

    def test_zero_mutants_rejected(self, tmp_path, capsys):
        path = write_instance(tmp_path)
        code, _, err = run(capsys, ["ess-check", "--instance", path, "--mutants", "0"])
        assert code == 2

    def test_negative_seed_is_a_validation_error(self, tmp_path, capsys):
        path = write_instance(tmp_path)
        code, _, err = run(capsys, ["ess-check", "--instance", path, "--mutants", "3", "--seed", "-1"])
        assert code == 2
        assert err.startswith("error: seed: must be an integer >= 0")

    def test_same_seed_is_reproducible(self, tmp_path, capsys):
        path = write_instance(tmp_path)
        _, first, _ = run(capsys, ["ess-check", "--instance", path, "--mutants", "25", "--seed", "3"])
        _, second, _ = run(capsys, ["ess-check", "--instance", path, "--mutants", "25", "--seed", "3"])
        assert first == second

    def test_failures_are_listed(self, tmp_path, capsys):
        # Under a constant policy on tied values every strategy pays the
        # same, so no mix gives a strict win and every checked mutant fails.
        # The equilibrium candidate gives the tied sites one share, (0.5, 0.5),
        # so no generated mutant is near it and none is skipped.
        path = write_instance(tmp_path, values=[1.0, 1.0], players=3, policy={"type": "table", "table": [1.0, 1.0, 1.0]})
        code, out, _ = run(capsys, ["ess-check", "--instance", path, "--mutants", "4", "--seed", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["candidate"] == [0.5, 0.5]
        assert (payload["checked"], payload["passed"], payload["failed"], payload["skipped"]) == (4, 0, 4, 0)
        assert payload["all_passed"] is False
        assert [failure["mutant_index"] for failure in payload["failures"]] == [0, 1, 2, 3]
        for failure in payload["failures"]:
            assert sorted(failure) == ["margins", "mutant", "mutant_index"]
            assert failure["margins"] == [0.0, 0.0, 0.0]
            Strategy(tuple(failure["mutant"]))

    @pytest.mark.parametrize("policy, expected", [("exclusive", 1), ("sharing", 0)])
    def test_invaded_exclusive_optimum_exits_1(self, tmp_path, capsys, monkeypatch, policy, expected):
        # No generated mutant invades the exclusive optimum, so a verdict
        # that always fails stands in for one that does.
        def invaded(instance, candidate, mutants):
            return [EssVerdict(mutant=mutant, passed=False, witness_m=None, margins=(-1e-12, -0.5)) for mutant in mutants]

        monkeypatch.setattr(cli, "ess_batch", invaded)
        path = write_instance(tmp_path, policy={"type": policy})
        code, out, _ = run(capsys, ["ess-check", "--instance", path, "--mutants", "3", "--seed", "1"])
        assert code == expected
        payload = json.loads(out)
        assert payload["all_passed"] is False
        assert payload["failed"] == payload["checked"] >= 1
        assert all(failure["margins"] == [0.0, -0.5] for failure in payload["failures"])

    def test_non_exclusive_reports_without_requirement(self, tmp_path, capsys):
        path = write_instance(tmp_path, policy={"type": "sharing"})
        code, out, _ = run(capsys, ["ess-check", "--instance", path, "--mutants", "10", "--seed", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["candidate_kind"] == "equilibrium"
        assert payload["checked"] + payload["skipped"] == 10


class TestSweep:
    def run_sweep(self, capsys, tmp_path, f2=0.5, name="sweep.csv", steps=101):
        out_path = tmp_path / name
        code, _, err = run(
            capsys,
            [
                "sweep",
                "--f2", str(f2),
                "--c-min", "-0.5",
                "--c-max", "0.5",
                "--steps", str(steps),
                "--out", str(out_path),
            ],
        )
        assert code == 0, err
        return out_path

    def parse(self, path):
        lines = path.read_text().splitlines()
        header, rows = lines[0], lines[1:]
        assert header == "c,cover_ifd,cover_optimal,cover_welfare_opt"
        return {row.split(",")[0]: [float(v) for v in row.split(",")[1:]] for row in rows}

    def test_expected_rows_at_known_points(self, capsys, tmp_path):
        table = self.parse(self.run_sweep(capsys, tmp_path))
        assert len(table) == 101
        ifd0, opt0, _ = table["0.000000000"]
        assert ifd0 == pytest.approx(7 / 6, abs=1e-6)
        assert opt0 == pytest.approx(7 / 6, abs=1e-6)
        ifd_half, _, _ = table["0.500000000"]
        assert ifd_half == pytest.approx(1.0, abs=1e-6)
        ifd_neg, opt_neg, _ = table["-0.500000000"]
        assert ifd_neg == pytest.approx(93 / 81, abs=1e-6)
        assert ifd_neg < opt_neg

    def test_optimal_dominates_both_curves_on_every_row(self, capsys, tmp_path):
        table = self.parse(self.run_sweep(capsys, tmp_path, f2=0.3, name="s3.csv", steps=41))
        for ifd, optimal, welfare in table.values():
            assert optimal >= ifd - 1e-9
            assert optimal >= welfare - 1e-9

    def test_byte_identical_reruns(self, capsys, tmp_path):
        first = self.run_sweep(capsys, tmp_path, name="a.csv", steps=21)
        second = self.run_sweep(capsys, tmp_path, name="b.csv", steps=21)
        assert first.read_bytes() == second.read_bytes()

    def test_competition_weight_must_stay_below_one(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["sweep", "--f2", "0.5", "--c-min", "0.0", "--c-max", "1.0",
             "--steps", "5", "--out", str(tmp_path / "x.csv")],
        )
        assert code == 2

    def test_reversed_range_is_rejected(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["sweep", "--f2", "0.5", "--c-min", "0.4", "--c-max", "0.2",
             "--steps", "5", "--out", str(tmp_path / "x.csv")],
        )
        assert code == 2
        assert err == "error: --c-max: must be >= --c-min\n"

    def test_f2_must_be_positive(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            ["sweep", "--f2", "0.0", "--c-min", "0.0", "--c-max", "0.5",
             "--steps", "5", "--out", str(tmp_path / "x.csv")],
        )
        assert code == 2


class TestSimulate:
    def test_fixed_seed_writes_identical_files(self, tmp_path, capsys):
        path = write_instance(tmp_path)
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out_a, out_b):
            code, _, _ = run(
                capsys,
                ["simulate", "--instance", path, "--strategy", "sigma-star",
                 "--rounds", "5000", "--seed", "42", "--out", str(out)],
            )
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_single_round_flagged_degenerate(self, tmp_path, capsys):
        path = write_instance(tmp_path)
        code, out, _ = run(
            capsys,
            ["simulate", "--instance", path, "--strategy", "ifd", "--rounds", "1", "--seed", "0"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["degenerate"] is True
        assert payload["std_error_coverage"] == 0.0
        fields = [field.name for field in dataclasses.fields(SimReport) if field.name != "occupancy_histogram"]
        assert list(payload) == fields

    def test_strategy_file_source(self, tmp_path, capsys):
        path = write_instance(tmp_path)
        strategy_path = tmp_path / "strategy.json"
        strategy_path.write_text("[0.5, 0.5]")
        code, out, _ = run(
            capsys,
            ["simulate", "--instance", path, "--strategy", "file",
             "--strategy-file", str(strategy_path), "--rounds", "100", "--seed", "1"],
        )
        assert code == 0
        assert json.loads(out)["rounds"] == 100

    def test_strategy_file_length_mismatch(self, tmp_path, capsys):
        path = write_instance(tmp_path)
        strategy_path = tmp_path / "strategy.json"
        strategy_path.write_text("[1.0]")
        code, _, err = run(
            capsys,
            ["simulate", "--instance", path, "--strategy", "file",
             "--strategy-file", str(strategy_path), "--rounds", "100"],
        )
        assert code == 2

    @pytest.mark.parametrize("content", ['["a", 1]', "[null, 1]", "[true, false]"])
    def test_strategy_file_entries_must_be_numbers(self, tmp_path, capsys, content):
        path = write_instance(tmp_path)
        strategy_path = tmp_path / "strategy.json"
        strategy_path.write_text(content)
        code, _, err = run(
            capsys,
            ["simulate", "--instance", path, "--strategy", "file",
             "--strategy-file", str(strategy_path), "--rounds", "100"],
        )
        assert code == 2
        assert f"{strategy_path}: probs[0]: must be a number" in err

    def test_file_source_requires_path(self, tmp_path, capsys):
        path = write_instance(tmp_path)
        code, _, _ = run(capsys, ["simulate", "--instance", path, "--strategy", "file"])
        assert code == 2


NOT_NUMBERS = st.sampled_from([True, False, None, "1.0", [1.0], {}])
NOT_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, 10**400])
NOT_LISTS = st.sampled_from(["1.0", 1.0, True, None, {}])
NOT_OBJECTS = st.sampled_from(["1.0", 1.0, True, None, []])
FLAWS = (
    "top-level", "missing-field", "unknown-field", "values", "values-entry", "players",
    "policy", "policy.type", "policy-unknown-field", "policy.table", "table-entry",
    "table-not-allowed", "table-too-short",
)


@st.composite
def malformed_instances(draw):
    """A valid instance file with exactly one flaw, and the name of the flawed field."""
    values = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=5))
    players = draw(st.integers(1, 12))
    lower = draw(st.lists(st.floats(-1.0, 1.0), min_size=players - 1, max_size=players + 2))
    table = [1.0, *sorted(lower, reverse=True)]
    policy = draw(st.sampled_from([{"type": "exclusive"}, {"type": "sharing"}, {"type": "table", "table": table}]))
    payload = {"values": values, "players": players, "policy": policy}
    flaw = draw(st.sampled_from(FLAWS))
    if flaw == "top-level":
        return draw(NOT_OBJECTS | st.just([payload])), "top level"
    if flaw == "missing-field":
        field = draw(st.sampled_from(sorted(payload)))
        del payload[field]
        return payload, field
    if flaw == "unknown-field":
        field = draw(st.sampled_from(["Values", "seed", "rounds", "extra"]))
        payload[field] = draw(NOT_LISTS)
        return payload, field
    if flaw == "values":
        payload["values"] = draw(NOT_LISTS | st.just([]))
        return payload, "values"
    if flaw == "values-entry":
        i = draw(st.integers(0, len(values) - 1))
        values[i] = draw(NOT_NUMBERS | NOT_FINITE | st.sampled_from([0, -1.0]))
        return payload, f"values[{i}]"
    if flaw == "players":
        payload["players"] = draw(st.integers(-2, 0) | st.floats() | NOT_NUMBERS)
        return payload, "players"
    if flaw == "policy":
        payload["policy"] = draw(NOT_OBJECTS | st.just([policy]))
        return payload, "policy"
    if flaw == "policy.type":
        policy["type"] = draw(st.sampled_from(["mystery", "Exclusive", 1, None, True, ["table"]]))
        return payload, "policy.type"
    if flaw == "policy-unknown-field":
        field = draw(st.sampled_from(["Type", "weights", "extra"]))
        policy[field] = 1.0
        return payload, f"policy.{field}"
    payload["policy"] = {"type": "table", "table": table}
    if flaw == "policy.table":
        payload["policy"]["table"] = draw(NOT_LISTS | st.just([]))
        return payload, "policy.table"
    if flaw == "table-entry":
        i = draw(st.integers(0, len(table) - 1))
        table[i] = draw(NOT_NUMBERS | NOT_FINITE | st.just(1.5 if i else 0.9))
        return payload, f"policy.table[{i}]"
    if flaw == "table-not-allowed":
        payload["policy"]["type"] = draw(st.sampled_from(["exclusive", "sharing"]))
        return payload, "policy.table"
    payload["players"] = max(players, 2)
    payload["policy"]["table"] = table[: payload["players"] - 1]
    return payload, "policy.table"


@pytest.fixture(scope="module")
def instance_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("malformed")


class TestValidationSurface:
    """Malformed instance files, one flaw each, end in exit 2 naming the field.

    This covers input validation only. A valid input that a solver fails on
    later ends in exit 3, and is out of its scope.
    """

    @settings(max_examples=400)
    @given(case=malformed_instances())
    def test_exit_2_names_the_flawed_field(self, instance_dir, case):
        payload, field = case
        path = instance_dir / "instance.json"
        path.write_text(json.dumps(payload))
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["solve", "--instance", str(path), "--mode", "sigma-star"])
        assert code == 2
        assert field in err.getvalue()


@st.composite
def valid_instances(draw):
    """A valid instance file: 1-8 values from 1e-30 to 1e30, ties included,
    k 2-60, and exclusive, sharing or a steep non-increasing table that may
    turn negative, which may also start flat: C(1..j) = 1 for a j < k."""
    magnitudes = st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-30, 29))
    values = draw(st.lists(magnitudes, min_size=1, max_size=6))
    values += draw(st.lists(st.sampled_from(values), max_size=8 - len(values)))
    players = draw(st.integers(2, 60))
    policy = {"type": draw(st.sampled_from(["exclusive", "sharing", "table"]))}
    if policy["type"] == "table":
        flat = draw(st.integers(1, players - 1)) if draw(st.booleans()) else 1
        policy["table"] = [1.0] * flat
        for drop in draw(st.lists(st.floats(0.0, 10.0), min_size=players - flat, max_size=players - flat)):
            policy["table"].append(policy["table"][-1] - drop)
    return {"values": draw(st.permutations(values)), "players": players, "policy": policy}


SOLVER_COMMANDS = (
    ("solve", "--mode", "ifd"),
    ("spoa",),
    ("solve", "--mode", "welfare-opt"),
    ("simulate", "--strategy", "ifd", "--rounds", "20"),
)


class TestSolverSurface:
    """Valid instance files end in exit 0 with parseable output, or in exit 3
    with JSON diagnostics; no exception and no warning escapes."""

    @settings(max_examples=50)
    @given(payload=valid_instances())
    def test_exit_0_or_3(self, instance_dir, payload):
        path = instance_dir / "valid.json"
        path.write_text(json.dumps(payload))
        for command in SOLVER_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([command[0], "--instance", str(path), *command[1:]])
            assert code in (0, 3)
            if code == 0:
                assert err.getvalue() == ""
                json.loads(out.getvalue())  # a spoa ratio is a JSON number
            else:
                message = err.getvalue()
                assert message.startswith("error: ") and message.endswith("}\n")
                assert isinstance(json.loads(message[message.index("{") :]), dict)

    @pytest.mark.parametrize("players", [MAX_PLAYERS + 1, 10**30])
    def test_players_beyond_the_bound_exit_2(self, instance_dir, players):
        # Rejected before any array of that length is made.
        path = instance_dir / "crowded.json"
        path.write_text(json.dumps({"values": [1.0, 0.5], "players": players, "policy": {"type": "sharing"}}))
        for command in (*SOLVER_COMMANDS, ("solve", "--mode", "sigma-star"), ("ess-check", "--mutants", "3")):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([command[0], "--instance", str(path), *command[1:]])
            assert code == 2
            assert out.getvalue() == ""
            assert f"players: must be an integer in [2, {MAX_PLAYERS}], got {players}\n" in err.getvalue()


class TestRound9:
    def test_every_float_is_rounded_at_any_depth(self):
        payload = {"a": [-1e-12, (0.1234567891234, 2)], "b": {"c": -0.0}, "d": True, "e": "x", "f": None}
        assert cli._round9(payload) == {"a": [0.0, [0.123456789, 2]], "b": {"c": 0.0}, "d": True, "e": "x", "f": None}
        assert "-0.0" not in json.dumps(cli._round9(payload))

    def test_emit_applies_it(self, capsys):
        cli._emit({"value": 1 / 3, "values": [2 / 3, -1e-10]})
        assert json.loads(capsys.readouterr().out) == {"value": 0.333333333, "values": [0.666666667, 0.0]}


class TestRoundDistribution:
    def test_sum_is_exactly_one_after_rounding(self):
        probs = [1 / 3] * 3
        rounded = round_distribution(probs)
        assert sum(rounded) == pytest.approx(1.0, abs=1e-12)
        Strategy(tuple(rounded))

    def test_many_entries_still_revalidate(self):
        probs = [1 / 19] * 19
        Strategy(tuple(round_distribution(probs)))
