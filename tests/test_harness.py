"""Tests for fixture validation, paired-subgroup suites, and report emission."""

import dataclasses
import functools
import json
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from pblocks import harness
from pblocks.blocks import block_system
from pblocks.corpus import (
    DEFAULT_SCENARIOS,
    FIXTURES,
    CartanFixture,
    CorpusEntry,
    PairedScenario,
    alternating_group,
    corpus_entry,
    cyclic_group,
    projective_special_linear_2_7,
    symmetric_group,
)
from pblocks.errors import BindingUnsatisfiable, ShapeMismatch
from pblocks.harness import (
    _derive_seed,
    _positive_definite,
    _top_elementary_divisor,
    analyze_group,
    block_record,
    fixture_checks,
    format_fraction,
    render_report,
    report_csv,
    report_json,
    report_markdown,
    report_passed,
    run_corpus,
    run_scenario,
    system_violations,
    tau_rayleigh,
    verify_system,
)
from pblocks.modrep import ReductionContext

FIXTURE = {fix.name: fix for fix in FIXTURES}
KLEIN_A = ((2, 1, 1), (1, 2, 1), (1, 1, 2))

SMALL_ENTRIES = (
    CorpusEntry("S3", lambda: symmetric_group(3)),
    CorpusEntry("A4", lambda: alternating_group(4)),
)


@functools.cache
def small_system(name):
    """Return the block system of A4 or S4 at p = 2, computed once."""
    group = {"A4": alternating_group(4), "S4": symmetric_group(4)}[name]
    return block_system(group, 2)


def with_block(system, **changes):
    """Return a copy of a system whose first block has the given fields changed."""
    block = dataclasses.replace(system.blocks[0], **changes)
    return dataclasses.replace(system, blocks=(block,) + system.blocks[1:])


def with_decomposition(system, edit):
    """Return a copy of a system whose decomposition rows were edited in place."""
    rows = [list(row) for row in system.decomposition]
    edit(rows)
    return dataclasses.replace(system, decomposition=tuple(map(tuple, rows)))


def copy_column(rows, source, target):
    for row in rows:
        row[target] = row[source]


# (verify_system key, system, mutation that makes the key read False); A4's one
# 2-block has Cartan matrix KLEIN_A and defect group V4, S4's has ((4, 2), (2, 3)) and D8
BROKEN_SYSTEMS = [
    ("char_partition", "A4", lambda s: with_block(s, chars=s.blocks[0].chars[:-1])),
    ("ibr_partition", "S4", lambda s: with_block(s, ibrs=s.blocks[0].ibrs[:-1])),
    ("simple_count_total", "A4", lambda s: dataclasses.replace(s, regular=s.regular[:-1])),
    ("dimension_total", "A4", lambda s: with_block(s, dim=s.blocks[0].dim + 1)),
    ("decomposition_nonnegative", "S4",
     lambda s: with_decomposition(s, lambda rows: rows[3].__setitem__(0, -rows[3][0]))),
    ("decomposition_full_rank", "A4",
     lambda s: with_decomposition(s, lambda rows: copy_column(rows, 0, 1))),
    ("cartan_symmetric", "S4", lambda s: with_block(s, cartan=((4, 3), (2, 3)))),
    ("cartan_is_gram", "S4", lambda s: with_block(s, cartan=((4, 2), (2, 4)))),
    ("cartan_det_p_power", "A4", lambda s: with_block(s, cartan=((3, 1, 1),) + KLEIN_A[1:])),
    ("two_route_dimension", "A4", lambda s: with_block(s, dim=s.blocks[0].dim + 1)),
    ("tau_floor", "S4", lambda s: with_block(s, tau=Fraction(1, 2))),
    ("tau_trace_bound", "A4", lambda s: with_block(s, tau=Fraction(7))),
    ("defect_consistency", "S4", lambda s: with_block(s, defect=s.blocks[0].defect + 1)),
    ("abelian_diagonal_bound", "A4", lambda s: with_block(s, cartan=((5, 1, 1),) + KLEIN_A[1:])),
]


def scenario_by_kind(kind):
    for scenario in DEFAULT_SCENARIOS:
        if scenario.kind == kind:
            return scenario
    raise AssertionError(f"missing scenario kind {kind}")


class TestTauRayleigh:
    def test_klein_unit_degrees(self):
        assert tau_rayleigh(KLEIN_A, (1, 1, 1)) == Fraction(4)

    def test_identity_matrix(self):
        assert tau_rayleigh(((1, 0), (0, 1)), (3, 5)) == Fraction(1)

    def test_matches_block_data(self):
        system = block_system(symmetric_group(4), 2)
        block = system.principal_block()
        value = tau_rayleigh(block.cartan, block.ibr_degrees)
        assert value == block.tau == Fraction(24, 5)

    def test_rejects_nonsquare(self):
        with pytest.raises(ShapeMismatch):
            tau_rayleigh(((1, 2),), (1,))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ShapeMismatch):
            tau_rayleigh(KLEIN_A, (1, 1))

    def test_rejects_nonpositive_degrees(self):
        with pytest.raises(ValueError):
            tau_rayleigh(KLEIN_A, (1, 0, 1))

    def test_rejects_non_integer_inputs(self):
        # int() would read 1.5 as 1, True as 1 and "3" as 3
        for bad in (1.5, True, "3"):
            with pytest.raises(ValueError):
                tau_rayleigh([[2]], [bad])
        assert tau_rayleigh([[np.int64(2)]], [np.int64(3)]) == 2


class TestFormatFraction:
    def test_integer(self):
        assert format_fraction(Fraction(4)) == "4/1"

    def test_proper(self):
        assert format_fraction(Fraction(3, 20)) == "3/20"


class TestElementaryDivisor:
    def test_diagonal(self):
        assert _top_elementary_divisor(((1, 0, 0), (0, 2, 0), (0, 0, 4))) == 4

    def test_klein_fixtures(self):
        assert _top_elementary_divisor(FIXTURE["klein-A4-type"].rows) == 4
        assert _top_elementary_divisor(FIXTURE["klein-A5-type"].rows) == 4

    def test_large_fixtures(self):
        assert _top_elementary_divisor(FIXTURE["J1"].rows) == 8
        assert _top_elementary_divisor(FIXTURE["Co3"].rows) == 8

    def test_singular(self):
        assert _top_elementary_divisor(((1, 1), (1, 1))) == 0


class TestPositiveDefinite:
    def test_identity(self):
        assert _positive_definite(((1, 0), (0, 1)))

    def test_indefinite(self):
        assert not _positive_definite(((1, 2), (2, 1)))


def rayleigh_oracle(fix, seed):
    """Sample the Rayleigh quotient one degree vector and one tau_rayleigh at a time."""
    rng = random.Random(_derive_seed(seed, "fixture", fix.name))
    ok = True
    worst = Fraction(0)
    for _ in range(1000):
        value = tau_rayleigh(fix.rows, [rng.randint(1, 64) for _ in range(fix.size())])
        worst = max(worst, value)
        ok = ok and value <= fix.trace() and value < fix.bound()
    return ok, format_fraction(worst)


def sweep_of(fix, seed):
    result = fixture_checks(fix, seed=seed)
    return result["rayleigh_ok"], result["rayleigh_max"]


class TestRayleighSweep:
    @pytest.mark.parametrize("seed", [0, 1, 123])
    def test_fixtures_match_the_loop(self, seed):
        for fix in FIXTURES:
            assert sweep_of(fix, seed) == rayleigh_oracle(fix, seed), fix.name

    def test_value_equal_to_trace_and_bound(self):
        # every quotient is 4: at most the trace 4, but not below the bound 2^0 * 4
        fix = CartanFixture("one", "", 2, [[4]], defect_order=4, sectional=0)
        assert sweep_of(fix, 0) == rayleigh_oracle(fix, 0) == (False, "4/1")

    def test_no_positive_value_reads_zero(self):
        fix = CartanFixture("negative", "", 2, [[-1]], defect_order=1, sectional=0)
        assert sweep_of(fix, 0) == rayleigh_oracle(fix, 0) == (True, "0/1")

    @pytest.mark.parametrize("entry", [2 ** 49 - 1, 2 ** 49, 2 ** 60])
    def test_large_entries_stay_exact(self, entry):
        # 2^49 - 1 is the largest entry of a 2 x 2 matrix the int64 product
        # takes; at 2^60 nearly every d^T C d overflows int64
        fix = CartanFixture("big", "", 2, [[entry, entry], [entry, entry]],
                            defect_order=2, sectional=0)
        assert sweep_of(fix, 3) == rayleigh_oracle(fix, 3)


class TestFixtureChecks:
    def test_all_fixtures_hold(self):
        for fix in FIXTURES:
            result = fixture_checks(fix)
            assert result["holds"], fix.name

    def test_reported_values(self):
        result = fixture_checks(FIXTURE["J1"])
        assert result["trace"] == 24
        assert result["max_diagonal"] == 8
        assert result["bound"] == 64
        assert result["top_elementary_divisor"] == 8
        assert result["samples"] == 1000
        co3 = fixture_checks(FIXTURE["Co3"])
        assert co3["trace"] == 22

    def test_rayleigh_max_within_bounds(self):
        for fix in FIXTURES:
            result = fixture_checks(fix)
            num, den = result["rayleigh_max"].split("/")
            value = Fraction(int(num), int(den))
            assert value <= result["trace"]
            assert value < result["bound"]

    def test_every_single_mutation_flips_a_check(self):
        for fix in FIXTURES:
            size = fix.size()
            for i in range(size):
                for j in range(size):
                    rows = [list(row) for row in fix.rows]
                    rows[i][j] += 1
                    mutated = CartanFixture(
                        fix.name,
                        fix.note,
                        fix.prime,
                        rows,
                        defect_order=fix.defect_order,
                        sectional=fix.sectional,
                        trace_expected=fix.trace_expected,
                    )
                    result = fixture_checks(mutated)
                    assert not result["holds"], (fix.name, i, j)

    def test_seed_changes_samples_not_verdict(self):
        base = fixture_checks(FIXTURE["Co3"], seed=0)
        other = fixture_checks(FIXTURE["Co3"], seed=123)
        assert base["holds"] and other["holds"]
        assert base["rayleigh_max"] != other["rayleigh_max"]


class TestScenarioSuite:
    def test_all_hold(self):
        for scenario in DEFAULT_SCENARIOS:
            result = run_scenario(scenario)
            assert result["holds"], result["name"]

    def test_stabilizer_induction_values(self):
        result = run_scenario(scenario_by_kind("stabilizer_induction_tau"))
        taus = {(p["ambient_tau"], p["sub_tau"]) for p in result["comparisons"]}
        assert taus == {("1/1", "1/1")}
        assert len(result["comparisons"]) == 2

    def test_central_scaling_values(self):
        result = run_scenario(scenario_by_kind("central_quotient_scaling"))
        assert result["cartan_scaled"]
        assert [(c["left"], c["right"]) for c in result["comparisons"]] == [
            ("1/4", "1/4")
        ]

    def test_degree_sum_values(self):
        result = run_scenario(scenario_by_kind("restriction_degree_sum"))
        assert [(item["left"], item["right"]) for item in result["identities"]] == [
            (2, 2)
        ]

    def test_coprime_quotient_values(self):
        result = run_scenario(scenario_by_kind("coprime_quotient_tau"))
        principal = [
            pair
            for pair in result["comparisons"]
            if pair["ambient_block"] == 0 and pair["sub_block"] == 0
        ]
        assert principal and principal[0]["ambient_tau"] == "3/1"
        assert principal[0]["sub_tau"] == "3/1"

    def test_sylow_product_values(self):
        result = run_scenario(scenario_by_kind("sylow_product_ratio"))
        assert [(c["left"], c["right"]) for c in result["comparisons"]] == [
            ("3/20", "1/4")
        ]

    def test_central_scaling_rejects_noncentral(self):
        scenario = PairedScenario(
            "bad-central",
            "central_quotient_scaling",
            2,
            lambda: (symmetric_group(4), alternating_group(4)),
        )
        with pytest.raises(BindingUnsatisfiable):
            run_scenario(scenario)

    def test_degree_sum_rejects_divisible_index(self):
        scenario = PairedScenario(
            "bad-degree-sum",
            "restriction_degree_sum",
            2,
            lambda: (symmetric_group(4), alternating_group(4)),
        )
        with pytest.raises(BindingUnsatisfiable):
            run_scenario(scenario)

    def test_stabilizer_induction_needs_mobile_block(self):
        scenario = PairedScenario(
            "bad-induction",
            "stabilizer_induction_tau",
            2,
            lambda: (symmetric_group(4), alternating_group(4)),
        )
        with pytest.raises(BindingUnsatisfiable):
            run_scenario(scenario)

    def test_unknown_kind_rejected(self):
        scenario = PairedScenario(
            "bad-kind", "coprime_quotient_tau", 3, lambda: (symmetric_group(4), alternating_group(4))
        )
        object.__setattr__(scenario, "kind", "unheard_of")
        with pytest.raises(ValueError):
            run_scenario(scenario)


class TestBlockRecord:
    def test_a4_full_record(self):
        system = block_system(alternating_group(4), 2)
        record = block_record(system, system.principal_block())
        assert record["index"] == 0
        assert record["principal"] is True
        assert record["ordinary_count"] == 4
        assert record["simple_count"] == 3
        assert record["ordinary_degrees"] == [1, 1, 1, 3]
        assert record["simple_degrees"] == [1, 1, 1]
        assert record["defect"] == 2
        assert record["defect_group_order"] == 4
        assert record["defect_group_abelian"] is True
        assert record["defect_group_type"] == [1, 1]
        assert record["sectional_rank"] == 2
        assert record["dimension"] == 12
        assert record["tau"] == "4/1"
        assert record["tau_equality_attained"] is False
        assert record["cartan"] == [list(row) for row in KLEIN_A]
        assert record["decomposition"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
        assert all(record["checks"].values())

    def test_record_is_json_ready(self):
        system = block_system(symmetric_group(4), 3)
        for block in system.blocks:
            json.dumps(block_record(system, block))


class TestVerifySystem:
    def test_a4_all_checks_pass(self):
        system = block_system(alternating_group(4), 2)
        checks = verify_system(system)
        assert checks and all(checks.values())

    def test_s5_all_checks_pass(self):
        system = block_system(symmetric_group(5), 2)
        checks = verify_system(system)
        assert checks and all(checks.values())

    def test_orthogonality_reads_false_on_a_broken_table(self):
        system = block_system(projective_special_linear_2_7(), 7)
        tab = system.chartab
        sevens = [k for k, o in enumerate(tab.classes.orders) if o == 7]
        i = tab.degrees.index(3)
        row = list(tab.rows[i])
        row[sevens[0]], row[sevens[1]] = row[sevens[1]], row[sevens[0]]
        rows = tab.rows[:i] + (tuple(row),) + tab.rows[i + 1:]
        broken = dataclasses.replace(system, chartab=dataclasses.replace(tab, rows=rows))
        checks = verify_system(broken)
        assert checks["orthogonality"] is False
        assert all(value for key, value in checks.items() if key != "orthogonality")
        assert verify_system(system)["orthogonality"] is True

    @pytest.mark.parametrize(
        "key, name, mutate", BROKEN_SYSTEMS, ids=[case[0] for case in BROKEN_SYSTEMS]
    )
    def test_key_reads_false_on_a_broken_system(self, key, name, mutate):
        system = small_system(name)
        assert verify_system(system)[key] is True
        assert verify_system(mutate(system))[key] is False

    def test_every_key_has_a_breaking_case(self):
        keys = list(verify_system(small_system("A4")))
        assert len(keys) == 15
        assert set(keys) == {"orthogonality"} | {case[0] for case in BROKEN_SYSTEMS}


class TestViolations:
    def test_clean_system_has_none(self):
        system = block_system(alternating_group(5), 2)
        records = [block_record(system, block) for block in system.blocks]
        assert system_violations("A5", system, records) == []

    def test_forced_failure_is_reported_with_block_data(self):
        system = block_system(alternating_group(4), 2)
        records = [block_record(system, block) for block in system.blocks]
        records[0]["checks"]["tau_bound"] = False
        records[0]["checks"]["strict_tau_bound"] = False
        out = system_violations("A4", system, records)
        assert len(out) == 1
        assert out[0]["group"] == "A4"
        assert out[0]["prime"] == 2
        assert set(out[0]["failed"]) == {"tau_bound", "strict_tau_bound"}
        assert out[0]["block"]["cartan"] == [list(row) for row in KLEIN_A]

    def test_failed_keeps_the_order_of_the_record_checks(self):
        system = small_system("A4")
        records = [block_record(system, block) for block in system.blocks]
        for key in records[0]["checks"]:
            records[0]["checks"][key] = False
        [violation] = system_violations("A4", system, records)
        assert violation["failed"] == [
            "tau_bound", "equality_iff_one_simple", "simple_count_bound", "strict_tau_bound",
        ]

    def test_strict_bound_not_enforced_for_a_nonabelian_defect_group(self):
        system = small_system("S4")
        records = [block_record(system, block) for block in system.blocks]
        assert records[0]["defect_group_abelian"] is False
        records[0]["checks"]["strict_tau_bound"] = False
        assert system_violations("S4", system, records) == []

    def test_strict_bound_not_enforced_at_odd_primes(self):
        system = block_system(alternating_group(4), 3)
        records = [block_record(system, block) for block in system.blocks]
        for record in records:
            record["checks"]["strict_tau_bound"] = False
        assert system_violations("A4", system, records) == []


class TestAnalyzeGroup:
    def test_s3_summary(self):
        result = analyze_group(symmetric_group(3), 2, name="S3")
        assert result["group"] == "S3"
        assert result["prime"] == 2
        assert result["order"] == 6
        assert result["class_count"] == 3
        assert result["regular_class_count"] == 2
        assert result["block_count"] == 2
        assert result["passed"] is True

    def test_prime_not_dividing_order(self):
        result = analyze_group(alternating_group(4), 5, name="A4")
        assert result["block_count"] == 4
        assert all(rec["defect"] == 0 for rec in result["blocks"])
        assert result["passed"] is True

    def test_pipeline_over_a_generic_field(self):
        # 2 has order 18 mod 19, so C19 splits at p = 2 over GF(2^18), past the table fields
        group = cyclic_group(19)
        assert ReductionContext(group, 2).field.kind == "generic"
        result = analyze_group(group, 2, name="C19")
        assert result["block_count"] == 19
        assert all((rec["defect"], rec["simple_count"], rec["tau"]) == (0, 1, "1/1")
                   for rec in result["blocks"])
        assert result["passed"] is True


class TestRunCorpus:
    def test_small_run_structure(self):
        report = run_corpus(seed=3, entries=SMALL_ENTRIES, scenarios=())
        assert set(report) == {"meta", "blocks", "lemmas", "fixtures"}
        assert report["meta"]["entries"] == ["S3", "A4"]
        assert report["meta"]["passed"] is True
        assert sorted(report["meta"]["timings"]) == [
            "A4:2",
            "A4:3",
            "S3:2",
            "S3:3",
        ]
        assert [item["group"] for item in report["blocks"]] == ["S3", "S3", "A4", "A4"]
        assert report["lemmas"] == []
        assert len(report["fixtures"]) == 4

    def test_same_seed_identical_reports(self):
        one = run_corpus(seed=11, entries=SMALL_ENTRIES, scenarios=())
        two = run_corpus(seed=11, entries=SMALL_ENTRIES, scenarios=())
        del one["meta"]["timings"]
        del two["meta"]["timings"]
        assert report_json(one) == report_json(two)

    def test_different_seed_identical_invariants(self):
        one = run_corpus(seed=11, entries=SMALL_ENTRIES, scenarios=())
        two = run_corpus(seed=12, entries=SMALL_ENTRIES, scenarios=())
        assert json.dumps(one["blocks"], sort_keys=True) == json.dumps(
            two["blocks"], sort_keys=True
        )

    def test_corrupted_fixture_fails_run(self):
        rows = [list(row) for row in FIXTURE["J1"].rows]
        rows[0][0] += 1
        bad = CartanFixture("J1-corrupt", "", 2, rows, defect_order=8, sectional=3,
                            trace_expected=24)
        report = run_corpus(seed=0, entries=(), scenarios=(), fixtures=(bad,))
        assert report_passed(report) is False


@pytest.fixture
def system_calls(monkeypatch):
    """Record the (generators, prime) of every block system the harness computes."""
    calls = []

    def counting(group, p, seed=0):
        calls.append((group.generators, p))
        return block_system(group, p, seed=seed)

    monkeypatch.setattr(harness, "block_system", counting)
    return calls


class TestSystemsPerRun:
    def test_run_computes_each_system_once(self, system_calls):
        scenarios = [s for s in DEFAULT_SCENARIOS if s.name.endswith("-S3")]
        run_corpus(seed=2, entries=SMALL_ENTRIES[:1], scenarios=scenarios)
        # S3 at 2 and 3 for the corpus and both scenarios, then C3 at 2 and 3
        assert len(system_calls) == 4
        assert set(Counter(system_calls).values()) == {1}

    def test_no_sharing_outside_a_run(self, system_calls):
        scenario = scenario_by_kind("stabilizer_induction_tau")
        assert run_scenario(scenario, seed=1) == run_scenario(scenario, seed=1)
        assert len(system_calls) == 4
        assert set(Counter(system_calls).values()) == {2}

    def test_memo_closed_after_a_failed_run(self, system_calls, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("analysis failed")

        monkeypatch.setattr(harness, "analyze_group", fail)
        with pytest.raises(RuntimeError):
            run_corpus(seed=0, entries=SMALL_ENTRIES, scenarios=())
        assert harness._RUN_SYSTEMS.get() is None
        run_scenario(scenario_by_kind("stabilizer_induction_tau"), seed=0)
        run_scenario(scenario_by_kind("stabilizer_induction_tau"), seed=0)
        assert set(Counter(system_calls).values()) == {2}

    def test_central_quotient_system_built_once_in_a_run(self, system_calls, monkeypatch):
        requested = []
        memoised = harness._system

        def recording(group, p, seed):
            requested.append((group.degree, p))
            return memoised(group, p, seed)

        monkeypatch.setattr(harness, "_system", recording)
        central = scenario_by_kind("central_quotient_scaling")
        run_corpus(seed=0, entries=(), scenarios=[central, central], fixtures=())
        # SL(2,3) on 8 points and its quotient on the 12 cosets of the centre
        assert Counter(requested) == {(8, 2): 2, (12, 2): 2}
        assert sorted(Counter(system_calls).values()) == [1, 1]

    def test_scenarios_in_a_run_match_their_own_runs(self, system_calls):
        entries = [corpus_entry(name) for name in ("S3", "A4", "SL(2,3)", "S4")]
        report = run_corpus(seed=4, entries=entries)
        assert set(Counter(system_calls).values()) == {1}
        assert report["lemmas"] == [run_scenario(s, seed=4) for s in DEFAULT_SCENARIOS]


class TestRendering:
    def test_json_round_trip(self):
        report = run_corpus(seed=1, entries=SMALL_ENTRIES[:1], scenarios=())
        text = report_json(report)
        assert json.loads(text) == report

    def test_csv_rows(self):
        report = run_corpus(seed=1, entries=SMALL_ENTRIES[:1], scenarios=())
        lines = report_csv(report).strip().splitlines()
        assert lines[0].startswith("group,prime,block,")
        assert len(lines) == 1 + sum(
            item["block_count"] for item in report["blocks"]
        )
        assert all(line.endswith(",ok") for line in lines[1:])

    def test_markdown_sections(self):
        report = run_corpus(seed=1, entries=SMALL_ENTRIES[:1], scenarios=())
        text = report_markdown(report)
        assert "# Block invariant report" in text
        assert "## Blocks" in text
        assert "## Cartan fixtures" in text
        assert "all checks passed" in text

    def test_render_dispatch(self):
        report = run_corpus(seed=1, entries=(), scenarios=(), fixtures=())
        assert render_report(report, "json").startswith("{")
        assert render_report(report, "md").startswith("#")
        assert render_report(report, "csv").startswith("group,")
        with pytest.raises(ValueError):
            render_report(report, "xml")
