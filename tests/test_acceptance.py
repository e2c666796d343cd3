"""Acceptance suite: one test per criterion, each with its stated time budget."""

import copy
import hashlib
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from pblocks.blocks import block_system
from pblocks.corpus import (
    DEFAULT_SCENARIOS,
    FIXTURES,
    CartanFixture,
    alternating_group,
    special_linear_2_8,
)
from pblocks.harness import (
    fixture_checks,
    render_report,
    report_json,
    run_corpus,
    run_scenario,
)
from pblocks.perm import abelian_p_invariants

FIXTURE = {fix.name: fix for fix in FIXTURES}
KLEIN_A = [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
KLEIN_B = [[4, 2, 2], [2, 2, 1], [2, 1, 2]]

DATA = Path(__file__).parent / "data"
# sha256 of report_json(run_corpus(seed=0)) with meta.timings dropped
CORPUS_SEED0_JSON_SHA256 = "cfeea0728e3f14d0ce8065508c8e051fe350d6b610d36a2b4aa94ce11a521194"


@pytest.fixture(scope="module")
def corpus_report():
    started = time.perf_counter()
    report = run_corpus(seed=0)
    return report, time.perf_counter() - started


@pytest.fixture(scope="module")
def determinism_reports():
    first = run_corpus(seed=7)
    second = run_corpus(seed=7)
    third = run_corpus(seed=8)
    return first, second, third


def cartan_route_dim(block) -> int:
    size = len(block.ibrs)
    return sum(
        block.cartan[a][b] * block.ibr_degrees[a] * block.ibr_degrees[b]
        for a in range(size)
        for b in range(size)
    )


def test_criterion_1_a4_klein_block():
    started = time.perf_counter()
    system = block_system(alternating_group(4), 2)
    assert len(system.blocks) == 1
    block = system.principal_block()
    assert len(block.chars) == 4
    assert len(block.ibrs) == 3
    assert block.defect_group.order() == 4
    assert block.sectional == 2
    assert [list(row) for row in block.cartan] == KLEIN_A
    assert block.dim == 12
    assert sum(d * d for d in block.degrees) == 12
    assert cartan_route_dim(block) == 12
    assert block.tau == Fraction(4, 1)
    assert block.tau < len(block.ibrs) * block.defect_group.order()
    assert len(block.ibrs) < 2 ** block.sectional
    assert block.tau < 2 ** block.sectional * block.defect_group.order()
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"criterion 1 (A4 Klein block): PASS in {elapsed:.2f}s")


def test_criterion_2_a5_klein_block():
    started = time.perf_counter()
    system = block_system(alternating_group(5), 2)
    principal = system.principal_block()
    assert [list(row) for row in principal.cartan] == KLEIN_B
    assert principal.tau == Fraction(44, 9)
    assert principal.dim == 44
    assert sum(d * d for d in principal.degrees) == 44
    assert cartan_route_dim(principal) == 44
    others = [block for block in system.blocks if not block.principal]
    assert len(others) == 1
    assert others[0].defect == 0
    assert others[0].tau == Fraction(1)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"criterion 2 (A5 Klein block): PASS in {elapsed:.2f}s")


def test_criterion_3_sl28_principal_block():
    started = time.perf_counter()
    system = block_system(special_linear_2_8(), 2)
    principal = system.principal_block()
    P = principal.defect_group
    assert P.order() == 8
    assert P.is_abelian()
    assert abelian_p_invariants(P, 2) == [1, 1, 1]
    assert principal.sectional == 3
    for block in system.blocks:
        size = len(block.ibrs)
        assert all(block.cartan[a][a] <= 8 for a in range(size))
    assert principal.tau < 64
    zero_defect = [block for block in system.blocks if block.defect == 0]
    assert len(zero_defect) == 1
    assert list(zero_defect[0].degrees) == [8]
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    print(f"criterion 3 (SL(2,8) principal block): PASS in {elapsed:.2f}s")


def test_criterion_4_fixture_suite():
    started = time.perf_counter()
    j1 = fixture_checks(FIXTURE["J1"], seed=0)
    assert j1["max_diagonal"] == 8
    assert j1["trace"] == 24
    assert j1["rayleigh_ok"]
    co3 = fixture_checks(FIXTURE["Co3"], seed=0)
    assert co3["max_diagonal"] == 8
    assert co3["trace"] == 22
    assert co3["rayleigh_ok"]
    for fix in FIXTURES:
        result = fixture_checks(fix, seed=0)
        assert result["samples"] == 1000
        assert result["holds"], fix.name
    rows = [list(row) for row in FIXTURE["J1"].rows]
    rows[0][0] += 1
    mutated = CartanFixture("J1-mutant", "", 2, rows, defect_order=8, sectional=3,
                            trace_expected=24)
    assert not fixture_checks(mutated, seed=0)["holds"]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 4 (fixture suite): PASS in {elapsed:.2f}s")


def test_criterion_5_paired_subgroup_suites():
    started = time.perf_counter()
    suite = [run_scenario(scenario, seed=0) for scenario in DEFAULT_SCENARIOS]
    results = {item["kind"]: item for item in suite}
    assert len(results) == 5
    for item in results.values():
        assert item["holds"], item["kind"]

    central = results["central_quotient_scaling"]
    assert central["cartan_scaled"]
    assert [(c["left"], c["right"]) for c in central["comparisons"]] == [("1/4", "1/4")]

    coprime = results["coprime_quotient_tau"]
    principal_pair = [
        pair for pair in coprime["comparisons"] if pair["ambient_block"] == 0
    ]
    assert principal_pair[0]["ambient_tau"] == "3/1"
    assert principal_pair[0]["sub_tau"] == "3/1"

    sylow = results["sylow_product_ratio"]
    assert [(c["left"], c["right"]) for c in sylow["comparisons"]] == [("3/20", "1/4")]

    degree_sum = results["restriction_degree_sum"]
    assert [(i["left"], i["right"]) for i in degree_sum["identities"]] == [(2, 2)]

    induced = results["stabilizer_induction_tau"]
    assert {(p["ambient_tau"], p["sub_tau"]) for p in induced["comparisons"]} == {
        ("1/1", "1/1")
    }
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(f"criterion 5 (paired-subgroup suites): PASS in {elapsed:.2f}s")


def test_criterion_6_invariant_sweep(corpus_report):
    report, elapsed = corpus_report
    assert elapsed < 900.0
    assert report["meta"]["entries"] == [
        "S3", "C2xC2", "C12", "D8", "Q8", "A4", "SL(2,3)", "S4", "A5", "S5",
        "PSL(2,7)", "SL(2,8)",
    ]
    assert report["blocks"], "sweep must cover the corpus"
    for analysis in report["blocks"]:
        assert analysis["passed"], (analysis["group"], analysis["prime"])
        assert all(analysis["verify"].values()), (analysis["group"], analysis["prime"])
        records = analysis["blocks"]
        assert sum(rec["dimension"] for rec in records) == analysis["order"]
        assert sum(rec["simple_count"] for rec in records) == analysis["regular_class_count"]
        assert sum(rec["ordinary_count"] for rec in records) == analysis["class_count"]
        for rec in records:
            num, den = rec["tau"].split("/")
            tau = Fraction(int(num), int(den))
            assert tau >= 1
            assert (tau == 1) == (rec["defect"] == 0)
    print(f"criterion 6 (invariant sweep): PASS in {elapsed:.2f}s")


def test_criterion_7_conjecture_sweep(corpus_report):
    report, _ = corpus_report
    strict_scope = 0
    for analysis in report["blocks"]:
        assert analysis["violations"] == [], (analysis["group"], analysis["prime"])
        for rec in analysis["blocks"]:
            assert rec["checks"]["tau_bound"], (analysis["group"], analysis["prime"])
            assert rec["checks"]["simple_count_bound"], (
                analysis["group"], analysis["prime"],
            )
            assert rec["checks"]["equality_iff_one_simple"], (
                analysis["group"], analysis["prime"],
            )
            if (
                analysis["prime"] == 2
                and rec["defect"] > 0
                and rec["defect_group_abelian"]
            ):
                strict_scope += 1
                assert rec["checks"]["strict_tau_bound"], (
                    analysis["group"], rec["index"],
                )
    assert strict_scope >= 5, "strict bound scope must not be vacuous"
    print(f"criterion 7 (conjecture sweep): PASS over {strict_scope} strict-scope blocks")


def test_criterion_8_determinism(determinism_reports):
    first, second, third = determinism_reports
    first = json.loads(report_json(first))
    second = json.loads(report_json(second))
    third = json.loads(report_json(third))
    for report in (first, second, third):
        del report["meta"]["timings"]
    assert report_json(first) == report_json(second)
    assert json.dumps(first["blocks"], sort_keys=True) == json.dumps(
        third["blocks"], sort_keys=True
    )
    assert json.dumps(first["lemmas"], sort_keys=True) == json.dumps(
        third["lemmas"], sort_keys=True
    )
    print("criterion 8 (determinism): PASS")


def test_golden_corpus_report(corpus_report):
    report, _ = corpus_report
    assert render_report(report, "md") == (DATA / "corpus_seed0.md").read_text()
    assert render_report(report, "csv") == (DATA / "corpus_seed0.csv").read_text()
    stable = copy.deepcopy(report)
    del stable["meta"]["timings"]
    digest = hashlib.sha256(report_json(stable).encode()).hexdigest()
    assert digest == CORPUS_SEED0_JSON_SHA256
