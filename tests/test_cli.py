"""Tests for the command line interface."""

import json
from pathlib import Path

import pytest

from pblocks.cli import main

DATA = Path(__file__).parent / "data"

A4_GROUP = {"name": "A4", "degree": 4, "generators": [[2, 1, 4, 3], [2, 3, 1, 4]]}

S4_GROUP = {"name": "S4", "degree": 4, "generators": [[2, 1, 3, 4], [2, 3, 4, 1]],
            "primes": [3]}

S4_CORPUS = {
    "groups": [S4_GROUP],
    "normal_subgroups": [
        {"name": "A4", "parent": "S4", "generators": [[2, 1, 4, 3], [2, 3, 1, 4]]},
    ],
    "lemma_bindings": [
        {"check": "coprime_quotient_tau", "group": "S4", "subgroup": "A4", "prime": 3},
    ],
}

KLEIN_FIXTURE = {"name": "klein", "prime": 2, "defect_order": 4, "sectional": 2,
                 "trace": 6, "rows": [[2, 1, 1], [1, 2, 1], [1, 1, 2]]}


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestAnalyze:
    def test_json_report(self, tmp_path, capsys):
        group_file = write_json(tmp_path / "a4.json", A4_GROUP)
        code = main(["analyze", "--group", group_file, "--prime", "2"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["meta"]["passed"] is True
        assert report["meta"]["entries"] == ["A4"]
        record = report["blocks"][0]["blocks"][0]
        assert record["cartan"] == [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
        assert record["tau"] == "4/1"

    def test_markdown_format(self, tmp_path, capsys):
        group_file = write_json(tmp_path / "a4.json", A4_GROUP)
        code = main(["analyze", "--group", group_file, "--prime", "2", "--format", "md"])
        out = capsys.readouterr().out
        assert code == 0
        assert "| A4 | 2 | 0 | 4 | 3 | 2 | 4 | yes | 2 | 4/1 | ok |" in out

    def test_csv_format(self, tmp_path, capsys):
        group_file = write_json(tmp_path / "a4.json", A4_GROUP)
        code = main(["analyze", "--group", group_file, "--prime", "3", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0].startswith("group,prime,")

    @pytest.mark.parametrize("prime", [2, 3])
    def test_csv_matches_the_golden_corpus_rows(self, tmp_path, capsys, prime):
        golden = (DATA / "corpus_seed0.csv").read_text().splitlines()
        expected = [golden[0]] + [line for line in golden if line.startswith(f"S4,{prime},")]
        group_file = write_json(tmp_path / "s4.json", S4_GROUP)
        code = main(["analyze", "--group", group_file, "--prime", str(prime), "--format", "csv"])
        assert code == 0
        assert capsys.readouterr().out == "\n".join(expected) + "\n"

    def test_wrapped_single_group_file(self, tmp_path, capsys):
        group_file = write_json(tmp_path / "one.json", {"groups": [A4_GROUP]})
        assert main(["analyze", "--group", group_file, "--prime", "2"]) == 0
        capsys.readouterr()

    def test_missing_file(self, tmp_path, capsys):
        code = main(["analyze", "--group", str(tmp_path / "nope.json"), "--prime", "2"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["analyze", "--group", str(bad), "--prime", "2"]) == 2
        capsys.readouterr()

    def test_composite_prime(self, tmp_path, capsys):
        group_file = write_json(tmp_path / "a4.json", A4_GROUP)
        code = main(["analyze", "--group", group_file, "--prime", "6"])
        assert code == 2
        assert "not prime" in capsys.readouterr().err

    def test_bad_generator(self, tmp_path, capsys):
        broken = dict(A4_GROUP, generators=[[1, 1, 3, 4]])
        group_file = write_json(tmp_path / "bad.json", broken)
        assert main(["analyze", "--group", group_file, "--prime", "2"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("group", [
        {"name": "C2bool", "degree": 2, "generators": [[2, True]]},
        {"name": "C2str", "degree": "2", "generators": [["2", "1"]]},
    ], ids=["boolean", "strings"])
    def test_boolean_or_string_integer_rejected(self, tmp_path, capsys, group):
        # these were read as the integers 1 and 2 and analyzed C2
        group_file = write_json(tmp_path / "c2.json", group)
        assert main(["analyze", "--group", group_file, "--prime", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_two_groups_rejected(self, tmp_path, capsys):
        doc = {"groups": [A4_GROUP, dict(A4_GROUP, name="other")]}
        group_file = write_json(tmp_path / "two.json", doc)
        assert main(["analyze", "--group", group_file, "--prime", "2"]) == 2
        capsys.readouterr()


class TestTau:
    def test_klein_matrix(self, tmp_path, capsys):
        cartan = write_json(tmp_path / "c.json", [[2, 1, 1], [1, 2, 1], [1, 1, 2]])
        code = main(["tau", "--cartan", cartan, "--degrees", "1,1,1"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "4/1"

    def test_wrapped_rows(self, tmp_path, capsys):
        cartan = write_json(tmp_path / "c.json", {"rows": [[2, 1], [1, 2]]})
        code = main(["tau", "--cartan", cartan, "--degrees", "1,2"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "14/5"

    def test_rejects_zero_degree(self, tmp_path, capsys):
        cartan = write_json(tmp_path / "c.json", [[2, 1], [1, 2]])
        assert main(["tau", "--cartan", cartan, "--degrees", "1,0"]) == 2
        capsys.readouterr()

    def test_rejects_length_mismatch(self, tmp_path, capsys):
        cartan = write_json(tmp_path / "c.json", [[2, 1], [1, 2]])
        assert main(["tau", "--cartan", cartan, "--degrees", "1,2,3"]) == 2
        capsys.readouterr()

    def test_rejects_boolean_entry(self, tmp_path, capsys):
        # true was read as 1 and printed 3/2
        cartan = write_json(tmp_path / "c.json", {"rows": [[True, 0], [0, 2]]})
        assert main(["tau", "--cartan", cartan, "--degrees", "1,1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_rejects_fractional_entry(self, tmp_path, capsys):
        cartan = write_json(tmp_path / "c.json", [[2, 1], [1, 2.5]])
        assert main(["tau", "--cartan", cartan, "--degrees", "1,2"]) == 2
        assert "error:" in capsys.readouterr().err


class TestFixturesCommand:
    def test_all_ok(self, capsys):
        code = main(["fixtures"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert all(line.endswith("ok") for line in lines)
        assert lines[0].startswith("J1:")


class TestVerifyCorpus:
    def test_custom_corpus(self, tmp_path, capsys):
        corpus_file = write_json(tmp_path / "corpus.json", S4_CORPUS)
        code = main(["verify-corpus", "--corpus", corpus_file])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["meta"]["entries"] == ["S4"]
        assert [item["prime"] for item in report["blocks"]] == [3]
        assert len(report["lemmas"]) == 1
        assert report["lemmas"][0]["kind"] == "coprime_quotient_tau"
        assert report["lemmas"][0]["holds"] is True
        assert len(report["fixtures"]) == 4

    def test_empty_corpus(self, tmp_path, capsys):
        corpus_file = write_json(tmp_path / "empty.json", {"groups": []})
        code = main(["verify-corpus", "--corpus", corpus_file])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["blocks"] == []
        assert report["lemmas"] == []

    def test_corrupted_fixture_exits_one(self, tmp_path, capsys):
        doc = {
            "groups": [],
            "fixtures": [
                {
                    "name": "J1-corrupt",
                    "prime": 2,
                    "defect_order": 8,
                    "sectional": 3,
                    "trace": 24,
                    "rows": [
                        [9, 4, 4, 4, 4],
                        [4, 4, 3, 3, 1],
                        [4, 3, 4, 2, 2],
                        [4, 3, 2, 4, 2],
                        [4, 1, 2, 2, 4],
                    ],
                }
            ],
        }
        corpus_file = write_json(tmp_path / "bad.json", doc)
        code = main(["verify-corpus", "--corpus", corpus_file])
        capsys.readouterr()
        assert code == 1

    @pytest.mark.parametrize("field,value", [
        ("sectional", -1), ("defect_order", -4), ("trace", "six"),
    ])
    def test_fixture_bad_value_rejected(self, tmp_path, capsys, field, value):
        fix = dict(KLEIN_FIXTURE, **{field: value})
        corpus_file = write_json(tmp_path / "bad.json", {"groups": [], "fixtures": [fix]})
        assert main(["verify-corpus", "--corpus", corpus_file]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"groups": [dict(S4_GROUP, degree=4.5)]},
        {"groups": [dict(S4_GROUP, generators=[[2, 1, 3, 4], [2.5, 3, 4, 1]])]},
        {"groups": [dict(S4_GROUP, primes=[2.5])]},
        {"groups": [dict(S4_GROUP, large="false")]},
        {"groups": [dict(S4_GROUP, large=0)]},
        dict(S4_CORPUS, lemma_bindings=[dict(S4_CORPUS["lemma_bindings"][0], prime=3.5)]),
        {"groups": [], "fixtures": [dict(KLEIN_FIXTURE, prime=2.5)]},
        {"groups": [], "fixtures": [dict(KLEIN_FIXTURE, defect_order=4.5)]},
        {"groups": [], "fixtures": [dict(KLEIN_FIXTURE, sectional=2.5)]},
        {"groups": [], "fixtures": [dict(KLEIN_FIXTURE, trace=6.5)]},
        {"groups": [], "fixtures": [dict(KLEIN_FIXTURE, rows=[[2, 1, 1], [1, 2.5, 1], [1, 1, 2]])]},
        {"groups": [dict(S4_GROUP, degree="4")]},
        {"groups": [dict(S4_GROUP, generators=[[2, True, 3, 4], [2, 3, 4, 1]])]},
        {"groups": [], "fixtures": [dict(KLEIN_FIXTURE, sectional="2")]},
        {"groups": [], "fixtures": [dict(KLEIN_FIXTURE, trace=True)]},
        dict(S4_CORPUS, normal_subgroups=[
            {"name": "N", "parent": "S4", "generators": [[2, 1, 4, 3], [3, 4, 1, 2]]},
            dict(S4_CORPUS["normal_subgroups"][0], name="N"),
        ], lemma_bindings=[dict(S4_CORPUS["lemma_bindings"][0], subgroup="N")]),
    ], ids=["degree", "generator", "primes", "large-string", "large-number", "binding-prime",
            "fixture-prime", "defect-order", "sectional", "trace", "rows",
            "degree-string", "generator-boolean", "sectional-string", "trace-boolean",
            "duplicate-subgroup-name"])
    def test_fractional_or_non_boolean_value_rejected(self, tmp_path, capsys, doc):
        # these were coerced: primes [2.5] became (2,), "false" made the entry large,
        # and "4" and true were read as the integers 4 and 1; of two normal
        # subgroups named N (V4, then A4), the binding ran on the last
        corpus_file = write_json(tmp_path / "bad.json", doc)
        assert main(["verify-corpus", "--corpus", corpus_file]) == 2
        assert "error:" in capsys.readouterr().err

    def test_fixture_trace_as_string_rejected(self, tmp_path, capsys):
        # read like every other JSON integer: "6" is not 6, as "2" is not a sectional rank
        fix = dict(KLEIN_FIXTURE, trace="6")
        corpus_file = write_json(tmp_path / "bad.json", {"groups": [], "fixtures": [fix]})
        assert main(["verify-corpus", "--corpus", corpus_file]) == 2
        assert "error:" in capsys.readouterr().err

    def test_fixture_prime_below_two_rejected(self, tmp_path, capsys):
        doc = {
            "groups": [],
            "fixtures": [
                {"name": "p1", "prime": 1, "defect_order": 1, "sectional": 0, "rows": [[1]]}
            ],
        }
        corpus_file = write_json(tmp_path / "bad.json", doc)
        assert main(["verify-corpus", "--corpus", corpus_file]) == 2
        assert "error:" in capsys.readouterr().err

    def test_fixture_composite_prime_rejected(self, tmp_path, capsys):
        doc = {
            "groups": [],
            "fixtures": [
                {"name": "p4", "prime": 4, "defect_order": 4, "sectional": 0, "rows": [[4]]}
            ],
        }
        corpus_file = write_json(tmp_path / "bad.json", doc)
        assert main(["verify-corpus", "--corpus", corpus_file]) == 2
        assert "is not prime" in capsys.readouterr().err

    def test_unknown_binding_kind(self, tmp_path, capsys):
        doc = dict(S4_CORPUS)
        doc["lemma_bindings"] = [
            {"check": "mystery", "group": "S4", "subgroup": "A4", "prime": 3}
        ]
        corpus_file = write_json(tmp_path / "bad.json", doc)
        assert main(["verify-corpus", "--corpus", corpus_file]) == 2
        capsys.readouterr()

    def test_unknown_subgroup_in_binding(self, tmp_path, capsys):
        doc = dict(S4_CORPUS)
        doc["lemma_bindings"] = [
            {"check": "coprime_quotient_tau", "group": "S4", "subgroup": "V4", "prime": 3}
        ]
        corpus_file = write_json(tmp_path / "bad.json", doc)
        assert main(["verify-corpus", "--corpus", corpus_file]) == 2
        capsys.readouterr()

    def test_non_normal_subgroup_rejected(self, tmp_path, capsys):
        doc = {
            "groups": [S4_CORPUS["groups"][0]],
            "normal_subgroups": [
                {"name": "C2", "parent": "S4", "generators": [[2, 1, 3, 4]]}
            ],
        }
        corpus_file = write_json(tmp_path / "bad.json", doc)
        code = main(["verify-corpus", "--corpus", corpus_file])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_duplicate_group_name_rejected(self, tmp_path, capsys):
        doc = {"groups": [S4_CORPUS["groups"][0], S4_CORPUS["groups"][0]]}
        corpus_file = write_json(tmp_path / "bad.json", doc)
        assert main(["verify-corpus", "--corpus", corpus_file]) == 2
        capsys.readouterr()

    def test_markdown_output(self, tmp_path, capsys):
        corpus_file = write_json(tmp_path / "corpus.json", S4_CORPUS)
        code = main(["verify-corpus", "--corpus", corpus_file, "--format", "md"])
        out = capsys.readouterr().out
        assert code == 0
        assert "## Paired-subgroup checks" in out
