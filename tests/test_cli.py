"""Tests for the command line interface."""

import json

import pytest

from pblocks.cli import main

A4_GROUP = {"name": "A4", "degree": 4, "generators": [[2, 1, 4, 3], [2, 3, 1, 4]]}

S4_CORPUS = {
    "groups": [
        {"name": "S4", "degree": 4, "generators": [[2, 1, 3, 4], [2, 3, 4, 1]],
         "primes": [3]},
    ],
    "normal_subgroups": [
        {"name": "A4", "parent": "S4", "generators": [[2, 1, 4, 3], [2, 3, 1, 4]]},
    ],
    "lemma_bindings": [
        {"check": "coprime_quotient_tau", "group": "S4", "subgroup": "A4", "prime": 3},
    ],
}


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
