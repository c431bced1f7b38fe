"""Command-line front end: subcommands, reports, guardrails, determinism."""

import json
import os

import pytest

from artifact import cli, quotient, trees


def run_json(argv, tmp_path, name="report.json"):
    out = str(tmp_path / name)
    status = cli.run(argv + ["--out", out])
    with open(out) as f:
        return status, json.load(f)


class TestEnumerationCommands:
    def test_trees(self, tmp_path):
        status, rep = run_json(["trees", "--l", "5"], tmp_path)
        assert status == 0 and rep["count"] == 26 and rep["v"] == 1

    def test_strata_real(self, tmp_path):
        status, rep = run_json(["strata", "--l", "3", "--real"], tmp_path)
        assert status == 0
        assert rep["count"] == 2 ** 5 - 7

    def test_schedule_l5(self, tmp_path):
        status, rep = run_json(["schedule", "--l", "5"], tmp_path)
        assert status == 0
        assert rep["counts"] == {"holomorphic": 10}
        assert len(rep["schedule"]) == 10

    def test_schedule_l3_real(self, tmp_path):
        status, rep = run_json(["schedule", "--l", "3", "--real"], tmp_path)
        assert status == 0
        assert rep["counts"] == {"real": 3, "augmented(1)": 4, "complex": 12}


class TestVerificationCommands:
    def test_verify_cr(self, tmp_path):
        status, rep = run_json(
            ["verify-cr", "--samples", "200", "--seed", "3"], tmp_path
        )
        assert status == 0 and rep["ok"] and rep["relations_failed"] == 0

    def test_verify_basis_small(self, tmp_path):
        status, rep = run_json(
            ["verify-basis", "--l", "4", "--samples", "20", "--seed", "7"],
            tmp_path,
        )
        assert status == 0 and rep["mismatches"] == 0

    def test_verify_quotient_small(self, tmp_path):
        status, rep = run_json(
            ["verify-quotient", "--l", "4", "--samples", "30"], tmp_path
        )
        assert status == 0
        assert rep["key_collisions_across_classes"] == 0
        assert rep["intra_class_key_splits"] == 0

    def test_verify_localmodels_small(self, tmp_path):
        status, rep = run_json(
            ["verify-localmodels", "--samples", "30"], tmp_path
        )
        assert status == 0 and rep["ok"]
        assert set(rep["presets"]) == {"real3", "complex2", "aug31"}


class TestGuardrailsAndErrors:
    def test_l_too_large(self, capsys):
        assert cli.run(["trees", "--l", "12"]) == 2

    def test_override(self, tmp_path):
        status, rep = run_json(
            ["trees", "--l", "4", "--max-l-override", "4"], tmp_path
        )
        assert status == 0

    def test_override_lowers_cap(self):
        assert cli.run(["trees", "--l", "5", "--max-l-override", "4"]) == 2

    def test_bad_subcommand(self):
        assert cli.run(["frobnicate"]) == 2

    def test_verify_guardrail(self):
        assert cli.run(["verify-basis", "--l", "9"]) == 2


class TestReports:
    def test_deterministic_modulo_timestamp(self, tmp_path):
        _, rep1 = run_json(["verify-cr", "--samples", "50"], tmp_path, "a.json")
        _, rep2 = run_json(["verify-cr", "--samples", "50"], tmp_path, "b.json")
        rep1.pop("timestamp")
        rep2.pop("timestamp")
        assert rep1 == rep2

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        run_json(["trees", "--l", "4"], tmp_path)
        leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".report-")]
        assert leftovers == []

    def test_stdout_when_no_out(self, capsys):
        assert cli.run(["trees", "--l", "4"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["count"] == 4

    def test_verify_quotient_deterministic(self, tmp_path):
        _, rep1 = run_json(
            ["verify-quotient", "--l", "4", "--samples", "20"], tmp_path, "s.json"
        )
        _, rep2 = run_json(
            ["verify-quotient", "--l", "4", "--samples", "20"], tmp_path, "t.json"
        )
        rep1.pop("timestamp")
        rep2.pop("timestamp")
        assert rep1 == rep2


class TestNonVacuity:
    def test_all_rejects_ignored_flags(self):
        assert cli.run(["all", "--samples", "5"]) == 2
        assert cli.run(["all", "--bound", "5"]) == 2

    def test_quotient_with_nothing_in_domain_fails(self, tmp_path, monkeypatch):
        def empty_case(t, rho_star, **kwargs):
            return {"tree": trees.canonical_form(t),
                    "rho_star": [str(m) for m in trees.sort_marks(rho_star)],
                    "samples": kwargs["n_samples"], "in_domain": 0,
                    "classes": 0, "classes_out_of_domain": 0,
                    "key_collisions_across_classes": 0,
                    "intra_class_key_splits": 0}

        monkeypatch.setattr(quotient, "verify_injectivity", empty_case)
        assert cli.verify_quotient_suite(4, samples=10)["ok"] is False
        status, rep = run_json(
            ["verify-quotient", "--l", "4", "--samples", "10"], tmp_path
        )
        assert status == 1 and rep["ok"] is False
