"""Command-line front end: subcommands, reports, guardrails, determinism."""

import hashlib
import itertools
import json
import os

import pytest

from artifact import charts, cli, curves, quotient, trees
from artifact.exactfield import PP_ONE, PP_ZERO, ProjPoint


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

    @pytest.mark.parametrize("l,count", [(5, 10), (6, 25)])
    def test_strata_complex(self, tmp_path, l, count):
        status, rep = run_json(["strata", "--l", str(l)], tmp_path)
        assert status == 0 and rep["real"] is False
        assert rep["count"] == count == rep["formula"]
        assert rep["ok"] is True

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

    @pytest.mark.parametrize("samples", [0, -1])
    def test_suites_called_with_no_samples_raise(self, samples):
        # with no sample a suite checks nothing, and its report would pass
        text = r"^need samples >= 1, got %d$" % samples
        with pytest.raises(cli.UsageError, match=text):
            cli.verify_cr_suite(samples=samples)
        with pytest.raises(cli.UsageError, match=text):
            cli.verify_basis_suite(5, samples=samples)

    @pytest.mark.parametrize("command", [["verify-cr"],
                                         ["verify-basis", "--l", "4"],
                                         ["verify-quotient", "--l", "4"],
                                         ["verify-localmodels"]])
    def test_too_few_samples_or_too_small_a_bound(self, command, capsys):
        for flags in (["--samples", "0"], ["--samples", "-3"],
                      ["--bound", "0"], ["--bound", "1"]):
            assert cli.run(command + flags) == 2
            out, err = capsys.readouterr()
            assert out == "" and "error:" in err

    def test_trees_guard_on_projected_count(self, monkeypatch, tmp_path):
        # l=10 is under the l cap but would build 12,818,912 trees; the
        # guard must refuse it before enumerating anything
        def refuse(l, real=False):
            raise AssertionError("enumerate_trees called for l=%d" % l)

        monkeypatch.setattr(trees, "enumerate_trees", refuse)
        assert cli.run(["trees", "--l", "10"]) == 2
        assert cli.run(["trees", "--l", "9"]) == 2
        # real l=6 is at the l cap but would build 264,320 trees
        assert cli.run(["trees", "--l", "6", "--real"]) == 2
        built = []
        monkeypatch.setattr(trees, "enumerate_trees",
                            lambda l, real=False: built.append((l, real)) or [])
        # l=8 (39,208 trees) and real l=5 (10,368) pass, and the override
        # lifts the guard
        assert run_json(["trees", "--l", "8"], tmp_path)[0] == 0
        assert run_json(["trees", "--l", "10", "--max-l-override", "10"],
                        tmp_path)[0] == 0
        assert run_json(["trees", "--l", "5", "--real"], tmp_path)[0] == 0
        assert run_json(["trees", "--l", "6", "--real", "--max-l-override", "6"],
                        tmp_path)[0] == 0
        assert built == [(8, False), (10, False), (5, True), (6, True)]


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

    def test_all_report_pinned(self, tmp_path):
        # sha256 of the sorted-key JSON of `dm-lab all --seed 0` without its
        # timestamp, pinned when the local-model reports gained cocycle.routed
        status, rep = run_json(["all", "--seed", "0"], tmp_path)
        assert status == 0
        rep.pop("timestamp")
        text = json.dumps(rep, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "1afdbd134b8a47edd279425b32bb87f014cc9644aa8912e1b264242c5d56316b")

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


def _quads(t):
    """Every 4-subset of t's marks, in the basis suite's order."""
    return list(itertools.combinations(trees.sort_marks(trees.complex_marks(t.l)), 4))


def _direct_plan(t):
    """(masks, plan): the table key of each quadruple of _quads(t) and
    their curves.quad_plan on t, as verify_basis_suite makes them for the
    direct side."""
    bits = t.mark_bits()
    quads = _quads(t)
    masks = [bits[i] | bits[j] | bits[k] | bits[m] for i, j, k, m in quads]
    return masks, curves.quad_plan(t, curves.quad_positions(bits, quads))


def _replayed_mismatches(t, seed):
    """The quadruples on which the curve sample_curve(t, 40, seed) replays
    a mismatch of verify_basis_suite: its table's key against the direct
    side's (cli._direct_keys on the quad_keys of the suite's plan), in the
    suite's order."""
    c = curves.sample_curve(t, 40, seed)
    basis = charts.gamma_basis(t)
    table = charts.ReconstructionTable(t, values=charts.basis_values(c, basis), basis=basis)
    masks, plan = _direct_plan(t)
    direct = cli._direct_keys(masks, curves.quad_keys(plan, c.points))
    return [q for q, mask in zip(_quads(t), masks) if table.value_key(q) != direct[mask]]


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

    def test_cr_failure_is_written(self, monkeypatch):
        # 1 - x computed as 1/x: the two relations on 1 - x and the two on
        # -x/(1-x), which is computed through 1 - x, fail at every sample
        honest = cli.verify_cr_suite(samples=5, seed=3)
        assert honest["ok"] and honest["failures"] == []
        monkeypatch.setattr(ProjPoint, "one_minus", ProjPoint.inv)
        rep = cli.verify_cr_suite(samples=5, seed=3)
        assert rep["ok"] is False
        assert rep["relations_checked"] == honest["relations_checked"]
        assert rep["relations_failed"] == 4 * 5
        # one entry per failing sample: its five points
        assert len(rep["failures"]) == 5
        for entry in rep["failures"]:
            pts = [ProjPoint.parse(z) for z in entry.split(",")]
            assert len(set(pts)) == 5

    def test_basis_mismatches_are_counted(self, monkeypatch):
        # the direct value of the first quadruple, (1, 2, 3, 4), is wrong
        # on every curve, whether the suite reads it off the slots (an edge
        # splits it 2|2) or computes it; the reconstruction table reads its
        # own values.  The fault sits in cli._direct_keys, which builds
        # each curve's direct {mask: key} dict from the keys of both kinds
        honest = cli._direct_keys
        first = 0b1111  # the mask of (1, 2, 3, 4)

        def wrong(masks, keys):
            direct = honest(masks, keys)
            v = direct[first]
            direct[first] = PP_ONE._k if v == PP_ZERO._k else PP_ZERO._k
            return direct

        monkeypatch.setattr(cli, "_direct_keys", wrong)
        rep = cli.verify_basis_suite(5, samples=2)
        assert rep["ok"] is False
        assert rep["mismatches"] == rep["trees"] * 2
        assert [c["mismatches"] for c in rep["cases"]] == [2] * rep["trees"]
        ts = trees.enumerate_trees(5)
        # the fault is reached both ways: on some trees an edge splits
        # (1, 2, 3, 4) 2|2 and on others it is computed: the plan's read
        # key of the first quadruple is set on the first and None on the
        # others
        read = [_direct_plan(t)[1][0][0] is not None for t in ts]
        assert any(read) and not all(read)
        for idx, entry in enumerate(rep["cases"]):
            assert entry["case"] == idx
            assert entry["seed"] == ["0", "basis", idx, 0]
            # the replayed curve's first quadruple is the one that
            # mismatches
            assert _replayed_mismatches(ts[idx], entry["seed"]) == [(1, 2, 3, 4)]
        monkeypatch.setattr(cli, "_direct_keys", honest)
        assert _replayed_mismatches(ts[0], rep["cases"][0]["seed"]) == []

    def test_basis_with_no_quadruple_is_a_usage_error(self, tmp_path):
        # complex l = 3 has three marks, so no cross ratio to compare: an
        # "ok" report of 0 quadruples per curve would pass vacuously
        with pytest.raises(cli.UsageError, match="4 or more marks"):
            cli.verify_basis_suite(3, samples=1)
        out = tmp_path / "r.json"
        assert cli.run(["verify-basis", "--l", "3", "--out", str(out)]) == 2
        assert not out.exists()
        # the least spaces with a 4-subset still run
        assert cli.verify_basis_suite(4, samples=1)["quadruples_per_curve"] == 1
        assert cli.verify_basis_suite(2, samples=1, real=True)["quadruples_per_curve"] == 1

    def test_basis_mismatches_on_the_table_side(self, monkeypatch):
        # the table's anharmonic map for the reordering (1, 0, 2, 3), 1/x,
        # computed as 1 - x: the edge values of the trees whose edge
        # quadruple needs it are wrong.  The step table is built first,
        # honestly, since it keeps the maps it was built with; so the fault
        # reaches the edge values alone
        charts._steps(5)
        honest = cli.verify_basis_suite(5, samples=2)
        assert honest["ok"] is True
        assert all(set(c) == {"tree", "basis_size", "samples", "mismatches"}
                   for c in honest["cases"])
        monkeypatch.setitem(charts._PERMUTED, (1, 0, 2, 3), charts._ANHARMONIC[0, 2, 1, 3])
        rep = cli.verify_basis_suite(5, samples=2)
        assert rep["ok"] is False
        assert rep["mismatches"] == 16
        ts = trees.enumerate_trees(5)
        failing = []
        for idx, (entry, clean) in enumerate(zip(rep["cases"], honest["cases"])):
            if not entry["mismatches"]:
                assert entry == clean
                continue
            failing.append(idx)
            assert entry["case"] == idx
            assert entry["seed"][:3] == ["0", "basis", idx]
            assert _replayed_mismatches(ts[idx], entry["seed"])
        assert len(failing) == 4
        monkeypatch.undo()
        for idx in failing:
            assert _replayed_mismatches(ts[idx], rep["cases"][idx]["seed"]) == []

