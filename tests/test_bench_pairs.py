"""The gate arithmetic and the worktree handling of tools/bench_pairs.py."""

import importlib.util
import os
import subprocess

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# ten base runs with quartiles 99.75 and 105.25 (statistics.quantiles'
# default method), median 102.5: an interquartile range of 5.5
BASE = [100, 101, 102, 103, 104, 99, 98, 105, 106, 107]


class TestGate:
    def test_quartiles(self):
        assert bench_pairs.quartiles(BASE) == (99.75, 102.5, 105.25)

    def test_nine_wins_and_a_gap_over_the_iqr_pass(self):
        head = [x + 7 for x in BASE]
        head[3] = BASE[3] - 1  # one loss
        got = bench_pairs.gate(BASE, head, "higher")
        assert got == {"wins": 9, "pairs": 10, "median_gap": 6.0,
                       "base_iqr": 5.5, "pass": True}

    def test_eight_wins_fail(self):
        head = [x + 10 for x in BASE]
        head[0], head[1] = BASE[0], BASE[1] - 1  # a tie is no win
        got = bench_pairs.gate(BASE, head, "higher")
        assert got["wins"] == 8 and got["median_gap"] > got["base_iqr"]
        assert not got["pass"]

    def test_a_gap_of_the_iqr_fails(self):
        head = [x + 5.5 for x in BASE]
        got = bench_pairs.gate(BASE, head, "higher")
        assert got["wins"] == 10 and got["median_gap"] == got["base_iqr"] == 5.5
        assert not got["pass"]

    def test_lower_is_better(self):
        head = [x - 6 for x in BASE]
        assert bench_pairs.gate(BASE, head, "lower") == {
            "wins": 10, "pairs": 10, "median_gap": 6.0, "base_iqr": 5.5, "pass": True}
        assert not bench_pairs.gate(BASE, head, "higher")["pass"]

    def test_nine_of_ten_scales_with_the_pairs(self):
        base = BASE * 2
        head = [x + 10 for x in base]
        head[:2] = base[:2]
        assert bench_pairs.gate(base, head, "higher")["pass"]  # 18 of 20
        head[2] = base[2]
        assert not bench_pairs.gate(base, head, "higher")["pass"]  # 17 of 20


def _git(root, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                          cwd=root, capture_output=True, text=True, check=True).stdout


def _repo(tmp_path):
    """A repository with one commit of the file f, and that commit."""
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / "f").write_text("base\n")
    _git(repo, "add", "f")
    _git(repo, "commit", "-q", "-m", "base")
    return repo, _git(repo, "rev-parse", "HEAD").strip()


def test_worktree_removed_on_error(tmp_path):
    repo, rev = _repo(tmp_path)
    (repo / "f").write_text("head\n")
    seen = []
    with pytest.raises(RuntimeError):
        with bench_pairs.worktree(str(repo), rev) as path:
            seen.append(path)
            assert open(os.path.join(path, "f")).read() == "base\n"
            raise RuntimeError("a failed run")
    assert not os.path.exists(os.path.dirname(seen[0]))
    assert _git(repo, "worktree", "list").count("\n") == 1


def test_head_runs_from_a_stash_of_the_working_tree(tmp_path):
    repo, rev = _repo(tmp_path)
    assert bench_pairs.head_stash(str(repo)) is None
    (repo / "f").write_text("head\n")
    (repo / "g").write_text("staged\n")
    _git(repo, "add", "g")
    (repo / "u").write_text("untracked\n")
    stash = bench_pairs.head_stash(str(repo))
    # the stash's parent is the commit it was made on, which the report names
    assert stash != rev and _git(repo, "rev-parse", stash + "^").strip() == rev
    with bench_pairs.worktree(str(repo), stash) as path:
        assert open(os.path.join(path, "f")).read() == "head\n"
        assert open(os.path.join(path, "g")).read() == "staged\n"
        assert not os.path.exists(os.path.join(path, "u"))
    # the checkout, its index and the stash list are as they were
    assert (repo / "f").read_text() == "head\n"
    assert _git(repo, "status", "--porcelain") == " M f\nA  g\n?? u\n"
    assert _git(repo, "stash", "list") == ""
    assert _git(repo, "worktree", "list").count("\n") == 1
