"""The output digests and the base-against-head comparison of
tools/same_bytes.py."""

import hashlib
import importlib.util
import json
import os
import subprocess

import pytest

_TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")
_spec = importlib.util.spec_from_file_location("same_bytes",
                                               os.path.join(_TOOLS, "same_bytes.py"))
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)


class TestDigest:
    def test_timestamp_dropped_and_dumped_as_ci_dumps(self):
        report = {"ok": True, "l": 4, "timestamp": "2026-01-01T00:00:00"}
        want = hashlib.sha256(
            json.dumps({"l": 4, "ok": True}, indent=2, sort_keys=True).encode()).hexdigest()
        assert same_bytes.digest(json.dumps(report).encode()) == want
        report["timestamp"] = "2027-06-30T12:00:00"
        assert same_bytes.digest(json.dumps(report, indent=2).encode() + b"\n") == want

    def test_one_byte_of_a_report_counts(self):
        a = json.dumps({"count": 4, "timestamp": "x"}).encode()
        b = json.dumps({"count": 5, "timestamp": "x"}).encode()
        assert same_bytes.digest(a) != same_bytes.digest(b)

    def test_text_is_hashed_as_it_is(self):
        for out in (b"", b"5-marked dual trees: 26\n", b"[1, 2]"):
            assert same_bytes.digest(out) == hashlib.sha256(out).hexdigest()

    def test_differing_names_in_order(self):
        base = {"a": (0, "x", "e"), "b": (0, "y", "e"), "c": (2, "z", "e")}
        head = {"a": (0, "x", "e"), "b": (0, "Y", "e"), "c": (1, "z", "e")}
        assert same_bytes.differing(base, head) == ["b", "c"]
        assert same_bytes.differing(base, dict(base)) == []

    def test_commands_are_ci_and_the_demos(self):
        # each name once and every demo listed; CI runs the list under two
        # hash seeds, and no dm-lab command but the console-script smoke
        # line, so the list is the one place a command is added
        names = [name for name, _args, _code in same_bytes.COMMANDS]
        assert len(set(names)) == len(names)
        demos = os.listdir(os.path.join(os.path.dirname(_TOOLS), "demos"))
        assert {"demos/" + f for f in demos if f.endswith(".py")} <= set(names)
        with open(os.path.join(os.path.dirname(_TOOLS), ".github", "workflows",
                               "tier1.yml")) as f:
            run = [line.strip().removeprefix("run: ") for line in f
                   if not line.strip().startswith(("#", "- name:"))]
        assert [line for line in run if "same_bytes.py" in line] == [
            "python tools/same_bytes.py --hash-seeds 1,2"]
        assert [line for line in run if "dm-lab" in line] == ["dm-lab all --seed 0 > /dev/null"]


def _git(root, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                          cwd=root, capture_output=True, text=True, check=True).stdout


# prints the report in r.json with a fresh timestamp and exits with the
# code in code.txt
_SCRIPT = """import json, sys, time
r = json.load(open("r.json"))
r["timestamp"] = repr(time.time())
print(json.dumps(r))
sys.exit(int(open("code.txt").read()))
"""


def _repo(tmp_path, code="0"):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / "report.py").write_text(_SCRIPT)
    (repo / "r.json").write_text('{"count": 4}')
    (repo / "code.txt").write_text(code)
    _git(repo, "add", ".")
    _git(repo, "commit", "-q", "-m", "base")
    return repo, _git(repo, "rev-parse", "HEAD").strip()


COMMANDS = (("report", ("report.py",), 0),)


def test_same_report_passes_and_leaves_no_worktree(tmp_path):
    repo, rev = _repo(tmp_path)
    diff, base, head = same_bytes.compare(str(repo), rev, COMMANDS)
    assert diff == [] and base == head and base["report"][0] == 0
    assert _git(repo, "worktree", "list").count("\n") == 1


def test_one_byte_change_fails(tmp_path):
    repo, rev = _repo(tmp_path)
    (repo / "r.json").write_text('{"count": 5}')
    diff, base, head = same_bytes.compare(str(repo), rev, COMMANDS)
    assert diff == ["report"]
    assert base["report"][0] == head["report"][0] == 0


def test_exit_code_change_fails(tmp_path):
    repo, rev = _repo(tmp_path)
    (repo / "code.txt").write_text("1")
    diff, base, head = same_bytes.compare(str(repo), rev, COMMANDS)
    assert diff == ["report"] and (base["report"][0], head["report"][0]) == (0, 1)
    assert base["report"][1:] == head["report"][1:]


def test_main_prints_pass(tmp_path, monkeypatch, capsys):
    repo, rev = _repo(tmp_path)
    monkeypatch.setattr(same_bytes, "ROOT", str(repo))
    monkeypatch.setattr(same_bytes, "COMMANDS", COMMANDS)
    monkeypatch.setattr(same_bytes.signal, "signal", lambda *args: None)
    assert same_bytes.main(["--base", rev]) == 0
    assert capsys.readouterr().out.endswith("1 commands against %s: pass\n" % (rev,))
    (repo / "r.json").write_text('{"count": 44}')
    assert same_bytes.main(["--base", rev]) == 1
    out = capsys.readouterr().out
    assert out.startswith("differs: report\n") and out.endswith(": fail\n")


@pytest.mark.parametrize("code, expected", [("0", 2), ("1", 0)])
def test_wrong_exit_code_fails_both_modes(tmp_path, monkeypatch, capsys, code, expected):
    # the command gives one exit code at base and head and under each
    # seed, so only the code it must give can fail it
    repo, rev = _repo(tmp_path, code)
    monkeypatch.setattr(same_bytes, "ROOT", str(repo))
    monkeypatch.setattr(same_bytes, "COMMANDS", (("report", ("report.py",), expected),))
    monkeypatch.setattr(same_bytes.signal, "signal", lambda *args: None)
    wrong = "wrong exit code: report\n  %%s: got %s, expected %d\n" % (code, expected)
    assert same_bytes.main(["--base", rev]) == 1
    assert capsys.readouterr().out == wrong % "head" + "1 commands against %s: fail\n" % rev
    assert same_bytes.main(["--hash-seeds", "1,2"]) == 1
    assert capsys.readouterr().out == wrong % "seed 1" + "1 commands under hash seeds 1,2: fail\n"


# prints a report whose "order" is the iteration order of a set of
# strings, which follows the hash seed, when order.txt says so
_SEEDED = """import json
words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
seeded = open("order.txt").read() == "set"
print(json.dumps({"order": list(set(words)) if seeded else sorted(words)}))
"""

SEEDED_COMMANDS = (("seeded", ("seeded.py",), 0),)


def _seeded_repo(tmp_path, order):
    repo = tmp_path / "seeded"
    repo.mkdir()
    (repo / "seeded.py").write_text(_SEEDED)
    (repo / "order.txt").write_text(order)
    return repo


def test_report_that_follows_the_hash_seed_fails(tmp_path):
    repo = _seeded_repo(tmp_path, "set")
    first, runs = same_bytes.compare_seeds(str(repo), ["1", "2"], SEEDED_COMMANDS)
    [(seed, diff, results)] = runs
    assert seed == "2" and diff == ["seeded"]
    assert first["seeded"][0] == results["seeded"][0] == 0


def test_report_that_ignores_the_hash_seed_passes(tmp_path):
    repo = _seeded_repo(tmp_path, "sorted")
    first, runs = same_bytes.compare_seeds(str(repo), ["1", "2", "3"], SEEDED_COMMANDS)
    assert [(seed, diff) for seed, diff, _results in runs] == [("2", []), ("3", [])]


def test_main_hash_seeds(tmp_path, monkeypatch, capsys):
    repo = _seeded_repo(tmp_path, "set")
    monkeypatch.setattr(same_bytes, "ROOT", str(repo))
    monkeypatch.setattr(same_bytes, "COMMANDS", SEEDED_COMMANDS)
    assert same_bytes.main(["--hash-seeds", "1,2"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("differs: seeded\n  seed 1: exit 0")
    assert out.endswith("1 commands under hash seeds 1,2: fail\n")
    (repo / "order.txt").write_text("sorted")
    assert same_bytes.main(["--hash-seeds", "1,2"]) == 0
    assert capsys.readouterr().out == "1 commands under hash seeds 1,2: pass\n"
    for bad in ("1", "1,x", "1,-2"):
        with pytest.raises(SystemExit):
            same_bytes.main(["--hash-seeds", bad])
