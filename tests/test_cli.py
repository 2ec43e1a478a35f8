import copy
import importlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from epmu.cli import main
from epmu.system import parse_system, system_to_json
from epmu.translate import labeled_system_to_dict, LabeledSystem, ParityGame


def _null_ids(d):
    """Every state id of a one-state file, its initial state and the ends
    of its transitions or action labels made null."""
    d["states"][0]["id"] = d["initial"] = None
    for t in d.get("transitions", []) + d.get("actions", {}).get("labels", []):
        t[0] = t[-1] = None


# a one-state system whose state has a name that is no string
NAMED_BY_AN_INT = {
    "states": [{"id": 1, "atoms": ["p"], "name": 5}], "initial": 1, "transitions": [[1, 1]],
    "atoms": ["p"], "agents": {"a": {"obs": ["p"]}},
}


@pytest.fixture
def sys2_file(tmp_path, sys2):
    p = tmp_path / "sys2.mas"
    p.write_text(system_to_json(sys2))
    return str(p)


@pytest.fixture
def loop_file(tmp_path):
    from epmu.system import MultiAgentSystem

    m = MultiAgentSystem([1], 1, [(1, 1)], ["p"], {1: {"p"}}, {"a": {"p"}})
    p = tmp_path / "loop.mas"
    p.write_text(system_to_json(m))
    return str(p)


def _two_state_game_file(tmp_path, top):
    """A .pg file of a two-state cycle with priorities top and 1."""
    g = ParityGame(
        [1, 2], 1, [(1, {"e": "x", "o": "u"}, 2), (2, {"e": "x", "o": "u"}, 1)],
        [], {}, {"e": set(), "o": set()}, {"e": ["x"], "o": ["u"]},
        priority={1: top, 2: 1}, players=("e", "o"),
    )
    d = labeled_system_to_dict(g)
    for entry in d["states"]:
        entry["priority"] = g.priority[entry["id"]]
    p = tmp_path / f"top{top}.pg"
    p.write_text(json.dumps(d))
    return str(p)


@pytest.fixture
def mixed_file(tmp_path, sys1):
    from epmu.system import MultiAgentSystem

    m = MultiAgentSystem(
        list(sys1.states), sys1.q0, list(sys1.delta), list(sys1.atoms),
        dict(sys1.labels), {"a": {"p"}, "b": {"q"}},
    )
    p = tmp_path / "mixed.mas"
    p.write_text(system_to_json(m))
    return str(p)


class TestCheck:
    def test_holds_exit_zero(self, sys2_file, capsys):
        assert main(["check", "--system", sys2_file, "--formula", "EX K a . p"]) == 0
        assert "holds" in capsys.readouterr().out

    def test_not_holds_exit_one(self, sys2_file, capsys):
        assert main(["check", "--system", sys2_file, "--formula", "AX K a . p"]) == 1
        assert "does not hold" in capsys.readouterr().out

    def test_fragment_rejected_exit_two(self, mixed_file, tmp_path, capsys):
        report = tmp_path / "r.json"
        code = main([
            "check", "--system", mixed_file,
            "--formula", "nu Z . p & K a . Z & K b . Z",
            "--report", str(report),
        ])
        assert code == 2
        data = json.loads(report.read_text())
        assert data["fragment"]["accepted"] is False
        assert sorted(data["fragment"]["agents"]) == ["a", "b"]

    def test_missing_file_exit_three(self, tmp_path, capsys):
        code = main(["check", "--system", str(tmp_path / "nope.mas"), "--formula", "p"])
        assert code == 3

    @pytest.mark.parametrize(
        "command,formula,err",
        [
            (["check"], "mu Z .", "error: expected a formula, got 'end of input' (line 1, column 7)"),
            (["check"], "EX typo", "error: unknown atom: typo"),
            (["analyze"], "EX typo", "error: unknown atom: typo"),
            (["oracle", "--depth", "2"], "EX typo", "error: unknown atom: typo"),
            (["check"], "<a=x> p", "error: action modalities must be compiled away before checking"),
            (["oracle", "--depth", "2"], "<a=x> p",
             "error: action modalities must be compiled away before checking"),
        ],
        ids=[
            "syntax", "check-unknown-atom", "analyze-unknown-atom", "oracle-unknown-atom",
            "check-action-modality", "oracle-action-modality",
        ],
    )
    def test_bad_formula_exit_three(self, sys2_file, capsys, command, formula, err):
        # sys2 declares only the atom p
        assert main([*command, "--system", sys2_file, "--formula", formula]) == 3
        assert capsys.readouterr().err == err + "\n"

    def test_no_formula_exit_three(self, sys2_file):
        assert main(["check", "--system", sys2_file]) == 3

    def test_cap_exceeded_exit_three(self, sys2_file):
        code = main([
            "check", "--system", sys2_file, "--formula", "EX K a . p", "--cap", "3",
        ])
        assert code == 3

    @pytest.mark.parametrize(
        "data",
        [
            {"states": [{"atoms": ["p"]}], "initial": 1, "transitions": [[1, 1]]},
            {"states": [{"id": 1}], "initial": 1, "transitions": [[1, 1], [0]]},
        ],
        ids=["state-without-id", "one-ended-transition"],
    )
    def test_malformed_system_exit_three(self, tmp_path, capsys, data):
        p = tmp_path / "bad.mas"
        p.write_text(json.dumps(data | {"atoms": ["p"], "agents": {"a": {"obs": ["p"]}}}))
        assert main(["check", "--system", str(p), "--formula", "p"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_unexpected_failure_exit_three(self, tmp_path, capsys):
        # agents given as a list, not an object: a SystemFormatError names it
        p = tmp_path / "odd.mas"
        p.write_text(json.dumps({
            "states": [{"id": 1}], "initial": 1, "transitions": [[1, 1]],
            "atoms": [], "agents": [],
        }))
        assert main(["check", "--system", str(p), "--formula", "true"]) == 3
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    def test_unhashable_state_id_exit_three(self, tmp_path, capsys):
        # a list id cannot be a state: a SystemFormatError names the state
        p = tmp_path / "unhashable.mas"
        p.write_text(json.dumps({
            "states": [{"id": [1]}], "initial": [1], "transitions": [[[1], [1]]],
            "atoms": [], "agents": {"a": {}},
        }))
        assert main(["check", "--system", str(p), "--formula", "true"]) == 3
        err = capsys.readouterr().err
        assert err == "error: state {'id': [1]}: its id is a list or an object\n"

    def test_unhashable_transition_end_exit_three(self, tmp_path, capsys):
        p = tmp_path / "unhashable.mas"
        p.write_text(json.dumps({
            "states": [{"id": 1}], "initial": 1, "transitions": [[[1], 1]],
            "atoms": [], "agents": {"a": {}},
        }))
        assert main(["check", "--system", str(p), "--formula", "true"]) == 3
        err = capsys.readouterr().err
        assert err == "error: transition [[1], 1] uses a list or an object as a state\n"

    @pytest.mark.parametrize(
        "edit,named",
        [
            (lambda d: d["agents"]["a"].__setitem__("obs", "pq"), "agent 'a': 'obs' is not a list of strings"),
            (lambda d: d.__setitem__("states", 5), "'states' is not a list: 5"),
            (lambda d: d.__setitem__("transitions", 5), "'transitions' is not a list: 5"),
            (lambda d: d.__setitem__("atoms", "pq"), "'atoms' is not a list of strings"),
            (lambda d: d["states"][0].__setitem__("atoms", 5), "state 1: 'atoms' is not a list of strings"),
            (lambda d: d["states"][0].__setitem__("atoms", [["p"]]), "state 1: 'atoms' is not a list of strings"),
            (
                lambda d: d["states"].append({"id": 1, "atoms": []}),
                "state {'id': 1, 'atoms': []}: an earlier state has its id",
            ),
            (
                lambda d: d["states"].append({"id": True, "atoms": []}),
                "state {'id': True, 'atoms': []}: its id is a boolean",
            ),
            (lambda d: d.__setitem__("initial", True), "initial state True is not a state"),
            (lambda d: d["transitions"].__setitem__(0, [1, True]), "transition [1, True] uses a boolean as a state"),
            (
                lambda d: d["states"].append({"id": "1", "atoms": []}),
                "state {'id': '1', 'atoms': []}: its id does not sort with 1",
            ),
            (lambda d: d.__setitem__("initial", 1.0), "initial state 1.0 is not a state"),
            (lambda d: d["states"].append({"id": 2.0, "atoms": []}), "state {'id': 2.0, 'atoms': []}: its id is a float"),
            (lambda d: d["transitions"].__setitem__(0, [1, 1.0]), "transition [1, 1.0] uses a float as a state"),
            (_null_ids, "state {'id': None, 'atoms': ['p']}: its id is null"),
        ],
        ids=[
            "obs-string", "states-int", "transitions-int", "atoms-string", "state-atoms-int", "state-atoms-nested",
            "repeated-id", "boolean-id", "boolean-initial", "boolean-transition-end", "unsortable-ids",
            "float-initial", "float-id", "float-transition-end", "null-ids",
        ],
    )
    def test_field_of_wrong_json_type_exit_three(self, tmp_path, capsys, edit, named):
        # a string is not read letter by letter, an int is not iterated
        d = {
            "states": [{"id": 1, "atoms": ["p"]}], "initial": 1, "transitions": [[1, 1]],
            "atoms": ["p", "q"], "agents": {"a": {"obs": ["p"]}},
        }
        edit(d)
        p = tmp_path / "typed.mas"
        p.write_text(json.dumps(d))
        assert main(["check", "--system", str(p), "--formula", "K a . p"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}") and "TypeError" not in err

    def test_state_name_not_a_string_exit_three(self, tmp_path, capsys):
        # the loader refuses it, so no check runs and no report is written
        p = tmp_path / "named.mas"
        p.write_text(json.dumps(NAMED_BY_AN_INT))
        report = tmp_path / "r.json"
        code = main(["check", "--system", str(p), "--formula", "K a . p", "--report", str(report)])
        assert code == 3
        assert capsys.readouterr() == ("", "error: state 1: 'name' is not a string: 5\n")
        assert not report.exists()

    def test_generic_failure_one_line_exit_three(self, sys2_file, monkeypatch, capsys):
        # a failure that is no EpmuError still exits 3, on one line
        def boom(text):
            raise RuntimeError("first line\nsecond line")

        monkeypatch.setattr("epmu.cli.parse_system", boom)
        assert main(["check", "--system", sys2_file, "--formula", "true"]) == 3
        assert capsys.readouterr().err == "error: RuntimeError: first line second line\n"

    def test_captured_free_variable_exit_three(self, loop_file, capsys):
        # renaming the inner Z apart must not bind the free Z1
        formula = "mu Z . (EX Z & mu Z . (EX Z | Z1))"
        assert main(["check", "--system", loop_file, "--formula", formula]) == 3
        assert capsys.readouterr().err == "error: free fixpoint variables: Z1\n"

    def test_agents_not_an_object_exit_three(self, tmp_path, capsys):
        p = tmp_path / "agents.mas"
        p.write_text(json.dumps({
            "states": [{"id": 1}], "initial": 1, "transitions": [[1, 1]],
            "atoms": [], "agents": ["a"],
        }))
        assert main(["check", "--system", str(p), "--formula", "true"]) == 3
        assert capsys.readouterr().err == "error: 'agents' is not an object: ['a']\n"

    @pytest.mark.parametrize(
        "formula,phase",
        [("EX " * 1000 + "p", "parse"), (" & ".join(["p"] * 2000), "positive form")],
        ids=["deep-EX", "long-conjunction"],
    )
    def test_deep_formula_exit_three(self, loop_file, capsys, formula, phase):
        assert main(["check", "--system", loop_file, "--formula", formula]) == 3
        err = capsys.readouterr().err
        assert err == f"error: formula is nested too deeply for the {phase} phase\n"

    def test_too_deep_name_in_report_exit_three(self, loop_file, monkeypatch, capsys):
        # the initial state's name is built only for the report
        def deep(base, s, S):
            raise RecursionError

        monkeypatch.setattr(importlib.import_module("epmu.distinction"), "_belief_name", deep)
        assert main(["check", "--system", loop_file, "--formula", "K a . p"]) == 3
        out, err = capsys.readouterr()
        assert err == "error: formula is nested too deeply for the evaluation phase\n"
        assert "holds" not in out

    def test_long_initial_state_name_summarised(self, loop_file, tmp_path, capsys):
        # the name "(1,{1})" doubles with each K: 6 * 2**n - 5 characters
        from epmu import check, parse_formula

        def reported(n):
            report = tmp_path / f"r{n}.json"
            formula = "K a . " * n + "p"
            assert main(["check", "--system", loop_file, "--formula", formula,
                         "--report", str(report)]) == 0
            assert len(report.read_bytes()) < 4096
            return json.loads(report.read_text())["statistics"]["initial_state"]

        m = parse_system(Path(loop_file).read_text())
        assert reported(7) == check(m, parse_formula("K a . " * 7 + "p")).initial_state
        assert reported(8).startswith("<1531 characters, sha256 tree digest ")
        start = time.perf_counter()
        name = reported(60)  # a name that could not be built
        assert time.perf_counter() - start < 5
        assert name.startswith(f"<{6 * 2 ** 60 - 5} characters, sha256 tree digest ")

    def test_only_a_long_name_is_hashed(self, loop_file, monkeypatch):
        from epmu import check, parse_formula

        m = parse_system(Path(loop_file).read_text())
        checks = [check(m, parse_formula("K a . " * n + "p")) for n in range(9)]

        def no_digest(text):
            raise AssertionError("a name of at most 1 024 characters was hashed")

        with monkeypatch.context() as patch:
            patch.setattr(importlib.import_module("epmu.distinction"), "_digest", no_digest)
            for v in checks[:8]:
                assert v.initial_state == v.final.state_name(v.final.q0)
        # past 1 024 characters the name is summarised by its length and tree digest
        assert checks[8].initial_state == (
            "<1531 characters, sha256 tree digest "
            "a03f98ad98b70c2f981b4891656eba198443e382b771f70279eeaeafab21410e>"
        )

    def test_name_size_matches_the_name(self, loop_file, sys2):
        from epmu import check, parse_formula
        from epmu.distinction import _name_size
        from epmu.gen import random_system

        systems = [parse_system(Path(loop_file).read_text()), sys2]
        rng = random.Random(8)
        systems += [random_system(rng, max_states=4) for _ in range(10)]
        digests = {}
        shared = 0  # states whose belief set has two or more members
        for m in systems:
            for n in range(13):
                agents = [rng.choice(m.agents) for _ in range(n)]
                text = "".join(f"K {a} . EX " for a in agents) + "p"
                v = check(m, parse_formula(text))
                sizes = {q: _name_size(v.final, q) for q in v.final.states}
                if sum([length for length, _ in sizes.values()]) > 10**6:
                    break
                for q, (length, digest) in sizes.items():
                    shared += n > 0 and len(v.final.pair_of[q][1]) > 1
                    name = v.final.state_name(q)
                    assert length == len(name), (text, m, q)
                    assert digests.setdefault(name, digest) == digest
        assert len(set(digests.values())) == len(digests) > 100 and shared > 20

    def test_negative_cap_exit_three(self, loop_file, capsys):
        # a one-state refinement never reaches the cap check, so it must be
        # the argument itself that is refused
        code = main([
            "check", "--cap", "-1", "--system", loop_file, "--formula", "K a . p",
        ])
        assert code == 3
        assert "holds" not in capsys.readouterr().out

    def test_negative_env_cap_exit_three(self, loop_file, monkeypatch, capsys):
        monkeypatch.setenv("EPMU_CAP", "-1")
        assert main(["check", "--system", loop_file, "--formula", "K a . p"]) == 3
        assert "holds" not in capsys.readouterr().out

    def test_env_cap_not_a_count_exit_three(self, loop_file, monkeypatch, capsys):
        monkeypatch.setenv("EPMU_CAP", "abc")
        assert main(["check", "--system", loop_file, "--formula", "K a . p"]) == 3
        assert capsys.readouterr() == ("", "error: EPMU_CAP: invalid int value: 'abc'\n")

    def test_env_cap(self, sys2_file, monkeypatch):
        monkeypatch.setenv("EPMU_CAP", "3")
        assert main(["check", "--system", sys2_file, "--formula", "EX K a . p"]) == 3
        monkeypatch.setenv("EPMU_CAP", "1000")
        assert main(["check", "--system", sys2_file, "--formula", "EX K a . p"]) == 0

    def test_report_reproducible_modulo_walltime(self, sys2_file, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            main([
                "check", "--system", sys2_file,
                "--formula", "mu Z . (K a . p) | EX Z", "--report", str(out),
            ])
        d1 = json.loads(out1.read_text())
        d2 = json.loads(out2.read_text())
        d1["statistics"].pop("wall_time")
        d2["statistics"].pop("wall_time")
        assert json.dumps(d1, sort_keys=False) == json.dumps(d2, sort_keys=False)
        assert d1["verdict"] is True
        assert d1["statistics"]["refinement_sizes"][0] == 5
        assert d1["inputs"]["system"]["sha256"]

    # string state ids, a construction that grows, and agents a and c that
    # see the same atoms, so one of their constructions is a copy
    STRING_IDS = {
        "states": [
            {"id": "s", "atoms": []}, {"id": "u", "atoms": ["p"]}, {"id": "v", "atoms": []},
            {"id": "w", "atoms": ["q"]}, {"id": "x", "atoms": ["p", "q"]},
        ],
        "initial": "s",
        "transitions": [
            ["s", "u"], ["s", "v"], ["u", "w"], ["v", "w"], ["v", "x"], ["w", "w"], ["x", "s"],
        ],
        "atoms": ["p", "q"],
        "agents": {"a": {"obs": []}, "b": {"obs": ["p"]}, "c": {"obs": []}},
    }

    def test_reports_do_not_depend_on_the_hash_seed(self, tmp_path):
        """`check --report` and `distinguish --json` print the same bytes,
        but for the wall time, under two string hash seeds."""
        (tmp_path / "s.mas").write_text(json.dumps(self.STRING_IDS))
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
            report = tmp_path / f"r{seed}.json"
            runs = [
                subprocess.run(
                    [sys.executable, "-m", "epmu.cli", *argv], cwd=tmp_path, env=env,
                    capture_output=True, text=True, timeout=60,
                )
                for argv in (
                    ["check", "--system", "s.mas", "--report", str(report.name),
                     "--formula", "K b . EX (mu Z . K a . p | EX (K c . Z))"],
                    ["distinguish", "--system", "s.mas", "--agent", "a", "--json"],
                )
            ]
            assert [r.returncode for r in runs] == [1, 0], [r.stderr for r in runs]
            text, timed = re.subn(r'"wall_time": [0-9.e+-]+', '"wall_time": -', report.read_text())
            assert timed == 1
            outputs.append((text, *[r.stdout for r in runs]))
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][2])["state_count"] == 10

    def test_bad_label_named_whatever_the_hash_seed(self, tmp_path):
        """A game whose state 2 has labels to the undeclared states 7, 8 and
        9 names the first of them, (2,7), under every string hash seed."""
        acts = {"e": "x", "o": "u"}
        (tmp_path / "bad.pg").write_text(json.dumps({
            "states": [{"id": q, "atoms": [], "priority": q} for q in (1, 2)],
            "initial": 1, "atoms": [], "agents": {"e": {"obs": []}, "o": {"obs": []}},
            "actions": {
                "alphabets": {"e": ["x"], "o": ["u"]},
                "labels": [[1, acts, 2], [2, acts, 7], [2, acts, 8], [2, acts, 9], [2, acts, 1]],
            },
            "players": ["e", "o"],
        }))
        src = str(Path(__file__).resolve().parents[1] / "src")
        for seed in "0123":
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
            run = subprocess.run(
                [sys.executable, "-m", "epmu.cli", "translate", "parity", "--game", "bad.pg", "--out", "x"],
                cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
            )
            assert (run.returncode, run.stderr) == (3, "error: transition (2,7) uses unknown state\n"), seed
            assert not (tmp_path / "x").exists()

    def test_digest_changes_with_input(self, sys2_file, tmp_path):
        r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["check", "--system", sys2_file, "--formula", "p", "--report", str(r1)])
        main(["check", "--system", sys2_file, "--formula", "~p | p", "--report", str(r2)])
        d1, d2 = json.loads(r1.read_text()), json.loads(r2.read_text())
        assert d1["inputs"]["formula"]["sha256"] != d2["inputs"]["formula"]["sha256"]
        assert d1["inputs"]["system"]["sha256"] == d2["inputs"]["system"]["sha256"]

    def test_trace_output(self, sys2_file, capsys):
        main(["check", "--system", sys2_file, "--formula", "EX K a . p", "--trace"])
        out = capsys.readouterr().out
        assert "refinement sizes" in out

    def test_no_color_plain_output(self, sys2_file, capsys, monkeypatch):
        monkeypatch.setenv("NO_COLOR", "1")
        main(["check", "--system", sys2_file, "--formula", "EX K a . p"])
        assert "\x1b[" not in capsys.readouterr().out

    def test_deadlock_rejected_and_allowed(self, tmp_path, capsys):
        from epmu.system import MultiAgentSystem

        m = MultiAgentSystem([1, 2], 1, [(1, 2)], ["p"], {2: {"p"}}, {"a": set()})
        p = tmp_path / "dead.mas"
        p.write_text(system_to_json(m))
        assert main(["check", "--system", str(p), "--formula", "EX p"]) == 3
        err = capsys.readouterr().err
        assert err == "error: deadlocked states [2]; use --allow-deadlock to accept them\n"
        report = tmp_path / "r.json"
        assert main([
            "check", "--system", str(p), "--formula", "EX p", "--allow-deadlock",
            "--report", str(report),
        ]) == 0
        assert json.loads(report.read_text())["warnings"] == ["deadlocked states accepted: [2]"]

    def test_formula_file(self, sys2_file, tmp_path):
        f = tmp_path / "f.mu"
        f.write_text("EX K a . p\n")
        assert main(["check", "--system", sys2_file, "--formula-file", str(f)]) == 0


class TestAnalyze:
    def test_accept(self, sys2_file, capsys):
        assert main(["analyze", "--system", sys2_file, "--formula", "mu Z . p | EX Z"]) == 0
        assert "accepted" in capsys.readouterr().out

    def test_accept_action_modality(self, sys2_file, capsys):
        # the gate accepts what check and oracle refuse to evaluate
        assert main(["analyze", "--system", sys2_file, "--formula", "<a=x> p"]) == 0
        assert capsys.readouterr().out == "accepted: non-mixing\n"

    @pytest.mark.parametrize("formula", ["Z", "K a . Z"])
    def test_free_variable_exits_as_check_does(self, sys2_file, capsys, formula):
        outcomes = []
        for command in ("check", "analyze"):
            code = main([command, "--system", sys2_file, "--formula", formula])
            outcomes.append((code, capsys.readouterr().err))
        assert outcomes == [(3, "error: free fixpoint variables: Z\n")] * 2

    def test_reject_names_agents(self, mixed_file, capsys):
        code = main([
            "analyze", "--system", mixed_file,
            "--formula", "C{a,b} p",
        ])
        assert code == 2
        out = capsys.readouterr().out
        assert "a" in out and "b" in out

    def test_knowledge_over_closed_temporal_accepts(self, mixed_file):
        # knowledge of closed branching-time subformulas never mixes
        code = main([
            "analyze", "--system", mixed_file,
            "--formula", "K a . (mu Z . p | EX Z) & K b . AX q",
        ])
        assert code == 0


class TestDistinguish:
    def test_json_listing(self, sys2_file, capsys):
        assert main(["distinguish", "--system", sys2_file, "--agent", "a", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["state_count"] == 6
        assert len(data["states"]) == 6

    def test_dot_export(self, sys2_file, tmp_path, capsys):
        dot = tmp_path / "d.dot"
        main([
            "distinguish", "--system", sys2_file, "--agent", "a",
            "--emit-dot", str(dot),
        ])
        assert dot.read_text().startswith("digraph")

    def test_dot_labels_escape_quotes_and_backslashes(self, tmp_path, capsys):
        src = tmp_path / "named.mas"
        src.write_text(json.dumps({
            "states": [
                {"id": 1, "atoms": [], "name": 'say "hi"'},
                {"id": 2, "atoms": ["p"], "name": "back\\slash"},
            ],
            "initial": 1, "transitions": [[1, 2], [2, 2]], "atoms": ["p"],
            "agents": {"a": {"obs": []}},
        }))
        dot = tmp_path / "d.dot"
        assert main(["distinguish", "--system", str(src), "--agent", "a", "--emit-dot", str(dot)]) == 0
        labels = [
            re.fullmatch(r'  n\d+ \[label="((?:[^"\\]|\\.)*)"(?: shape="doublecircle")?\];', line)
            for line in dot.read_text().splitlines()
            if "label=" in line
        ]
        assert None not in labels
        assert [re.sub(r"\\(.)", r"\1", m[1]) for m in labels] == [
            '(say "hi",{say "hi"}) | {}',
            "(back\\slash,{back\\slash}) | {p}",
        ]

    def test_unknown_agent(self, sys2_file):
        assert main(["distinguish", "--system", sys2_file, "--agent", "zz"]) == 3

    def test_state_name_not_a_string_exit_three(self, tmp_path, capsys):
        p = tmp_path / "named.mas"
        p.write_text(json.dumps(NAMED_BY_AN_INT))
        dot = tmp_path / "d.dot"
        assert main(["distinguish", "--system", str(p), "--agent", "a", "--emit-dot", str(dot)]) == 3
        assert capsys.readouterr() == ("", "error: state 1: 'name' is not a string: 5\n")
        assert not dot.exists()


class TestOracle:
    def test_false_verdict(self, sys2_file, capsys):
        code = main([
            "oracle", "--system", sys2_file, "--formula", "AX K a . p",
            "--depth", "4",
        ])
        assert code == 1
        assert capsys.readouterr().out.strip() == "false"

    def test_true_verdict_json(self, sys2_file, capsys):
        code = main([
            "oracle", "--system", sys2_file, "--formula", "EX K a . p",
            "--depth", "4", "--json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["root_holds"] is True

    @pytest.mark.parametrize("text, depth", [
        (" & ".join(["p"] * 340), 2),
        ("EX " * 400 + "p", 400),
    ], ids=["340-way-and", "400-deep-EX"])
    def test_deep_formula_gets_the_answer_check_gives(self, loop_file, capsys, text, depth):
        assert main(["check", "--system", loop_file, "--formula", text]) == 0
        capsys.readouterr()
        assert main(["oracle", "--system", loop_file, "--formula", text, "--depth", str(depth)]) == 0
        assert capsys.readouterr() == ("true\n", "")

    def test_negative_depth_exit_three(self, sys2_file, capsys):
        code = main([
            "oracle", "--system", sys2_file, "--formula", "p", "--depth", "-3",
        ])
        assert code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --depth: must not be negative: -3" in err


class TestTranslate:
    def test_atl_until_files(self, tmp_path, capsys):
        g = LabeledSystem(
            [1, 2], 1,
            [(1, {"a0": "x", "b": "u"}, 2), (2, {"a0": "x", "b": "u"}, 1)],
            ["p1", "p2"], {1: {"p1", "p2"}, 2: {"p1"}},
            {"a0": set(), "b": set()}, {"a0": ["x"], "b": ["u"]},
        )
        src = tmp_path / "g.mas"
        src.write_text(json.dumps(labeled_system_to_dict(g)))
        out = tmp_path / "inst"
        code = main([
            "translate", "atl-until", "--system", str(src), "--agent", "a0",
            "--p1", "p1", "--p2", "p2", "--out", str(out),
        ])
        assert code == 0
        for name in ("system.mas", "compiled.mas", "formula.mu", "formula_modal.mu"):
            assert (out / name).exists()
        # the emitted plain instance is checkable end to end
        assert main([
            "check", "--system", str(out / "compiled.mas"),
            "--formula-file", str(out / "formula.mu"),
        ]) in (0, 1)

    def test_parity_files_pass_analyze(self, tmp_path, capsys):
        g = ParityGame(
            [1], 1, [(1, {"e": "x", "o": "u"}, 1)],
            ["s1"], {1: {"s1"}}, {"e": {"s1"}, "o": {"s1"}},
            {"e": ["x"], "o": ["u"]},
            priority={1: 2}, players=("e", "o"),
        )
        d = labeled_system_to_dict(g)
        for entry in d["states"]:
            entry["priority"] = g.priority[entry["id"]]
        d["players"] = list(g.players)
        src = tmp_path / "even.pg"
        src.write_text(json.dumps(d))
        out = tmp_path / "inst"
        code = main([
            "translate", "parity", "--game", str(src), "--player", "0",
            "--out", str(out),
        ])
        assert code == 0
        assert main([
            "analyze", "--system", str(out / "compiled.mas"),
            "--formula-file", str(out / "formula.mu"),
        ]) == 0
        assert main([
            "check", "--system", str(out / "compiled.mas"),
            "--formula-file", str(out / "formula.mu"),
        ]) == 0

    @pytest.mark.parametrize(
        "mode,edit,named",
        [
            ("parity", lambda d: d["actions"]["labels"][0].__setitem__(1, "xu"), "label [1, 'xu', 1]"),
            ("parity", lambda d: d["agents"].__setitem__("e", ["s1"]), "agent 'e'"),
            ("atl-until", lambda d: d["actions"]["labels"][0].__setitem__(1, "xu"), "label [1, 'xu', 1]"),
            ("atl-until", lambda d: d["agents"].__setitem__("e", ["s1"]), "agent 'e'"),
            ("parity", lambda d: d.__setitem__("atoms", "s1"), "'atoms' is not a list of strings"),
            ("parity", lambda d: d["actions"].__setitem__("labels", 5), "'actions.labels' is not a list"),
            ("parity", lambda d: d["states"][0].__setitem__("atoms", 5), "state 1: 'atoms' is not a list"),
            ("atl-until", lambda d: d["agents"]["e"].__setitem__("obs", "s1"), "agent 'e': 'obs' is not a list"),
            ("atl-until", lambda d: d["actions"].__setitem__("labels", 5), "'actions.labels' is not a list"),
            (
                "parity",
                lambda d: d["actions"]["alphabets"].__setitem__("e", "xy"),
                "agent 'e': 'actions.alphabets' is not a list of strings: 'xy'",
            ),
            (
                "parity",
                lambda d: d["actions"].__setitem__("alphabets", ["x"]),
                "'actions.alphabets' is not an object: ['x']",
            ),
            (
                "atl-until",
                lambda d: d["actions"]["alphabets"].__setitem__("o", [1]),
                "agent 'o': 'actions.alphabets' is not a list of strings: [1]",
            ),
            ("parity", lambda d: d["states"][0].__setitem__("priority", True), "bad priority True at state 1"),
            ("parity", lambda d: d["actions"]["labels"][0].__setitem__(2, True), "uses a boolean as a state"),
            (
                "parity",
                lambda d: d["states"].append({"id": 1, "atoms": [], "priority": 1}),
                "an earlier state has its id",
            ),
            ("atl-until", lambda d: d["states"].append({"id": 1, "atoms": []}), "an earlier state has its id"),
            ("atl-until", lambda d: d.__setitem__("initial", True), "initial state True is not a state"),
            ("parity", lambda d: d["actions"]["labels"][0].__setitem__(2, 1.0), "label [1, {'e': 'x', 'o': 'u'}, 1.0] uses a float as a state"),
            ("parity", _null_ids, "state {'id': None, 'atoms': ['s1'], 'priority': 2}: its id is null"),
            ("atl-until", lambda d: d.__setitem__("initial", 1.0), "initial state 1.0 is not a state"),
            ("atl-until", _null_ids, "state {'id': None, 'atoms': ['s1'], 'priority': 2}: its id is null"),
            ("parity", lambda d: d.__setitem__("players", 5), "'players' is not a list of strings: 5"),
        ],
        ids=[
            "game-actions-string", "game-agent-list", "labeled-actions-string", "labeled-agent-list",
            "game-atoms-string", "game-labels-int", "game-state-atoms-int", "labeled-obs-string",
            "labeled-labels-int", "game-alphabet-string", "game-alphabets-list",
            "labeled-alphabet-ints", "game-boolean-priority", "game-boolean-label-end",
            "game-repeated-id", "labeled-repeated-id", "labeled-boolean-initial",
            "game-float-label-end", "game-null-ids", "labeled-float-initial", "labeled-null-ids",
            "game-players-int",
        ],
    )
    def test_bad_actions_or_agent_exit_three(self, tmp_path, capsys, mode, edit, named):
        g = ParityGame(
            [1], 1, [(1, {"e": "x", "o": "u"}, 1)],
            ["s1"], {1: {"s1"}}, {"e": {"s1"}, "o": {"s1"}},
            {"e": ["x"], "o": ["u"]},
            priority={1: 2}, players=("e", "o"),
        )
        d = labeled_system_to_dict(g)
        d["states"][0]["priority"] = 2
        edit(d)
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(d))
        args = ["--game", str(src)] if mode == "parity" else [
            "--system", str(src), "--agent", "e", "--p1", "s1", "--p2", "s1",
        ]
        code = main(["translate", mode, *args, "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert "ValueError" not in err and "AttributeError" not in err and "TypeError" not in err

    @pytest.mark.parametrize(
        "players,alphabet,named",
        [(("e", "o"), ["go-left", "x y"], "action 'go-left'"), (("E", "o"), ["x"], "agent 'E'")],
        ids=["action", "agent"],
    )
    def test_name_the_formula_syntax_cannot_spell_exits_three_and_writes_nothing(
        self, tmp_path, capsys, players, alphabet, named
    ):
        me, other = players
        g = ParityGame(
            [1], 1, [(1, {me: act, other: "u"}, 1) for act in alphabet],
            [], {}, {me: set(), other: set()}, {me: alphabet, other: ["u"]},
            priority={1: 2}, players=players,
        )
        d = labeled_system_to_dict(g) | {"players": list(players)}
        d["states"][0]["priority"] = 2
        src = tmp_path / "g.pg"
        src.write_text(json.dumps(d))
        out = tmp_path / "inst"
        code = main(["translate", "parity", "--game", str(src), "--player", "0", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"error: {named} is not a name the formula syntax can spell\n"
        assert not out.exists()

    def test_atom_the_formula_syntax_cannot_spell_exits_three_and_writes_nothing(self, tmp_path, capsys):
        g = LabeledSystem([1], 1, [(1, {"e": "x"}, 1)], ["Q"], {}, {"e": set()}, {"e": ["x"]})
        src = tmp_path / "g.mas"
        src.write_text(json.dumps(labeled_system_to_dict(g)))
        out = tmp_path / "inst"
        code = main([
            "translate", "atl-until", "--system", str(src), "--agent", "e",
            "--p1", "Q", "--p2", "Q", "--out", str(out),
        ])
        assert code == 3
        assert capsys.readouterr().err == "error: atom 'Q' is not a name the formula syntax can spell\n"
        assert not out.exists()

    def test_unplayable_action_exits_three_and_writes_nothing(self, tmp_path, capsys):
        # e cannot play y at state 1, so [e=y] Z would hold vacuously there
        g = ParityGame(
            [1, 2], 1,
            [(1, {"e": "x", "o": "u"}, 2), (2, {"e": "x", "o": "u"}, 2),
             (2, {"e": "y", "o": "u"}, 2)],
            [], {}, {"e": set(), "o": set()}, {"e": ["x", "y"], "o": ["u"]},
            priority={1: 2, 2: 1}, players=("e", "o"),
        )
        d = labeled_system_to_dict(g)
        for entry in d["states"]:
            entry["priority"] = g.priority[entry["id"]]
        src = tmp_path / "partial.pg"
        src.write_text(json.dumps(d))
        out = tmp_path / "inst"
        code = main(["translate", "parity", "--game", str(src), "--player", "0", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err == "error: state 1: no transition lets agent 'e' play 'y'\n"
        assert not out.exists()

    def test_unrenderable_formula_exits_three_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # all four texts are rendered before --out is made, so a formula too
        # deep to print leaves no half instance behind
        def deep(f):
            raise RecursionError

        monkeypatch.setattr(importlib.import_module("epmu.formula"), "pretty", deep)
        src = _two_state_game_file(tmp_path, 2)
        out = tmp_path / "inst"
        code = main(["translate", "parity", "--game", src, "--player", "0", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err == "error: formula is nested too deeply for the translation phase\n"
        assert not out.exists()

    def test_top_priority_past_the_cap_exits_three_at_once(self, tmp_path, capsys):
        # one binder and one atom per level: 10**30 levels would never finish
        src = _two_state_game_file(tmp_path, 10**30)
        out = tmp_path / "inst"
        start = time.perf_counter()
        code = main(["translate", "parity", "--game", src, "--player", "0", "--out", str(out)])
        assert time.perf_counter() - start < 1
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"error: state/node count {10**30} exceeds cap 1000000 during parity encoding\n"
        assert not out.exists()

    def test_cap_bounds_the_padded_level_count(self, tmp_path, capsys):
        def translate(top):
            out = tmp_path / f"inst{top}"
            game = _two_state_game_file(tmp_path, top)
            code = main(["translate", "parity", "--game", game, "--out", str(out), "--cap", "4"])
            return code, out

        code, out = translate(4)
        assert code == 0 and (out / "formula.mu").exists()
        capsys.readouterr()
        code, out = translate(5)  # padded to 6 levels
        assert code == 3 and not out.exists()
        assert capsys.readouterr().err == "error: state/node count 6 exceeds cap 4 during parity encoding\n"

    def test_capacity_error_exits_three_and_writes_nothing(self, tmp_path, capsys):
        g = ParityGame(
            [1, 2], 1,
            [(1, {"e": "x", "o": "u"}, 2), (2, {"e": "x", "o": "u"}, 1)],
            [], {}, {"e": set(), "o": set()}, {"e": ["x"], "o": ["u"]},
            priority={1: 2, 2: 1}, players=("e", "o"),
        )
        d = labeled_system_to_dict(g)
        for entry in d["states"]:
            entry["priority"] = g.priority[entry["id"]]
        src = tmp_path / "g.pg"
        src.write_text(json.dumps(d))
        out = tmp_path / "inst"
        args = ["translate", "parity", "--game", str(src), "--player", "0", "--out", str(out)]
        assert main([*args, "--cap", "2"]) == 3
        err = capsys.readouterr().err
        assert err == "error: state/node count 3 exceeds cap 2 during modal compilation\n"
        assert not out.exists()
        # the root and one state per game state: a cap of 3 holds them
        assert main([*args, "--cap", "3"]) == 0
        assert len(json.loads((out / "compiled.mas").read_text())["states"]) == 3

    def test_empty_alphabet_exits_three_and_writes_nothing(self, tmp_path, capsys):
        src = tmp_path / "g.mas"
        src.write_text(json.dumps({
            "states": [{"id": 1, "atoms": []}], "initial": 1, "atoms": ["p1", "p2"],
            "agents": {"a0": {"obs": []}, "opp": {"obs": []}},
            "actions": {"alphabets": {"a0": [], "opp": ["u"]}, "labels": []},
        }))
        out = tmp_path / "inst"
        code = main([
            "translate", "atl-until", "--system", str(src), "--agent", "a0",
            "--p1", "p1", "--p2", "p2", "--out", str(out),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "agent 'a0'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "mode,edit,named",
        [
            ("parity", lambda d: d["states"][0].__setitem__("id", [1]), "state {'id': [1]"),
            ("parity", lambda d: d["actions"]["labels"][0].__setitem__(2, {"q": 1}), "label [1, "),
            ("atl-until", lambda d: d["states"][0].__setitem__("id", [1]), "state {'id': [1]"),
            ("atl-until", lambda d: d["actions"]["labels"][0].__setitem__(0, [1]), "label [[1], "),
        ],
        ids=["game-state-id", "game-label-end", "labeled-state-id", "labeled-label-end"],
    )
    def test_unhashable_game_ids_exit_three(self, tmp_path, capsys, mode, edit, named):
        g = ParityGame(
            [1], 1, [(1, {"e": "x", "o": "u"}, 1)],
            ["s1"], {1: {"s1"}}, {"e": {"s1"}, "o": {"s1"}},
            {"e": ["x"], "o": ["u"]},
            priority={1: 2}, players=("e", "o"),
        )
        d = labeled_system_to_dict(g)
        d["states"][0]["priority"] = 2
        edit(d)
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(d))
        args = ["--game", str(src)] if mode == "parity" else [
            "--system", str(src), "--agent", "e", "--p1", "s1", "--p2", "s1",
        ]
        code = main(["translate", mode, *args, "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}") and "list or an object" in err
        assert "TypeError" not in err

    def test_game_state_name_not_a_string_exit_three(self, tmp_path, capsys):
        g = ParityGame(
            [1], 1, [(1, {"e": "x", "o": "u"}, 1)],
            ["s1"], {1: {"s1"}}, {"e": {"s1"}, "o": {"s1"}},
            {"e": ["x"], "o": ["u"]},
            priority={1: 2}, players=("e", "o"),
        )
        d = labeled_system_to_dict(g)
        d["states"][0] |= {"priority": 2, "name": ["s"]}
        src = tmp_path / "named.pg"
        src.write_text(json.dumps(d))
        out = tmp_path / "o"
        assert main(["translate", "parity", "--game", str(src), "--out", str(out)]) == 3
        assert capsys.readouterr() == ("", "error: state 1: 'name' is not a string: ['s']\n")
        assert not out.exists()

    def test_game_state_without_priority_exit_three(self, tmp_path, capsys):
        g = ParityGame(
            [1], 1, [(1, {"e": "x", "o": "u"}, 1)],
            ["s1"], {1: {"s1"}}, {"e": {"s1"}, "o": {"s1"}},
            {"e": ["x"], "o": ["u"]},
            priority={1: 2}, players=("e", "o"),
        )
        src = tmp_path / "nopriority.pg"
        src.write_text(json.dumps(labeled_system_to_dict(g)))
        code = main([
            "translate", "parity", "--game", str(src), "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: state ") and "has no 'priority'" in err
        assert "KeyError" not in err


# A valid system for the loader fuzz: three states, both agents, a formula
# that reads the atoms through knowledge.
FUZZ_SYSTEM = {
    "states": [{"id": 1, "atoms": ["p"]}, {"id": 2, "atoms": []}, {"id": 3, "atoms": ["p", "q"]}],
    "initial": 1,
    "transitions": [[1, 2], [1, 3], [2, 2], [3, 1]],
    "atoms": ["p", "q"],
    "agents": {"a": {"obs": ["p"]}, "b": {"obs": ["p", "q"]}},
}
FUZZ_FORMULA = "K a . EX p | K b . q"
ODD_IDS = [True, "1", 1.5, [1], 4, None]


def _edge_place(d):
    """Where the edges are: a system's transitions, a game's action labels."""
    return (d, "transitions") if "transitions" in d else (d["actions"], "labels")


# the places that hold a list, as (object, key)
LIST_PLACES = [
    lambda d: (d, "states"), _edge_place, lambda d: (d, "atoms"),
    lambda d: (d["states"][0], "atoms"), lambda d: (next(iter(d["agents"].values())), "obs"),
]
# odd action objects of a game label, and odd priorities
ODD_ACTS = ["xu", ["x", "u"], {"e": "x"}, {"e": "z", "o": "u"}, {"e": 1, "o": "u"}, {}]
ODD_PRIORITIES = [True, -1, 1.5, "2", None, [1], 0]


def _mutate(d, kind, i, value):
    """One edit of a copy of FUZZ_SYSTEM or FUZZ_GAME: i picks the place,
    value the odd id, the wrong-typed value or the key."""
    states = d["states"]
    obj, key = _edge_place(d)
    edges = obj[key]
    if kind == "duplicate":
        entry = states[i % len(states)]
        states.append({**entry, "atoms": sorted({"p", "q"} - set(entry["atoms"]))})
    elif kind == "swap-id":
        states[i % len(states)]["id"] = ODD_IDS[value % len(ODD_IDS)]
    elif kind == "swap-end":
        end = [0, -1][value // len(ODD_IDS) % 2]
        edges[i % len(edges)][end] = ODD_IDS[value % len(ODD_IDS)]
    elif kind == "initial":
        d["initial"] = ODD_IDS[value % len(ODD_IDS)]
    elif kind == "not-a-list":
        obj, key = LIST_PLACES[i % len(LIST_PLACES)](d)
        obj[key] = ["p", 1][value % 2]
    elif kind == "list-entry":
        (states if value % 2 else edges)[i % 3] = ["p", 1][value // 2 % 2]
    elif kind == "drop":
        obj = [d, states[i % len(states)]][value % 2]
        del obj[sorted(obj)[i % len(obj)]]
    elif kind == "acts":
        edges[i % len(edges)][1] = ODD_ACTS[value % len(ODD_ACTS)]
    elif kind == "priority":
        states[i % len(states)]["priority"] = ODD_PRIORITIES[value % len(ODD_PRIORITIES)]
    return d


KINDS = ["duplicate", "swap-id", "swap-end", "initial", "not-a-list", "list-entry", "drop"]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(KINDS), st.integers(0, 5), st.integers(0, 11))
def test_loader_fuzz_exits_cleanly(tmp_path_factory, kind, i, value):
    """Every mutation of a valid file ends in exit 0-3; an error is one line
    that names no Python exception; a verdict comes only from a load that
    kept every state entry's atoms."""
    d = _mutate(copy.deepcopy(FUZZ_SYSTEM), kind, i, value)
    text = json.dumps(d)
    path = tmp_path_factory.getbasetemp() / "fuzz.mas"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["check", "--system", str(path), "--formula", FUZZ_FORMULA])
    assert code in (0, 1, 2, 3)
    if code == 3:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        for name in ("TypeError", "KeyError", "AttributeError", "ValueError"):
            assert name not in lines[0]
    if code in (0, 1):
        m = parse_system(text)
        for entry in d["states"]:
            if entry["id"] in m.labels:
                assert m.labels[entry["id"]] == frozenset(entry.get("atoms", [])), entry


def _exits_cleanly(argv, codes):
    """Run the CLI; its exit code must be one of codes, and stderr empty or
    one error line that names no Python exception.  Returns the code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in codes, (code, err.getvalue())
    lines = err.getvalue().splitlines()
    assert len(lines) == (1 if code == 3 else 0), lines
    for line in lines:
        assert line.startswith("error: "), line
        for name in ("Traceback", "TypeError", "KeyError", "AttributeError", "ValueError", "IndexError"):
            assert name not in line, line
    return code


# Formulas over FUZZ_SYSTEM, the words their mutations insert (every token
# kind of the concrete syntax, and names the system does not declare), and
# the prefixes that nest them.
FUZZ_FORMULAS = [
    FUZZ_FORMULA, "mu Z . p | EX Z", "nu Z . q & K a . Z & K b . Z",
    "C{a,b} (p -> AX q)", "E{a,b} ~p & P b . true",
]
FORMULA_WORDS = [
    "p", "q", "typo", "Z", "Y", "true", "false", "~", "&", "|", "->", "(", ")", "EX", "AX",
    "K a .", "P b .", "K c .", "mu Z .", "nu Y .", "C{a,b}", "E{a,c}", "<a=x>", "[b=u]", ".", "$",
]
NESTINGS = ["EX ", "~", "(", "K a . ", "P b . ", "mu Z . EX "]


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(FUZZ_FORMULAS),
    st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete", "replace"]),
            st.integers(0, 20),
            st.sampled_from(FORMULA_WORDS),
        ),
        max_size=3,
    ),
    st.sampled_from(NESTINGS),
    st.sampled_from([0, 1, 3, 1000]),
)
def test_formula_fuzz_agrees_with_check(tmp_path_factory, text, edits, nesting, depth):
    """Every mutation of a formula ends in exit 0-3 with at most one error
    line, and a verdict is the one `check` gives on the same input."""
    from epmu import check, parse_formula

    words = text.split()
    for edit, i, word in edits:
        i %= len(words) + 1
        if edit == "insert":
            words.insert(i, word)
        elif words and edit == "delete":
            del words[i % len(words)]
        elif words:
            words[i % len(words)] = word
    text = nesting * depth + " ".join(words)
    path = tmp_path_factory.getbasetemp() / "formula-fuzz.mas"
    path.write_text(json.dumps(FUZZ_SYSTEM))
    code = _exits_cleanly(["check", "--system", str(path), "--formula", text], (0, 1, 2, 3))
    if code in (0, 1):
        m = parse_system(json.dumps(FUZZ_SYSTEM))
        assert check(m, parse_formula(text, agents=m.agents, atoms=m.atoms)).holds == (code == 0)


# A valid game for the translate fuzz: three states, two players, priorities.
FUZZ_GAME = {
    "states": [
        {"id": 1, "atoms": ["s1"], "priority": 1},
        {"id": 2, "atoms": [], "priority": 2},
        {"id": 3, "atoms": ["s1", "s2"], "priority": 3},
    ],
    "initial": 1,
    "atoms": ["s1", "s2"],
    "agents": {"e": {"obs": ["s1"]}, "o": {"obs": ["s1", "s2"]}},
    "actions": {
        "alphabets": {"e": ["x", "y"], "o": ["u"]},
        "labels": [
            [1, {"e": "x", "o": "u"}, 2], [1, {"e": "y", "o": "u"}, 3], [2, {"e": "x", "o": "u"}, 2],
            [2, {"e": "y", "o": "u"}, 1], [3, {"e": "x", "o": "u"}, 3], [3, {"e": "y", "o": "u"}, 3],
        ],
    },
    "players": ["e", "o"],
}


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(["parity", "atl-until"]),
    st.sampled_from(KINDS + ["acts", "priority"]),
    st.integers(0, 5),
    st.integers(0, 11),
)
def test_translate_fuzz_exits_cleanly(tmp_path_factory, mode, kind, i, value):
    """Every mutation of a valid game, read as a .pg or a labeled .mas file,
    ends in exit 0 or 3 with no traceback."""
    d = _mutate(copy.deepcopy(FUZZ_GAME), kind, i, value)
    base = tmp_path_factory.getbasetemp()
    path = base / "fuzz.pg"
    path.write_text(json.dumps(d))
    args = ["--game", str(path)] if mode == "parity" else [
        "--system", str(path), "--agent", "e", "--p1", "s1", "--p2", "s2",
    ]
    _exits_cleanly(["translate", mode, *args, "--out", str(base / "fuzz-out")], (0, 3))
