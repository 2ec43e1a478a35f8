import json

import pytest

from epmu.cli import main
from epmu.system import system_to_json
from epmu.translate import labeled_system_to_dict, LabeledSystem, ParityGame


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

    def test_bad_formula_exit_three(self, sys2_file):
        assert main(["check", "--system", sys2_file, "--formula", "mu Z ."]) == 3

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
        # agents given as a list, not an object: no EpmuError names it
        p = tmp_path / "odd.mas"
        p.write_text(json.dumps({
            "states": [{"id": 1}], "initial": 1, "transitions": [[1, 1]],
            "atoms": [], "agents": [],
        }))
        assert main(["check", "--system", str(p), "--formula", "true"]) == 3
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "formula,phase",
        [("EX " * 1000 + "p", "parse"), (" & ".join(["p"] * 500), "positive form")],
        ids=["deep-EX", "long-conjunction"],
    )
    def test_deep_formula_exit_three(self, loop_file, capsys, formula, phase):
        assert main(["check", "--system", loop_file, "--formula", formula]) == 3
        err = capsys.readouterr().err
        assert err == f"error: formula is nested too deeply for the {phase} phase\n"

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

    def test_digest_changes_with_input(self, sys2_file, tmp_path):
        r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["check", "--system", sys2_file, "--formula", "p", "--report", str(r1)])
        main(["check", "--system", sys2_file, "--formula", "q | p", "--report", str(r2)])
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

    def test_deadlock_rejected_and_allowed(self, tmp_path):
        from epmu.system import MultiAgentSystem

        m = MultiAgentSystem([1, 2], 1, [(1, 2)], ["p"], {2: {"p"}}, {"a": set()})
        p = tmp_path / "dead.mas"
        p.write_text(system_to_json(m))
        assert main(["check", "--system", str(p), "--formula", "EX p"]) == 3
        assert main([
            "check", "--system", str(p), "--formula", "EX p", "--allow-deadlock",
        ]) == 0

    def test_formula_file(self, sys2_file, tmp_path):
        f = tmp_path / "f.mu"
        f.write_text("EX K a . p\n")
        assert main(["check", "--system", sys2_file, "--formula-file", str(f)]) == 0


class TestAnalyze:
    def test_accept(self, sys2_file, capsys):
        assert main(["analyze", "--system", sys2_file, "--formula", "mu Z . p | EX Z"]) == 0
        assert "accepted" in capsys.readouterr().out

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

    def test_unknown_agent(self, sys2_file):
        assert main(["distinguish", "--system", sys2_file, "--agent", "zz"]) == 3


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
