"""Command-line interface: check / analyze / distinguish / oracle / translate.

Exit codes: 0 = holds (or success), 1 = does not hold, 2 = outside the
non-mixing fragment, 3 = input or capacity error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import formula as fm
from .checker import _closed_tree, check
from .distinction import distinction
from .errors import EpmuError, FragmentRejected, depth_guarded
from .syntree import check_non_mixing
from .system import DEFAULT_CAP, bounded_unfold, parse_system, system_to_dict, system_to_json, to_dot

EXIT_HOLDS = 0
EXIT_NOT_HOLDS = 1
EXIT_REJECTED = 2
EXIT_ERROR = 3


def _color(text, code):
    if os.environ.get("NO_COLOR") or not sys.stdout.isatty():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _green(text):
    return _color(text, "32")


def _red(text):
    return _color(text, "31")


def _digest(data):
    import hashlib  # only a report is hashed, so a check loads no OpenSSL

    return hashlib.sha256(data.encode()).hexdigest()


def _read_file(path):
    try:
        return Path(path).read_text()
    except OSError as e:
        raise EpmuError(f"cannot read {path}: {e}") from e


def _count_arg(text):
    """A --cap or EPMU_CAP (states) or --depth (steps) value: a count, so
    never negative; argparse, or `_cap`, names the option in the error."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {n}")
    return n


def _cap(args):
    if args.cap is not None:
        return args.cap
    env = os.environ.get("EPMU_CAP")
    if not env:
        return DEFAULT_CAP
    try:
        return _count_arg(env)
    except argparse.ArgumentTypeError as e:
        raise EpmuError(f"EPMU_CAP: {e}") from None


def _load(args):
    """The system, the formula over its agents and atoms, and the `inputs`
    block of a report: the path and sha256 of each, or None when no report
    is written (`oracle` writes none)."""
    sys_text = _read_file(args.system)
    m = parse_system(sys_text)
    if args.formula_file is None:
        text, key, path = args.formula, "formula", "<arg>"
    else:
        text, key, path = _read_file(args.formula_file), "formula-file", args.formula_file
    f = fm.parse_formula(text, agents=m.agents, atoms=m.atoms)
    inputs = None
    if getattr(args, "report", None):
        inputs = {
            "system": {"path": args.system, "sha256": _digest(sys_text)},
            key: {"path": path, "sha256": _digest(text)},
        }
    return m, f, inputs


def _fragment_dict(gate_witness):
    if gate_witness is None:
        return {"accepted": True}
    return {
        "accepted": False,
        "agents": [gate_witness.agent_a, gate_witness.agent_b],
        "node_path": list(gate_witness.node_path),
    }


def _write_report(args, report):
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_check(args):
    m, f, inputs = _load(args)
    # runs are infinite, so a deadlocked state has no semantics unless the
    # caller opts into vacuous AX there
    dead = list(m.deadlocks())
    if dead and not args.allow_deadlock:
        raise EpmuError(f"deadlocked states {dead}; use --allow-deadlock to accept them")
    warnings = [f"deadlocked states accepted: {dead}"] if dead else []

    report = {"command": "check", "inputs": inputs}
    try:
        verdict = check(m, f, cap=_cap(args))
    except FragmentRejected as e:
        report.update(fragment=_fragment_dict(e.witness), verdict=None, warnings=warnings)
        _write_report(args, report)
        print(f"rejected: {e}")
        return EXIT_REJECTED
    report["fragment"] = _fragment_dict(None)
    report["verdict"] = verdict.holds
    report["statistics"] = {
        "refinement_sizes": verdict.refinement_sizes,
        "iteration_counts": verdict.iteration_counts,
        "initial_state": verdict.initial_state,
        "wall_time": verdict.wall_time,
    }
    report["warnings"] = warnings
    _write_report(args, report)
    if args.trace:
        sizes = " -> ".join(str(n) for n in verdict.refinement_sizes)
        print(f"refinement sizes: {sizes}")
        print(f"fixpoint iterations: {verdict.iteration_counts}")
    print(_green("holds") if verdict.holds else _red("does not hold"))
    return EXIT_HOLDS if verdict.holds else EXIT_NOT_HOLDS


def cmd_analyze(args):
    m, f, inputs = _load(args)
    gate = check_non_mixing(_closed_tree(f), m.obs)
    report = {"command": "analyze", "inputs": inputs, "fragment": _fragment_dict(gate.witness)}
    _write_report(args, report)
    if not gate:
        print(f"rejected: {FragmentRejected(gate.witness)}")
        return EXIT_REJECTED
    print(_green("accepted: non-mixing"))
    return EXIT_HOLDS


def cmd_distinguish(args):
    m = parse_system(_read_file(args.system))
    d = distinction(m, args.agent, cap=_cap(args))
    if args.emit_dot:
        Path(args.emit_dot).write_text(to_dot(d))
    if args.json:
        out = {
            "command": "distinguish",
            "agent": args.agent,
            "state_count": len(d),
            "states": [
                {"id": i, "name": d.state_name(i), "maps_to": d.pair_of[i][0]}
                for i in d.states
            ],
            "system": system_to_dict(d),
        }
        print(json.dumps(out, indent=2))
    else:
        print(f"{len(d)} states")
        for i in d.states:
            print(f"  {i}: {d.state_name(i)} -> {d.pair_of[i][0]}")
    return EXIT_HOLDS


def cmd_oracle(args):
    from .oracle import eval_tree

    m, f, _ = _load(args)
    prefix = bounded_unfold(m, args.depth, cap=_cap(args))
    ns = eval_tree(prefix, fm.to_positive_form(f))
    if args.json:
        print(
            json.dumps(
                {
                    "command": "oracle",
                    "depth": args.depth,
                    "valid_depth": ns.valid_depth,
                    "root_holds": ns.root_holds,
                    "satisfying_nodes": sorted(
                        [list(run) for run in ns.nodes]
                    ),
                },
                indent=2,
            )
        )
    else:
        print("true" if ns.root_holds else "false")
    return EXIT_HOLDS if ns.root_holds else EXIT_NOT_HOLDS


def cmd_translate(args):
    from .translate import (
        atl_until_instance,
        compile_modal,
        labeled_system_to_dict,
        parity_encoding,
        parse_labeled_system,
        parse_parity_game,
    )

    cap = _cap(args)
    if args.mode == "atl-until":
        g = parse_labeled_system(_read_file(args.system))
        mprime, phi = atl_until_instance(g, args.agent, args.p1, args.p2, dual=args.dual)
        agent, names = args.agent, [("atom", args.p1), ("atom", args.p2)]
    else:
        game = parse_parity_game(_read_file(args.game))
        mprime, phi = parity_encoding(game, args.player, cap=cap)
        agent, names = game.player(args.player), []
    # everything that can fail runs before --out is created, all four texts
    # included, and so does the refusal of a name the formula files could
    # not spell (the translation builds its own names from these, and the
    # formula's one agent is the encoder's)
    names += [("agent", agent), *[("action", act) for act in mprime.alphabets[agent]]]
    for kind, name in names:
        if not fm.is_name(name):
            raise EpmuError(f"{kind} {name!r} is not a name the formula syntax can spell")
    compiled = compile_modal(mprime, cap=cap)

    def render():
        return {
            "system.mas": json.dumps(labeled_system_to_dict(mprime), indent=2),
            "compiled.mas": system_to_json(compiled.system),
            "formula.mu": fm.pretty(compiled.compile_formula(phi)),
            "formula_modal.mu": fm.pretty(phi),
        }

    texts = depth_guarded("translation", render)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out / name).write_text(text + "\n")
    print(f"instance written to {args.out}")
    return EXIT_HOLDS


# ---------------------------------------------------------------------------


def _option(*flags, **kwargs):
    """A parser holding one option, for the subcommands to share as a parent."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(*flags, **kwargs)
    return p


def build_parser():
    p = argparse.ArgumentParser(
        prog="epmu",
        description=(
            "Model checking for the epistemic mu-calculus with synchronous "
            "perfect recall (non-mixing fragment)."
        ),
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    # the options of several subcommands, each declared once
    system = _option("--system", required=True, help="system file (.mas)")
    formula = argparse.ArgumentParser(add_help=False)
    one_of = formula.add_mutually_exclusive_group(required=True)
    one_of.add_argument("--formula", help="formula in concrete syntax")
    one_of.add_argument("--formula-file", help="file holding the formula")
    cap = _option(
        "--cap", type=_count_arg, help=f"state cap (default: EPMU_CAP, else {DEFAULT_CAP})"
    )
    report = _option("--report", help="write a JSON report here")
    as_json = _option("--json", action="store_true")
    agent = _option("--agent", required=True)
    out = _option("--out", required=True)

    sp = sub.add_parser(
        "check", parents=[system, formula, report, cap], help="decide root satisfaction"
    )
    sp.add_argument("--trace", action="store_true")
    sp.add_argument("--allow-deadlock", action="store_true")
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser(
        "analyze", parents=[system, formula, report], help="fragment gate only"
    )
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser(
        "distinguish", parents=[system, agent, as_json, cap],
        help="subset construction for one agent",
    )
    sp.add_argument("--emit-dot")
    sp.set_defaults(fn=cmd_distinguish)

    sp = sub.add_parser(
        "oracle", parents=[system, formula, as_json, cap],
        help="bounded-tree brute-force evaluation",
    )
    sp.add_argument("--depth", type=_count_arg, required=True)
    sp.set_defaults(fn=cmd_oracle)

    sp = sub.add_parser("translate", help="build model-checking instances")
    tsub = sp.add_subparsers(dest="mode", required=True)

    tp = tsub.add_parser(
        "atl-until", parents=[system, agent, out, cap], help="single-agent until objective"
    )
    tp.add_argument("--p1", required=True)
    tp.add_argument("--p2", required=True)
    tp.add_argument("--dual", action="store_true")
    tp.set_defaults(fn=cmd_translate)

    tp = tsub.add_parser("parity", parents=[out, cap], help="parity-winning-region encoding")
    tp.add_argument("--game", required=True, help=".pg priority-annotated file")
    tp.add_argument("--player", type=int, default=0, choices=(0, 1))
    tp.set_defaults(fn=cmd_translate)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse uses exit code 2 for usage errors; remap to the error code
        return EXIT_ERROR if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except EpmuError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as e:
        # exit 1 must only ever mean "does not hold", never a crash
        detail = " ".join(str(e).split())
        print(f"error: {type(e).__name__}: {detail}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
