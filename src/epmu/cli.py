"""Command-line interface: check / analyze / distinguish / oracle / translate.

Exit codes: 0 = holds (or success), 1 = does not hold, 2 = outside the
non-mixing fragment, 3 = input or capacity error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

from . import formula as fm
from .checker import check_with_sets
from .distinction import DistinctionSystem, distinction
from .errors import EpmuError, FragmentRejected
from .syntree import build_syntree, check_non_mixing
from .system import DEFAULT_CAP, bounded_unfold, parse_system, system_to_dict, to_dot

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
    return hashlib.sha256(data.encode()).hexdigest()


def _read_file(path):
    try:
        return Path(path).read_text()
    except OSError as e:
        raise EpmuError(f"cannot read {path}: {e}") from e


def _count_arg(text):
    """A --cap (states) or --depth (steps) value: a count, so never negative;
    argparse names the option in the error."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {n}")
    return n


def _cap(args):
    if getattr(args, "cap", None) is not None:
        return args.cap
    env = os.environ.get("EPMU_CAP")
    if env:
        try:
            cap = int(env)
        except ValueError as e:
            raise EpmuError(f"EPMU_CAP is not an integer: {env!r}") from e
        if cap < 0:
            raise EpmuError(f"EPMU_CAP must not be negative: {cap}")
        return cap
    return DEFAULT_CAP


def _load_formula(args, agents=None):
    if args.formula and args.formula_file:
        raise EpmuError("give either --formula or --formula-file, not both")
    if args.formula_file:
        text = _read_file(args.formula_file)
        src = ("formula-file", args.formula_file, _digest(text))
    elif args.formula:
        text = args.formula
        src = ("formula", "<arg>", _digest(text))
    else:
        raise EpmuError("a formula is required (--formula or --formula-file)")
    return fm.parse_formula(text, agents=agents), src


def _fragment_dict(gate_witness):
    if gate_witness is None:
        return {"accepted": True}
    return {
        "accepted": False,
        "agents": [gate_witness.agent_a, gate_witness.agent_b],
        "node_path": list(gate_witness.node_path),
    }


NAME_LIMIT = 1024  # the longest state name a report spells out


def _name_size(m, q):
    """The length of m.state_name(q) and its tree digest (see README), found
    bottom-up over the chain of bases without building the name."""
    levels = [(m, {q})]
    while isinstance(levels[-1][0], DistinctionSystem):
        d, need = levels[-1]
        levels.append((d.base, {r for i in need for r in (d.pair_of[i][0], *d.pair_of[i][1])}))
    base, need = levels.pop()
    sizes = {i: (len(base.state_name(i)), _digest(base.state_name(i))) for i in need}
    for d, need in reversed(levels):
        below, sizes = sizes, {}
        for i in need:
            s, S = d.pair_of[i]
            parts = [below[r] for r in (s, *sorted(S))]
            text = "({},{{{}}})".format(parts[0][1], ",".join([h for _, h in parts[1:]]))
            sizes[i] = sum([n for n, _ in parts]) + len(S) + 4, _digest(text)
    return sizes[q]


def _write_report(args, report):
    if getattr(args, "report", None):
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_check(args):
    sys_text = _read_file(args.system)
    m = parse_system(sys_text)
    f, fsrc = _load_formula(args, agents=m.agents)
    # runs are infinite, so a deadlocked state has no semantics unless the
    # caller opts into vacuous AX there
    dead = list(m.deadlocks())
    if dead and not args.allow_deadlock:
        raise EpmuError(f"deadlocked states {dead}; use --allow-deadlock to accept them")
    warnings = [f"deadlocked states accepted: {dead}"] if dead else []

    report = {
        "command": "check",
        "inputs": {
            "system": {"path": args.system, "sha256": _digest(sys_text)},
            fsrc[0]: {"path": fsrc[1], "sha256": fsrc[2]},
        },
    }
    try:
        verdict, chain, _ = check_with_sets(m, f, cap=_cap(args))
    except FragmentRejected as e:
        report["fragment"] = _fragment_dict(e.witness)
        report["verdict"] = None
        report["warnings"] = warnings
        _write_report(args, report)
        print(
            "rejected: formula mixes observations of agents "
            f"{e.witness.agent_a} and {e.witness.agent_b}"
        )
        return EXIT_REJECTED

    report["fragment"] = _fragment_dict(None)
    report["verdict"] = verdict.holds
    length, digest = _name_size(verdict.final, verdict.final.q0)
    summary = f"<{length} characters, sha256 tree digest {digest}>"
    report["statistics"] = {
        "refinement_sizes": verdict.refinement_sizes,
        "iteration_counts": verdict.iteration_counts,
        "initial_state": verdict.initial_state if length <= NAME_LIMIT else summary,
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
    sys_text = _read_file(args.system)
    m = parse_system(sys_text)
    f, fsrc = _load_formula(args, agents=m.agents)
    tree = build_syntree(fm.to_positive_form(f))
    gate = check_non_mixing(tree, m.obs)
    report = {
        "command": "analyze",
        "inputs": {
            "system": {"path": args.system, "sha256": _digest(sys_text)},
            fsrc[0]: {"path": fsrc[1], "sha256": fsrc[2]},
        },
        "fragment": _fragment_dict(None if gate else gate.witness),
    }
    _write_report(args, report)
    if gate:
        print(_green("accepted: non-mixing"))
        return EXIT_HOLDS
    w = gate.witness
    print(
        "rejected: formula mixes observations of agents "
        f"{w.agent_a} and {w.agent_b} at node {list(w.node_path)}"
    )
    return EXIT_REJECTED


def cmd_distinguish(args):
    sys_text = _read_file(args.system)
    m = parse_system(sys_text)
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

    sys_text = _read_file(args.system)
    m = parse_system(sys_text)
    f, _ = _load_formula(args, agents=m.agents)
    prefix_depth = args.depth
    prefix = bounded_unfold(m, prefix_depth, cap=_cap(args))
    ns = eval_tree(prefix, fm.to_positive_form(f))
    if args.json:
        print(
            json.dumps(
                {
                    "command": "oracle",
                    "depth": prefix_depth,
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


def _write_instance(outdir, mprime, phi, cap):
    from .translate import compile_modal, labeled_system_to_dict

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "system.mas").write_text(
        json.dumps(labeled_system_to_dict(mprime), indent=2) + "\n"
    )
    compiled = compile_modal(mprime, cap=cap)
    (outdir / "compiled.mas").write_text(
        json.dumps(system_to_dict(compiled.system), indent=2) + "\n"
    )
    plain_phi = compiled.compile_formula(phi)
    (outdir / "formula.mu").write_text(fm.pretty(plain_phi) + "\n")
    (outdir / "formula_modal.mu").write_text(fm.pretty(phi) + "\n")
    return compiled, plain_phi


def cmd_translate(args):
    from .translate import (
        atl_until_instance,
        parity_encoding,
        parse_labeled_system,
        parse_parity_game,
    )

    cap = _cap(args)
    if args.mode == "atl-until":
        g = parse_labeled_system(_read_file(args.system))
        mprime, phi = atl_until_instance(g, args.agent, args.p1, args.p2, dual=args.dual)
    else:
        game = parse_parity_game(_read_file(args.game))
        mprime, phi = parity_encoding(game, args.player)
    _write_instance(args.out, mprime, phi, cap)
    print(f"instance written to {args.out}")
    return EXIT_HOLDS


# ---------------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(
        prog="epmu",
        description=(
            "Model checking for the epistemic mu-calculus with synchronous "
            "perfect recall (non-mixing fragment)."
        ),
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_formula_args(sp):
        sp.add_argument("--formula", help="formula in concrete syntax")
        sp.add_argument("--formula-file", help="file holding the formula")

    sp = sub.add_parser("check", help="decide root satisfaction")
    sp.add_argument("--system", required=True)
    add_formula_args(sp)
    sp.add_argument("--report", help="write a JSON report here")
    sp.add_argument("--cap", type=_count_arg, help="state cap for refinements")
    sp.add_argument("--trace", action="store_true")
    sp.add_argument("--allow-deadlock", action="store_true")
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("analyze", help="fragment gate only")
    sp.add_argument("--system", required=True)
    add_formula_args(sp)
    sp.add_argument("--report")
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser("distinguish", help="subset construction for one agent")
    sp.add_argument("--system", required=True)
    sp.add_argument("--agent", required=True)
    sp.add_argument("--emit-dot")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--cap", type=_count_arg)
    sp.set_defaults(fn=cmd_distinguish)

    sp = sub.add_parser("oracle", help="bounded-tree brute-force evaluation")
    sp.add_argument("--system", required=True)
    add_formula_args(sp)
    sp.add_argument("--depth", type=_count_arg, required=True)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--cap", type=_count_arg)
    sp.set_defaults(fn=cmd_oracle)

    sp = sub.add_parser("translate", help="build model-checking instances")
    tsub = sp.add_subparsers(dest="mode", required=True)

    tp = tsub.add_parser("atl-until", help="single-agent until objective")
    tp.add_argument("--system", required=True, help="action-labeled .mas file")
    tp.add_argument("--agent", required=True)
    tp.add_argument("--p1", required=True)
    tp.add_argument("--p2", required=True)
    tp.add_argument("--dual", action="store_true")
    tp.add_argument("--out", required=True)
    tp.add_argument("--cap", type=_count_arg)
    tp.set_defaults(fn=cmd_translate)

    tp = tsub.add_parser("parity", help="parity-winning-region encoding")
    tp.add_argument("--game", required=True, help=".pg priority-annotated file")
    tp.add_argument("--player", type=int, default=0, choices=(0, 1))
    tp.add_argument("--out", required=True)
    tp.add_argument("--cap", type=_count_arg)
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
    except FragmentRejected as e:
        print(f"rejected: {e}", file=sys.stderr)
        return EXIT_REJECTED
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
