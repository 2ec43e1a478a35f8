"""Translators producing plain model-checking instances from action-labeled
systems: action-atom compilation, the until-objective instance with its
bookkeeping bit, coalition-next expansion, and the parity-game encoding."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from . import formula as fm
from .errors import (
    CapacityExceeded,
    SystemFormatError,
    UnknownAgent,
    UnknownAtom,
    UnsupportedCoalition,
)
from .system import DEFAULT_CAP, MultiAgentSystem, _load_json


def _canon_acts(acts):
    """Action tuple as a sorted (agent, action) tuple."""
    if isinstance(acts, dict):
        acts = acts.items()
    return tuple(sorted(acts))


class LabeledSystem:
    """Multi-agent system with per-transition joint-action labels."""

    def __init__(self, states, q0, trans, atoms, labels, obs, alphabets, names=None):
        self.alphabets = {a: tuple(sorted(set(acts))) for a, acts in alphabets.items()}
        self.agents = tuple(sorted(obs))
        if set(self.alphabets) != set(self.agents):
            raise SystemFormatError("action alphabets must cover exactly the agents")
        canon = []
        for q, acts, r in trans:
            acts = _canon_acts(acts)
            if tuple(a for a, _ in acts) != self.agents:
                raise SystemFormatError(
                    f"transition ({q},{r}) does not carry a full action tuple"
                )
            for a, act in acts:
                if act not in self.alphabets[a]:
                    raise SystemFormatError(f"undeclared action {act!r} of agent {a}")
            canon.append((q, acts, r))
        self.trans = tuple(sorted(set(canon)))
        # reuse the plain-system machinery for reachability and label checks
        plain = MultiAgentSystem(
            states, q0, [(q, r) for q, _, r in canon], atoms, labels, obs, names
        )
        self.plain = plain
        keep = set(plain.states)
        self.trans = tuple(t for t in self.trans if t[0] in keep and t[2] in keep)
        self.states = plain.states
        self.q0 = plain.q0
        self.atoms = plain.atoms
        self.labels = plain.labels
        self.obs = plain.obs
        self.names = plain.names

    def label(self, q):
        return self.labels[q]

    def outgoing(self, q):
        return [(acts, r) for q2, acts, r in self.trans if q2 == q]

    def __len__(self):
        return len(self.states)


def parse_labeled_system(text):
    data = _load_json(text)
    return labeled_system_from_dict(data)


def labeled_system_from_dict(data):
    if "actions" not in data:
        raise SystemFormatError("labeled system needs an 'actions' section")
    actions = data["actions"]
    states, labels, names = [], {}, {}
    for entry in data["states"]:
        q = entry["id"]
        states.append(q)
        labels[q] = entry.get("atoms", [])
        if "name" in entry:
            names[q] = entry["name"]
    obs = {a: spec.get("obs", []) for a, spec in data["agents"].items()}
    return LabeledSystem(
        states=states,
        q0=data["initial"],
        trans=[(q, acts, r) for q, acts, r in actions["labels"]],
        atoms=data["atoms"],
        labels=labels,
        obs=obs,
        alphabets=actions["alphabets"],
        names=names,
    )


def labeled_system_to_dict(g):
    return {
        "states": [
            {"id": q, "atoms": sorted(g.labels[q])}
            | ({"name": g.names[q]} if q in g.names else {})
            for q in g.states
        ],
        "initial": g.q0,
        "transitions": sorted([q, r] for q, r in {(q, r) for q, _, r in g.trans}),
        "atoms": sorted(g.atoms),
        "agents": {a: {"obs": sorted(g.obs[a])} for a in g.agents},
        "actions": {
            "alphabets": {a: list(g.alphabets[a]) for a in g.agents},
            "labels": [
                [q, dict(acts), r]
                for q, acts, r in sorted(
                    g.trans, key=lambda t: (t[0], sorted(dict(t[1]).items()), t[2])
                )
            ],
        },
    }


# ---------------------------------------------------------------------------
# Modal -> plain compilation


@dataclass
class CompiledModal:
    system: MultiAgentSystem
    act_atom: dict  # (agent, action) -> atom name

    def compile_formula(self, f):
        return compile_modal_formula(f, self.act_atom)


def _fresh_atom(base, taken):
    name = base
    while name in taken:
        name += "x"
    return name


def compile_modal(g, cap=DEFAULT_CAP):
    """Convert action labels to atoms: states become (state, incoming action
    tuple), each agent observes its own action atoms, the root carries none."""
    act_atom = {}
    atoms = set(g.atoms)
    for a in g.agents:
        for act in g.alphabets[a]:
            name = _fresh_atom(f"act_{a}_{act}", atoms)
            act_atom[(a, act)] = name
            atoms.add(name)

    start = (g.q0, None)
    id_of = {start: 0}
    pair_list = [start]
    queue = [start]
    delta = []
    while queue:
        q, _ = src = queue.pop(0)
        sid = id_of[src]
        for acts, r in sorted(g.outgoing(q)):
            tgt = (r, acts)
            if tgt not in id_of:
                if len(pair_list) + 1 > cap:
                    raise CapacityExceeded(len(pair_list) + 1, cap, "modal compilation")
                id_of[tgt] = len(pair_list)
                pair_list.append(tgt)
                queue.append(tgt)
            delta.append((sid, id_of[tgt]))

    labels, names, obs = {}, {}, {}
    for i, (q, acts) in enumerate(pair_list):
        lab = set(g.label(q))
        if acts is not None:
            lab |= {act_atom[pair] for pair in acts}
        labels[i] = lab
        tag = "i" if acts is None else ",".join(act for _, act in acts)
        names[i] = f"({g.plain.state_name(q)};{tag})"
    for a in g.agents:
        own = {act_atom[(a, act)] for act in g.alphabets[a]}
        obs[a] = set(g.obs[a]) | own

    system = MultiAgentSystem(
        states=list(range(len(pair_list))),
        q0=0,
        delta=delta,
        atoms=atoms,
        labels=labels,
        obs=obs,
        names=names,
    )
    return CompiledModal(system, act_atom)


def compile_modal_formula(f, act_atom):
    """<acts>phi -> EX(action atoms & phi); [acts]phi -> AX(~atoms | phi)."""
    if isinstance(f, fm.DiamondAct):
        child = compile_modal_formula(f.child, act_atom)
        guard = None
        for pair in f.acts:
            atom = fm.Atom(act_atom[pair])
            guard = atom if guard is None else fm.And(guard, atom)
        return fm.EX(fm.And(guard, child))
    if isinstance(f, fm.BoxAct):
        child = compile_modal_formula(f.child, act_atom)
        guard = None
        for pair in f.acts:
            neg = fm.NegAtom(act_atom[pair])
            guard = neg if guard is None else fm.Or(guard, neg)
        return fm.AX(fm.Or(guard, child))
    kids = f.children()
    if not kids:
        return f
    return fm._rebuild(f, [compile_modal_formula(c, act_atom) for c in kids])


# ---------------------------------------------------------------------------
# Until-objective instance


def _other_tuples(g, a0):
    others = [a for a in g.agents if a != a0]
    return [
        tuple(zip(others, combo))
        for combo in itertools.product(*(g.alphabets[a] for a in others))
    ]


def atl_until_instance(g, a0, p1, p2, dual=False):
    """Doubled system with a bookkeeping bit on the acting agent's actions:
    the bit-1 copy remembers that the target atom was already passed.
    Returns (modified labeled system, modal formula)."""
    if a0 not in g.obs:
        raise UnknownAgent(a0)
    for p in (p1, p2):
        if p not in g.atoms:
            raise UnknownAtom(p)
    past = _fresh_atom(f"past_{p2}", g.atoms)

    def sid(q, bit):
        return (q, bit)

    states = [sid(q, b) for q in g.states for b in (0, 1)]
    labels = {}
    names = {}
    for q in g.states:
        labels[sid(q, 0)] = set(g.label(q))
        labels[sid(q, 1)] = set(g.label(q)) | {past}
        names[sid(q, 0)] = f"{g.plain.state_name(q)}+0"
        names[sid(q, 1)] = f"{g.plain.state_name(q)}+1"

    alphabets = {a: list(g.alphabets[a]) for a in g.agents}
    alphabets[a0] = [f"{act}_{b}" for act in g.alphabets[a0] for b in (0, 1)]

    trans = []
    for q, acts, r in g.trans:
        acts = dict(acts)
        alpha = acts[a0]
        rest = {a: act for a, act in acts.items() if a != a0}

        def add(bq, aact_bit, br):
            trans.append(
                (sid(q, bq), {**rest, a0: f"{alpha}_{aact_bit}"}, sid(r, br))
            )

        add(0, 0, 0)
        add(1, 0, 1)
        add(1, 1, 1)
        if p2 in g.label(q):
            add(0, 1, 1)
        else:
            add(0, 1, 0)

    # state ids must be hashable ints for MultiAgentSystem; intern the pairs
    idx = {s: i for i, s in enumerate(states)}
    mprime = LabeledSystem(
        states=list(idx.values()),
        q0=idx[sid(g.q0, 0)],
        trans=[(idx[q], acts, idx[r]) for q, acts, r in trans],
        atoms=set(g.atoms) | {past},
        labels={idx[s]: lab for s, lab in labels.items()},
        obs={a: set(g.obs[a]) for a in g.agents},
        alphabets=alphabets,
        names={idx[s]: n for s, n in names.items()},
    )

    core = fm.Or(fm.Atom(p2), fm.Atom(past))
    others = _other_tuples(mprime, a0)
    var = "Z"
    body = None
    for alpha in mprime.alphabets[a0]:
        if dual:
            inner = None
            for rest in others:
                step = fm.DiamondAct(_canon_acts(rest + ((a0, alpha),)), fm.Var(var))
                inner = step if inner is None else fm.Or(inner, step)
            arm = fm.Poss(a0, fm.Or(core, fm.And(fm.Atom(p1), inner)))
            body = arm if body is None else fm.And(body, arm)
        else:
            inner = None
            for rest in others:
                step = fm.BoxAct(_canon_acts(rest + ((a0, alpha),)), fm.Var(var))
                inner = step if inner is None else fm.And(inner, step)
            arm = fm.Know(a0, fm.Or(core, fm.And(fm.Atom(p1), inner)))
            body = arm if body is None else fm.Or(body, arm)
    phi = fm.Mu(var, body)
    return mprime, phi


# ---------------------------------------------------------------------------
# Coalition next-step encodings


def coalition_next(agents, f, existential, alphabets):
    """Single-agent coalition next operator expanded over concrete tuples."""
    agents = set(agents)
    if len(agents) != 1:
        raise UnsupportedCoalition(agents)
    (a,) = agents
    others = [b for b in sorted(alphabets) if b != a]
    other_tuples = [
        tuple(zip(others, combo))
        for combo in itertools.product(*(alphabets[b] for b in others))
    ]
    out = None
    for alpha in alphabets[a]:
        if existential:
            inner = None
            for rest in other_tuples:
                step = fm.BoxAct(_canon_acts(rest + ((a, alpha),)), f)
                inner = step if inner is None else fm.And(inner, step)
            arm = fm.Know(a, inner)
            out = arm if out is None else fm.Or(out, arm)
        else:
            inner = None
            for rest in other_tuples:
                step = fm.DiamondAct(_canon_acts(rest + ((a, alpha),)), f)
                inner = step if inner is None else fm.Or(inner, step)
            arm = fm.Poss(a, inner)
            out = arm if out is None else fm.And(out, arm)
    return out


# ---------------------------------------------------------------------------
# Parity games


class ParityGame(LabeledSystem):
    """Two-player concurrent game: a labeled system over exactly two agents
    plus a priority per state."""

    def __init__(self, *args, priority=None, players=None, **kwargs):
        super().__init__(*args, **kwargs)
        if len(self.agents) != 2:
            raise SystemFormatError("a parity game needs exactly two agents")
        self.players = tuple(players) if players else self.agents
        if sorted(self.players) != sorted(self.agents):
            raise SystemFormatError("players must name the two agents")
        self.priority = {q: priority[q] for q in self.states}
        for q, k in self.priority.items():
            if not isinstance(k, int) or k < 0:
                raise SystemFormatError(f"bad priority {k!r} at state {q}")


def parse_parity_game(text):
    data = _load_json(text)
    states, labels, names, priority = [], {}, {}, {}
    for entry in data["states"]:
        q = entry["id"]
        states.append(q)
        labels[q] = entry.get("atoms", [])
        priority[q] = entry["priority"]
        if "name" in entry:
            names[q] = entry["name"]
    obs = {a: spec.get("obs", []) for a, spec in data["agents"].items()}
    actions = data["actions"]
    return ParityGame(
        states=states,
        q0=data["initial"],
        trans=[(q, acts, r) for q, acts, r in actions["labels"]],
        atoms=data["atoms"],
        labels=labels,
        obs=obs,
        alphabets=actions["alphabets"],
        names=names,
        priority=priority,
        players=data.get("players"),
    )


def parity_encoding(game, player_index):
    """Encode player i's winning condition as an alternating fixpoint over
    priority atoms: nu on even indices, mu on odd, outermost index even.

    Returns (labeled system extended with priority atoms, modal formula with
    a single epistemic agent, hence non-mixing by construction).
    """
    me = game.players[player_index]
    opp = game.players[1 - player_index]
    n = max(game.priority.values())
    if min(game.priority.values()) < 1:
        raise SystemFormatError("priorities must be >= 1")
    if n % 2 == 1:
        n += 1  # pad with an unused even level

    prio_atom = {}
    atoms = set(game.atoms)
    for k in range(1, n + 1):
        name = _fresh_atom(f"prio{k}", atoms)
        prio_atom[k] = name
        atoms.add(name)
    labels = {q: set(game.label(q)) | {prio_atom[game.priority[q]]} for q in game.states}

    extended = LabeledSystem(
        states=list(game.states),
        q0=game.q0,
        trans=list(game.trans),
        atoms=atoms,
        labels=labels,
        obs={a: set(game.obs[a]) for a in game.agents},
        alphabets={a: list(game.alphabets[a]) for a in game.agents},
        names=dict(game.names),
    )

    zvar = {k: f"Zp{k}" for k in range(1, n + 1)}
    body = None
    for alpha in extended.alphabets[me]:
        inner = None
        for k in range(1, n + 1):
            steps = None
            for beta in extended.alphabets[opp]:
                acts = _canon_acts(((me, alpha), (opp, beta)))
                step = fm.BoxAct(acts, fm.Var(zvar[k]))
                steps = step if steps is None else fm.And(steps, step)
            term = fm.And(fm.Atom(prio_atom[k]), steps)
            inner = term if inner is None else fm.Or(inner, term)
        arm = fm.Know(me, inner)
        body = arm if body is None else fm.Or(body, arm)

    phi = body
    for k in range(1, n + 1):
        phi = (fm.Nu if k % 2 == 0 else fm.Mu)(zvar[k], phi)
    return extended, phi
