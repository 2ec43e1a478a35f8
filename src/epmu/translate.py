"""Translators producing plain model-checking instances from action-labeled
systems: action-atom compilation, the until-objective instance with its
bookkeeping bit, the coalition-next operator, and the parity-game encoding."""

from __future__ import annotations

from collections import deque
from functools import reduce

from . import formula as fm
from .errors import (
    CapacityExceeded,
    SystemFormatError,
    UnknownAgent,
    UnknownAtom,
    UnsupportedCoalition,
)
from .system import (
    DEFAULT_CAP,
    MultiAgentSystem,
    _agent_obs,
    _check_ends,
    _entry_list,
    _load_json,
    _state_entries,
    _string_list,
    system_to_dict,
)


def _canon_acts(acts):
    """Action tuple as a sorted (agent, action) tuple."""
    if isinstance(acts, dict):
        acts = acts.items()
    return tuple(sorted(acts))


def _check_alphabets(alphabets):
    """An agent without actions has no joint action, so every encoding over
    it would be an empty join; SystemFormatError names the agent."""
    for a in sorted(alphabets):
        if not alphabets[a]:
            raise SystemFormatError(f"agent {a!r} has an empty action alphabet")


def _check_playable(g, agent):
    """[agent=alpha] f is vacuously true where no transition carries alpha,
    so an encoder that lets the agent choose alpha needs it playable at
    every state; SystemFormatError names the first state, in state order,
    and the action that is not."""
    slot = g.agents.index(agent)  # the agent's place in a sorted action tuple
    played = {(q, acts[slot][1]) for q, acts, _ in g.trans}
    for q in g.states:
        for alpha in g.alphabets[agent]:
            if (q, alpha) not in played:
                raise SystemFormatError(f"state {q}: no transition lets agent {agent!r} play {alpha!r}")


class LabeledSystem(MultiAgentSystem):
    """Multi-agent system with per-transition joint-action labels: the plain
    system of its (from, to) pairs, plus `alphabets` (agent -> sorted
    actions) and `trans`, the reachable (from, action tuple, to) triples in
    sorted order."""

    def __init__(self, states, q0, trans, atoms, labels, obs, alphabets, names=None):
        self.alphabets = {a: tuple(sorted(set(acts))) for a, acts in alphabets.items()}
        agents = tuple(sorted(obs))
        if set(self.alphabets) != set(agents):
            raise SystemFormatError("action alphabets must cover exactly the agents")
        _check_alphabets(self.alphabets)
        canon = set()
        for q, acts, r in trans:
            acts = _canon_acts(acts)
            if tuple(a for a, _ in acts) != agents:
                raise SystemFormatError(
                    f"transition ({q},{r}) does not carry a full action tuple"
                )
            for a, act in acts:
                if act not in self.alphabets[a]:
                    raise SystemFormatError(f"undeclared action {act!r} of agent {a}")
            canon.add((q, acts, r))
        super().__init__(states, q0, [(q, r) for q, _, r in canon], atoms, labels, obs, names)
        keep = set(self.states)
        self.trans = tuple(sorted(t for t in canon if t[0] in keep and t[2] in keep))
        self._out = {}  # state -> [(acts, r), ...] in the order of self.trans
        for q, acts, r in self.trans:
            self._out.setdefault(q, []).append((acts, r))

    def outgoing(self, q):
        return list(self._out.get(q, ()))


def parse_labeled_system(text):
    data = _load_json(text)
    return labeled_system_from_dict(data)


def labeled_system_from_dict(data):
    return LabeledSystem(**_labeled_args(data))


def _labeled_args(data, state_keys=("id",)):
    """LabeledSystem arguments from a JSON object.  A missing key (including
    each of `state_keys` in every state), atoms that are not a list of
    strings, labels that are not a list of [from, actions, to] triples with
    an object of actions, alphabets that are not an object of lists of
    strings, or an agent spec that is not an object raises
    SystemFormatError naming it."""
    for key in ("states", "initial", "atoms", "agents", "actions"):
        if key not in data:
            raise SystemFormatError(f"missing key {key!r}")
    actions = data["actions"]
    for key in ("labels", "alphabets"):
        if not isinstance(actions, dict) or key not in actions:
            raise SystemFormatError(f"missing key 'actions.{key}'")
    states, labels, names = _state_entries(data["states"], state_keys)
    for t in _entry_list(actions["labels"], "'actions.labels'"):
        if not isinstance(t, (list, tuple)) or len(t) != 3:
            raise SystemFormatError(f"label {t!r} is not a triple [from, actions, to]")
        if not isinstance(t[1], dict):
            raise SystemFormatError(f"label {t!r}: its actions are not an object")
        _check_ends("label", t)
    alphabets = actions["alphabets"]
    if not isinstance(alphabets, dict):
        raise SystemFormatError(f"'actions.alphabets' is not an object: {alphabets!r}")
    for a, acts in alphabets.items():
        _string_list(acts, f"agent {a!r}: 'actions.alphabets'")
    return dict(
        states=states,
        q0=data["initial"],
        trans=[tuple(t) for t in actions["labels"]],
        atoms=_string_list(data["atoms"], "'atoms'"),
        labels=labels,
        obs=_agent_obs(data["agents"]),
        alphabets=alphabets,
        names=names,
    )


def labeled_system_to_dict(g):
    return system_to_dict(g) | {
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


class CompiledModal(fm.Record):
    __slots__ = _fields = ("system", "act_atom")

    def __init__(self, system, act_atom):
        self.system = system  # a MultiAgentSystem
        self.act_atom = act_atom  # (agent, action) -> atom name

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
    queue = deque([start])
    delta = []
    while queue:
        q, _ = src = queue.popleft()
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
        names[i] = f"({g.state_name(q)};{tag})"
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
        guard = reduce(fm.And, [fm.Atom(act_atom[pair]) for pair in f.acts])
        return fm.EX(fm.And(guard, compile_modal_formula(f.child, act_atom)))
    if isinstance(f, fm.BoxAct):
        guard = reduce(fm.Or, [fm.NegAtom(act_atom[pair]) for pair in f.acts])
        return fm.AX(fm.Or(guard, compile_modal_formula(f.child, act_atom)))
    kids = f.children()
    if not kids:
        return f
    return fm._rebuild(f, [compile_modal_formula(c, act_atom) for c in kids])


# ---------------------------------------------------------------------------
# One agent's move


def _plays(a, alpha, f, box):
    """The step "agent a plays alpha" as one modality: [a=alpha] f (box) or
    <a=alpha> f.  compile_modal labels every state but the root, which is
    no successor, with one action atom per agent, those of the joint action
    that entered it, so on a compiled system [a=alpha] f is the &-join of
    [acts] f and <a=alpha> f the |-join of <acts> f over the joint actions
    acts in which agent a plays alpha."""
    return (fm.BoxAct if box else fm.DiamondAct)(((a, alpha),), f)


# ---------------------------------------------------------------------------
# Until-objective instance


def atl_until_instance(g, a0, p1, p2, dual=False):
    """Doubled system with a bookkeeping bit on the acting agent's actions:
    the bit-1 copy remembers that the target atom was already passed.
    State (q, bit) is 2·index(q) + bit.  Every action of a0 must be
    playable at every state (`_check_playable`).
    Returns (modified labeled system, modal formula)."""
    if a0 not in g.obs:
        raise UnknownAgent(a0)
    for p in (p1, p2):
        if p not in g.atoms:
            raise UnknownAtom(p)
    _check_playable(g, a0)
    past = _fresh_atom(f"past_{p2}", g.atoms)
    index = {q: 2 * i for i, q in enumerate(g.states)}
    labels, names = {}, {}
    for q, i in index.items():
        labels[i], labels[i + 1] = g.label(q), g.label(q) | {past}
        names[i], names[i + 1] = f"{g.state_name(q)}+0", f"{g.state_name(q)}+1"

    trans = []
    for q, acts, r in g.trans:
        acts = dict(acts)
        hit = int(p2 in g.label(q))
        for bq, bit, br in ((0, 0, 0), (1, 0, 1), (1, 1, 1), (0, 1, hit)):
            trans.append((index[q] + bq, {**acts, a0: f"{acts[a0]}_{bit}"}, index[r] + br))

    alphabets = {**g.alphabets, a0: [f"{act}_{b}" for act in g.alphabets[a0] for b in (0, 1)]}
    mprime = LabeledSystem(
        states=range(2 * len(g.states)),
        q0=index[g.q0],
        trans=trans,
        atoms=g.atoms | {past},
        labels=labels,
        obs=g.obs,
        alphabets=alphabets,
        names=names,
    )

    core = fm.Or(fm.Atom(p2), fm.Atom(past))
    modality, join = (fm.Poss, fm.And) if dual else (fm.Know, fm.Or)

    def arm(alpha):
        step = _plays(a0, alpha, fm.Var("Z"), not dual)
        return modality(a0, fm.Or(core, fm.And(fm.Atom(p1), step)))

    body = reduce(join, [arm(alpha) for alpha in mprime.alphabets[a0]])
    return mprime, fm.Mu("Z", body)


# ---------------------------------------------------------------------------
# Coalition next-step encodings


def coalition_next(agents, f, existential, alphabets):
    """Single-agent coalition next operator: the |-join of K a . [a=alpha] f
    (existential) or the &-join of P a . <a=alpha> f over the agent's
    actions.  An empty alphabet of any agent leaves no joint action, and
    SystemFormatError names the agent."""
    agents = set(agents)
    if len(agents) != 1:
        raise UnsupportedCoalition(agents)
    (a,) = agents
    if a not in alphabets:
        raise UnknownAgent(a)
    _check_alphabets(alphabets)
    modality, join = (fm.Know, fm.Or) if existential else (fm.Poss, fm.And)
    arms = [modality(a, _plays(a, alpha, f, existential)) for alpha in alphabets[a]]
    return reduce(join, arms)


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
            if type(k) is bool or not isinstance(k, int) or k < 0:
                raise SystemFormatError(f"bad priority {k!r} at state {q}")


def parse_parity_game(text):
    data = _load_json(text)
    args = _labeled_args(data, state_keys=("id", "priority"))
    priority = {entry["id"]: entry["priority"] for entry in data["states"]}
    return ParityGame(**args, priority=priority, players=data.get("players"))


def parity_encoding(game, player_index):
    """Encode player i's winning condition as an alternating fixpoint over
    priority atoms: nu on even indices, mu on odd, outermost index even.
    Every action of the player must be playable at every state
    (`_check_playable`).

    Returns (labeled system extended with priority atoms, modal formula with
    a single epistemic agent, hence non-mixing by construction).
    """
    me = game.players[player_index]
    n = max(game.priority.values())
    if min(game.priority.values()) < 1:
        raise SystemFormatError("priorities must be >= 1")
    if n % 2 == 1:
        n += 1  # pad with an unused even level
    _check_playable(game, me)

    prio_atom = {}
    atoms = set(game.atoms)
    for k in range(1, n + 1):
        name = _fresh_atom(f"prio{k}", atoms)
        prio_atom[k] = name
        atoms.add(name)
    labels = {q: game.label(q) | {prio_atom[game.priority[q]]} for q in game.states}

    extended = LabeledSystem(
        states=game.states,
        q0=game.q0,
        trans=game.trans,
        atoms=atoms,
        labels=labels,
        obs=game.obs,
        alphabets=game.alphabets,
        names=game.names,
    )

    zvar = {k: f"Zp{k}" for k in range(1, n + 1)}

    # Highest priority first: the innermost binder's term (priority 1) is
    # then the outermost disjunct, and the disjunction of all the others is
    # one subterm that is constant while that binder iterates.
    def arm(alpha):
        terms = [
            fm.And(fm.Atom(prio_atom[k]), _plays(me, alpha, fm.Var(zvar[k]), True))
            for k in range(n, 0, -1)
        ]
        return fm.Know(me, reduce(fm.Or, terms))

    phi = reduce(fm.Or, [arm(alpha) for alpha in game.alphabets[me]])
    for k in range(1, n + 1):
        phi = (fm.Nu if k % 2 == 0 else fm.Mu)(zvar[k], phi)
    return extended, phi
