"""Translators producing plain model-checking instances from action-labeled
systems: action-atom compilation, the until-objective instance with its
bookkeeping bit, the coalition-next operator, and the parity-game encoding."""

from __future__ import annotations

from functools import cached_property, reduce

from . import formula as fm
from .errors import (
    CapacityExceeded,
    EpmuError,
    SystemFormatError,
    UnknownAgent,
    UnknownAtom,
    UnsupportedCoalition,
)
from .system import (
    DEFAULT_CAP,
    MultiAgentSystem,
    _agent_obs,
    _check_atoms,
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
    played = {(q, acts[slot][1]) for q, out in g._out.items() for acts, _ in out}
    for q in g.states:
        for alpha in g.alphabets[agent]:
            if (q, alpha) not in played:
                raise SystemFormatError(f"state {q}: no transition lets agent {agent!r} play {alpha!r}")


class LabeledSystem(MultiAgentSystem):
    """Multi-agent system with per-transition joint-action labels: the plain
    system of its (from, to) pairs, plus `alphabets` (agent -> sorted
    actions) and `_out`, the labeled transitions stored once (state -> its
    (action tuple, to) pairs in sorted order).  `trans`, the reachable (from,
    action tuple, to) triples in sorted order, is built from it on read."""

    def __init__(self, states, q0, trans, atoms, labels, obs, alphabets, names=None):
        self.alphabets = {a: tuple(sorted(set(acts))) for a, acts in alphabets.items()}
        agents = tuple(sorted(obs))
        if set(self.alphabets) != set(agents):
            raise SystemFormatError("action alphabets must cover exactly the agents")
        _check_alphabets(self.alphabets)
        canon = {}  # the triples in input order, so a bad one is named as given
        for q, acts, r in trans:
            acts = _canon_acts(acts)
            if tuple(a for a, _ in acts) != agents:
                raise SystemFormatError(
                    f"transition ({q},{r}) does not carry a full action tuple"
                )
            for a, act in acts:
                if act not in self.alphabets[a]:
                    raise SystemFormatError(f"undeclared action {act!r} of agent {a}")
            canon[q, acts, r] = None
        super().__init__(states, q0, [(q, r) for q, _, r in canon], atoms, labels, obs, names)
        self._out = {}
        for q, acts, r in sorted(canon):
            if q in self._succ:  # q is reachable, and so is r
                self._out.setdefault(q, []).append((acts, r))

    @cached_property
    def trans(self):
        return tuple([(q, acts, r) for q in self.states for acts, r in self._out.get(q, ())])

    def outgoing(self, q):
        return list(self._out.get(q, ()))


def _relabeled(g, atoms, labels):
    """g as a LabeledSystem over new atoms and labels (one frozenset per
    state).  Systems are immutable, so the states, transitions, alphabets,
    observable sets and names are g's, checked when g was built; only the
    new labels and the observable sets against the new atoms are checked
    here."""
    atoms = frozenset(atoms)
    _check_atoms(atoms, labels, g.obs)
    m = LabeledSystem.__new__(LabeledSystem)
    m._fill(g.states, g.q0, g._succ, atoms, labels, g.obs)
    m.names, m.alphabets, m._out = g.names, g.alphabets, g._out
    return m


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
    trans = _entry_list(actions["labels"], "'actions.labels'")
    for t in trans:
        if not isinstance(t, (list, tuple)) or len(t) != 3:
            raise SystemFormatError(f"label {t!r} is not a triple [from, actions, to]")
        if not isinstance(t[1], dict):
            raise SystemFormatError(f"label {t!r}: its actions are not an object")
        _check_ends("label", t)
    alphabets = actions["alphabets"]
    if not isinstance(alphabets, dict):
        raise SystemFormatError(f"'actions.alphabets' is not an object: {alphabets!r}")
    for a, acts in alphabets.items():
        _string_list(acts, "agent {!r}: 'actions.alphabets'", a)
    return dict(
        states=states,
        q0=data["initial"],
        trans=list(map(tuple, trans)),
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
            "labels": [[q, dict(acts), r] for q, acts, r in g.trans],
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
    pair_list = [start]  # breadth-first: state i is pair_list[i]
    succ = {}
    for i, (q, _) in enumerate(pair_list):
        row = []
        for acts, r in g._out.get(q, ()):  # in (acts, r) order
            tgt = (r, acts)
            if tgt not in id_of:
                if len(pair_list) + 1 > cap:
                    raise CapacityExceeded(len(pair_list) + 1, cap, "modal compilation")
                id_of[tgt] = len(pair_list)
                pair_list.append(tgt)
            row.append(id_of[tgt])
        succ[i] = tuple(sorted(row))

    labels, names = {}, {}
    for i, (q, acts) in enumerate(pair_list):
        lab = g.label(q)
        if acts is not None:
            lab = lab | {act_atom[pair] for pair in acts}
        labels[i] = lab
        tag = "i" if acts is None else ",".join(act for _, act in acts)
        names[i] = f"({g.state_name(q)};{tag})"
    obs = {a: g.obs[a] | {act_atom[(a, act)] for act in g.alphabets[a]} for a in g.agents}

    system = MultiAgentSystem.__new__(MultiAgentSystem)
    system._derive(len(pair_list), succ, frozenset(atoms), labels, obs)
    system.names = names
    return CompiledModal(system, act_atom)


def compile_modal_formula(f, act_atom):
    """<acts>phi -> EX(action atoms & phi); [acts]phi -> AX(~atoms | phi);
    every other node is kept, over its compiled children.  A node of no
    formula class raises TypeError."""
    t = type(f)
    if t in fm.LEAVES:
        return f
    if t is fm.And or t is fm.Or:
        return t(compile_modal_formula(f.left, act_atom), compile_modal_formula(f.right, act_atom))
    if t is fm.DiamondAct:
        guard = reduce(fm.And, [fm.Atom(act_atom[pair]) for pair in f.acts])
        return fm.EX(fm.And(guard, compile_modal_formula(f.child, act_atom)))
    if t is fm.BoxAct:
        guard = reduce(fm.Or, [fm.NegAtom(act_atom[pair]) for pair in f.acts])
        return fm.AX(fm.Or(guard, compile_modal_formula(f.child, act_atom)))
    if t is fm.Know or t is fm.Poss:
        return t(f.agent, compile_modal_formula(f.child, act_atom))
    if t is fm.Mu or t is fm.Nu:
        return t(f.var, compile_modal_formula(f.body, act_atom))
    if t is fm.AX or t is fm.EX or t is fm.Not:
        return t(compile_modal_formula(f.child, act_atom))
    raise TypeError(f"unexpected node {f!r}")


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
        if players is None:
            self.players = self.agents
        else:
            self.players = tuple(_string_list(players, "'players'"))
        if sorted(self.players) != sorted(self.agents):
            raise SystemFormatError("players must name the two agents")
        priority = {} if priority is None else priority
        for q in self.states:
            if q not in priority:
                raise SystemFormatError(f"no priority at state {q}")
        self.priority = {q: priority[q] for q in self.states}
        for q, k in self.priority.items():
            if type(k) is bool or not isinstance(k, int) or k < 0:
                raise SystemFormatError(f"bad priority {k!r} at state {q}")

    def player(self, index):
        """The agent of `players` at index 0 or 1; EpmuError for any other
        index, including -1 and True."""
        if type(index) is not int or index not in (0, 1):
            raise EpmuError(f"player index {index!r} is not 0 or 1")
        return self.players[index]


def parse_parity_game(text):
    data = _load_json(text)
    args = _labeled_args(data, state_keys=("id", "priority"))
    priority = {entry["id"]: entry["priority"] for entry in data["states"]}
    return ParityGame(**args, priority=priority, players=data.get("players"))


def parity_encoding(game, player_index, cap=DEFAULT_CAP):
    """Encode the winning condition of player 0 or 1 (`ParityGame.player`)
    as an alternating fixpoint over priority atoms: nu on even indices, mu
    on odd, outermost index even.
    Every action of the player must be playable at every state
    (`_check_playable`).  The encoding has one binder and one atom per
    level, so a level count (the top priority, padded to even) past `cap`
    raises CapacityExceeded before anything is built.

    Returns (labeled system extended with priority atoms, modal formula with
    a single epistemic agent, hence non-mixing by construction).
    """
    me = game.player(player_index)
    n = max(game.priority.values())
    if min(game.priority.values()) < 1:
        raise SystemFormatError("priorities must be >= 1")
    if n % 2 == 1:
        n += 1  # pad with an unused even level
    if n > cap:
        raise CapacityExceeded(n, cap, "parity encoding")
    _check_playable(game, me)

    prio_atom = {}
    atoms = set(game.atoms)
    for k in range(1, n + 1):
        name = _fresh_atom(f"prio{k}", atoms)
        prio_atom[k] = name
        atoms.add(name)
    labels = {q: game.label(q) | {prio_atom[game.priority[q]]} for q in game.states}
    extended = _relabeled(game, atoms, labels)

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
