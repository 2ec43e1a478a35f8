"""Multi-agent systems, in-splitting maps (those of a refinement chain are
built by `epmu.distinction.insplitting`), and depth-bounded unfoldings.
`MultiAgentSystem._fill` alone sets the fields every system has, for
outside input (`MultiAgentSystem.__init__`) and derived systems (`_derive`)
alike.  Systems keep no state-mask tables: each region of the checker
builds its own (`epmu.checker.Region`)."""

from __future__ import annotations

import json
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter

from .errors import CapacityExceeded, SystemFormatError, UnknownAgent, UnknownAtom
from .formula import FrozenRecord, _set

DEFAULT_CAP = 10**6


class MultiAgentSystem:
    """Finite Kripke structure with per-agent observable atom sets.

    States are integer ids; only states reachable from the initial state are
    kept.  Instances are immutable after construction and safe to share.
    The transitions are stored once, as the sorted successor list of each
    state; `delta`, the set of (from, to) pairs, is built from them on first
    read.  The state masks of the checker are not the system's: a region
    builds them for the system it runs on.

    The constructor is for outside input: it runs `_check_shape`, moves the
    states q0 does not reach to `dropped_states` and sorts states and rows.
    A system the program derives is filled by `_derive` instead.

    `partitions` maps each agent the system is known to be distinguished for
    to its Γ blocks; a system built here is known for none (a
    DistinctionSystem fills it in).
    """

    partitions = {}
    dropped_states = ()

    def __init__(self, states, q0, delta, atoms, labels, obs, names=None):
        state_set = set(states)
        atoms = frozenset(atoms)
        delta = list(delta)
        succ = {q: set() for q in state_set}
        for q, r in delta:
            if q in succ:
                succ[q].add(r)
            else:
                succ[q] = {r}
        _check_shape(state_set, q0, succ, atoms, labels, obs, delta)

        # restrict to the part reachable from q0
        reachable = {q0}
        found = [q0]
        for q in found:
            new = succ[q] - reachable
            if new:
                reachable |= new
                found += new
        if len(found) < len(state_set):
            self.dropped_states = tuple(sorted(state_set - reachable))
        states = sorted(found)

        labels = {q: frozenset(labels.get(q, ())) for q in states}
        obs = {a: frozenset(pa) for a, pa in obs.items()}
        rows = {q: tuple(sorted(succ[q])) for q in states}
        self._fill(tuple(states), q0, rows, atoms, labels, obs)
        self.names = {q: names[q] for q in states if names and q in names}

    def _fill(self, states, q0, succ, atoms, labels, obs):
        """Set the fields every system has, as given: sorted successor
        tuples, frozenset labels and observable sets."""
        self.states, self.q0, self._succ = states, q0, succ
        self.atoms, self.labels, self.obs = atoms, labels, obs
        self.agents = tuple(sorted(obs))

    def _derive(self, n, succ, atoms, labels, obs):
        """Fill a derived system, whose states 0..n-1 are all reachable from
        0 and whose rows are sorted, with no sorting or reachability pass;
        `_check_shape` still runs on the rows."""
        states = tuple(range(n))
        _check_shape(set(states), 0, succ, atoms, labels, obs)
        self._fill(states, 0, succ, atoms, labels, obs)

    def successors(self, q):
        return self._succ[q]

    @cached_property
    def delta(self):
        """The transitions as a set of (from, to) pairs."""
        succ = self._succ
        return frozenset([(q, r) for q in self.states for r in succ[q]])

    def label(self, q):
        return self.labels[q]

    def obs_label(self, q, agent):
        """The atoms of q visible to the agent."""
        return self.labels[q] & self.obs[agent]

    def outdeg(self, q):
        return len(self._succ[q])

    def deadlocks(self):
        return tuple(q for q in self.states if not self._succ[q])

    def state_name(self, q):
        return self.names.get(q, str(q))

    def __len__(self):
        return len(self.states)

    def __repr__(self):
        return f"MultiAgentSystem({len(self.states)} states, q0={self.q0})"


def _check_shape(states, q0, succ, atoms, labels, obs, edges=None):
    """Reject an initial state outside the set `states`, an atom outside
    `atoms` in a label or an observable set, and a transition end outside
    `states`.  `succ` maps states to their successors.  All labels and
    observable sets go through one subset test (`_check_atoms`) and all
    rows through one; only a failure walks `edges` (by default the rows'
    edges in order) to name the first bad one."""
    if _bad_id(q0) or q0 not in states:
        raise SystemFormatError(f"initial state {q0} is not a state")
    _check_atoms(atoms, labels, obs)
    if states.issuperset(succ) and states.issuperset(chain.from_iterable(succ.values())):
        return
    for q, r in edges or ((q, r) for q, rs in succ.items() for r in rs):
        if q not in states or r not in states:
            raise SystemFormatError(f"transition ({q},{r}) uses unknown state")


def _check_atoms(atoms, labels, obs):
    """Reject an atom outside `atoms` in a label or an observable set: one
    subset test of all of them, and only a failure walks the sets in order
    to name the first such atom."""
    sets = (*labels.values(), *obs.values())
    if atoms.issuperset(chain.from_iterable(sets)):
        return
    for lab in sets:
        if not atoms.issuperset(lab):
            raise UnknownAtom(next(p for p in lab if p not in atoms))


# ---------------------------------------------------------------------------
# File format


def parse_system(text):
    """Parse the JSON .mas format into a validated system."""
    data = _load_json(text)
    return system_from_dict(data)


def _load_json(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise SystemFormatError(f"not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise SystemFormatError("top-level value must be an object")
    return data


def _entry_list(value, field):
    """value, if it is a list; SystemFormatError naming the field if not."""
    if not isinstance(value, (list, tuple)):
        raise SystemFormatError(f"{field} is not a list: {value!r}")
    return value


def _string_list(value, field):
    """value, if it is a list of strings (atom names); SystemFormatError
    naming the field if not: a string would be read letter by letter."""
    if not isinstance(value, (list, tuple)) or not all(isinstance(x, str) for x in value):
        raise SystemFormatError(f"{field} is not a list of strings: {value!r}")
    return value


def _agent_obs(agents):
    """Agent name -> observable atoms, from the "agents" object of a system
    or game file; a shape that is not an object of objects with lists of
    strings raises SystemFormatError naming it."""
    if not isinstance(agents, dict):
        raise SystemFormatError(f"'agents' is not an object: {agents!r}")
    for a, spec in agents.items():
        if not isinstance(spec, dict):
            raise SystemFormatError(f"agent {a!r} has a spec that is not an object: {spec!r}")
    return {
        a: _string_list(spec.get("obs", []), f"agent {a!r}: 'obs'")
        for a, spec in agents.items()
    }


_ID_KINDS = {int: "", str: "", bool: "a boolean", float: "a float", type(None): "null"}
# Bulk checks compare the set of an input list's item types (`_kinds`)
# with one of these; only a failure walks the list item by item.
_ID_TYPES, _STR = frozenset([int, str]), frozenset([str])
_LIST, _DICT = frozenset([list]), frozenset([dict])
_FIRST, _LAST = itemgetter(0), itemgetter(-1)


def _kinds(values):
    return set(map(type, values))


def _bad_id(q):
    """What keeps q from being a state id, or "" if nothing does: ids are
    ints and strings, and a boolean or a float would be taken for the int
    it equals."""
    return _ID_KINDS.get(type(q), "a list or an object")


def _state_entries(entries, keys=("id",)):
    """States, atom labels and names from the "states" list of a system or
    game file.  A value that is not a list, an entry that is not an object
    with each of `keys`, an id that is no int or string (see _bad_id), that
    an earlier entry has or that is not of the first id's type (ints and
    strings do not sort together), atoms that are not a list of strings or
    a name that is not a string raise SystemFormatError naming it.  A list
    of plain objects passes in bulk; any other walks the entries in order
    to name the first bad one."""
    entries = _entry_list(entries, "'states'")
    if _kinds(entries) <= _DICT and all(
        all(map(dict.__contains__, entries, repeat(key))) for key in keys
    ):
        try:
            labels = {entry["id"]: entry.get("atoms", []) for entry in entries}
        except TypeError:  # an unhashable id: the walk names it
            labels = {}
        kinds = _kinds(labels)
        if (
            len(labels) == len(entries) and len(kinds) < 2 and kinds <= _ID_TYPES
            and _kinds(labels.values()) <= _LIST
            and _kinds(chain.from_iterable(labels.values())) <= _STR
        ):
            names = {entry["id"]: entry["name"] for entry in entries if "name" in entry}
            if _kinds(names.values()) <= _STR:
                return list(labels), labels, names
    states, labels, names = [], {}, {}
    for entry in entries:
        for key in keys:
            if not isinstance(entry, dict) or key not in entry:
                raise SystemFormatError(f"state {entry!r} has no {key!r}")
        q = entry["id"]
        why = _bad_id(q)
        if why:
            raise SystemFormatError(f"state {entry!r}: its id is {why}")
        if q in labels:
            raise SystemFormatError(f"state {entry!r}: an earlier state has its id")
        if states and type(q) is not type(states[0]):
            raise SystemFormatError(f"state {entry!r}: its id does not sort with {states[0]!r}")
        states.append(q)
        labels[q] = _string_list(entry.get("atoms", []), f"state {q!r}: 'atoms'")
        if "name" in entry:
            names[q] = entry["name"]
            if not isinstance(names[q], str):
                raise SystemFormatError(f"state {q!r}: 'name' is not a string: {names[q]!r}")
    return states, labels, names


def _check_ends(kind, t):
    """A transition (or action label) t whose first or last element is no
    state id (see _bad_id) raises SystemFormatError."""
    why = _bad_id(t[0]) or _bad_id(t[-1])
    if why:
        raise SystemFormatError(f"{kind} {t!r} uses {why} as a state")


def _plain_edges(edges, width):
    """Whether every item of edges is a list of `width` items whose first
    and last are state ids: the bulk test of a transition or label list,
    which walks its items to name a bad one only when this fails."""
    if not (_kinds(edges) <= _LIST and set(map(len, edges)) <= {width}):
        return False
    ends = chain.from_iterable(edges) if width == 2 else chain(map(_FIRST, edges), map(_LAST, edges))
    return _kinds(ends) <= _ID_TYPES


def system_from_dict(data):
    for key in ("states", "initial", "transitions", "atoms", "agents"):
        if key not in data:
            raise SystemFormatError(f"missing key {key!r}")
    states, labels, names = _state_entries(data["states"])
    transitions = _entry_list(data["transitions"], "'transitions'")
    if not _plain_edges(transitions, 2):
        for t in transitions:
            if not isinstance(t, (list, tuple)) or len(t) != 2:
                raise SystemFormatError(f"transition {t!r} is not a pair [from, to]")
            _check_ends("transition", t)
    return MultiAgentSystem(
        states=states,
        q0=data["initial"],
        delta=list(map(tuple, transitions)),
        atoms=_string_list(data["atoms"], "'atoms'"),
        labels=labels,
        obs=_agent_obs(data["agents"]),
        names=names,
    )


def system_to_dict(m):
    out = {
        "states": [
            {"id": q, "atoms": sorted(m.labels[q])}
            | ({"name": m.names[q]} if q in m.names else {})
            for q in m.states
        ],
        "initial": m.q0,
        # states and successor rows are sorted: this is sorted(m.delta)
        "transitions": [[q, r] for q in m.states for r in m._succ[q]],
        "atoms": sorted(m.atoms),
        "agents": {a: {"obs": sorted(m.obs[a])} for a in m.agents},
    }
    return out


def system_to_json(m):
    return json.dumps(system_to_dict(m), indent=2, sort_keys=False)


def to_dot(m):
    lines = ["digraph mas {"]
    for q in m.states:
        atoms = ",".join(sorted(m.labels[q]))
        label = f"{m.state_name(q)} | {{{atoms}}}".replace("\\", "\\\\").replace('"', '\\"')
        shape = ' shape="doublecircle"' if q == m.q0 else ""
        lines.append(f'  n{q} [label="{label}"{shape}];')
    for q in m.states:
        lines.extend([f"  n{q} -> n{r};" for r in m._succ[q]])
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# In-splittings


class Finding(FrozenRecord):
    """The answer of a yes/no check: `ok`, and when it is False the
    `condition` that failed and a `witness` of it.  True iff ok."""

    __slots__ = _fields = ("ok", "condition", "witness")

    def __init__(self, ok, condition="", witness=None):
        _set(self, "ok", ok)
        _set(self, "condition", condition)
        _set(self, "witness", witness)

    def __bool__(self):
        return self.ok


class InSplitting:
    """A surjective state map fine -> coarse subject to the four in-splitting
    conditions (checked by verify_in_splitting, not at construction)."""

    def __init__(self, source, target, chi):
        self.source = source  # fine system
        self.target = target  # coarse system
        self.chi = dict(chi)

    def pullback(self, coarse_set):
        """chi^{-1}; a boolean-algebra homomorphism on state sets."""
        S = set(coarse_set)
        return frozenset(q for q in self.source.states if self.chi[q] in S)

    def __repr__(self):
        return (
            f"InSplitting({len(self.source)} states -> {len(self.target)} states)"
        )


def verify_in_splitting(s):
    """Check the four defining conditions; report the first violation."""
    fine, coarse, chi = s.source, s.target, s.chi
    for q in fine.states:
        if q not in chi or chi[q] not in coarse.states:
            return Finding(False, "map", q)
    if set(chi.values()) != set(coarse.states):
        missing = sorted(set(coarse.states) - set(chi.values()))
        return Finding(False, "surjectivity", missing[0])
    for q, r in fine.delta:
        if (chi[q], chi[r]) not in coarse.delta:
            return Finding(False, "transitions-forward", (q, r))
    images = {(chi[q], chi[r]) for q, r in fine.delta}
    for e in coarse.delta:
        if e not in images:
            return Finding(False, "transitions-preimage", e)
    for q in fine.states:
        if coarse.label(chi[q]) != fine.label(q):
            return Finding(False, "labels", q)
    for q in fine.states:
        if coarse.outdeg(chi[q]) != fine.outdeg(q):
            return Finding(False, "outdegree", q)
    if chi[fine.q0] != coarse.q0:
        return Finding(False, "initial", fine.q0)
    return Finding(True)


# ---------------------------------------------------------------------------
# Depth-bounded unfoldings


class TreePrefix:
    """All runs of length <= depth, as tuples of states starting at q0.

    Same-depth nodes are indistinguishable for an agent iff their per-step
    observation signatures coincide.
    """

    def __init__(self, system, depth, cap=DEFAULT_CAP):
        self.system = system
        self.depth = depth
        by_depth = [[(system.q0,)]]
        count = 1
        for _ in range(depth):
            level = []
            for run in by_depth[-1]:
                for r in system.successors(run[-1]):
                    level.append(run + (r,))
                    count += 1
                    if count > cap:
                        raise CapacityExceeded(count, cap, "tree prefix expansion")
            by_depth.append(level)
        self.by_depth = by_depth
        self.nodes = [run for level in by_depth for run in level]
        self._class_cache = {}

    def signature(self, run, agent):
        m = self.system
        return tuple(m.obs_label(q, agent) for q in run)

    def sim_classes(self, agent, depth):
        """Partition of the depth-d level into indistinguishability classes;
        UnknownAgent if the system does not declare the agent."""
        key = (agent, depth)
        if key not in self._class_cache:
            if agent not in self.system.obs:
                raise UnknownAgent(agent)
            classes = {}
            for run in self.by_depth[depth]:
                classes.setdefault(self.signature(run, agent), []).append(run)
            self._class_cache[key] = classes
        return self._class_cache[key]


class GammaRelation(FrozenRecord):
    """The knowledge-transfer relation of an agent on a system, as pairs
    (q, r): every run to q has an indistinguishable run to r.  Built by
    `epmu.distinction` and, from runs, by `epmu.oracle`."""

    __slots__ = _fields = ("agent", "system", "pairs")

    def __init__(self, agent, system, pairs):
        _set(self, "agent", agent)
        _set(self, "system", system)
        _set(self, "pairs", pairs)

    def __contains__(self, pair):
        return pair in self.pairs


def bounded_unfold(m, depth, cap=DEFAULT_CAP):
    return TreePrefix(m, depth, cap=cap)
