"""Exception hierarchy shared by all epmu modules."""


class EpmuError(Exception):
    """Base class for all errors raised by this package."""


class FormulaSyntaxError(EpmuError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class NonMonotoneVariable(EpmuError):
    """A bound variable occurs under an odd number of negations."""

    def __init__(self, var):
        self.var = var
        super().__init__(f"variable {var} occurs under an odd number of negations")


class UnknownAtom(EpmuError):
    def __init__(self, atom):
        self.atom = atom
        super().__init__(f"unknown atom: {atom}")


class UnknownAgent(EpmuError):
    def __init__(self, agent):
        self.agent = agent
        super().__init__(f"unknown agent: {agent}")


class SystemFormatError(EpmuError):
    """Malformed or inconsistent system description."""


class NonChainAgents(EpmuError):
    """Two agents whose observable-atom sets are not comparable by inclusion."""

    def __init__(self, agent_a, agent_b):
        self.agent_a = agent_a
        self.agent_b = agent_b
        super().__init__(
            f"observable sets of agents {agent_a} and {agent_b} are incomparable"
        )


class CapacityExceeded(EpmuError):
    def __init__(self, count, cap, context=""):
        self.count = count
        self.cap = cap
        suffix = f" during {context}" if context else ""
        super().__init__(f"state/node count {count} exceeds cap {cap}{suffix}")


class FragmentRejected(EpmuError):
    """The (system, formula) pair is outside the non-mixing fragment."""

    def __init__(self, witness):
        self.witness = witness  # FragmentWitness from epmu.syntree
        super().__init__(
            f"formula mixes observations of agents {witness.agent_a} and "
            f"{witness.agent_b} at node {witness.node_path}"
        )


class DepthInsufficient(EpmuError):
    def __init__(self, needed, available):
        self.needed = needed
        self.available = available
        super().__init__(
            f"tree prefix of depth {available} too shallow for modal depth {needed}"
        )


class MonotonicityViolated(EpmuError):
    """Internal bug guard: a fixpoint operand was observed to be non-monotone."""


class UnsupportedCoalition(EpmuError):
    def __init__(self, agents):
        self.agents = agents
        super().__init__(f"only singleton coalitions are supported, got {sorted(agents)}")


class FormulaTooDeep(EpmuError):
    """A formula nests deeper than a recursive phase can follow."""

    def __init__(self, phase):
        self.phase = phase  # parse | positive form | syntax tree | evaluation
        super().__init__(f"formula is nested too deeply for the {phase} phase")


def depth_guarded(phase, fn, *args):
    """fn(*args), with a RecursionError turned into FormulaTooDeep(phase)."""
    try:
        return fn(*args)
    except RecursionError:
        raise FormulaTooDeep(phase) from None
