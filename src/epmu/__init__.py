"""Model checking for the epistemic mu-calculus with synchronous perfect
recall, restricted to the decidable non-mixing fragment.

The package exports the checker side.  The reference definitions (Γ as
pairs, in-splittings, tree prefixes), the brute-force oracles
(`epmu.oracle`) and the instance translators (`epmu.translate`) are
imported from their modules; a check never loads the last two."""

from .checker import Verdict, check, check_with_sets, eval_state_naive
from .distinction import DistinctionSystem, distinction, insplitting, refine_for_agents
from .errors import (
    CapacityExceeded,
    DepthInsufficient,
    EpmuError,
    FormulaSyntaxError,
    FormulaTooDeep,
    FragmentRejected,
    MonotonicityViolated,
    NonChainAgents,
    NonMonotoneVariable,
    SystemFormatError,
    UnknownAgent,
    UnknownAtom,
    UnsupportedCoalition,
)
from .formula import parse_formula, pretty, to_positive_form
from .syntree import build_syntree, check_non_mixing
from .system import (
    DEFAULT_CAP,
    MultiAgentSystem,
    parse_system,
    system_to_dict,
    system_to_json,
    to_dot,
)

__version__ = "0.1.0"
