"""Model checking for the epistemic mu-calculus with synchronous perfect
recall, restricted to the decidable non-mixing fragment.

The package exports the checker side.  The brute-force oracles
(`epmu.oracle`) and the instance translators (`epmu.translate`) are
imported as modules of their own, so a check never loads them."""

from .checker import Verdict, check, check_with_sets, eval_state_naive
from .distinction import (
    DistinctionSystem,
    GammaRelation,
    closed_form_gamma,
    compute_gamma,
    distinction,
    insplitting,
    is_distinguished,
    know_op,
    poss_op,
    refine_for_agents,
)
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
from .formula import (
    dual,
    parse_formula,
    pretty,
    to_positive_form,
    unfold_fixpoint,
)
from .syntree import build_syntree, check_non_mixing, frontier_nodes
from .system import (
    DEFAULT_CAP,
    InSplitting,
    MultiAgentSystem,
    TreePrefix,
    bounded_unfold,
    parse_system,
    system_to_dict,
    system_to_json,
    to_dot,
    verify_in_splitting,
)

__version__ = "0.1.0"
