"""Model checking for the epistemic mu-calculus with synchronous perfect
recall, restricted to the decidable non-mixing fragment, plus brute-force
oracles and instance translators."""

from .checker import Verdict, check, check_with_sets, eval_state_naive
from .distinction import (
    DistinctionSystem,
    GammaRelation,
    closed_form_gamma,
    compute_gamma,
    distinction,
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
from .oracle import (
    eval_tree,
    gamma_by_runs,
    parity_oracle,
    reachability_strategy_oracle,
)
from .syntree import build_syntree, check_non_mixing, frontier_nodes
from .system import (
    DEFAULT_CAP,
    InSplitting,
    MultiAgentSystem,
    TreePrefix,
    bounded_unfold,
    compose_insplitting,
    identity_insplitting,
    parse_system,
    system_to_dict,
    system_to_json,
    to_dot,
    validate_serial,
    verify_in_splitting,
)
from .translate import (
    LabeledSystem,
    ParityGame,
    atl_until_instance,
    coalition_next,
    compile_modal,
    parity_encoding,
    parse_labeled_system,
    parse_parity_game,
)

__version__ = "0.1.0"
