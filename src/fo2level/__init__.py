"""Alternation-depth analysis of regular languages in two-variable logic.

Given a regular language (regex, DFA file, or a raw multiplication table),
the library computes its syntactic monoid and decides the least alternation
depth m at which the language is definable in two-variable first-order
logic over ordered positions, by two independent routes: the Mal'cev
quotient recursion for the R_m/L_m variety hierarchy, and omega-term
identity checking.  Ranker equivalence provides a third, brute-force
view used for cross-validation at desk scale (``least_oracle_n``).
"""

from .automata import (
    Dfa, Regex, RegexSyntaxError, DfaFormatError,
    parse_regex, regex_to_min_dfa, parse_dfa_file,
    minimize, all_words,
)
from .monoid import (
    FiniteMonoid, GreensData, MonoidFormatError, MonoidTooLargeError,
    transition_monoid, reverse_monoid, parse_monoid_file,
)
from .varieties import (
    Congruence, LevelResult, NotACongruenceError, InternalInconsistencyError,
    sim_k, sim_d, sim_li, quotient, quotient_chain,
    in_Rm, in_Lm, fo2_level, NOT_FO2,
)
from .identities import (
    Var, Prod, Omega, IdentityBudgetError, IdentityCheck,
    format_term, mirror, build_G, build_I, phi_of, phi_word,
    satisfies_identity, da_identity, in_Rm_by_identities,
    in_Lm_by_identities, identities_level, straubing_terms, check_straubing,
)
from .rankers import (
    Ranker, RankerSyntaxError, RankerBudgetError, RankerTable,
    parse_ranker, eval_ranker, is_condensed, least_oracle_n,
)

__version__ = "0.1.0"
