"""Model checker for first-order logic under lax team semantics on finite
structures, with generalized dependency atoms, DED and U-sentence
validators, and a compiler from U-sentences to team formulas."""

from .errors import (BudgetExceededError, DependencyLookupError, DomainError,
                     FormulaSyntaxError, ValidationError)
from .structures import (Element, IdentityType, RelStructure, Relation,
                         Structure, Team, enumerate_relations,
                         enumerate_retraction_homs, extend_universal,
                         full_team, identity_type_of, is_substructure,
                         restrict_team, team_equiv_on, team_projection)
from .syntax import (DedSentence, Formula, USentence, free_vars,
                     hook_desugared, nnf_negate, parse_formula,
                     parse_fo_sentence, to_nnf, to_text, validate_ded,
                     validate_team_formula, validate_usentence)
from .tarski import tarski_eval, tarski_sentence
from .teameval import (DEFAULT_BUDGET, Evaluator, eval_builtin_atom,
                       eval_dep_atom, eval_sentence, team_eval)
from .dependencies import (Dependency, Registry, Verdict, anonymity,
                           antisymmetry_egd, check_closure_properties,
                           check_domain_independence, check_hom_preservation,
                           check_union_chain_preservation, constancy,
                           ded_dependency, dep_class_sentence, dep_holds,
                           extensional_dependency, fo_dependency,
                           functional_dependency, inclusion, independence,
                           nonemptiness, search_hom_counterexample)
from .ulogic import (disjunction_translate, inline_dependency,
                     u_embedding_check, usentence_conjoin,
                     usentence_translate)
from .harness import (ChainInstance, ParityInstance, build_chain_instance,
                      build_parity_instance, chain_oracle,
                      check_semantic_equivalence, enumerate_instances,
                      enumerate_teams, even_cardinality_sentence,
                      fo_formula_corpus, hook_formula_corpus,
                      involution_oracle, parity_oracle, u_transfer_check)

__version__ = "0.1.0"
