"""Workbench for dependence and independence logic under team semantics."""

from .formula import (And, Bot, BoolOr, Const, Dep, Eq, Exists, Exists1,
                      FOAtom, Forall, Forall1, Gen, Implies, Inc, Ind, NegEq,
                      NegFOAtom, SeqEq, SeqNeq, SplitOr, Top, Var, WNeg,
                      expand_sugar, fo_negate, free_names, free_vars,
                      is_first_order, sorted_free_vars)
from .parser import ParseError, parse_formula, print_formula
from .model import Model, ModelError, Signature, enumerate_models, parse_model, print_model
from .team import (Team, TeamError, all_teams, duplicate, parse_team,
                   print_team, rel, restrict, sample_teams, supplement)
from .semantics import (BudgetExceeded, EvalBudget, EvalError, Evaluator,
                        eval_formula, eval_single)
from .genatom import (GeneralizedAtomDef, complement, eval_direct, make_dep,
                      make_inc, make_ind, register_builtin_atoms,
                      sigma_pi_translate)

__version__ = "0.1.0"
