"""A type checker, evaluator, and GADT translator for a small dependent
language whose indexed data types select constructors by pattern matching
on the type's arguments."""

from .core import (
    BindPat,
    Clause,
    ConCall,
    ConPat,
    CtorRow,
    DataCall,
    DataDecl,
    FnCall,
    FuncDecl,
    ImpossiblePat,
    Lam,
    Pattern,
    Pi,
    Signature,
    Telescope,
    Term,
    Univ,
    UNIV,
    Var,
    VarCall,
    alpha_eq,
    free_vars,
    pretty,
    subst,
)
from .coverage import Undecidable, available_ctors, check_coverage
from .evaluator import Fuel, convertible, index_normal_form, normalize, whnf
from .frontend import Resolver, tokenize
from .pattern_ops import (
    Matched,
    Mismatch,
    Stuck,
    match_terms,
    to_term,
    to_terms,
)
from .translate import GeneralData, emit_general, synth_ctor_type, to_general
from .typecheck import Checked, TypeChecker, evaluate, load

__version__ = "0.1.0"
