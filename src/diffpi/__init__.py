"""Exact computation of differential identities, codimensions and
cocharacters of finite dimensional algebras with derivation actions."""

__version__ = "0.1.0"

from .algebra import (Algebra, AlgebraWithDerivations, Derivation,
                      DerivationAction, WedderburnData, builtin,
                      check_l_stability, direct_sum, inner_derivation,
                      make_action, radical, radical_powers,
                      split_derivation, wedderburn)
from .characters import (CocharacterTable, cocharacter, cycle_type_class_size,
                         hook_dimension, irr_char, module_trace, partitions,
                         support_violations)
from .codim import (DEFAULT_BUDGET, CodimResult, codim, codim_via_ideal,
                    consequences_cost, evaluate, evaluation_cost, is_identity)
from .errors import (BudgetExceeded, DiffPiError, DiffSyntaxError,
                     IntegrityError, InvariantViolation,
                     NonIntegerMultiplicity, NonSplit, NotMultilinear,
                     NotPolynomialGrowth, UnknownBuiltin, UnknownOperator)
from .freediff import (DiffMonomial, DiffPoly, OperatorBasis, apply_word,
                       consequences, derive_poly, format_diff_poly,
                       operator_basis, parse_diff_poly, sn_act,
                       validate_multilinear)
from .growth import (GrowthReport, block_sum_split, classify,
                     detect_ut2_pattern, exponent)
from .linalg import RowSpan, Scalar, coordinates, nullspace, solve

__all__ = [name for name in dir() if not name.startswith("_")]
