"""Noncommutative Groebner bases via the lattice of reduction operators."""

from .completion import (
    CompletionLimits,
    CompletionResult,
    CompletionStep,
    complete,
    normalisation,
)
from .fileformat import parse_presentation, serialize_presentation
from .linalg import (
    Polynomial,
    coordinate_subspace_intersection,
    reduced_basis,
)
from .presentation import (
    CriticalBranching,
    Presentation,
    critical_branchings,
    extension_apply,
    groebner_rules,
    is_confluent_presentation,
    normal_form,
    s_polynomial,
)
from .reduction import (
    ReductionOperator,
    complement,
    identity,
    is_confluent_family,
    join,
    ker_inv,
    kernel_basis,
    leq,
    meet,
    normal_form_words,
    obstructions,
    single_rule,
)
from .words import Alphabet, DegLexOrder, Word, factor_occurrences, overlaps

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "CompletionLimits",
    "CompletionResult",
    "CompletionStep",
    "CriticalBranching",
    "DegLexOrder",
    "Polynomial",
    "Presentation",
    "ReductionOperator",
    "Word",
    "complement",
    "complete",
    "coordinate_subspace_intersection",
    "critical_branchings",
    "extension_apply",
    "factor_occurrences",
    "groebner_rules",
    "identity",
    "is_confluent_family",
    "is_confluent_presentation",
    "join",
    "ker_inv",
    "kernel_basis",
    "leq",
    "meet",
    "normal_form",
    "normal_form_words",
    "normalisation",
    "obstructions",
    "overlaps",
    "parse_presentation",
    "reduced_basis",
    "s_polynomial",
    "serialize_presentation",
    "single_rule",
]
