"""Exact-arithmetic symmetrized decomposable tensors over the rationals.

Vanishing (Gamas) and equality (da Cruz-Dias da Silva) of symmetrized
decomposable tensors, decided two independent ways: brute-force
group-algebra computation on sparse rational tensors, and the
combinatorial column-system conditions, cross-validated against each
other.
"""

__version__ = "0.1.0"

from .characters import (
    CharacterTable,
    character_table,
    character_table_oracle,
    hook_length_dimension,
    mn_character,
    young_permutation_character,
)
from .combinatorics import (
    DEFAULT_MAX_N,
    SizeLimitError,
    column_superstandard,
    column_system_of,
    compose,
    conjugate,
    cycle_type,
    enumerate_column_systems,
    enumerate_fillings,
    enumerate_partitions,
    enumerate_permutations,
    enumerate_standard,
    identity,
    inverse,
    iter_column_systems,
    iter_standard,
    sign,
)
from .decision import (
    EqualityVerdict,
    columns_independent,
    decide_equality,
    gamas_nonvanishing,
    gamas_standard,
)
from .group_algebra import (
    GroupAlgebraElement,
    column_antisymmetrizer,
    isotypic_projector,
    row_symmetrizer,
    sum_young_symmetrizers,
    young_symmetrizer,
)
from .linalg import (
    VectorFamily,
    determinant,
    is_independent,
    rank,
    span_equal,
    transition_scalar,
)
from .tensor import (
    SparseTensor,
    act,
    apply_element,
    decomposable,
    is_zero,
    isotypic_components,
    tensor_equal,
)
