"""Stack-sorting for words.

Two single-pass sorting operators act on words over the positive integers,
differing only in whether equal letters may stack on each other.  The package
computes their action (three interchangeable ways), their sorting distances,
exact preimage counts through hook configurations on word plots, sortable-word
counts from recurrences, and runs the exhaustive experiments that probe how
the two operators compare.
"""

from .counting import (
    FIBONACCI_TREE,
    GenTreeSpec,
    brute_count_avoiders,
    count_fast_sortable,
    count_slow_sortable,
    count_t_sortable,
    fuss_catalan,
    generating_tree_level_counts,
    uniform_avoider_tree,
)
from .experiments import (
    CensusResult,
    distance_census,
    fertility_demo,
    find_exceptional,
    gap_census,
    scan_conjectures,
    verify_exceptional_pattern_claim,
)
from .hooks import (
    Hook,
    HookConfig,
    VhcFilter,
    brute_preimages,
    build_preimage_trees,
    catalan,
    catalan_product,
    color_classes,
    count_preimages,
    count_preimages_vhc,
    descent_tops,
    enumerate_vhc,
    in_order_preimages,
    induced_coloring,
    induced_composition,
    is_valid_config,
    spawn_tuples,
)
from .sorting import (
    SortVariant,
    collapse_letters,
    distance,
    distance_bound,
    exceptional_family,
    fertility_witness,
    sort_fast,
    sort_permutation,
    sort_slow,
    sort_via_stack,
    standardize_ascending,
    standardize_descending,
    worst_case_word,
)
from .trees import (
    PlaneTree,
    TreeClass,
    in_class,
    in_order,
    postorder,
    sort_via_trees,
    tree_class_for,
    tree_from_text,
    tree_to_text,
    word_to_tree,
)
from .words import (
    ContentVector,
    DomainError,
    InvariantError,
    Pattern,
    SizeLimitError,
    Word,
    contains_pattern,
    content,
    enumerate_normalized,
    enumerate_words,
    format_word,
    identity,
    is_normalized,
    normalized_count,
    parse_word,
    positive_compositions,
    word_space_size,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
