"""Stack-sorting for words.

Two single-pass sorting operators act on words over the positive integers,
differing only in whether equal letters may stack on each other.  The package
computes their action (three interchangeable ways), their sorting distances,
exact preimage counts through hook configurations on word plots, sortable-word
counts along generating trees, and runs the exhaustive experiments that probe how
the two operators compare.

`import stacksort` loads no submodule.  Each name below is imported from its
defining module on first access (PEP 562), so a command-line run pays only
for the modules it uses.  The name is looked up in that module on every
access, so `stacksort.<name>` is always the module's current attribute.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "counting": (
        "FIBONACCI_TREE",
        "GenTreeSpec",
        "brute_count_avoiders",
        "count_fast_sortable",
        "count_slow_sortable",
        "fuss_catalan",
        "generating_tree_level_counts",
        "uniform_avoider_tree",
    ),
    "experiments": (
        "CensusResult",
        "distance_census",
        "fertility_demo",
        "find_exceptional",
        "gap_census",
        "image_pair_counts",
        "scan_conjectures",
    ),
    "hooks": (
        "Hook",
        "HookConfig",
        "VhcFilter",
        "brute_preimages",
        "build_preimage_trees",
        "catalan",
        "catalan_product",
        "color_classes",
        "count_preimages",
        "count_preimages_vhc",
        "descent_tops",
        "enumerate_vhc",
        "in_order_preimages",
        "induced_coloring",
        "induced_composition",
        "is_valid_config",
    ),
    "sorting": (
        "SortVariant",
        "collapse_letters",
        "distance",
        "distance_bound",
        "exceptional_family",
        "fertility_witness",
        "sort_fast",
        "sort_permutation",
        "sort_slow",
        "sort_via_stack",
        "standardize_ascending",
        "standardize_descending",
        "worst_case_word",
    ),
    "trees": (
        "PlaneTree",
        "in_class",
        "in_order",
        "postorder",
        "sort_via_trees",
        "word_to_tree",
    ),
    "words": (
        "ContentVector",
        "DomainError",
        "InvariantError",
        "Pattern",
        "SizeLimitError",
        "Word",
        "contains_pattern",
        "content",
        "enumerate_normalized",
        "enumerate_words",
        "format_word",
        "identity",
        "is_normalized",
        "normalized_count",
        "parse_word",
        "positive_compositions",
        "word_space_size",
    ),
}

# name -> defining module; a submodule name maps to itself
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = _import_module(f"{__name__}.{module}")
    return loaded if name == module else getattr(loaded, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
