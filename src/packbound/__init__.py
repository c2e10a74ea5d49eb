"""Adaptive lower-bound laboratory for online bin packing variants.

The package generates adversarial inputs against pluggable deterministic
online algorithms for three settings (packing with the optimal cost known in
advance, square packing, class-constrained packing), builds and validates the
matching offline packings with exact rational arithmetic, and re-derives the
associated bound programs with an exact simplex and certified bisection.

The names below resolve lazily (PEP 562): ``import packbound`` runs no
submodule, and a name imports only the module that defines it.
"""

import importlib

__version__ = "0.1.0"

# each submodule and the names it exports
_MODULES = {
    "exact": "Exact PrecisionError decimal_str fraction_str power rat",
    "model": "Item Packing Placement VariantRules square_box squares_disjoint validate_packing",
    "oracle": "AdaptiveOracle OracleConfig Separator",
    "algorithms": "algorithm_ids fork_replay make_session register_algorithm",
    "optoracle": "OracleInstance min_bins",
    "mathprog": "bisect_min_r builtin_program builtin_program_ids check_certificate exact_threshold "
                "feasible_at ko_certificate_suite solve_min_r_exact",
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names.split()}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__():
    return [*globals(), *_EXPORTS]
