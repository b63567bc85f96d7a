"""Exact Schubert calculus on G/P with the deformed cup product.

Importing the package loads none of its layers: each public name is
imported from its home module on first use and then kept here (PEP 562),
so a command or script pays only for the layers it touches.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the public names it defines (or, for BudgetError, re-exports)
_LAYERS = {
    "rootsystem": ("CartanType", "RootSystem", "build_root_system", "root_system"),
    "weyl": ("WeylGroup", "WeylElement", "Parabolic", "weyl_group", "parabolic",
             "BudgetError"),
    "schubert": ("SchubertBasis", "schubert_basis"),
    "deform": ("DeformedRing", "DeformedClass", "MovabilityCertificate", "DimensionError",
               "deformed_ring"),
    "invsets": ("inversion_product", "is_inversion_set", "crosscheck_gb", "CrossCheckReport"),
    "horn": ("HornCheck", "HornReport", "central_characters", "coset_codim",
             "dimension_tuples", "check_character", "check_refined", "check_dimension",
             "codim_difference_identity"),
    "eigencone": ("Inequality", "InequalitySystem", "generate_system", "prune_redundant",
                  "systems_equivalent", "dual_coweight"),
    "cones": ("cone_contains", "Verdict", "evaluate"),
    "golden": ("GoldenTable", "GoldenResult", "GOLDEN_NAMES", "verify_table", "verify_all"),
}
_HOMES = {name: home for home, names in _LAYERS.items() for name in names}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
