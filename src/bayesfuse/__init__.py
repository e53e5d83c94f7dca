"""Combine prior and likelihood distributions into posteriors that minimize
Shannon-information loss, and verify the optimality claims by brute force.

Importing the package loads none of its modules.  Each public name and
each submodule is imported on first access, so a command that uses two
modules pays for two.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_PUBLIC = {
    "combine": (
        "CompatibilityReport",
        "bayes_posterior",
        "check_compatible",
        "joint_support",
        "linear_pool",
        "proportionality_check",
        "weighted_posterior",
    ),
    "dists": (
        "DiscreteDist",
        "DistFamily",
        "Distribution",
        "GridDensity",
        "canonical_key",
        "discretize",
        "linf_distance",
        "normalize",
        "smooth_uniform",
    ),
    "errors": (
        "AllZeroMassError",
        "BadResolutionError",
        "BayesfuseError",
        "CrossCheckError",
        "DegenerateProductError",
        "FileFormatError",
        "IncompatibleError",
        "InsufficientCoverageError",
        "InvalidArgumentError",
        "InvalidEventError",
        "MissingDependencyError",
        "NonFiniteError",
        "RepresentationMismatchError",
        "TooLargeError",
        "UnsupportedMassError",
    ),
    "fileio": ("load_distribution", "save_distribution"),
    "information": (
        "Event",
        "LossReport",
        "combined_info",
        "max_loss",
        "max_loss_exhaustive",
        "shannon_info",
    ),
    "ratios": ("RatioProfile", "ratio_profile"),
    "search": (
        "SearchResult",
        "default_resolution",
        "enumerate_simplex",
        "minimize_max_loss",
        "minimize_mlr_spread",
    ),
}
_SOURCE = {name: module for module, names in _PUBLIC.items() for name in names}
_SUBMODULES = {*_PUBLIC, "cli"}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name in _SOURCE:
        value = getattr(_import_module(f".{_SOURCE[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
