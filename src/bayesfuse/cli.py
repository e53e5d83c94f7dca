"""Command-line front end.

Subcommands::

    posterior   combine a prior and a likelihood file into a posterior
    loss        maximum information loss of a candidate posterior
    verify      brute-force simplex search confirming the closed form
    smooth      convolve a distribution with a uniform kernel
    compat      overlap mass and compatibility of a pair
    mlr         likelihood-ratio profile and spread of a candidate

Reports are line-oriented ``key = value`` text, or a JSON object with
``--json``.  Scalars are serialized at 17 significant digits so every
reported number re-parses to the library's value bit for bit; in JSON,
non-finite values are the strings ``"inf"``, ``"-inf"`` and ``"nan"``.

``main`` owns what every subcommand shares.  It reads each input file
once, in argv order, reports its path and SHA-256, and parses those
bytes.  It then calls the subcommand's ``cmd_*`` handler, which checks
only which flags go together, leaving each flag's range to the library
code that uses it, and adds its results.  Last, it emits the report; and
it maps each error, raised once where it is detected, to an exit code by
its type.  So an unreadable input is reported before a bad flag.

numpy is imported only by the brute-force oracles: ``verify`` and
``loss --exhaustive``.  ``compat``, ``posterior``, ``loss``, ``mlr`` and
``smooth`` run on the standard library alone, on every file kind.  Each
handler imports the library modules it calls, so ``--help`` and a usage
error load only ``bayesfuse``, this module and ``bayesfuse.errors``, and
neither ``hashlib`` nor ``json``.  Past argument parsing, a call runs with
the cyclic garbage collector off, and ``main`` restores its state on return.
``verify`` takes ``--w0`` and ``--wL`` only with ``--objective weighted``;
with another objective they are an argument error.

Exit codes: 0 success (for ``verify``: the argmin is within ``n/K`` of the
closed form), 1 verification failure, 2 unreadable or malformed input file or
argument (including a forced ``smooth`` extent that misses the mass, a
``smooth`` window, extent or output mass past the float range, and a family
file whose grid has more than ``10**7`` cells), 3 incompatible or
representation-mismatched pair (including an overlap past the float range, and,
for ``posterior``, ``mlr`` and ``verify``, a joint product that underflows to a
subnormal number, for ``posterior`` a grid posterior whose total, densities or
cell masses do, and for ``mlr`` a ratio that overflows), 4 degenerate weighted
product, 5 enumeration budget exceeded (including a ``smooth`` output grid of
more than ``10**7`` cells), 6 smoothing resolution does not divide the window,
7 candidate mass off the joint support, 8 numpy missing for ``verify`` or
``loss --exhaustive`` (install the ``oracles`` extra).
"""

from __future__ import annotations

import argparse
import gc
import math
import re
import sys
import time

from .errors import (
    BadResolutionError,
    BayesfuseError,
    DegenerateProductError,
    FileFormatError,
    IncompatibleError,
    InsufficientCoverageError,
    InvalidArgumentError,
    MissingDependencyError,
    NonFiniteError,
    RepresentationMismatchError,
    TooLargeError,
    UnsupportedMassError,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_INCOMPATIBLE = 3
EXIT_DEGENERATE = 4
EXIT_TOO_LARGE = 5
EXIT_BAD_RESOLUTION = 6
EXIT_UNSUPPORTED_MASS = 7
EXIT_MISSING_DEPENDENCY = 8

_ERROR_EXITS = (
    (FileFormatError, EXIT_PARSE),
    (InvalidArgumentError, EXIT_PARSE),
    (InsufficientCoverageError, EXIT_PARSE),
    (NonFiniteError, EXIT_PARSE),
    (IncompatibleError, EXIT_INCOMPATIBLE),
    (RepresentationMismatchError, EXIT_INCOMPATIBLE),
    (DegenerateProductError, EXIT_DEGENERATE),
    (TooLargeError, EXIT_TOO_LARGE),
    (BadResolutionError, EXIT_BAD_RESOLUTION),
    (UnsupportedMassError, EXIT_UNSUPPORTED_MASS),
    (MissingDependencyError, EXIT_MISSING_DEPENDENCY),
    (OSError, EXIT_PARSE),
)


def fmt17(value) -> str:
    """17-significant-digit rendering; round-trips any finite float exactly."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _json_value(value):
    """JSON has no infinities or NaN; report them as "inf", "-inf" or "nan"."""
    if isinstance(value, float) and not math.isfinite(value):
        return fmt17(value)
    return value


class Report:
    """Ordered key/value collector emitted as text lines or one JSON object."""

    def __init__(self, command: str) -> None:
        self.items: list[tuple[str, object]] = [("command", command)]
        self.started = time.perf_counter()

    def add(self, key: str, value) -> None:
        self.items.append((key, value))

    def add_input(self, role: str, path: str):
        """Read an input file once; report its path and hash, then parse those bytes."""
        import hashlib
        from pathlib import Path

        from .fileio import load_distribution

        data = Path(path).read_bytes()
        self.items.append((f"{role}_file", path))
        self.items.append((f"{role}_sha256", hashlib.sha256(data).hexdigest()))
        return load_distribution(path, data)

    def emit(self, as_json: bool) -> None:
        self.add("elapsed_seconds", time.perf_counter() - self.started)
        # One write: unbuffered, each write is a system call.
        if as_json:
            import json

            text = json.dumps({key: _json_value(v) for key, v in self.items}, indent=2) + "\n"
        else:
            text = "".join(f"{key} = {fmt17(value)}\n" for key, value in self.items)
        sys.stdout.write(text)


def _add_distribution(report: Report, prefix: str, dist) -> None:
    from .dists import DiscreteDist

    if isinstance(dist, DiscreteDist):
        report.add(f"{prefix}_kind", "discrete")
        for key, mass in dist.atoms:
            report.add(f"{prefix}_atom_{key}", mass)
    else:
        report.add(f"{prefix}_kind", "grid")
        report.add(f"{prefix}_origin", dist.origin)
        report.add(f"{prefix}_delta", dist.delta)
        report.add(f"{prefix}_cells", dist.n_cells)


def _add_weights(report: Report, weights: tuple[float, float] | None) -> None:
    if weights is not None:
        report.add("w0", weights[0])
        report.add("wL", weights[1])


def _witness_text(event) -> str:
    from .dists import _ascending

    return ",".join(_ascending(map(str, event.members)))


def _weights(args) -> tuple[float, float] | None:
    if args.w0 is None and args.wL is None:
        return None
    if args.w0 is None or args.wL is None:
        raise InvalidArgumentError("--w0 and --wL must be given together")
    return args.w0, args.wL


def cmd_posterior(report: Report, args, prior, likelihood) -> int:
    from .combine import _align, _exponents, _product
    from .fileio import save_distribution

    weights = _weights(args)
    a, b = _exponents(*weights) if weights else (1.0, 1.0)
    # One alignment gives the overlap, the posterior and max_loss's bound.
    aligned = _align(prior, likelihood)
    report.add("overlap_mass", aligned.overlap)
    posterior = _product(prior, aligned, a, b)
    _add_weights(report, weights)
    report.add("rule", "bayes" if a == b else "weighted")
    report.add("loss_lower_bound_bits", aligned.bound(1.0, 1.0))
    _add_distribution(report, "posterior", posterior)
    if args.out:
        save_distribution(posterior, args.out)
        report.add("out_file", args.out)
    return EXIT_OK


def cmd_loss(report: Report, args, posterior, prior, likelihood) -> int:
    from .information import max_loss, max_loss_exhaustive

    weights = _weights(args)
    report.add("objective", "shannon" if weights is None else "weighted")
    _add_weights(report, weights)
    runner = max_loss_exhaustive if args.exhaustive else max_loss
    result = runner(posterior, prior, likelihood, *(weights or ()))
    report.add("method", "exhaustive" if args.exhaustive else "singleton")
    report.add("value_bits", result.value)
    report.add("witness", _witness_text(result.witness))
    report.add("lower_bound_bits", result.lower_bound)
    report.add("attained", result.attained)
    return EXIT_OK


def cmd_verify(report: Report, args, prior, likelihood) -> int:
    from .combine import _align, bayes_posterior, weighted_posterior
    from .dists import linf_distance
    from .search import default_resolution, minimize_max_loss, minimize_mlr_spread

    # The scan, its cross-check and the closed form align the pair again on
    # their own: they are the independent oracles this command compares.
    n = len(_align(prior, likelihood).require_compatible().labels)
    K = args.K if args.K is not None else default_resolution(n)
    weights = _weights(args)
    if args.objective == "weighted" and weights is None:
        raise InvalidArgumentError("--objective weighted needs --w0 and --wL")
    if args.objective != "weighted" and weights is not None:
        raise InvalidArgumentError("--w0 and --wL need --objective weighted")
    report.add("objective", args.objective)
    report.add("K", K)
    report.add("n", n)
    _add_weights(report, weights)
    minimize = minimize_mlr_spread if args.objective == "mlr" else minimize_max_loss
    started = time.perf_counter()
    result = minimize(prior, likelihood, K, *(weights or ()))
    scan_seconds = time.perf_counter() - started
    if weights is None:
        closed_form = bayes_posterior(prior, likelihood)
    else:
        closed_form = weighted_posterior(prior, likelihood, *weights)
    distance = linf_distance(result.argmin, closed_form)
    threshold = n / K
    report.add("evaluated_count", result.evaluated_count)
    report.add("scan_seconds", scan_seconds)
    report.add("points_per_second", result.evaluated_count / scan_seconds)
    report.add("min_value_bits", result.min_value)
    report.add("runner_up_bits", result.runner_up_value)
    _add_distribution(report, "argmin", result.argmin)
    _add_distribution(report, "closed_form", closed_form)
    report.add("linf_distance", distance)
    report.add("threshold", threshold)
    passed = distance <= threshold
    report.add("pass", passed)
    return EXIT_OK if passed else EXIT_FAIL


def cmd_smooth(report: Report, args, dist) -> int:
    from .dists import smooth_uniform
    from .fileio import save_distribution

    smoothed = smooth_uniform(
        dist,
        args.epsilon,
        args.delta,
        origin=args.origin,
        cells=args.cells,
    )
    save_distribution(smoothed, args.out)
    report.add("epsilon", float(args.epsilon))
    report.add("delta", float(args.delta))
    report.add("origin", smoothed.origin)
    report.add("cells", smoothed.n_cells)
    report.add("total_mass", smoothed.total_mass())
    report.add("out_file", args.out)
    return EXIT_OK


def cmd_compat(report: Report, args, prior, likelihood) -> int:
    from .combine import check_compatible

    result = check_compatible(prior, likelihood)
    report.add("compatible", result.compatible)
    report.add("overlap_mass", result.overlap_mass)
    return EXIT_OK


def cmd_mlr(report: Report, args, candidate, prior, likelihood) -> int:
    from .ratios import ratio_profile

    profile = ratio_profile(candidate, prior, likelihood)
    for key, ratio in profile.entries:
        report.add(f"ratio_{key}", ratio)
    report.add("spread", profile.spread)
    return EXIT_OK


def _add_weight_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--w0", type=float, help="prior weight (positive)")
    parser.add_argument("--wL", type=float, help="likelihood weight (positive)")


def _inputs(parser: argparse.ArgumentParser, handler, *roles: str) -> None:
    """Declare the input files that ``main`` reads, in this order, for ``handler``."""
    for role in roles:
        parser.add_argument(role)
    parser.set_defaults(handler=handler, roles=roles)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayesfuse",
        description="Combine prior and likelihood distributions into posteriors "
        "and verify their information-loss optimality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("posterior", help="combine two distribution files")
    _inputs(p, cmd_posterior, "prior", "likelihood")
    _add_weight_flags(p)
    p.add_argument("--out", help="write the posterior to this file")

    p = sub.add_parser("loss", help="maximum information loss of a candidate posterior")
    _inputs(p, cmd_loss, "posterior", "prior", "likelihood")
    _add_weight_flags(p)
    p.add_argument(
        "--exhaustive",
        action="store_true",
        help="enumerate all events instead of the singleton reduction (<= 20 atoms)",
    )

    p = sub.add_parser("verify", help="brute-force search confirming the closed form")
    _inputs(p, cmd_verify, "prior", "likelihood")
    p.add_argument(
        "--objective",
        choices=("shannon", "weighted", "mlr"),
        default="shannon",
    )
    p.add_argument("--K", type=int, help="simplex grid resolution (default by size)")
    _add_weight_flags(p)

    p = sub.add_parser("smooth", help="convolve with a uniform(-epsilon, epsilon) kernel")
    # argparse's own pattern has no exponent, so it would take --origin -1e1
    # for an option; smooth has no option that looks like a number.
    p._negative_number_matcher = re.compile(
        r"^-(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?$"
    )
    _inputs(p, cmd_smooth, "input")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True, help="output cell width")
    p.add_argument("--origin", type=float, help="force the output grid origin")
    p.add_argument("--cells", type=int, help="force the output cell count")
    p.add_argument("--out", required=True)

    p = sub.add_parser("compat", help="overlap mass and compatibility of a pair")
    _inputs(p, cmd_compat, "prior", "likelihood")

    p = sub.add_parser("mlr", help="likelihood-ratio profile of a candidate posterior")
    _inputs(p, cmd_mlr, "candidate", "prior", "likelihood")

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    report = Report(args.command)
    # A call makes tens of thousands of lists and tuples that are in no
    # reference cycle: the cyclic collector would only rescan them.
    collecting = gc.isenabled()
    gc.disable()
    try:
        inputs = [report.add_input(role, getattr(args, role)) for role in args.roles]
        code = args.handler(report, args, *inputs)
        report.emit(args.json)
        return code
    except (BayesfuseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for kind, code in _ERROR_EXITS if isinstance(exc, kind)), EXIT_FAIL)
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
