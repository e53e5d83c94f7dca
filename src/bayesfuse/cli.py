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

numpy is imported only by the commands that do array work: discretizing
``family`` files, ``smooth``, ``verify`` and ``loss --exhaustive``.  On
discrete (and plain grid) files, ``compat``, ``posterior``, ``loss`` and
``mlr`` run on the standard library alone.

Exit codes: 0 success (for ``verify``: the argmin is within ``n/K`` of the
closed form), 1 verification failure, 2 unreadable or malformed input
file or argument (including a forced ``smooth`` extent that misses the
mass, and a ``smooth`` window or extent past the float range), 3
incompatible or representation-mismatched pair (including, for
``posterior``, ``mlr`` and ``verify``, a joint product that underflows to
a subnormal number), 4 degenerate weighted product, 5 enumeration budget
exceeded (including a ``smooth`` output grid of more than ``10**7``
cells), 6 smoothing resolution does not divide the window, 7 candidate
mass off the joint support.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from decimal import Decimal
from functools import partial
from pathlib import Path

from .combine import (
    WeightedPair,
    _align,
    _product,
    bayes_posterior,
    check_compatible,
    weighted_posterior,
)
from .dists import DiscreteDist, Distribution, linf_distance, smooth_uniform
from .errors import (
    BadResolutionError,
    BayesfuseError,
    DegenerateProductError,
    FileFormatError,
    IncompatibleError,
    InsufficientCoverageError,
    NonFiniteError,
    RepresentationMismatchError,
    TooLargeError,
    UnsupportedMassError,
)
from .fileio import load_distribution, save_distribution
from .information import (
    Event,
    _weighted_bound,
    max_loss,
    max_loss_exhaustive,
    weighted_max_loss,
    weighted_max_loss_exhaustive,
)
from .ratios import ratio_profile
from .search import (
    default_resolution,
    minimize_max_loss,
    minimize_mlr_spread,
    minimize_weighted_loss,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_INCOMPATIBLE = 3
EXIT_DEGENERATE = 4
EXIT_TOO_LARGE = 5
EXIT_BAD_RESOLUTION = 6
EXIT_UNSUPPORTED_MASS = 7

_ERROR_EXITS = (
    (FileFormatError, EXIT_PARSE),
    (InsufficientCoverageError, EXIT_PARSE),
    (NonFiniteError, EXIT_PARSE),
    (IncompatibleError, EXIT_INCOMPATIBLE),
    (RepresentationMismatchError, EXIT_INCOMPATIBLE),
    (DegenerateProductError, EXIT_DEGENERATE),
    (TooLargeError, EXIT_TOO_LARGE),
    (BadResolutionError, EXIT_BAD_RESOLUTION),
    (UnsupportedMassError, EXIT_UNSUPPORTED_MASS),
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

    def add_input(self, role: str, path: str) -> Distribution:
        """Read an input file once; report its path and hash, then parse those bytes."""
        data = Path(path).read_bytes()
        self.items.append((f"{role}_file", path))
        self.items.append((f"{role}_sha256", hashlib.sha256(data).hexdigest()))
        try:
            return load_distribution(path, data)
        except FileFormatError:
            raise
        except BayesfuseError as exc:
            raise FileFormatError(f"{path}: {exc}") from exc

    def emit(self, as_json: bool, stream=None) -> None:
        stream = stream or sys.stdout
        elapsed = time.perf_counter() - self.started
        if as_json:
            payload = {key: _json_value(value) for key, value in self.items}
            payload["elapsed_seconds"] = elapsed
            json.dump(payload, stream, indent=2)
            stream.write("\n")
        else:
            for key, value in self.items:
                stream.write(f"{key} = {fmt17(value)}\n")
            stream.write(f"elapsed_seconds = {fmt17(elapsed)}\n")


def _add_distribution(report: Report, prefix: str, dist: Distribution) -> None:
    if isinstance(dist, DiscreteDist):
        report.add(f"{prefix}_kind", "discrete")
        for key, mass in dist.atoms:
            report.add(f"{prefix}_atom_{key}", mass)
    else:
        report.add(f"{prefix}_kind", "grid")
        report.add(f"{prefix}_origin", dist.origin)
        report.add(f"{prefix}_delta", dist.delta)
        report.add(f"{prefix}_cells", dist.n_cells)


def _witness_text(event: Event) -> str:
    members = list(event.members)
    if all(isinstance(m, int) for m in members):
        return ",".join(str(m) for m in sorted(members))
    return ",".join(sorted((str(m) for m in members), key=Decimal))


def _weights(args) -> tuple[float, float] | None:
    if args.w0 is None and args.wL is None:
        return None
    if args.w0 is None or args.wL is None:
        raise FileFormatError("--w0 and --wL must be given together")
    for flag, value in (("--w0", args.w0), ("--wL", args.wL)):
        if not (math.isfinite(value) and value > 0.0):
            raise FileFormatError(f"{flag} must be positive, got {value}")
    return float(args.w0), float(args.wL)


def cmd_posterior(args) -> int:
    report = Report("posterior")
    prior = report.add_input("prior", args.prior)
    likelihood = report.add_input("likelihood", args.likelihood)
    weights = _weights(args)
    # One alignment gives the overlap, the posterior and max_loss's bound.
    aligned = _align(prior, likelihood)
    report.add("overlap_mass", aligned.overlap)
    if weights is None or weights[0] == weights[1]:
        rule, a, b = "bayes", 1.0, 1.0
        aligned.require_compatible()
    else:
        rule = "weighted"
        a, b = WeightedPair(prior, likelihood, weights[0], weights[1]).exponents
    posterior = _product(prior, aligned, a, b)
    if weights is not None:
        report.add("w0", weights[0])
        report.add("wL", weights[1])
    report.add("rule", rule)
    u, v = aligned.require_compatible().cell_masses()
    report.add("loss_lower_bound_bits", _weighted_bound(u, v, 1.0, 1.0))
    _add_distribution(report, "posterior", posterior)
    if args.out:
        save_distribution(posterior, args.out)
        report.add("out_file", args.out)
    report.emit(args.json)
    return EXIT_OK


def cmd_loss(args) -> int:
    report = Report("loss")
    posterior = report.add_input("posterior", args.posterior)
    prior = report.add_input("prior", args.prior)
    likelihood = report.add_input("likelihood", args.likelihood)
    weights = _weights(args)
    if weights is None:
        report.add("objective", "shannon")
        runner = max_loss_exhaustive if args.exhaustive else max_loss
        result = runner(posterior, prior, likelihood)
    else:
        report.add("objective", "weighted")
        report.add("w0", weights[0])
        report.add("wL", weights[1])
        pair = WeightedPair(prior, likelihood, weights[0], weights[1])
        runner = weighted_max_loss_exhaustive if args.exhaustive else weighted_max_loss
        result = runner(posterior, pair)
    report.add("method", "exhaustive" if args.exhaustive else "singleton")
    report.add("value_bits", result.value)
    report.add("witness", _witness_text(result.witness))
    report.add("lower_bound_bits", result.lower_bound)
    report.add("attained", result.attained)
    report.emit(args.json)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.K is not None and args.K < 1:
        raise FileFormatError(f"--K must be at least 1, got {args.K}")
    report = Report("verify")
    prior = report.add_input("prior", args.prior)
    likelihood = report.add_input("likelihood", args.likelihood)
    if not isinstance(prior, DiscreteDist) or not isinstance(likelihood, DiscreteDist):
        raise RepresentationMismatchError("verify needs discrete inputs")
    # The scan, its cross-check and the closed form align the pair again on
    # their own: they are the independent oracles this command compares.
    n = len(_align(prior, likelihood).require_compatible().labels)
    K = args.K if args.K is not None else default_resolution(n)
    weights = _weights(args)
    report.add("objective", args.objective)
    report.add("K", K)
    report.add("n", n)
    if args.objective == "weighted":
        if weights is None:
            raise FileFormatError("--objective weighted needs --w0 and --wL")
        pair = WeightedPair(prior, likelihood, weights[0], weights[1])
        report.add("w0", weights[0])
        report.add("wL", weights[1])
        scan = partial(minimize_weighted_loss, pair)
        rule = partial(weighted_posterior, pair)
    else:
        minimize = minimize_mlr_spread if args.objective == "mlr" else minimize_max_loss
        scan = partial(minimize, prior, likelihood)
        rule = partial(bayes_posterior, prior, likelihood)
    started = time.perf_counter()
    result = scan(K)
    scan_seconds = time.perf_counter() - started
    closed_form = rule()
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
    report.emit(args.json)
    return EXIT_OK if passed else EXIT_FAIL


def cmd_smooth(args) -> int:
    for flag, value in (("--epsilon", args.epsilon), ("--delta", args.delta)):
        if not (math.isfinite(value) and value > 0.0):
            raise FileFormatError(f"{flag} must be positive, got {value}")
    if args.origin is not None and not math.isfinite(args.origin):
        raise FileFormatError(f"--origin must be finite, got {args.origin}")
    if args.cells is not None and args.cells < 1:
        raise FileFormatError(f"--cells must be at least 1, got {args.cells}")
    report = Report("smooth")
    dist = report.add_input("input", args.input)
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
    report.emit(args.json)
    return EXIT_OK


def cmd_compat(args) -> int:
    report = Report("compat")
    prior = report.add_input("prior", args.prior)
    likelihood = report.add_input("likelihood", args.likelihood)
    result = check_compatible(prior, likelihood)
    report.add("compatible", result.compatible)
    report.add("overlap_mass", result.overlap_mass)
    report.emit(args.json)
    return EXIT_OK


def cmd_mlr(args) -> int:
    report = Report("mlr")
    candidate = report.add_input("candidate", args.candidate)
    prior = report.add_input("prior", args.prior)
    likelihood = report.add_input("likelihood", args.likelihood)
    profile = ratio_profile(candidate, prior, likelihood)
    for key, ratio in profile.entries:
        report.add(f"ratio_{key}", ratio)
    report.add("spread", profile.spread)
    report.emit(args.json)
    return EXIT_OK


def _add_weight_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--w0", type=float, help="prior weight (positive)")
    parser.add_argument("--wL", type=float, help="likelihood weight (positive)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayesfuse",
        description="Combine prior and likelihood distributions into posteriors "
        "and verify their information-loss optimality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("posterior", help="combine two distribution files")
    p.add_argument("prior")
    p.add_argument("likelihood")
    _add_weight_flags(p)
    p.add_argument("--out", help="write the posterior to this file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_posterior)

    p = sub.add_parser("loss", help="maximum information loss of a candidate posterior")
    p.add_argument("posterior")
    p.add_argument("prior")
    p.add_argument("likelihood")
    _add_weight_flags(p)
    p.add_argument(
        "--exhaustive",
        action="store_true",
        help="enumerate all events instead of the singleton reduction (<= 20 atoms)",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_loss)

    p = sub.add_parser("verify", help="brute-force search confirming the closed form")
    p.add_argument("prior")
    p.add_argument("likelihood")
    p.add_argument(
        "--objective",
        choices=("shannon", "weighted", "mlr"),
        default="shannon",
    )
    p.add_argument("--K", type=int, help="simplex grid resolution (default by size)")
    _add_weight_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("smooth", help="convolve with a uniform(-epsilon, epsilon) kernel")
    p.add_argument("input")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True, help="output cell width")
    p.add_argument("--origin", type=float, help="force the output grid origin")
    p.add_argument("--cells", type=int, help="force the output cell count")
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_smooth)

    p = sub.add_parser("compat", help="overlap mass and compatibility of a pair")
    p.add_argument("prior")
    p.add_argument("likelihood")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_compat)

    p = sub.add_parser("mlr", help="likelihood-ratio profile of a candidate posterior")
    p.add_argument("candidate")
    p.add_argument("prior")
    p.add_argument("likelihood")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_mlr)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BayesfuseError as exc:
        for err_type, code in _ERROR_EXITS:
            if isinstance(exc, err_type):
                print(f"error: {exc}", file=sys.stderr)
                return code
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
