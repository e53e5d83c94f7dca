"""Distribution representations: finite discrete p.m.f.s and uniform-grid densities.

Two concrete value types are supported everywhere in the package:

* :class:`DiscreteDist` -- a probability mass function over finitely many
  labelled atoms.  Atoms are labelled by canonical decimal strings so that
  two distributions share an atom exactly when the labels are string-equal.
* :class:`GridDensity` -- a piecewise-constant probability density on a
  uniform one-dimensional grid.  Binary operations require the two operands
  to use the identical grid; nothing is ever resampled implicitly.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share between threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation, localcontext
from operator import lt
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple

from .errors import (
    AllZeroMassError,
    BadResolutionError,
    InsufficientCoverageError,
    NonFiniteError,
    TooLargeError,
)

# numpy is imported inside the family, discretize and smoothing code only,
# so that discrete and plain-grid work runs on the standard library alone.
if TYPE_CHECKING:
    import numpy as np

DISCRETE_MASS_TOL = 1e-9
GRID_MASS_TOL = 1e-6
SMOOTH_MAX_CELLS = 10**7

_KEY_PRECISION = 50
# Longer ints are never plain keys, and str() refuses ints past 4300 digits.
_INT_LIMIT = 10**_KEY_PRECISION
# Plain ASCII decimals, -?[0-9]+(\.[0-9]+)?, in three groups: the sign, the
# whole part without leading zeros (one digit kept) and the fraction without
# trailing zeros.  [0-9], not \d: Decimal also reads non-ASCII digits, and
# rewrites them.
_PLAIN_DECIMAL = re.compile(r"(-?)0*([0-9]+?)(?:\.(?=[0-9])([0-9]*?)0*)?")
_CANONICAL = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]*[1-9])?")


def canonical_key(value: float | int | str | Decimal) -> str:
    """Render an atom position as its canonical decimal string.

    Canonical means: plain decimal notation (no exponent), trailing zeros
    stripped, no trailing decimal point, and never "-0".  Floats are taken
    at their shortest round-trip representation, so ``canonical_key(0.5)``
    and ``canonical_key("0.5")`` agree.  Positions are rounded to 50
    significant digits.
    """
    if isinstance(value, str):
        text = value
    elif isinstance(value, float):
        text = repr(value)
    elif isinstance(value, int) and not isinstance(value, bool) and abs(value) < _INT_LIMIT:
        text = str(value)
    else:
        return _decimal_key(value)
    # At most 50 characters hold at most 50 digits, so the Decimal path
    # would not round: plain ASCII decimals are canonicalized as text.
    plain = _PLAIN_DECIMAL.fullmatch(text) if len(text) <= _KEY_PRECISION else None
    if plain:
        sign, whole, fraction = plain.groups()
        body = f"{whole}.{fraction}" if fraction else whole
        return "0" if body == "0" else sign + body
    return _decimal_key(value)


def _decimal_key(value: float | int | str | Decimal) -> str:
    """The reference definition of :func:`canonical_key`, through Decimal."""
    try:
        if isinstance(value, str):
            dec = Decimal(value)
        elif isinstance(value, float):
            if not math.isfinite(value):
                raise NonFiniteError(f"atom position is not finite: {value!r}")
            dec = Decimal(repr(value))
        else:
            dec = Decimal(value)
    except InvalidOperation as exc:
        raise ValueError(f"not a decimal atom key: {value!r}") from exc
    if not dec.is_finite():
        raise NonFiniteError(f"atom position is not finite: {value!r}")
    with localcontext() as ctx:
        ctx.prec = _KEY_PRECISION
        text = format(dec.normalize(), "f")
    return "0" if text == "-0" else text


def _ascending(keys: Iterable[str]) -> list[str]:
    """Canonical keys in increasing numeric order.

    Float rounding never reverses order, so keys are sorted by ``float``
    and re-sorted exactly only when two neighbours tie as floats (keys
    within a float ulp, or both past the float range).
    """
    keys = sorted(keys, key=float)
    values = list(map(float, keys))
    if any(a == b for a, b in zip(values, values[1:])):
        keys.sort(key=Decimal)
    return keys


def _check_finite_nonneg(values: Iterable[float], what: str) -> None:
    """Raise on the first entry that is not finite or is negative."""
    for v in values:
        # NaN fails both comparisons.
        if not 0.0 <= v < math.inf:
            if not math.isfinite(v):
                raise NonFiniteError(f"{what} must be finite, got {float(v)!r}")
            raise ValueError(f"{what} must be nonnegative, got {float(v)!r}")


def _check_masses(masses: list[float] | tuple[float, ...]) -> None:
    """At least one atom, and every mass finite and nonnegative."""
    if not masses:
        raise ValueError("a discrete distribution needs at least one atom")
    _check_finite_nonneg(masses, "mass")


def _check_unit_sum(masses: list[float] | tuple[float, ...]) -> None:
    total = math.fsum(masses)
    if abs(total - 1.0) > DISCRETE_MASS_TOL:
        raise ValueError(f"masses sum to {total!r}, not 1")


def _force_unit_sum(masses: list[float]) -> list[float]:
    # The largest entry absorbs the float residual so fsum(masses) == 1.0
    # exactly; this is what makes normalize() exactly idempotent.
    for _ in range(32):
        total = math.fsum(masses)
        if total == 1.0:
            return masses
        i = max(range(len(masses)), key=masses.__getitem__)
        masses[i] -= total - 1.0
    raise AssertionError("unit-sum adjustment did not converge")


@dataclass(frozen=True)
class DiscreteDist:
    """Finite-support probability mass function.

    ``atoms`` is a tuple of ``(key, mass)`` pairs sorted ascending by the
    numeric value of the key.  Keys must already be canonical (see
    :func:`canonical_key`) and pairwise distinct; masses must be
    nonnegative and sum to 1 within ``1e-9``.  Zero masses are legal and
    are kept; construction never renormalizes (use :func:`normalize`).
    """

    atoms: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        masses = self.masses
        _check_masses(masses)
        fullmatch = _CANONICAL.fullmatch
        previous_key, previous = None, None
        for key, _ in self.atoms:
            # The pattern accepts only canonical text; anything else gets
            # the full test, so the accepted set is canonical_key's.
            plain = isinstance(key, str) and len(key) <= _KEY_PRECISION and key != "-0"
            if not (plain and fullmatch(key)) and canonical_key(key) != key:
                raise ValueError(f"atom key is not canonical: {key!r}")
            position = float(key)
            # Float rounding never reverses order; only keys that tie as
            # floats, such as two past the float range, need exact values.
            if previous is not None and not position > previous:
                if position < previous or Decimal(key) <= Decimal(previous_key):
                    raise ValueError("atom keys must be strictly increasing")
            previous_key, previous = key, position
        _check_unit_sum(masses)

    @classmethod
    def _trusted(cls, keys: Iterable[str], masses: list[float]) -> "DiscreteDist":
        """Build from keys that are canonical and strictly ascending by construction.

        The masses get every check of the public constructor; only the key
        pattern and order checks are skipped, since the caller guarantees them.
        """
        _check_masses(masses)
        _check_unit_sum(masses)
        dist = object.__new__(cls)
        object.__setattr__(dist, "atoms", tuple(zip(keys, masses)))
        return dist

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float | int | str, float]]) -> "DiscreteDist":
        """Build from (position, mass) pairs; canonicalizes keys and merges duplicates."""
        keys: list[str] = []
        masses: list[float] = []
        for raw_key, mass in pairs:
            keys.append(canonical_key(raw_key))
            masses.append(float(mass))
        positions = list(map(float, keys))
        if all(map(lt, positions, positions[1:])):
            # Distinct and in order already, as in written files: each key
            # is its own atom, and + 0.0 maps -0.0 to 0.0 as fsum([-0.0]) does.
            return cls._trusted(keys, [m + 0.0 for m in masses])
        merged: dict[str, list[float]] = {}
        for key, mass in zip(keys, masses):
            merged.setdefault(key, []).append(mass)
        return cls(tuple((key, math.fsum(merged[key])) for key in _ascending(merged)))

    @property
    def keys(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self.atoms)

    @property
    def masses(self) -> tuple[float, ...]:
        return tuple(m for _, m in self.atoms)

    def as_dict(self) -> Mapping[str, float]:
        return dict(self.atoms)


def normalize(raw: Iterable[tuple[float | int | str, float]]) -> DiscreteDist:
    """Scale raw nonnegative masses by the reciprocal of their total.

    Duplicate positions (after key canonicalization) accumulate before
    scaling.  Raises :class:`AllZeroMassError` when every mass is zero and
    :class:`NonFiniteError` on NaN/infinite input.  The result sums to 1.0
    exactly, so ``normalize`` is exactly idempotent.
    """
    merged: dict[str, list[float]] = {}
    for raw_key, mass in raw:
        mass = float(mass)
        if not math.isfinite(mass):
            raise NonFiniteError(f"mass must be finite, got {mass!r}")
        if mass < 0.0:
            raise ValueError(f"mass must be nonnegative, got {mass!r}")
        merged.setdefault(canonical_key(raw_key), []).append(mass)
    if not merged:
        raise ValueError("no atoms given")
    keys = _ascending(merged)
    return _unit_mass(keys, [math.fsum(merged[k]) for k in keys])


def _unit_mass(keys: Iterable[str], masses: list[float]) -> DiscreteDist:
    """The scaling tail of :func:`normalize`, for canonical keys already in
    ascending order with finite nonnegative masses."""
    total = math.fsum(masses)
    if total == 0.0:
        raise AllZeroMassError("all masses are zero")
    if total != 1.0:
        masses = [m / total for m in masses]
    return DiscreteDist._trusted(keys, _force_unit_sum(masses))


def linf_distance(a: DiscreteDist, b: DiscreteDist) -> float:
    """Largest absolute mass difference; atoms missing on one side count as 0."""
    keys = set(a.keys) | set(b.keys)
    da, db = a.as_dict(), b.as_dict()
    return max(abs(da.get(k, 0.0) - db.get(k, 0.0)) for k in keys)


@dataclass(frozen=True)
class GridDensity:
    """Piecewise-constant probability density on a uniform 1-D grid.

    ``densities[i]`` is the probability per unit length on the cell
    ``[origin + i*delta, origin + (i+1)*delta)``.  The total integral
    ``delta * sum(densities)`` must be 1 within ``1e-6``.
    """

    origin: float
    delta: float
    densities: tuple[float, ...]

    def __post_init__(self) -> None:
        if not math.isfinite(self.origin):
            raise NonFiniteError("grid origin must be finite")
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError(f"cell width must be positive, got {self.delta!r}")
        if not self.densities:
            raise ValueError("a grid density needs at least one cell")
        _check_finite_nonneg(self.densities, "density")
        total = self.delta * math.fsum(self.densities)
        if abs(total - 1.0) > GRID_MASS_TOL:
            raise ValueError(f"grid integrates to {total!r}, not 1")

    @classmethod
    def from_values(cls, origin: float, delta: float, raw: Iterable[float]) -> "GridDensity":
        """Renormalize raw nonnegative cell values into a unit-mass density."""
        import numpy as np

        values = np.asarray(raw if isinstance(raw, np.ndarray) else list(raw), dtype=float)
        listed = values.tolist()
        _check_finite_nonneg(listed, "density")
        if not listed:
            raise ValueError("a grid density needs at least one cell")
        total = delta * math.fsum(listed)
        if total == 0.0:
            raise AllZeroMassError("all cell densities are zero")
        return cls(origin, delta, tuple((values / total).tolist()))

    @property
    def n_cells(self) -> int:
        return len(self.densities)

    @property
    def end(self) -> float:
        return self.origin + self.n_cells * self.delta

    def total_mass(self) -> float:
        return self.delta * math.fsum(self.densities)

    def same_grid(self, other: "GridDensity") -> bool:
        return (
            self.origin == other.origin
            and self.delta == other.delta
            and self.n_cells == other.n_cells
        )


Distribution = DiscreteDist | GridDensity


class _Family(NamedTuple):
    """One row of the family table; functions take ``x`` then the params in order.

    ``pdf`` takes the numpy module first, so that the table can be built
    without importing it.
    """

    params: tuple[str, ...]
    valid: Callable[..., bool]
    requirement: str
    pdf: Callable[..., np.ndarray]
    cdf: Callable[..., float]


_FAMILIES = {
    # Each pdf is one numpy expression on an array of positions.  Masked-off
    # positions go through np.maximum so that p == 1 never computes
    # 0**negative and a negative x never overflows exp.
    "geometric": _Family(
        ("success_prob",),
        lambda p: 0.0 < p <= 1.0,
        "success_prob must be in (0, 1]",
        lambda np, x, p: np.where(x >= 1.0, p * (1.0 - p) ** np.maximum(x - 1.0, 0.0), 0.0),
        lambda x, p: 0.0 if x <= 1.0 else 1.0 - (1.0 - p) ** (x - 1.0),
    ),
    "normal": _Family(
        ("mean", "sd"),
        lambda mean, sd: sd > 0.0,
        "sd must be positive",
        lambda np, x, mean, sd: np.exp(-0.5 * ((x - mean) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi)),
        lambda x, mean, sd: 0.5 * (1.0 + math.erf((x - mean) / (sd * math.sqrt(2.0)))),
    ),
    "exponential": _Family(
        ("rate",),
        lambda rate: rate > 0.0,
        "rate must be positive",
        lambda np, x, rate: np.where(x >= 0.0, rate * np.exp(-rate * np.maximum(x, 0.0)), 0.0),
        lambda x, rate: 0.0 if x <= 0.0 else 1.0 - math.exp(-rate * x),
    ),
    "uniform": _Family(
        ("lower", "upper"),
        lambda lower, upper: lower < upper,
        "need lower < upper",
        lambda np, x, lower, upper: np.where((lower <= x) & (x <= upper), 1.0 / (upper - lower), 0.0),
        lambda x, lower, upper: min(1.0, max(0.0, (x - lower) / (upper - lower))),
    ),
}


@dataclass(frozen=True)
class DistFamily:
    """A named one-parameter-family distribution used to seed grid densities.

    Supported families and parameters:

    * ``geometric(success_prob)`` -- decay profile ``p * (1-p)**(x-1)`` on
      ``x >= 1``, the continuous interpolation of the trials-to-first-success
      mass function.
    * ``normal(mean, sd)``
    * ``exponential(rate)``
    * ``uniform(lower, upper)``
    """

    name: str
    params: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        spec = _FAMILIES.get(self.name)
        if spec is None:
            raise ValueError(f"unknown family {self.name!r}")
        got = tuple(k for k, _ in self.params)
        if got != spec.params:
            raise ValueError(f"family {self.name!r} needs params {spec.params}, got {got}")
        for v in self.values:
            if not math.isfinite(v):
                raise NonFiniteError(f"family parameter is not finite: {v!r}")
        if not spec.valid(*self.values):
            raise ValueError(spec.requirement)

    @classmethod
    def from_params(cls, name: str, params: Mapping[str, float]) -> "DistFamily":
        """Build from a family name and its parameter values keyed by name, in any order."""
        spec = _FAMILIES.get(name)
        order = spec.params if spec and set(params) == set(spec.params) else tuple(params)
        return cls(name, tuple((k, float(params[k])) for k in order))

    @classmethod
    def geometric(cls, success_prob: float) -> "DistFamily":
        return cls("geometric", (("success_prob", float(success_prob)),))

    @classmethod
    def normal(cls, mean: float, sd: float) -> "DistFamily":
        return cls("normal", (("mean", float(mean)), ("sd", float(sd))))

    @classmethod
    def exponential(cls, rate: float) -> "DistFamily":
        return cls("exponential", (("rate", float(rate)),))

    @classmethod
    def uniform(cls, lower: float, upper: float) -> "DistFamily":
        return cls("uniform", (("lower", float(lower)), ("upper", float(upper))))

    @property
    def values(self) -> tuple[float, ...]:
        """Parameter values in the family's parameter order."""
        return tuple(v for _, v in self.params)

    def pdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """Density at ``x``: a float for a float, an array for an array."""
        import numpy as np

        # Far in a tail, a squared z-score or rate*x may overflow to inf,
        # where exp gives the correct 0.
        with np.errstate(over="ignore"):
            density = _FAMILIES[self.name].pdf(np, np.asarray(x, dtype=float), *self.values)
        return float(density) if density.ndim == 0 else density

    def cdf(self, x: float) -> float:
        """Cumulative coverage of the family's (normalized) decay profile."""
        return _FAMILIES[self.name].cdf(float(x), *self.values)


GridSpec = tuple[float, float, int]

_COVERAGE_TOL = 1e-6


def discretize(family: DistFamily, grid: GridSpec) -> GridDensity:
    """Rasterize a named family onto a uniform grid.

    One array call evaluates the family density at every cell midpoint
    ``origin + (i + 0.5) * delta``; the vector is then renormalized to unit
    mass.  The grid must cover at least ``1 - 1e-6`` of the family's mass,
    otherwise :class:`InsufficientCoverageError` is raised.
    """
    origin, delta, count = float(grid[0]), float(grid[1]), int(grid[2])
    if delta <= 0.0 or count < 1:
        raise ValueError("grid needs positive cell width and at least one cell")
    coverage = family.cdf(origin + count * delta) - family.cdf(origin)
    if coverage < 1.0 - _COVERAGE_TOL:
        raise InsufficientCoverageError(
            f"grid covers {coverage:.9f} of the {family.name} mass, need >= {1.0 - _COVERAGE_TOL}"
        )
    import numpy as np

    midpoints = origin + (np.arange(count) + 0.5) * delta
    return GridDensity.from_values(origin, delta, family.pdf(midpoints))


def _smoothing_cdf_discrete(dist: DiscreteDist, epsilon: float):
    import numpy as np

    thetas = [float(k) for k in dist.keys]
    width = 2.0 * epsilon

    def cdf(x: np.ndarray) -> np.ndarray:
        # An atom's smoothed CDF is 0 up to theta - epsilon, then the ramp
        # mass * t, then mass from the first edge where t reaches 1.  Ramps
        # are added on their slices of the edges; the full masses are steps
        # summed in one cumsum.
        ramps = np.zeros(x.size)
        steps = np.zeros(x.size + 1)
        for theta, mass in zip(thetas, dist.masses):
            lo = theta - epsilon
            start = int(np.searchsorted(x, lo, side="right"))
            # One edge past theta + epsilon, t >= 1 unless the cell width is
            # below the rounding error of theta.
            stop = int(np.searchsorted(x, theta + epsilon, side="right")) + 1
            t = (x[start:stop] - lo) / width
            stop = start + int(np.searchsorted(t, 1.0))
            ramps[start:stop] += mass * t[: stop - start]
            steps[stop] += mass
        return ramps + np.cumsum(steps)[:-1]

    return cdf, min(thetas) - epsilon, max(thetas) + epsilon


def _smoothing_cdf_grid(dist: GridDensity, epsilon: float):
    # Convolving a piecewise-constant density with a uniform kernel gives a
    # piecewise-linear density; its CDF is evaluated through G, the running
    # integral of the input CDF (piecewise quadratic, exact).
    import numpy as np

    origin, delta, end = dist.origin, dist.delta, dist.end
    densities = np.array(dist.densities, dtype=float)
    cdf_nodes = np.concatenate(([0.0], np.cumsum(densities * delta)))
    # G grows by cdf * delta, then by density * delta**2 / 2, in each cell;
    # one cumsum over the interleaved terms adds them in that order.
    terms = np.empty(2 * densities.size)
    terms[0::2] = cdf_nodes[:-1] * delta
    terms[1::2] = densities * delta * delta / 2.0
    g_nodes = np.concatenate(([0.0], np.cumsum(terms)[1::2]))
    total = cdf_nodes[-1]

    def integral_of_cdf(x: np.ndarray) -> np.ndarray:
        # G(x) = integral of the input CDF from the grid origin up to x.
        g = np.where(x >= end, g_nodes[-1] + (x - end) * total, 0.0)
        inside = (x > origin) & (x < end)
        xi = x[inside]
        i = np.minimum(((xi - origin) / delta).astype(np.intp), densities.size - 1)
        dx = xi - (origin + i * delta)
        g[inside] = g_nodes[i] + cdf_nodes[i] * dx + densities[i] * dx * dx / 2.0
        return g

    def cdf(x: np.ndarray) -> np.ndarray:
        return (integral_of_cdf(x + epsilon) - integral_of_cdf(x - epsilon)) / (2.0 * epsilon)

    return cdf, origin - epsilon, end + epsilon


def _whole_cells(cells: float, rounding: Callable[[float], int], what: str) -> int:
    """``rounding(cells)``; a count past the float range raises :class:`NonFiniteError`."""
    if not math.isfinite(cells):
        raise NonFiniteError(f"smoothing {what} is past the float range")
    return rounding(cells)


def smooth_uniform(
    dist: Distribution,
    epsilon: float,
    delta_out: float,
    *,
    origin: float | None = None,
    cells: int | None = None,
) -> GridDensity:
    """Convolve a distribution with the uniform density on ``(-epsilon, epsilon)``.

    The exact convolution is rasterized onto a grid of cell width
    ``delta_out`` by cell averaging, which preserves total mass: the
    smoothed CDF is evaluated at all ``cells + 1`` edges in one array pass
    and differenced.  The cell width must divide ``2 * epsilon`` within
    ``1e-12`` so that a single smoothed point mass spans a whole number of
    cells.

    By default the output grid is snapped to multiples of ``delta_out``
    and spans the smoothed support.  Pass ``origin`` and ``cells`` to
    force a specific extent, e.g. to place two smoothed distributions on
    one shared grid so they can be conflated afterwards.  A non-finite
    ``origin`` raises :class:`ValueError`, and an extent that captures
    less than ``1 - 1e-6`` of the smoothed mass raises
    :class:`InsufficientCoverageError`.  A window or extent past the float
    range, in cells or in position, raises :class:`NonFiniteError`, and an
    output grid of more than ``10**7`` cells raises :class:`TooLargeError`
    before any array is allocated.
    """
    epsilon = float(epsilon)
    delta_out = float(delta_out)
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    if not (math.isfinite(delta_out) and delta_out > 0.0):
        raise ValueError(f"delta_out must be positive, got {delta_out!r}")
    span_cells = 2.0 * epsilon / delta_out
    if abs(span_cells - _whole_cells(span_cells, round, "window")) > 1e-12:
        raise BadResolutionError(
            f"cell width {delta_out!r} does not divide the window 2*epsilon = {2 * epsilon!r}"
        )
    if isinstance(dist, DiscreteDist):
        cdf, lo, hi = _smoothing_cdf_discrete(dist, epsilon)
    else:
        cdf, lo, hi = _smoothing_cdf_grid(dist, epsilon)
    if origin is None:
        origin = _whole_cells(lo / delta_out + 1e-12, math.floor, "extent") * delta_out
    else:
        origin = float(origin)
        if not math.isfinite(origin):
            raise ValueError(f"origin must be finite, got {origin!r}")
    if cells is None:
        cells = max(1, _whole_cells((hi - origin) / delta_out - 1e-12, math.ceil, "extent"))
    else:
        cells = int(cells)
        if cells < 1:
            raise ValueError("cells must be at least 1")
    if cells > SMOOTH_MAX_CELLS:
        raise TooLargeError(f"output grid has more than the {SMOOTH_MAX_CELLS} cells smoothing allows")
    if not math.isfinite(origin + cells * delta_out):
        raise NonFiniteError("smoothing extent is past the float range")
    import numpy as np

    densities = np.diff(cdf(origin + np.arange(cells + 1) * delta_out)) / delta_out
    # `d > 0` also maps -0.0 and NaN to 0.0, as max(0.0, d) does.
    densities = np.where(densities > 0.0, densities, 0.0).tolist()
    captured = delta_out * math.fsum(densities)
    if abs(captured - 1.0) > GRID_MASS_TOL:
        raise InsufficientCoverageError(
            f"output grid captures {captured!r} of the smoothed mass,"
            f" need 1 within {GRID_MASS_TOL}"
        )
    return GridDensity(origin, delta_out, tuple(densities))
