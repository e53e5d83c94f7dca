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
import sys
from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import accumulate
from operator import add, lt
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple

from .errors import (
    AllZeroMassError,
    BadResolutionError,
    InsufficientCoverageError,
    InvalidArgumentError,
    NonFiniteError,
    TooLargeError,
)

# Only keys that need decimal load it, in _decimal_key and _ascending.
if TYPE_CHECKING:
    from decimal import Decimal

DISCRETE_MASS_TOL = 1e-9
GRID_MASS_TOL = 1e-6
MAX_GRID_CELLS = 10**7

_KEY_PRECISION = 50
_KEY_EXPONENT = 400
# A key's size is below 9.99...95e400 (50 nines), the least that rounds to 10**401.
_KEY_CEILING = "9" * _KEY_PRECISION + f"5e{_KEY_EXPONENT - _KEY_PRECISION}"
# Plain ASCII decimals, one a line: -?[0-9]+(\.[0-9]+)? with no leading zero
# in the whole part.  [0-9], not \d: Decimal also reads non-ASCII digits,
# and rewrites them.  A line never matches in two ways, so the repeat can be
# possessive (Python 3.11 on), which keeps no backtracking state for each line.
_LINE = r"-?(?:[1-9][0-9]*|0)(?:\.[0-9]+)?"
_PLAIN_LINES = re.compile(
    rf"{_LINE}(?:\n{_LINE})" + ("*+" if sys.version_info >= (3, 11) else "*")
)


def canonical_key(value: float | int | str | Decimal) -> str:
    """Render an atom position as its canonical decimal string.

    Canonical means: plain decimal notation (no exponent), trailing zeros
    stripped, no trailing decimal point, and never "-0".  Floats are taken
    at their shortest round-trip representation, so ``canonical_key(0.5)``
    and ``canonical_key("0.5")`` agree; a float subclass, such as
    ``numpy.float64``, is read as a float.  Positions are rounded to 50
    significant digits.  A nonzero one's leading digit, as given and rounded, is
    ``10**-400`` to ``10**400``: every finite float is a key, and none exceeds 452 characters.
    """
    return _canonical_keys([value])[0]


def _trimmed(plain: str) -> str:
    """The canonical key of one line that ``_PLAIN_LINES`` matches: the
    fraction's trailing zeros stripped, and "-0" made "0"."""
    key = plain.rstrip("0").rstrip(".") if "." in plain else plain
    return "0" if key == "-0" else key


def _decimal_key(value: float | int | str | Decimal) -> str:
    """The reference definition of :func:`canonical_key`, through Decimal."""
    from decimal import Context, Decimal, InvalidOperation

    try:
        dec = Decimal(float.__repr__(value) if isinstance(value, float) else value)
    except InvalidOperation as exc:
        raise ValueError(f"not a decimal atom key: {value!r}") from exc
    if not dec.is_finite():
        raise NonFiniteError(f"atom position is not finite: {value!r}")
    if dec and not (dec.adjusted() >= -_KEY_EXPONENT and dec.copy_abs() < Decimal(_KEY_CEILING)):
        raise InvalidArgumentError(f"atom key is outside the decimal exponent range: {value!r}")
    text = format(Context(prec=_KEY_PRECISION).normalize(dec), "f")
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
        from decimal import Decimal

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


def _fsum(values: Iterable[float]) -> float:
    """``math.fsum`` of nonnegative ``values``; ``inf`` when the sum is past the float range."""
    try:
        return math.fsum(values)
    except OverflowError:  # "intermediate overflow in fsum"
        return math.inf


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


def _canonical_keys(raw_keys: list) -> list[str]:
    """:func:`canonical_key` of each key: the one path that reads plain key text.

    When each key is exactly a ``str``, ``int`` or ``float`` whose ``str()``
    has at most 50 characters, hence at most 50 digits and nothing for Decimal
    to round, one ``fullmatch`` of ``_PLAIN_LINES`` over the ``"\\n"``-joined
    texts tells whether all are plain; each is then trimmed.  Otherwise one
    key goes to ``_decimal_key``, and a longer list key by key.
    """
    if set(map(type, raw_keys)) <= {str, int, float}:
        try:
            texts = list(map(str, raw_keys))
        except ValueError:  # an int too long for str()
            texts = []
        joined = "\n".join(texts)
        # A "\n" inside a key would read as two keys.
        if (
            texts
            and joined.count("\n") == len(texts) - 1
            and max(map(len, texts)) <= _KEY_PRECISION
            and _PLAIN_LINES.fullmatch(joined)
        ):
            return list(map(_trimmed, texts))
    if len(raw_keys) == 1:
        return [_decimal_key(raw_keys[0])]
    return list(map(canonical_key, raw_keys))


def _merged(pairs: Iterable[tuple[float | int | str, float]]) -> tuple[list[str], list[float]]:
    """The atoms of ``pairs``: canonical keys, distinct and ascending, with their masses.

    Each key is canonicalized once.  Pairs whose keys canonicalize to the
    same string are one atom, whose mass is the ``fsum`` of theirs.
    """
    raw_keys: list = []
    masses: list[float] = []
    for raw_key, mass in pairs:
        raw_keys.append(raw_key)
        masses.append(float(mass))
    keys = _canonical_keys(raw_keys)
    # Each mass as given: summing duplicates first could hide a negative one.
    _check_masses(masses)
    positions = list(map(float, keys))
    if all(map(lt, positions, positions[1:])):
        # Distinct and in order already, as in written files: each key
        # is its own atom, and + 0.0 maps -0.0 to 0.0 as fsum([-0.0]) does.
        return keys, [m + 0.0 for m in masses]
    merged: dict[str, list[float]] = {}
    for key, mass in zip(keys, masses):
        merged.setdefault(key, []).append(mass)
    keys = _ascending(merged)
    return keys, [math.fsum(merged[key]) for key in keys]


class _Value:
    """Base of the package's immutable value types.

    A subclass lists its fields as class annotations, in order, and
    validates in ``__post_init__``, which construction calls through the
    instance after taking the fields by position or keyword.  Fields are
    never assigned or deleted afterwards.  ``==`` holds only between
    instances of one class; it, ``hash`` and ``repr`` read the fields.
    """

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs) -> None:
        names = self._fields
        bound = dict(zip(names, args), **kwargs)
        if len(bound) != len(args) + len(kwargs) or bound.keys() != set(names):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
        self.__dict__.update(bound)
        self.__post_init__()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def _replace(self, **changes):
        """A copy with ``changes`` to some fields, validated as a new value."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))


class DiscreteDist(_Value):
    """Finite-support probability mass function.

    ``atoms`` is a tuple of ``(key, mass)`` pairs sorted ascending by the
    numeric value of the key.  Keys must already be canonical (see
    :func:`canonical_key`) and pairwise distinct, as :meth:`from_pairs`
    makes them; masses must be nonnegative and sum to 1 within ``1e-9``.
    Zero masses are kept; construction never renormalizes (use :func:`normalize`).
    """

    atoms: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        masses = self.masses
        _check_masses(masses)
        keys = self.keys
        for key, canonical in zip(keys, _canonical_keys(list(keys))):
            if canonical != key:
                raise ValueError(f"atom key is not canonical: {key!r}")
        if _ascending(set(keys)) != list(keys):
            raise ValueError("atom keys must be strictly increasing")
        _check_unit_sum(masses)

    @classmethod
    def _trusted(cls, keys: Iterable[str], masses: list[float]) -> "DiscreteDist":
        """Build from keys that are canonical and strictly ascending by construction.

        The masses get every check of the public constructor; only the key
        checks are skipped, since the caller guarantees them.
        """
        keys = tuple(keys)
        _check_masses(masses)
        _check_unit_sum(masses)
        dist = object.__new__(cls)
        object.__setattr__(dist, "atoms", tuple(zip(keys, masses)))
        # The cached properties' values, from the lists already at hand.
        dist.__dict__.update(keys=keys, masses=tuple(masses))
        return dist

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float | int | str, float]]) -> "DiscreteDist":
        """Build from (position, mass) pairs; canonicalizes keys and merges duplicates."""
        return cls._trusted(*_merged(pairs))

    # cached_property writes the instance __dict__ directly, past __setattr__.
    @cached_property
    def keys(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self.atoms)

    @cached_property
    def masses(self) -> tuple[float, ...]:
        return tuple(m for _, m in self.atoms)

    def as_dict(self) -> Mapping[str, float]:
        return dict(self.atoms)


def normalize(raw: Iterable[tuple[float | int | str, float]]) -> DiscreteDist:
    """Scale raw nonnegative masses by the reciprocal of their total.

    Duplicate positions (after key canonicalization) accumulate before
    scaling; each mass is checked as given, after the keys.  Raises
    :class:`AllZeroMassError` when every mass is zero and
    :class:`NonFiniteError` on NaN/infinite input.  The result sums to 1.0
    exactly, so ``normalize`` is exactly idempotent.
    """
    return _unit_mass(*_merged(raw))


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


class GridDensity(_Value):
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
        values = list(map(float, raw))
        _check_finite_nonneg(values, "density")
        if not values:
            raise ValueError("a grid density needs at least one cell")
        mass = math.fsum(values)
        if mass == 0.0:
            raise AllZeroMassError("all cell densities are zero")
        total = delta * mass
        if total < sys.float_info.min:
            # The integral underflows or is subnormal: bring the values to unit sum first.
            values, total = [v / mass for v in values], delta
        return cls(origin, delta, tuple([v / total for v in values]))

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
    """One row of the family table; functions take ``x`` then the params in order."""

    params: tuple[str, ...]
    valid: Callable[..., bool]
    requirement: str
    pdf: Callable[..., float]
    cdf: Callable[..., float]


def _normal_pdf(x: float, mean: float, sd: float) -> float:
    z = (x - mean) / sd
    return math.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))


_FAMILIES = {
    "geometric": _Family(
        ("success_prob",),
        lambda p: 0.0 < p <= 1.0,
        "success_prob must be in (0, 1]",
        lambda x, p: 0.0 if x < 1.0 else p * (1.0 - p) ** (x - 1.0),
        lambda x, p: 0.0 if x <= 1.0 else 1.0 - (1.0 - p) ** (x - 1.0),
    ),
    "normal": _Family(
        ("mean", "sd"),
        lambda mean, sd: sd > 0.0,
        "sd must be positive",
        _normal_pdf,
        lambda x, mean, sd: 0.5 * (1.0 + math.erf((x - mean) / (sd * math.sqrt(2.0)))),
    ),
    "exponential": _Family(
        ("rate",),
        lambda rate: rate > 0.0,
        "rate must be positive",
        lambda x, rate: 0.0 if x < 0.0 else rate * math.exp(-rate * x),
        lambda x, rate: 0.0 if x <= 0.0 else 1.0 - math.exp(-rate * x),
    ),
    "uniform": _Family(
        ("lower", "upper"),
        lambda lower, upper: lower < upper,
        "need lower < upper",
        lambda x, lower, upper: 1.0 / (upper - lower) if lower <= x <= upper else 0.0,
        lambda x, lower, upper: min(1.0, max(0.0, (x - lower) / (upper - lower))),
    ),
}


class DistFamily(_Value):
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

    def pdf(self, x: float) -> float:
        """Density at ``x``."""
        return _FAMILIES[self.name].pdf(float(x), *self.values)

    def cdf(self, x: float) -> float:
        """Cumulative coverage of the family's (normalized) decay profile."""
        return _FAMILIES[self.name].cdf(float(x), *self.values)


GridSpec = tuple[float, float, int]

_COVERAGE_TOL = 1e-6


def discretize(family: DistFamily, grid: GridSpec) -> GridDensity:
    """Rasterize a named family onto a uniform grid.

    The family density is evaluated at every cell midpoint
    ``origin + (i + 0.5) * delta``, and the values are renormalized to unit
    mass.  The grid must cover at least ``1 - 1e-6`` of the family's mass,
    otherwise :class:`InsufficientCoverageError` is raised.  An origin that is
    not finite, a width that is not positive and finite, or no cells, raises
    :class:`InvalidArgumentError` and over ``10**7`` cells
    :class:`TooLargeError`, before any cell is evaluated.
    """
    origin, delta, count = float(grid[0]), float(grid[1]), int(grid[2])
    if not math.isfinite(origin):
        raise InvalidArgumentError(f"grid origin must be finite, got {origin!r}")
    if not (math.isfinite(delta) and delta > 0.0 and count >= 1):
        raise InvalidArgumentError("grid needs positive cell width and at least one cell")
    if count > MAX_GRID_CELLS:
        raise TooLargeError(f"grid has more than the {MAX_GRID_CELLS} cells a family allows")
    coverage = family.cdf(origin + count * delta) - family.cdf(origin)
    if coverage < 1.0 - _COVERAGE_TOL:
        raise InsufficientCoverageError(
            f"grid covers {coverage:.9f} of the {family.name} mass, need >= {1.0 - _COVERAGE_TOL}"
        )
    pdf, params = _FAMILIES[family.name].pdf, family.values
    raw = [pdf(origin + (i + 0.5) * delta, *params) for i in range(count)]
    return GridDensity.from_values(origin, delta, raw)


def _smoothing_cdf_discrete(dist: DiscreteDist, epsilon: float):
    # A zero-mass atom has no smoothed support: it adds nothing to the CDF
    # and does not stretch the default extent.
    points = [(float(key), mass) for key, mass in dist.atoms if mass > 0.0]
    width = 2.0 * epsilon

    def cdf(edges: list[float]) -> list[float]:
        # An atom's smoothed CDF is 0 up to theta - epsilon, then the ramp
        # mass * t, then mass from the first edge where t reaches 1.  Ramps
        # are added on their runs of edges; the full masses are steps
        # summed in one running sum.
        ramps = [0.0] * len(edges)
        steps = [0.0] * (len(edges) + 1)
        for theta, mass in points:
            lo = theta - epsilon
            start = bisect_right(edges, lo)
            # One edge past theta + epsilon, t >= 1 unless the cell width is
            # below the rounding error of theta.
            stop = bisect_right(edges, theta + epsilon) + 1
            t = [(x - lo) / width for x in edges[start:stop]]
            stop = start + bisect_left(t, 1.0)
            for i in range(start, stop):
                ramps[i] += mass * t[i - start]
            steps[stop] += mass
        return list(map(add, ramps, accumulate(steps)))

    # Atoms are in ascending order.
    return cdf, points[0][0] - epsilon, points[-1][0] + epsilon


def _smoothing_cdf_grid(dist: GridDensity, epsilon: float):
    # Convolving a piecewise-constant density with a uniform kernel gives a
    # piecewise-linear density; its CDF is evaluated through G, the running
    # integral of the input CDF (piecewise quadratic, exact).
    origin, delta, end = dist.origin, dist.delta, dist.end
    densities, last = dist.densities, dist.n_cells - 1
    width = 2.0 * epsilon
    cdf_nodes = list(accumulate((d * delta for d in densities), initial=0.0))
    # G grows by cdf * delta, then by density * delta**2 / 2, in each cell.
    g_nodes = [0.0]
    for c, d in zip(cdf_nodes, densities):
        g_nodes.append(g_nodes[-1] + c * delta + d * delta * delta / 2.0)
    total = cdf_nodes[-1]

    def integral_of_cdf(x: float) -> float:
        # G(x) = integral of the input CDF from the grid origin up to x.
        if x >= end:
            return g_nodes[-1] + (x - end) * total
        if x <= origin:
            return 0.0
        i = min(int((x - origin) / delta), last)
        dx = x - (origin + i * delta)
        return g_nodes[i] + cdf_nodes[i] * dx + densities[i] * dx * dx / 2.0

    def cdf(edges: list[float]) -> list[float]:
        return [
            (integral_of_cdf(x + epsilon) - integral_of_cdf(x - epsilon)) / width for x in edges
        ]

    # Zero-density cells at the ends have no smoothed support: the default
    # extent spans the first to the last positive cell.
    first = next(i for i, d in enumerate(densities) if d > 0.0)
    stop = next(i for i in range(last, -1, -1) if densities[i] > 0.0) + 1
    return cdf, origin + first * delta - epsilon, origin + stop * delta + epsilon


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
    smoothed CDF is evaluated at all ``cells + 1`` edges in one pass and
    differenced.  The cell width must divide ``2 * epsilon`` within
    ``1e-12`` so that a single smoothed point mass spans a whole number of
    cells.

    By default the output grid is snapped to multiples of ``delta_out``
    and spans the smoothed support, to which a zero-mass atom or a
    zero-density end cell adds nothing.  Pass ``origin`` and ``cells`` to
    force a specific extent, e.g. to place two smoothed distributions on
    one shared grid so they can be conflated afterwards.  An argument out
    of its range raises :class:`InvalidArgumentError`, and an extent that
    captures less than ``1 - 1e-6`` of the smoothed mass raises
    :class:`InsufficientCoverageError`.  A window or extent past the float
    range, in cells or in position, raises :class:`NonFiniteError`, and an
    output grid of more than ``10**7`` cells raises :class:`TooLargeError`
    before any edge is evaluated.
    """
    epsilon = float(epsilon)
    delta_out = float(delta_out)
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise InvalidArgumentError(f"epsilon must be positive, got {epsilon!r}")
    if not (math.isfinite(delta_out) and delta_out > 0.0):
        raise InvalidArgumentError(f"delta_out must be positive, got {delta_out!r}")
    if origin is not None:
        origin = float(origin)
        if not math.isfinite(origin):
            raise InvalidArgumentError(f"origin must be finite, got {origin!r}")
    if cells is not None:
        cells = int(cells)
        if cells < 1:
            raise InvalidArgumentError("cells must be at least 1")
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
    if cells is None:
        cells = max(1, _whole_cells((hi - origin) / delta_out - 1e-12, math.ceil, "extent"))
    if cells > MAX_GRID_CELLS:
        raise TooLargeError(f"output grid has more than the {MAX_GRID_CELLS} cells smoothing allows")
    if not math.isfinite(origin + cells * delta_out):
        raise NonFiniteError("smoothing extent is past the float range")
    at_edges = cdf([origin + j * delta_out for j in range(cells + 1)])
    densities = [(b - a) / delta_out for a, b in zip(at_edges, at_edges[1:])]
    # `d > 0` also maps -0.0 and NaN to 0.0, as max(0.0, d) does.
    densities = [d if d > 0.0 else 0.0 for d in densities]
    captured = delta_out * _fsum(densities)
    if abs(captured - 1.0) > GRID_MASS_TOL:
        raise InsufficientCoverageError(
            f"output grid captures {captured!r} of the smoothed mass,"
            f" need 1 within {GRID_MASS_TOL}"
        )
    return GridDensity(origin, delta_out, tuple(densities))
