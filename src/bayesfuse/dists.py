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
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation, localcontext
from typing import Iterable, Iterator, Mapping

from .errors import (
    AllZeroMassError,
    BadResolutionError,
    InsufficientCoverageError,
    NonFiniteError,
)

DISCRETE_MASS_TOL = 1e-9
GRID_MASS_TOL = 1e-6

_KEY_PRECISION = 50


def canonical_key(value: float | int | str | Decimal) -> str:
    """Render an atom position as its canonical decimal string.

    Canonical means: plain decimal notation (no exponent), trailing zeros
    stripped, no trailing decimal point, and never "-0".  Floats are taken
    at their shortest round-trip representation, so ``canonical_key(0.5)``
    and ``canonical_key("0.5")`` agree.
    """
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


def key_value(key: str) -> float:
    """Numeric position of a canonical atom key."""
    return float(key)


def _check_finite_nonneg(values: Iterable[float], what: str) -> None:
    for v in values:
        if not math.isfinite(v):
            raise NonFiniteError(f"{what} must be finite, got {v!r}")
        if v < 0.0:
            raise ValueError(f"{what} must be nonnegative, got {v!r}")


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
        if not self.atoms:
            raise ValueError("a discrete distribution needs at least one atom")
        _check_finite_nonneg((m for _, m in self.atoms), "mass")
        previous: Decimal | None = None
        for key, _ in self.atoms:
            if canonical_key(key) != key:
                raise ValueError(f"atom key is not canonical: {key!r}")
            position = Decimal(key)
            if previous is not None and position <= previous:
                raise ValueError("atom keys must be strictly increasing")
            previous = position
        total = math.fsum(m for _, m in self.atoms)
        if abs(total - 1.0) > DISCRETE_MASS_TOL:
            raise ValueError(f"masses sum to {total!r}, not 1")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float | int | str, float]]) -> "DiscreteDist":
        """Build from (position, mass) pairs; canonicalizes keys and merges duplicates."""
        merged: dict[str, list[float]] = {}
        for raw_key, mass in pairs:
            merged.setdefault(canonical_key(raw_key), []).append(float(mass))
        atoms = sorted(
            ((key, math.fsum(masses)) for key, masses in merged.items()),
            key=lambda item: Decimal(item[0]),
        )
        return cls(tuple(atoms))

    @property
    def keys(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self.atoms)

    @property
    def masses(self) -> tuple[float, ...]:
        return tuple(m for _, m in self.atoms)

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @property
    def support(self) -> tuple[str, ...]:
        """Keys carrying strictly positive mass."""
        return tuple(k for k, m in self.atoms if m > 0.0)

    def mass(self, key: str) -> float:
        return self.as_dict().get(key, 0.0)

    def as_dict(self) -> Mapping[str, float]:
        return dict(self.atoms)

    def prob(self, keys: Iterable[str]) -> float:
        table = self.as_dict()
        return math.fsum(table[k] for k in keys)

    def total_mass(self) -> float:
        return math.fsum(self.masses)


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
    keys = sorted(merged, key=Decimal)
    return _unit_mass(keys, [math.fsum(merged[k]) for k in keys])


def _unit_mass(keys: Iterable[str], masses: list[float]) -> DiscreteDist:
    """The scaling tail of :func:`normalize`, for canonical keys already in
    ascending order with finite nonnegative masses."""
    total = math.fsum(masses)
    if total == 0.0:
        raise AllZeroMassError("all masses are zero")
    if total != 1.0:
        masses = [m / total for m in masses]
    masses = _force_unit_sum(masses)
    return DiscreteDist(tuple(zip(keys, masses)))


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
        values = [float(v) for v in raw]
        _check_finite_nonneg(values, "density")
        if not values:
            raise ValueError("a grid density needs at least one cell")
        total = delta * math.fsum(values)
        if total == 0.0:
            raise AllZeroMassError("all cell densities are zero")
        return cls(origin, delta, tuple(v / total for v in values))

    @property
    def n_cells(self) -> int:
        return len(self.densities)

    @property
    def end(self) -> float:
        return self.origin + self.n_cells * self.delta

    def cell_midpoint(self, index: int) -> float:
        return self.origin + (index + 0.5) * self.delta

    def midpoints(self) -> Iterator[float]:
        return (self.cell_midpoint(i) for i in range(self.n_cells))

    def cell_mass(self, index: int) -> float:
        return self.delta * self.densities[index]

    def prob(self, cells: Iterable[int]) -> float:
        return self.delta * math.fsum(self.densities[i] for i in cells)

    def total_mass(self) -> float:
        return self.delta * math.fsum(self.densities)

    def same_grid(self, other: "GridDensity") -> bool:
        return (
            self.origin == other.origin
            and self.delta == other.delta
            and self.n_cells == other.n_cells
        )


Distribution = DiscreteDist | GridDensity

_FAMILY_PARAMS = {
    "geometric": ("success_prob",),
    "normal": ("mean", "sd"),
    "exponential": ("rate",),
    "uniform": ("lower", "upper"),
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
        if self.name not in _FAMILY_PARAMS:
            raise ValueError(f"unknown family {self.name!r}")
        expected = _FAMILY_PARAMS[self.name]
        got = tuple(k for k, _ in self.params)
        if got != expected:
            raise ValueError(f"family {self.name!r} needs params {expected}, got {got}")
        values = dict(self.params)
        for v in values.values():
            if not math.isfinite(v):
                raise NonFiniteError(f"family parameter is not finite: {v!r}")
        if self.name == "geometric" and not 0.0 < values["success_prob"] <= 1.0:
            raise ValueError("success_prob must be in (0, 1]")
        if self.name == "normal" and values["sd"] <= 0.0:
            raise ValueError("sd must be positive")
        if self.name == "exponential" and values["rate"] <= 0.0:
            raise ValueError("rate must be positive")
        if self.name == "uniform" and values["lower"] >= values["upper"]:
            raise ValueError("need lower < upper")

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

    def param(self, name: str) -> float:
        return dict(self.params)[name]

    def pdf(self, x: float) -> float:
        if self.name == "geometric":
            p = self.param("success_prob")
            if x < 1.0:
                return 0.0
            return p * (1.0 - p) ** (x - 1.0)
        if self.name == "normal":
            mean, sd = self.param("mean"), self.param("sd")
            z = (x - mean) / sd
            return math.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))
        if self.name == "exponential":
            rate = self.param("rate")
            if x < 0.0:
                return 0.0
            return rate * math.exp(-rate * x)
        lower, upper = self.param("lower"), self.param("upper")
        return 1.0 / (upper - lower) if lower <= x <= upper else 0.0

    def cdf(self, x: float) -> float:
        """Cumulative coverage of the family's (normalized) decay profile."""
        if self.name == "geometric":
            p = self.param("success_prob")
            if x <= 1.0:
                return 0.0
            if p == 1.0:
                return 1.0
            return 1.0 - (1.0 - p) ** (x - 1.0)
        if self.name == "normal":
            mean, sd = self.param("mean"), self.param("sd")
            return 0.5 * (1.0 + math.erf((x - mean) / (sd * math.sqrt(2.0))))
        if self.name == "exponential":
            rate = self.param("rate")
            return 0.0 if x <= 0.0 else 1.0 - math.exp(-rate * x)
        lower, upper = self.param("lower"), self.param("upper")
        if x <= lower:
            return 0.0
        if x >= upper:
            return 1.0
        return (x - lower) / (upper - lower)


GridSpec = tuple[float, float, int]

_COVERAGE_TOL = 1e-6


def discretize(family: DistFamily, grid: GridSpec) -> GridDensity:
    """Rasterize a named family onto a uniform grid.

    Each cell takes the family density evaluated at the cell midpoint,
    then the whole vector is renormalized to unit mass.  The grid must
    cover at least ``1 - 1e-6`` of the family's mass, otherwise
    :class:`InsufficientCoverageError` is raised.
    """
    origin, delta, count = float(grid[0]), float(grid[1]), int(grid[2])
    if delta <= 0.0 or count < 1:
        raise ValueError("grid needs positive cell width and at least one cell")
    coverage = family.cdf(origin + count * delta) - family.cdf(origin)
    if coverage < 1.0 - _COVERAGE_TOL:
        raise InsufficientCoverageError(
            f"grid covers {coverage:.9f} of the {family.name} mass, need >= {1.0 - _COVERAGE_TOL}"
        )
    raw = [family.pdf(origin + (i + 0.5) * delta) for i in range(count)]
    return GridDensity.from_values(origin, delta, raw)


def _smoothing_cdf_discrete(dist: DiscreteDist, epsilon: float):
    points = [(key_value(k), m) for k, m in dist.atoms]

    def cdf(x: float) -> float:
        acc = []
        for theta, mass in points:
            t = (x - (theta - epsilon)) / (2.0 * epsilon)
            acc.append(mass * min(1.0, max(0.0, t)))
        return math.fsum(acc)

    lo = min(theta for theta, _ in points) - epsilon
    hi = max(theta for theta, _ in points) + epsilon
    return cdf, lo, hi


def _smoothing_cdf_grid(dist: GridDensity, epsilon: float):
    # Convolving a piecewise-constant density with a uniform kernel gives a
    # piecewise-linear density; its CDF is evaluated through G, the running
    # integral of the input CDF (piecewise quadratic, exact).
    delta = dist.delta
    n = dist.n_cells
    cdf_nodes = [0.0]
    for d in dist.densities:
        cdf_nodes.append(cdf_nodes[-1] + d * delta)
    g_nodes = [0.0]
    for i in range(n):
        g_nodes.append(g_nodes[-1] + cdf_nodes[i] * delta + dist.densities[i] * delta * delta / 2.0)
    total = cdf_nodes[-1]

    def integral_of_cdf(x: float) -> float:
        # G(x) = integral of the input CDF from the grid origin up to x.
        if x <= dist.origin:
            return 0.0
        if x >= dist.end:
            return g_nodes[-1] + (x - dist.end) * total
        i = min(int((x - dist.origin) / delta), n - 1)
        dx = x - (dist.origin + i * delta)
        return g_nodes[i] + cdf_nodes[i] * dx + dist.densities[i] * dx * dx / 2.0

    def cdf(x: float) -> float:
        return (integral_of_cdf(x + epsilon) - integral_of_cdf(x - epsilon)) / (2.0 * epsilon)

    return cdf, dist.origin - epsilon, dist.end + epsilon


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
    ``delta_out`` by cell averaging, which preserves total mass.  The cell
    width must divide ``2 * epsilon`` within ``1e-12`` so that a single
    smoothed point mass spans a whole number of cells.

    By default the output grid is snapped to multiples of ``delta_out``
    and spans the smoothed support.  Pass ``origin`` and ``cells`` to
    force a specific extent, e.g. to place two smoothed distributions on
    one shared grid so they can be conflated afterwards.
    """
    epsilon = float(epsilon)
    delta_out = float(delta_out)
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    if not (math.isfinite(delta_out) and delta_out > 0.0):
        raise ValueError(f"delta_out must be positive, got {delta_out!r}")
    span_cells = 2.0 * epsilon / delta_out
    if abs(span_cells - round(span_cells)) > 1e-12:
        raise BadResolutionError(
            f"cell width {delta_out!r} does not divide the window 2*epsilon = {2 * epsilon!r}"
        )
    if isinstance(dist, DiscreteDist):
        cdf, lo, hi = _smoothing_cdf_discrete(dist, epsilon)
    else:
        cdf, lo, hi = _smoothing_cdf_grid(dist, epsilon)
    if origin is None:
        origin = math.floor(lo / delta_out + 1e-12) * delta_out
    else:
        origin = float(origin)
    if cells is None:
        cells = max(1, math.ceil((hi - origin) / delta_out - 1e-12))
    else:
        cells = int(cells)
        if cells < 1:
            raise ValueError("cells must be at least 1")
    edges = [origin + j * delta_out for j in range(cells + 1)]
    cdf_at_edges = [cdf(e) for e in edges]
    densities = [
        (cdf_at_edges[j + 1] - cdf_at_edges[j]) / delta_out for j in range(cells)
    ]
    densities = [max(0.0, d) for d in densities]
    return GridDensity(origin, delta_out, tuple(densities))
