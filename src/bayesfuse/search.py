"""Brute-force minimization of the loss objectives over a simplex grid.

These searches are deliberately independent of the closed-form posterior
formulas: they enumerate every probability vector whose masses are integer
multiples of ``1/K`` on the joint support, evaluate the chosen objective
on each, and report the grid minimizer.  Watching the argmin converge to
the closed form as ``K`` grows is the package's empirical check that the
product-rule (and weighted) posteriors really are the optimizers.

The grid is enumerated in numpy blocks of at most ``chunk_size``
lexicographic rows, so memory stays bounded, and the reduction keeps the
first minimum seen, so results are bit-identical however it is chunked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

from .combine import WeightedPair, _align
from .dists import DiscreteDist, _unit_mass
from .errors import (
    CrossCheckError,
    RepresentationMismatchError,
    TooLargeError,
)
from .information import weighted_max_loss_exhaustive

if TYPE_CHECKING:
    import numpy as np

EVALUATION_BUDGET = 10**8

_CROSS_CHECK_MAX_ATOMS = 12
_CROSS_CHECK_TOL = 1e-12
_CHUNK_SIZE = 16384


@dataclass(frozen=True)
class SimplexGrid:
    """All probability vectors on ``n`` atoms with masses in ``{0, 1/K, ..., 1}``."""

    n: int
    K: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one atom")
        if self.K < 1:
            raise ValueError("resolution K must be at least 1")

    @property
    def count(self) -> int:
        return math.comb(self.K + self.n - 1, self.n - 1)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one exhaustive scan over a simplex grid."""

    argmin: DiscreteDist
    min_value: float
    runner_up_value: float
    evaluated_count: int

    def __post_init__(self) -> None:
        if self.min_value > self.runner_up_value:
            raise ValueError("minimum exceeds the runner-up value")
        if self.evaluated_count < 1:
            raise ValueError("no candidates were evaluated")


def _composition_blocks(grid: SimplexGrid, chunk_size: int) -> Iterator[np.ndarray]:
    """Yield the grid's integer compositions of ``K`` in lexicographic order.

    Blocks are column-major, so row reductions vectorize, and hold at most
    ``chunk_size`` rows.  Each row is unranked from its position through
    ``sizes[p][x] = C(x+p-1, p-1)``, the compositions of ``x`` into ``p`` parts.
    Grids over the evaluation budget raise :class:`TooLargeError`.
    """
    import numpy as np

    if grid.count > EVALUATION_BUDGET:
        raise TooLargeError(
            f"{grid.count} grid points exceed the budget of {EVALUATION_BUDGET}"
        )
    n, K = grid.n, grid.K
    sizes = {2: np.arange(1, K + 2)} if n > 2 else {}
    for p in range(3, n + 1):
        sizes[p] = np.cumsum(sizes[p - 1])
    for start in range(0, grid.count, chunk_size):
        rank = np.arange(start, min(start + chunk_size, grid.count))
        mass = np.full_like(rank, K)
        block = np.empty((n, rank.size), dtype=rank.dtype).T
        for p in range(n, 2, -1):
            tail = sizes[p][mass] - rank
            rest = np.searchsorted(sizes[p], tail)
            block[:, n - p] = mass - rest
            rank, mass = sizes[p][rest] - tail, rest
        block[:, -1] = mass - rank
        if n > 1:
            block[:, -2] = rank
        yield block


def enumerate_simplex(n: int, K: int) -> Iterator[tuple[float, ...]]:
    """Yield every grid mass vector once, in lexicographic order.

    There are ``C(K+n-1, n-1)`` of them; requests above the evaluation
    budget of ``10**8`` raise :class:`TooLargeError`.
    """
    for block in _composition_blocks(SimplexGrid(n, K), _CHUNK_SIZE):
        yield from map(tuple, (block / K).tolist())


def _scan(
    p0: DiscreteDist,
    like: DiscreteDist,
    K: int,
    chunk_size: int,
    evaluate_rows: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
) -> SearchResult:
    """Score every grid pmf on the joint support with ``evaluate_rows(rows, u, v)``."""
    import numpy as np

    if not isinstance(p0, DiscreteDist) or not isinstance(like, DiscreteDist):
        raise RepresentationMismatchError("simplex searches take discrete inputs")
    aligned = _align(p0, like).require_compatible()
    keys, u, v = aligned.labels, np.asarray(aligned.u), np.asarray(aligned.v)
    grid = SimplexGrid(len(keys), int(K))
    best_value, best_comp, runner_up, evaluated = math.inf, (), math.inf, 0
    for block in _composition_blocks(grid, chunk_size):
        values = evaluate_rows(block / grid.K, u, v)
        i = int(np.argmin(values))
        chunk_best = float(values[i])
        chunk_second = (
            float(np.partition(values, 1)[1]) if values.size > 1 else math.inf
        )
        evaluated += values.size
        if chunk_best < best_value:
            runner_up = min(best_value, chunk_second)
            best_value, best_comp = chunk_best, block[i].tolist()
        else:
            runner_up = min(runner_up, chunk_best)
    argmin = _unit_mass(keys, [c / grid.K for c in best_comp])
    return SearchResult(argmin, best_value, runner_up, evaluated)


def default_resolution(n: int) -> int:
    """Grid resolution giving roughly 2% localization within the budget."""
    return 200 if n <= 3 else 60


def _minimize_loss(
    p0: DiscreteDist, like: DiscreteDist, a: float, b: float, K: int, chunk_size: int
) -> SearchResult:
    def evaluate(rows: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        import numpy as np

        return np.log2((rows / (u**a * v**b)).max(axis=1))

    result = _scan(p0, like, K, chunk_size, evaluate)
    if len(result.argmin.atoms) <= _CROSS_CHECK_MAX_ATOMS:
        full = weighted_max_loss_exhaustive(result.argmin, WeightedPair(p0, like, a, b))
        margin = abs(full.value - result.min_value)
        if margin > _CROSS_CHECK_TOL:
            raise CrossCheckError(
                f"singleton fast path disagrees with exhaustive events by {margin!r} bits"
            )
    return result


def minimize_max_loss(
    p0: DiscreteDist, like: DiscreteDist, K: int, chunk_size: int = _CHUNK_SIZE
) -> SearchResult:
    """Scan the simplex grid for the pmf with the smallest maximum information loss."""
    return _minimize_loss(p0, like, 1.0, 1.0, K, chunk_size)


def minimize_weighted_loss(
    pair: WeightedPair, K: int, chunk_size: int = _CHUNK_SIZE
) -> SearchResult:
    """Grid search against the weighted maximum-loss objective."""
    return _minimize_loss(pair.prior, pair.likelihood, *pair.exponents, K, chunk_size)


def minimize_mlr_spread(
    p0: DiscreteDist, like: DiscreteDist, K: int, chunk_size: int = _CHUNK_SIZE
) -> SearchResult:
    """Grid search for the pmf with the smallest likelihood-ratio spread."""

    def evaluate(rows: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        ratios = rows / (u * v)
        return ratios.max(axis=1) - ratios.min(axis=1)

    return _scan(p0, like, K, chunk_size, evaluate)
