"""Brute-force minimization of the loss objectives over a simplex grid.

These searches are deliberately independent of the closed-form posterior
formulas: they enumerate every probability vector whose masses are integer
multiples of ``1/K`` on the joint support, evaluate the chosen objective
on each, and report the grid minimizer.  Watching the argmin converge to
the closed form as ``K`` grows is the package's empirical check that the
product-rule (and weighted) posteriors really are the optimizers.
``minimize_max_loss`` takes the weights ``w0`` and ``wL`` as trailing
arguments, equal by default, and cross-checks its minimum with
``max_loss_exhaustive`` under the same weights.

The grid is enumerated in numpy blocks of at most 16384 lexicographic
rows, so memory stays bounded, and the reduction keeps the first minimum
seen, so results are bit-identical however it is chunked.  Each row is
divided by the aligned pair's joint terms ``p0**a * pL**b``; a subnormal
term raises :class:`IncompatibleError` before any block.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Iterator

from .combine import _align, _exponents
from .dists import DiscreteDist, _unit_mass, _Value
from .errors import (
    CrossCheckError,
    InvalidArgumentError,
    RepresentationMismatchError,
    TooLargeError,
)
from .information import _CHUNK_SIZE, _numpy, max_loss_exhaustive

if TYPE_CHECKING:
    import numpy as np

EVALUATION_BUDGET = 10**8

_CROSS_CHECK_MAX_ATOMS = 12
_CROSS_CHECK_TOL = 1e-12


class SearchResult(_Value):
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


def _composition_blocks(n: int, K: int) -> Iterator[np.ndarray]:
    """Yield the integer compositions of ``K`` into ``n`` parts in lexicographic order.

    These are the grid's ``C(K+n-1, n-1)`` mass vectors, times ``K``.
    Blocks are column-major, so row reductions vectorize, and hold at most
    ``_CHUNK_SIZE`` rows.  Each row is unranked from its position through
    ``sizes[p][x] = C(x+p-1, p-1)``, the compositions of ``x`` into ``p`` parts.
    ``n`` or ``K`` below 1 raises :class:`InvalidArgumentError`, and grids
    over the evaluation budget raise :class:`TooLargeError`.
    """
    if n < 1:
        raise InvalidArgumentError("need at least one atom")
    if K < 1:
        raise InvalidArgumentError("resolution K must be at least 1")
    count = math.comb(K + n - 1, n - 1)
    if count > EVALUATION_BUDGET:
        raise TooLargeError(f"{count} grid points exceed the budget of {EVALUATION_BUDGET}")
    np = _numpy()
    sizes = {2: np.arange(1, K + 2)} if n > 2 else {}
    for p in range(3, n + 1):
        sizes[p] = np.cumsum(sizes[p - 1])
    for start in range(0, count, _CHUNK_SIZE):
        rank = np.arange(start, min(start + _CHUNK_SIZE, count))
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
    for block in _composition_blocks(n, K):
        yield from map(tuple, (block / K).tolist())


def _scan(
    p0: DiscreteDist,
    like: DiscreteDist,
    K: int,
    evaluate_rows: Callable[[np.ndarray], np.ndarray],
    a: float = 1.0,
    b: float = 1.0,
) -> SearchResult:
    """Score every grid pmf on the joint support with ``evaluate_rows(ratios)``,
    its rows divided by the aligned pair's terms ``u**a * v**b``.  A subnormal term
    raises before any block, so no ratio of a row (at most 1) overflows."""
    if not isinstance(p0, DiscreteDist) or not isinstance(like, DiscreteDist):
        raise RepresentationMismatchError("simplex searches take discrete inputs")
    np = _numpy()
    aligned = _align(p0, like).require_compatible()
    keys, terms = aligned.labels, np.asarray(aligned.products(a, b))
    K = int(K)
    best_value, best_comp, runner_up, evaluated = math.inf, (), math.inf, 0
    for block in _composition_blocks(len(keys), K):
        values = evaluate_rows(block / K / terms)
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
    argmin = _unit_mass(keys, [c / K for c in best_comp])
    return SearchResult(argmin, best_value, runner_up, evaluated)


def default_resolution(n: int) -> int:
    """Grid resolution giving roughly 2% localization within the budget."""
    return 200 if n <= 3 else 60


def minimize_max_loss(
    p0: DiscreteDist, like: DiscreteDist, K: int, w0: float = 1.0, wL: float = 1.0
) -> SearchResult:
    """Scan the simplex grid for the pmf with the smallest maximum information
    loss, against :func:`~bayesfuse.information.combined_info` with the same weights."""
    a, b = _exponents(w0, wL)

    def evaluate(ratios: np.ndarray) -> np.ndarray:
        return _numpy().log2(ratios.max(axis=1))

    result = _scan(p0, like, K, evaluate, a, b)
    if len(result.argmin.atoms) <= _CROSS_CHECK_MAX_ATOMS:
        full = max_loss_exhaustive(result.argmin, p0, like, w0, wL)
        margin = abs(full.value - result.min_value)
        if margin > _CROSS_CHECK_TOL:
            raise CrossCheckError(
                f"singleton fast path disagrees with exhaustive events by {margin!r} bits"
            )
    return result


def minimize_mlr_spread(p0: DiscreteDist, like: DiscreteDist, K: int) -> SearchResult:
    """Grid search for the pmf with the smallest likelihood-ratio spread."""

    def evaluate(ratios: np.ndarray) -> np.ndarray:
        return ratios.max(axis=1) - ratios.min(axis=1)

    return _scan(p0, like, K, evaluate)
