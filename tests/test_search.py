"""Brute-force simplex scans and their convergence to the closed forms."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesfuse import (
    CrossCheckError,
    DiscreteDist,
    IncompatibleError,
    SimplexGrid,
    TooLargeError,
    WeightedPair,
    bayes_posterior,
    check_compatible,
    enumerate_simplex,
    linf_distance,
    minimize_max_loss,
    minimize_mlr_spread,
    minimize_weighted_loss,
    mlr_spread,
    normalize,
    weighted_posterior,
)
from bayesfuse import search
from conftest import random_pair

TWO_ATOM_PRIOR = DiscreteDist((("0", 0.5), ("1", 0.5)))
TWO_ATOM_LIKE = DiscreteDist((("0", 0.8), ("1", 0.2)))


def reference_compositions(n, K):
    """Every composition of ``K`` into ``n`` parts, lexicographically, in plain Python."""
    if n == 1:
        return [(K,)]
    return [
        (first,) + rest
        for first in range(K + 1)
        for rest in reference_compositions(n - 1, K - first)
    ]


class TestCompositionBlocks:
    @settings(deadline=None)
    @given(
        n=st.integers(1, 5),
        K=st.integers(1, 12),
        chunk_size=st.integers(1, 50),
    )
    def test_blocks_concatenate_to_the_reference(self, n, K, chunk_size):
        blocks = list(search._composition_blocks(SimplexGrid(n, K), chunk_size))
        assert all(0 < len(block) <= chunk_size for block in blocks)
        rows = [tuple(row) for block in blocks for row in block.tolist()]
        assert rows == reference_compositions(n, K)
        assert rows == sorted(rows)
        assert all(sum(row) == K for row in rows)

    def test_evaluate_rows_never_sees_more_than_a_chunk(self):
        uniform = normalize([(k, 1.0) for k in range(4)])
        seen = []

        def evaluate(rows, u, v):
            seen.append(rows.shape)
            return rows[:, 0]

        result = search._scan(uniform, uniform, 20, 100, evaluate)
        assert max(shape[0] for shape in seen) == 100
        assert all(shape[1] == 4 for shape in seen)
        assert sum(shape[0] for shape in seen) == SimplexGrid(4, 20).count
        assert result.evaluated_count == SimplexGrid(4, 20).count

    def test_enumerate_simplex_is_the_reference_over_K(self):
        expected = [tuple(c / 9 for c in comp) for comp in reference_compositions(4, 9)]
        assert list(enumerate_simplex(4, 9)) == expected


class TestEnumeration:
    def test_two_atom_resolution_two(self):
        assert list(enumerate_simplex(2, 2)) == [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]

    def test_unit_vectors_at_resolution_one(self):
        assert list(enumerate_simplex(3, 1)) == [
            (0.0, 0.0, 1.0),
            (0.0, 1.0, 0.0),
            (1.0, 0.0, 0.0),
        ]

    def test_counts_match_the_binomial(self):
        assert SimplexGrid(3, 200).count == 20301
        assert len(list(enumerate_simplex(3, 200))) == 20301

    def test_lexicographic_order_and_unit_sums(self):
        vectors = list(enumerate_simplex(3, 5))
        assert vectors == sorted(vectors)
        assert len(set(vectors)) == len(vectors)
        for v in vectors:
            assert math.fsum(v) == pytest.approx(1.0, abs=1e-12)

    def test_budget_guard(self):
        with pytest.raises(TooLargeError):
            next(iter(enumerate_simplex(10, 200)))


class TestMinimizeMaxLoss:
    def test_two_atom_argmin_is_the_product_rule(self):
        result = minimize_max_loss(TWO_ATOM_PRIOR, TWO_ATOM_LIKE, 200)
        post = bayes_posterior(TWO_ATOM_PRIOR, TWO_ATOM_LIKE)
        assert linf_distance(result.argmin, post) <= 1.0 / 200 + 1e-12
        assert result.min_value == pytest.approx(1.0, abs=math.log2(1 + 2 / 200))
        assert result.evaluated_count == 201
        assert result.runner_up_value > result.min_value

    def test_single_atom_support(self):
        prior = normalize([(0, 1.0), (1, 1.0)])
        like = normalize([(1, 1.0), (2, 1.0)])
        result = minimize_max_loss(prior, like, 60)
        assert result.argmin.atoms == (("1", 1.0),)
        assert result.evaluated_count == 1
        assert result.runner_up_value == math.inf
        expected = -math.log2(prior.as_dict()["1"] * like.as_dict()["1"])
        assert result.min_value == pytest.approx(expected, abs=1e-12)

    def test_uniform_three_atom_pair(self):
        uniform = normalize([(k, 1.0) for k in range(3)])
        result = minimize_max_loss(uniform, uniform, 150)
        assert result.min_value == pytest.approx(math.log2(3.0), abs=math.log2(1 + 3 / 150))
        for mass in result.argmin.masses:
            assert mass == pytest.approx(1.0 / 3.0, abs=3 / 150)

    def test_min_value_sandwiched_by_the_bound(self, rng):
        """With K >= 50n the scan minimum sits within log2(1 + n/K) of the bound."""
        for n in (2, 3, 4):
            K = 50 * n
            prior, like = random_pair(rng, n)
            bound = -math.log2(check_compatible(prior, like).overlap_mass)
            result = minimize_max_loss(prior, like, K)
            assert bound - 1e-12 <= result.min_value <= bound + math.log2(1 + n / K)

    def test_argmin_converges_to_the_closed_form(self, rng):
        for n in (2, 3):
            prior, like = random_pair(rng, n)
            post = bayes_posterior(prior, like)
            result = minimize_max_loss(prior, like, 200)
            assert linf_distance(result.argmin, post) <= n / 200

    def test_incompatible_rejected(self):
        far = DiscreteDist((("2", 0.5), ("3", 0.5)))
        with pytest.raises(IncompatibleError):
            minimize_max_loss(TWO_ATOM_PRIOR, far, 100)

    def test_budget_guard(self):
        big = normalize([(k, 1.0) for k in range(8)])
        with pytest.raises(TooLargeError):
            minimize_max_loss(big, big, 1000)

    def test_cross_check_disagreement_raises(self, monkeypatch):
        real = search.weighted_max_loss_exhaustive

        def skewed(p1, pair):
            return dataclasses.replace(real(p1, pair), value=2.0, attained=False)

        monkeypatch.setattr(search, "weighted_max_loss_exhaustive", skewed)
        with pytest.raises(CrossCheckError, match=r"disagrees .* by [\d.e+-]+ bits"):
            minimize_max_loss(TWO_ATOM_PRIOR, TWO_ATOM_LIKE, 20)

    def test_chunking_does_not_change_the_result(self):
        uniform = normalize([(k, 1.0) for k in range(3)])
        fine = minimize_max_loss(uniform, uniform, 60, chunk_size=7)
        coarse = minimize_max_loss(uniform, uniform, 60, chunk_size=100000)
        assert fine == coarse


class TestMinimizeWeightedLoss:
    def test_equal_weights_reduce_to_the_plain_objective(self):
        pair = WeightedPair(TWO_ATOM_PRIOR, TWO_ATOM_LIKE, 3.0, 3.0)
        assert minimize_weighted_loss(pair, 200) == minimize_max_loss(
            TWO_ATOM_PRIOR, TWO_ATOM_LIKE, 200
        )

    def test_two_one_weighting_localizes_the_closed_form(self):
        pair = WeightedPair(TWO_ATOM_PRIOR, TWO_ATOM_LIKE, 2.0, 1.0)
        result = minimize_weighted_loss(pair, 300)
        closed = weighted_posterior(pair)
        assert linf_distance(result.argmin, closed) <= 1.0 / 300

    def test_point_mass_prior(self):
        point = DiscreteDist((("2", 1.0),))
        pair = WeightedPair(point, point, 9.0, 2.0)
        result = minimize_weighted_loss(pair, 50)
        assert result.argmin == point

    def test_argmin_tracks_the_weighted_closed_form(self, rng):
        for w0, wL in ((2.0, 1.0), (1.0, 5.0), (5.0, 2.0)):
            prior, like = random_pair(rng, 3)
            pair = WeightedPair(prior, like, w0, wL)
            result = minimize_weighted_loss(pair, 200)
            closed = weighted_posterior(pair)
            assert linf_distance(result.argmin, closed) <= 3 / 200


class TestMinimizeMlrSpread:
    def test_two_atom_argmin(self):
        result = minimize_mlr_spread(TWO_ATOM_PRIOR, TWO_ATOM_LIKE, 200)
        post = bayes_posterior(TWO_ATOM_PRIOR, TWO_ATOM_LIKE)
        assert linf_distance(result.argmin, post) <= 1.0 / 200 + 1e-12
        # every grid point scores at least the reported minimum
        for other in enumerate_simplex(2, 10):
            candidate = normalize(zip(("0", "1"), other))
            assert (
                mlr_spread(candidate, TWO_ATOM_PRIOR, TWO_ATOM_LIKE)
                >= result.min_value - 1e-12
            )

    def test_uniform_pair_has_exact_zero_spread(self):
        uniform = DiscreteDist((("0", 0.5), ("1", 0.5)))
        result = minimize_mlr_spread(uniform, uniform, 10)
        assert result.argmin.masses == (0.5, 0.5)
        assert result.min_value == 0.0

    def test_argmin_converges(self, rng):
        prior, like = random_pair(rng, 3)
        post = bayes_posterior(prior, like)
        result = minimize_mlr_spread(prior, like, 200)
        assert linf_distance(result.argmin, post) <= 3 / 200
