"""Posterior combiners: product rule, weighted rule, baselines, compatibility."""

import math

import pytest

from bayesfuse import (
    DegenerateProductError,
    DiscreteDist,
    DistFamily,
    GridDensity,
    IncompatibleError,
    RepresentationMismatchError,
    WeightedPair,
    bayes_posterior,
    check_compatible,
    discretize,
    linear_pool,
    normalize,
    proportionality_check,
    weighted_posterior,
)
from conftest import dirichlet_alternative

TWO_ATOM_PRIOR = DiscreteDist((("0", 0.5), ("1", 0.5)))
TWO_ATOM_LIKE = DiscreteDist((("0", 0.8), ("1", 0.2)))


class TestCompatibility:
    def test_hand_computed_overlap(self):
        report = check_compatible(TWO_ATOM_PRIOR, TWO_ATOM_LIKE)
        assert report.overlap_mass == 0.5
        assert report.compatible

    def test_disjoint_supports_are_incompatible(self):
        far = DiscreteDist((("2", 0.5), ("3", 0.5)))
        report = check_compatible(TWO_ATOM_PRIOR, far)
        assert report.overlap_mass == 0.0
        assert not report.compatible

    def test_gridded_geometric_decays_are_compatible(self):
        grid = (1.0, 0.02, 3000)
        a = discretize(DistFamily.geometric(0.3), grid)
        b = discretize(DistFamily.geometric(0.6), grid)
        assert check_compatible(a, b).compatible

    def test_representation_mismatch(self):
        g = GridDensity(0.0, 0.5, (1.0, 1.0))
        with pytest.raises(RepresentationMismatchError):
            check_compatible(TWO_ATOM_PRIOR, g)
        shifted = GridDensity(0.5, 0.5, (1.0, 1.0))
        with pytest.raises(RepresentationMismatchError):
            check_compatible(g, shifted)


class TestBayesPosterior:
    def test_hand_computed_two_atom_case(self):
        post = bayes_posterior(TWO_ATOM_PRIOR, TWO_ATOM_LIKE)
        assert post.masses == (0.8, 0.2)

    def test_uniform_prior_returns_likelihood(self):
        uniform = normalize([(k, 1.0) for k in range(4)])
        like = normalize([(k, m) for k, m in zip(range(4), (0.4, 0.3, 0.2, 0.1))])
        post = bayes_posterior(uniform, like).as_dict()
        for key, mass in like.atoms:
            assert post[key] == pytest.approx(mass, abs=1e-15)

    def test_commutes_exactly(self, corpus):
        for prior, like in corpus:
            assert bayes_posterior(prior, like) == bayes_posterior(like, prior)

    def test_restricts_to_joint_support(self):
        prior = normalize([(0, 1.0), (1, 1.0), (2, 2.0)])
        like = normalize([(1, 1.0), (2, 1.0), (3, 1.0)])
        post = bayes_posterior(prior, like)
        assert post.keys == ("1", "2")

    def test_underflowing_product_is_off_the_joint_support(self):
        # 1e-200 * 1e-200 underflows to 0, so atom "2" must not appear, even
        # as a zero-mass atom, under either rule.
        tiny = DiscreteDist((("1", 1.0), ("2", 1e-200)))
        assert bayes_posterior(tiny, tiny).atoms == (("1", 1.0),)
        assert weighted_posterior(WeightedPair(tiny, tiny, 3.0, 3.0)).atoms == (("1", 1.0),)

    def test_incompatible_raises(self):
        far = DiscreteDist((("2", 0.5), ("3", 0.5)))
        with pytest.raises(IncompatibleError):
            bayes_posterior(TWO_ATOM_PRIOR, far)

    def test_grid_product_of_normals(self):
        """The product of two unit-variance normal densities centred at 0 and 1
        is proportional to a normal density with mean 0.5 and variance 0.5."""
        grid = (-8.0, 0.01, 1700)
        g0 = discretize(DistFamily.normal(0.0, 1.0), grid)
        g1 = discretize(DistFamily.normal(1.0, 1.0), grid)
        post = bayes_posterior(g0, g1)
        midpoints = [post.origin + (i + 0.5) * post.delta for i in range(post.n_cells)]
        mean = post.delta * math.fsum(m * d for m, d in zip(midpoints, post.densities))
        second = post.delta * math.fsum(m * m * d for m, d in zip(midpoints, post.densities))
        assert mean == pytest.approx(0.5, abs=1e-3)
        assert second - mean**2 == pytest.approx(0.5, abs=1e-3)


class TestWeightedPosterior:
    def test_equal_weights_collapse_to_product_rule(self, corpus):
        grid = (-8.0, 0.01, 1700)
        grid_pair = (
            discretize(DistFamily.normal(0.0, 1.0), grid),
            discretize(DistFamily.normal(1.0, 1.5), grid),
        )
        for prior, like in [*corpus[:20], grid_pair]:
            bayes = bayes_posterior(prior, like)
            for w in (1.0, 7.0):
                weighted = weighted_posterior(WeightedPair(prior, like, w, w))
                assert weighted == bayes

    def test_two_one_weighting_hand_value(self):
        pair = WeightedPair(TWO_ATOM_PRIOR, TWO_ATOM_LIKE, 2.0, 1.0)
        post = weighted_posterior(pair).as_dict()
        # masses proportional to (0.5 * sqrt(0.8), 0.5 * sqrt(0.2)), i.e. 2:1
        assert post["0"] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert post["1"] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_only_relative_weights_matter(self):
        base = weighted_posterior(WeightedPair(TWO_ATOM_PRIOR, TWO_ATOM_LIKE, 2.0, 1.0))
        scaled = weighted_posterior(WeightedPair(TWO_ATOM_PRIOR, TWO_ATOM_LIKE, 14.0, 7.0))
        assert base == scaled

    def test_degenerate_product(self):
        far = DiscreteDist((("2", 0.5), ("3", 0.5)))
        with pytest.raises(DegenerateProductError):
            weighted_posterior(WeightedPair(TWO_ATOM_PRIOR, far, 2.0, 1.0))

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            WeightedPair(TWO_ATOM_PRIOR, TWO_ATOM_LIKE, 0.0, 1.0)
        with pytest.raises(ValueError):
            WeightedPair(TWO_ATOM_PRIOR, TWO_ATOM_LIKE, 1.0, -2.0)

    def test_grid_weighted_matches_pointwise_formula(self):
        grid = (-8.0, 0.01, 1700)
        g0 = discretize(DistFamily.normal(0.0, 1.0), grid)
        g1 = discretize(DistFamily.normal(1.0, 1.0), grid)
        post = weighted_posterior(WeightedPair(g0, g1, 3.0, 1.0))
        raw = [f0 ** 1.0 * fl ** (1.0 / 3.0) for f0, fl in zip(g0.densities, g1.densities)]
        total = post.delta * math.fsum(raw)
        for got, expect in zip(post.densities[::100], raw[::100]):
            assert got == pytest.approx(expect / total, rel=1e-12)


class TestLinearPool:
    def test_symmetric_point_masses(self):
        a = DiscreteDist((("0", 1.0), ("1", 0.0)))
        b = DiscreteDist((("0", 0.0), ("1", 1.0)))
        assert linear_pool(a, b).masses == (0.5, 0.5)

    def test_idempotent_on_equal_inputs(self):
        assert linear_pool(TWO_ATOM_LIKE, TWO_ATOM_LIKE) == TWO_ATOM_LIKE

    def test_coordinate_wise_mean(self):
        pool = linear_pool(TWO_ATOM_PRIOR, TWO_ATOM_LIKE)
        assert pool.masses == (0.65, 0.35)


class TestProportionality:
    def test_product_rule_is_proportional_everywhere(self, corpus):
        for prior, like in corpus:
            post = bayes_posterior(prior, like)
            assert proportionality_check(post, prior, like, 1e-12)

    def test_linear_pool_is_not(self):
        pool = linear_pool(TWO_ATOM_PRIOR, TWO_ATOM_LIKE)
        assert not proportionality_check(pool, TWO_ATOM_PRIOR, TWO_ATOM_LIKE, 1e-12)

    def test_single_shared_atom_is_vacuously_proportional(self, rng):
        prior = normalize([(0, 1.0), (1, 1.0)])
        like = normalize([(1, 1.0), (2, 1.0)])
        candidate = dirichlet_alternative(rng, ("1",))
        assert proportionality_check(candidate, prior, like, 1e-12)

    def test_incompatible_raises(self):
        far = DiscreteDist((("2", 0.5), ("3", 0.5)))
        with pytest.raises(IncompatibleError):
            proportionality_check(TWO_ATOM_PRIOR, TWO_ATOM_PRIOR, far, 1e-12)
