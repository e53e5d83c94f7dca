"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.  Every tolerance is pinned here; no
tolerance is deferred to later calibration.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager

from bayesfuse import (
    DiscreteDist,
    DistFamily,
    Event,
    WeightedPair,
    bayes_posterior,
    check_compatible,
    discretize,
    joint_support,
    linear_pool,
    linf_distance,
    max_loss,
    max_loss_exhaustive,
    minimize_max_loss,
    minimize_mlr_spread,
    minimize_weighted_loss,
    mlr_spread,
    proportionality_check,
    shannon_info,
    smooth_uniform,
    weighted_max_loss,
    weighted_max_loss_exhaustive,
    weighted_posterior,
)
from bayesfuse.cli import main as cli_main
from conftest import dirichlet_alternative

N3_PRIOR = DiscreteDist((("0", 0.5), ("1", 0.3), ("2", 0.2)))
N3_LIKE = DiscreteDist((("0", 0.2), ("1", 0.5), ("2", 0.3)))


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def test_criterion_1_one_bit_event_on_the_uniform_grid():
    with criterion("1 one-bit event on the uniform grid"):
        grid = discretize(DistFamily.uniform(0.0, 1.0), (0.0, 0.25, 4))
        info = shannon_info(grid, Event.of(0, 2))
        assert abs(info - 1.0) <= 1e-12


def test_criterion_2_product_rule_attains_the_bound(corpus, rng):
    with criterion("2 product rule attains the loss bound on 50 random pairs"):
        started = time.perf_counter()
        assert len(corpus) >= 50
        for prior, like in corpus:
            bound = -math.log2(check_compatible(prior, like).overlap_mass)
            post = bayes_posterior(prior, like)
            report = max_loss(post, prior, like)
            assert abs(report.value - bound) <= 1e-9
            assert report.attained
            keys = joint_support(prior, like)
            for _ in range(200):
                alternative = dirichlet_alternative(rng, keys)
                assert max_loss(alternative, prior, like).value > bound
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_3_singleton_reduction_matches_exhaustive(corpus, rng):
    with criterion("3 singleton reduction equals exhaustive event enumeration"):
        started = time.perf_counter()
        weight_grid = list(itertools.product((1.0, 2.0, 5.0), repeat=2))
        for prior, like in corpus:
            keys = joint_support(prior, like)
            assert len(keys) <= 12
            post = bayes_posterior(prior, like)
            candidates = [post] + [dirichlet_alternative(rng, keys) for _ in range(2)]
            for candidate in candidates:
                fast = max_loss(candidate, prior, like)
                slow = max_loss_exhaustive(candidate, prior, like)
                assert abs(fast.value - slow.value) <= 1e-12
            for w0, wL in weight_grid:
                pair = WeightedPair(prior, like, w0, wL)
                for candidate in (weighted_posterior(pair), candidates[1]):
                    fast = weighted_max_loss(candidate, pair)
                    slow = weighted_max_loss_exhaustive(candidate, pair)
                    assert abs(fast.value - slow.value) <= 1e-12
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_4_simplex_search_localizes_the_minimizer():
    with criterion("4 simplex search localizes the minimizer (n=3, K=200)"):
        started = time.perf_counter()
        post = bayes_posterior(N3_PRIOR, N3_LIKE)
        bound = -math.log2(check_compatible(N3_PRIOR, N3_LIKE).overlap_mass)
        result = minimize_max_loss(N3_PRIOR, N3_LIKE, 200)
        assert linf_distance(result.argmin, post) <= 0.015
        assert bound - 1e-12 <= result.min_value <= bound + math.log2(1 + 3 / 200)
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_5_ratio_spread_zero_only_at_the_product_rule(corpus):
    with criterion("5 ratio spread vanishes at the product rule; search agrees"):
        for prior, like in corpus:
            post = bayes_posterior(prior, like)
            assert mlr_spread(post, prior, like) <= 1e-12
        post = bayes_posterior(N3_PRIOR, N3_LIKE)
        result = minimize_mlr_spread(N3_PRIOR, N3_LIKE, 200)
        assert linf_distance(result.argmin, post) <= 0.015


def _pool_ratios_differ(pool, prior, like) -> bool:
    like_m = like.as_dict()
    pool_m = pool.as_dict()
    ratios = [
        pool_m.get(k, 0.0) / (m * like_m[k])
        for k, m in prior.atoms
        if m > 0.0 and like_m.get(k, 0.0) > 0.0
    ]
    return max(ratios) - min(ratios) > 1e-9


def test_criterion_6_proportionality_of_the_product_rule(corpus):
    with criterion("6 product rule is proportional, the linear pool is not"):
        for prior, like in corpus:
            post = bayes_posterior(prior, like)
            assert proportionality_check(post, prior, like, 1e-12)
            pool = linear_pool(prior, like)
            # Skip the (never observed) degenerate case where the average is
            # itself proportional to the product.
            if _pool_ratios_differ(pool, prior, like):
                assert not proportionality_check(pool, prior, like, 1e-12)


def test_criterion_7_weighted_posterior_closed_form(corpus):
    with criterion("7 weighted posterior: equal-weight collapse, 2:1 form, search"):
        for prior, like in corpus:
            post = bayes_posterior(prior, like)
            equal = weighted_posterior(WeightedPair(prior, like, 3.0, 3.0))
            assert linf_distance(equal, post) <= 1e-12
        prior = DiscreteDist((("0", 0.5), ("1", 0.5)))
        like = DiscreteDist((("0", 0.8), ("1", 0.2)))
        pair = WeightedPair(prior, like, 2.0, 1.0)
        closed = weighted_posterior(pair)
        closed_m = closed.as_dict()
        assert abs(closed_m["0"] - 2.0 / 3.0) <= 1e-12
        assert abs(closed_m["1"] - 1.0 / 3.0) <= 1e-12
        result = minimize_weighted_loss(pair, 300)
        assert linf_distance(result.argmin, closed) <= 1.0 / 300


def test_criterion_8_gridded_normal_product_moments():
    with criterion("8 gridded normal product has mean 0.5 and variance 0.5"):
        grid = (-8.0, 0.005, 3400)  # covers [-8, 9]
        g0 = discretize(DistFamily.normal(0.0, 1.0), grid)
        g1 = discretize(DistFamily.normal(1.0, 1.0), grid)
        post = bayes_posterior(g0, g1)
        midpoints = [post.origin + (i + 0.5) * post.delta for i in range(post.n_cells)]
        mean = post.delta * math.fsum(m * d for m, d in zip(midpoints, post.densities))
        second = post.delta * math.fsum(m * m * d for m, d in zip(midpoints, post.densities))
        # Completing the square: the density product is proportional to a
        # normal with mean (0+1)/2 and variance 1/2.
        assert abs(mean - 0.5) <= 0.01
        assert abs(second - mean**2 - 0.5) <= 0.01


def test_criterion_9_smoothing_restores_compatibility(tmp_path, capsys):
    with criterion("9 smoothing a disjoint pair enables the full CLI pipeline"):
        a = DiscreteDist((("0", 1.0),))
        b = DiscreteDist((("3", 1.0),))
        assert not check_compatible(a, b).compatible
        # gap is 3, so any epsilon above 1.5 overlaps the bumps
        sa = smooth_uniform(a, 2.0, 0.25, origin=-2.0, cells=28)
        sb = smooth_uniform(b, 2.0, 0.25, origin=-2.0, cells=28)
        assert check_compatible(sa, sb).compatible

        file_a = tmp_path / "a.json"
        file_b = tmp_path / "b.json"
        file_a.write_text(json.dumps({"kind": "discrete", "atoms": [["0", 1.0]]}))
        file_b.write_text(json.dumps({"kind": "discrete", "atoms": [["3", 1.0]]}))
        smooth_a = str(tmp_path / "sa.json")
        smooth_b = str(tmp_path / "sb.json")
        shared = ("--delta", "0.25", "--origin", "-2", "--cells", "28")
        assert cli_main(["smooth", str(file_a), "--epsilon", "2", *shared, "--out", smooth_a]) == 0
        assert cli_main(["smooth", str(file_b), "--epsilon", "2", *shared, "--out", smooth_b]) == 0
        out_file = str(tmp_path / "post.json")
        assert cli_main(["posterior", smooth_a, smooth_b, "--out", out_file]) == 0
        capsys.readouterr()
