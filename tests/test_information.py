"""Shannon information of events and the maximum-loss functionals."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesfuse import (
    DiscreteDist,
    DistFamily,
    Event,
    GridDensity,
    IncompatibleError,
    InvalidEventError,
    LossReport,
    TooLargeError,
    WeightedPair,
    bayes_posterior,
    check_compatible,
    combined_info,
    discretize,
    joint_support,
    max_loss,
    max_loss_exhaustive,
    normalize,
    shannon_info,
    weighted_combined_info,
    weighted_max_loss,
    weighted_max_loss_exhaustive,
    weighted_posterior,
)
from conftest import dirichlet_alternative

TWO_ATOM_PRIOR = DiscreteDist((("0", 0.5), ("1", 0.5)))
TWO_ATOM_LIKE = DiscreteDist((("0", 0.8), ("1", 0.2)))


class TestShannonInfo:
    def test_uniform_grid_half_event_is_one_bit(self):
        """Observing a probability-one-half event yields exactly one binary bit."""
        g = discretize(DistFamily.uniform(0.0, 1.0), (0.0, 0.25, 4))
        assert shannon_info(g, Event.of(0, 2)) == 1.0

    def test_certain_event_carries_no_information(self):
        g = discretize(DistFamily.uniform(0.0, 1.0), (0.0, 0.25, 4))
        assert shannon_info(g, Event.of(0, 1, 2, 3)) == 0.0
        assert shannon_info(TWO_ATOM_PRIOR, Event.of("0", "1")) == 0.0

    def test_quarter_probability_is_two_bits(self):
        d = DiscreteDist((("0", 0.25), ("1", 0.75)))
        assert shannon_info(d, Event.of("0")) == 2.0

    def test_null_event_is_infinite(self):
        d = DiscreteDist((("0", 1.0), ("1", 0.0)))
        assert shannon_info(d, Event.of("1")) == math.inf

    def test_nonnegative_with_equality_only_at_certainty(self, corpus, rng):
        for prior, _ in corpus[:10]:
            keys = list(prior.keys)
            for _ in range(20):
                size = int(rng.integers(1, len(keys) + 1))
                members = rng.choice(keys, size=size, replace=False)
                event = Event(frozenset(members.tolist()))
                info = shannon_info(prior, event)
                assert info >= 0.0
                if info == 0.0:
                    table = prior.as_dict()
                    assert math.fsum(table[k] for k in event.members) >= 1.0 - 1e-15

    def test_monotone_in_event_inclusion(self, corpus, rng):
        """Shrinking an event can only increase its information."""
        for prior, _ in corpus[:10]:
            keys = list(prior.keys)
            for _ in range(20):
                size_b = int(rng.integers(1, len(keys) + 1))
                b_members = set(rng.choice(keys, size=size_b, replace=False).tolist())
                size_a = int(rng.integers(1, size_b + 1))
                a_members = set(list(b_members)[:size_a])
                assert shannon_info(prior, Event(frozenset(a_members))) >= shannon_info(
                    prior, Event(frozenset(b_members))
                )

    def test_invalid_events(self):
        with pytest.raises(InvalidEventError):
            Event(frozenset())
        with pytest.raises(InvalidEventError):
            shannon_info(TWO_ATOM_PRIOR, Event.of("7"))
        g = discretize(DistFamily.uniform(0.0, 1.0), (0.0, 0.25, 4))
        with pytest.raises(InvalidEventError):
            shannon_info(g, Event.of(4))


class TestCombinedInfo:
    def test_adds_the_two_informations(self):
        event = Event.of("0")
        assert combined_info(TWO_ATOM_PRIOR, TWO_ATOM_PRIOR, event) == 2.0

    def test_whole_space_is_zero(self):
        assert combined_info(TWO_ATOM_PRIOR, TWO_ATOM_LIKE, Event.of("0", "1")) == 0.0

    def test_null_event_on_either_side_is_infinite(self):
        degenerate = DiscreteDist((("0", 1.0), ("1", 0.0)))
        assert combined_info(TWO_ATOM_PRIOR, degenerate, Event.of("1")) == math.inf


class TestWeightedCombinedInfo:
    def test_equal_weights_reduce_exactly(self, corpus):
        for prior, like in corpus[:10]:
            event = Event.of(prior.keys[0])
            pair = WeightedPair(prior, prior, 3.0, 3.0)
            assert weighted_combined_info(pair, event) == combined_info(
                prior, prior, event
            )

    def test_whole_space_is_zero_for_any_weights(self):
        pair = WeightedPair(TWO_ATOM_PRIOR, TWO_ATOM_LIKE, 5.0, 2.0)
        assert weighted_combined_info(pair, Event.of("0", "1")) == 0.0

    def test_hand_computed_value(self):
        quarter = DiscreteDist((("0", 0.25), ("1", 0.75)))
        pair = WeightedPair(quarter, TWO_ATOM_PRIOR, 2.0, 1.0)
        # exponents (1, 0.5): 1 * 2 bits + 0.5 * 1 bit
        assert weighted_combined_info(pair, Event.of("0")) == 2.5


class TestMaxLoss:
    def test_product_rule_attains_the_bound(self):
        post = bayes_posterior(TWO_ATOM_PRIOR, TWO_ATOM_LIKE)
        report = max_loss(post, TWO_ATOM_PRIOR, TWO_ATOM_LIKE)
        assert report.value == pytest.approx(1.0, abs=1e-12)
        assert report.lower_bound == pytest.approx(1.0, abs=1e-12)
        assert report.attained

    def test_uniform_candidate_against_skewed_likelihood(self):
        like = DiscreteDist((("0", 0.9), ("1", 0.1)))
        report = max_loss(TWO_ATOM_PRIOR, TWO_ATOM_PRIOR, like)
        # singleton ratios are 0.5/0.45 and 0.5/0.05
        assert report.value == pytest.approx(math.log2(10.0), abs=1e-12)
        assert report.lower_bound == pytest.approx(1.0, abs=1e-12)
        assert not report.attained
        assert report.witness == Event.of("1")

    def test_mass_off_the_joint_support_is_infinitely_bad(self):
        stray = DiscreteDist((("0", 0.5), ("5", 0.5)))
        report = max_loss(stray, TWO_ATOM_PRIOR, TWO_ATOM_LIKE)
        assert report.value == math.inf
        assert not report.attained

    def test_incompatible_raises(self):
        far = DiscreteDist((("2", 0.5), ("3", 0.5)))
        with pytest.raises(IncompatibleError):
            max_loss(TWO_ATOM_PRIOR, TWO_ATOM_PRIOR, far)

    def test_bound_holds_for_random_candidates(self, corpus, rng):
        """Every posterior loses at least log2(1/overlap) bits somewhere."""
        for prior, like in corpus:
            keys = joint_support(prior, like)
            bound = -math.log2(check_compatible(prior, like).overlap_mass)
            for _ in range(20):
                candidate = dirichlet_alternative(rng, keys)
                report = max_loss(candidate, prior, like)
                assert report.value >= bound - 1e-12
                assert report.value >= report.lower_bound - 1e-12

    def test_unique_minimizer_at_scale(self, corpus, rng):
        """Candidates at least 1e-3 away from the product rule lose strictly more."""
        for prior, like in corpus[:20]:
            post = bayes_posterior(prior, like)
            keys = post.keys
            if len(keys) < 2:
                continue
            bound = max_loss(post, prior, like).lower_bound
            for delta in (1e-3, 1e-2, 0.1):
                i, j = rng.choice(len(keys), size=2, replace=False)
                masses = dict(post.atoms)
                shift = min(delta, masses[keys[j]])
                masses[keys[i]] += shift
                masses[keys[j]] -= shift
                candidate = normalize(masses.items())
                report = max_loss(candidate, prior, like)
                assert report.value > bound
                assert not report.attained or shift < 1e-3

    def test_grid_product_rule_attains_the_cell_mass_bound(self):
        grid = (-8.0, 0.01, 1700)
        g0 = discretize(DistFamily.normal(0.0, 1.0), grid)
        g1 = discretize(DistFamily.normal(1.0, 1.0), grid)
        post = bayes_posterior(g0, g1)
        report = max_loss(post, g0, g1)
        assert report.attained
        cell_overlap = math.fsum(
            (g0.delta * a) * (g1.delta * b)
            for a, b in zip(g0.densities, g1.densities)
        )
        assert report.lower_bound == pytest.approx(-math.log2(cell_overlap), abs=1e-12)


class TestExhaustiveEnumeration:
    def test_matches_singleton_reduction_on_the_corpus(self, corpus, rng):
        for prior, like in corpus:
            post = bayes_posterior(prior, like)
            keys = post.keys
            candidates = [post] + [dirichlet_alternative(rng, keys) for _ in range(3)]
            for candidate in candidates:
                fast = max_loss(candidate, prior, like)
                slow = max_loss_exhaustive(candidate, prior, like)
                assert abs(fast.value - slow.value) <= 1e-12

    def test_single_atom_instance(self):
        point = DiscreteDist((("2", 1.0),))
        report = max_loss_exhaustive(point, point, point)
        assert report.value == 0.0
        assert report.attained

    def test_three_event_hand_case(self):
        post = bayes_posterior(TWO_ATOM_PRIOR, TWO_ATOM_LIKE)
        report = max_loss_exhaustive(post, TWO_ATOM_PRIOR, TWO_ATOM_LIKE)
        assert report.value == pytest.approx(1.0, abs=1e-12)

    def test_too_many_atoms(self):
        big = normalize([(k, 1.0) for k in range(21)])
        with pytest.raises(TooLargeError):
            max_loss_exhaustive(big, big, big)

    def test_twenty_atom_guard_boundary_runs(self):
        edge = normalize([(k, 1.0 + 0.01 * k) for k in range(12)])
        report = max_loss_exhaustive(edge, edge, edge)
        assert report.value >= report.lower_bound - 1e-12


class TestWeightedMaxLoss:
    def test_weighted_posterior_attains_for_weight_grid(self, corpus):
        for prior, like in corpus[:15]:
            for w0, wL in itertools.product((1.0, 2.0, 5.0), repeat=2):
                pair = WeightedPair(prior, like, w0, wL)
                post = weighted_posterior(pair)
                report = weighted_max_loss(post, pair)
                assert report.attained, (w0, wL)
                slow = weighted_max_loss_exhaustive(post, pair)
                assert abs(report.value - slow.value) <= 1e-12

    def test_equal_weights_give_identical_reports(self, corpus):
        for prior, like in corpus[:10]:
            post = bayes_posterior(prior, like)
            pair = WeightedPair(prior, like, 4.0, 4.0)
            assert weighted_max_loss(post, pair) == max_loss(post, prior, like)

    def test_dominant_prior_weight_approaches_the_prior_only_limit(self):
        """With weights 100:1 the loss of the prior itself is within 0.02 bits
        of its value in the likelihood-weight-to-zero limit, which is 0."""
        prior = DiscreteDist((("0", 0.6), ("1", 0.4)))
        like = DiscreteDist((("0", 0.7), ("1", 0.3)))
        pair = WeightedPair(prior, like, 100.0, 1.0)
        report = weighted_max_loss(prior, pair)
        # limit objective: max over atoms of (1/100) * -log2(pL)
        limit = 0.0
        assert abs(report.value - limit) < 0.02

    def test_grid_weighted_attainment(self):
        grid = (-8.0, 0.01, 1700)
        g0 = discretize(DistFamily.normal(0.0, 1.0), grid)
        g1 = discretize(DistFamily.normal(1.0, 1.0), grid)
        pair = WeightedPair(g0, g1, 2.0, 1.0)
        post = weighted_posterior(pair)
        assert weighted_max_loss(post, pair).attained


class TestLossReportInvariants:
    def test_value_below_bound_is_rejected(self):
        with pytest.raises(ValueError):
            LossReport(value=0.5, witness=Event.of("0"), lower_bound=1.0, attained=False)

    def test_attained_flag_must_match(self):
        with pytest.raises(ValueError):
            LossReport(value=2.0, witness=Event.of("0"), lower_bound=1.0, attained=True)

    def test_negative_value_is_rejected(self):
        with pytest.raises(ValueError):
            LossReport(value=-0.1, witness=Event.of("0"), lower_bound=-0.2, attained=False)


def _cell_masses(g: GridDensity) -> DiscreteDist:
    return DiscreteDist(tuple((str(i), g.delta * d) for i, d in enumerate(g.densities)))


def _three_grids(cells: int):
    densities = st.lists(st.floats(1e-6, 1.0), min_size=cells, max_size=cells)
    return st.tuples(densities, densities, densities)


class TestGridIsDiscreteOnCellMasses:
    @settings(deadline=None, max_examples=60)
    @given(
        cells=st.integers(1, 12).flatmap(_three_grids),
        delta=st.sampled_from([0.25, 0.1, 1e-3, 7.0]),
        w0=st.floats(0.1, 10.0),
        wL=st.floats(0.1, 10.0),
    )
    def test_losses_match_bit_for_bit(self, cells, delta, w0, wL):
        """The grid functionals are the discrete ones applied to cell masses."""
        g1, g0, gl = (GridDensity.from_values(0.0, delta, values) for values in cells)
        d1, d0, dl = (_cell_masses(g) for g in (g1, g0, gl))
        for grid_report, discrete_report in (
            (max_loss(g1, g0, gl), max_loss(d1, d0, dl)),
            (
                weighted_max_loss(g1, WeightedPair(g0, gl, w0, wL)),
                weighted_max_loss(d1, WeightedPair(d0, dl, w0, wL)),
            ),
        ):
            assert grid_report.value == discrete_report.value
            assert grid_report.lower_bound == discrete_report.lower_bound
            assert grid_report.attained == discrete_report.attained
