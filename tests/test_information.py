"""Shannon information of events and the maximum-loss functionals."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bayesfuse import (
    BayesfuseError,
    DiscreteDist,
    DistFamily,
    Event,
    GridDensity,
    IncompatibleError,
    InvalidEventError,
    LossReport,
    RepresentationMismatchError,
    SearchResult,
    TooLargeError,
    bayes_posterior,
    check_compatible,
    combined_info,
    discretize,
    joint_support,
    max_loss,
    max_loss_exhaustive,
    normalize,
    shannon_info,
    minimize_max_loss,
    weighted_posterior,
)
from bayesfuse import information
from bayesfuse.combine import _align, _exponents
from bayesfuse.information import _block_sums, _subset_sums
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

    def test_mixed_type_event_is_refused(self):
        message = r"unknown atom keys in event: \[1, 'x'\]"
        with pytest.raises(InvalidEventError, match=message):
            shannon_info(TWO_ATOM_PRIOR, Event.of(1, "x"))
        with pytest.raises(InvalidEventError, match=message):
            combined_info(TWO_ATOM_PRIOR, TWO_ATOM_LIKE, Event.of(1, "x"))

    def test_bool_is_not_a_cell_index(self):
        g = discretize(DistFamily.uniform(0.0, 1.0), (0.0, 0.25, 4))
        with pytest.raises(InvalidEventError, match="cell index out of range: True"):
            shannon_info(g, Event.of(True))


class TestCombinedInfo:
    def test_adds_the_two_informations(self):
        event = Event.of("0")
        assert combined_info(TWO_ATOM_PRIOR, TWO_ATOM_PRIOR, event) == 2.0

    def test_whole_space_is_zero(self):
        assert combined_info(TWO_ATOM_PRIOR, TWO_ATOM_LIKE, Event.of("0", "1")) == 0.0

    def test_null_event_on_either_side_is_infinite(self):
        degenerate = DiscreteDist((("0", 1.0), ("1", 0.0)))
        assert combined_info(TWO_ATOM_PRIOR, degenerate, Event.of("1")) == math.inf

    @pytest.mark.parametrize("weights", [(), (2.0, 1.0)], ids=["plain", "weighted"])
    def test_representation_mismatch_is_refused(self, weights):
        grid = GridDensity(0.0, 1.0, (1.0,))
        with pytest.raises(RepresentationMismatchError, match="cannot mix"):
            combined_info(TWO_ATOM_PRIOR, grid, Event.of("0"), *weights)


class TestWeightedCombinedInfo:
    def test_equal_weights_reduce_exactly(self, corpus):
        for prior, like in corpus[:10]:
            event = Event.of(prior.keys[0])
            assert combined_info(prior, prior, event, 3.0, 3.0) == combined_info(
                prior, prior, event
            )

    def test_whole_space_is_zero_for_any_weights(self):
        assert combined_info(TWO_ATOM_PRIOR, TWO_ATOM_LIKE, Event.of("0", "1"), 5.0, 2.0) == 0.0

    def test_hand_computed_value(self):
        quarter = DiscreteDist((("0", 0.25), ("1", 0.75)))
        # exponents (1, 0.5): 1 * 2 bits + 0.5 * 1 bit
        assert combined_info(quarter, TWO_ATOM_PRIOR, Event.of("0"), 2.0, 1.0) == 2.5


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
        for loss in (max_loss, max_loss_exhaustive):
            report = loss(stray, TWO_ATOM_PRIOR, TWO_ATOM_LIKE)
            assert report.value == math.inf
            assert report.witness == Event.of("5")
            assert report.lower_bound == 1.0
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


def _whole_array_exhaustive_max_loss(p1, p0, like, a, b):
    """The exhaustive oracle with each subset sum over all ``2**n`` masks in
    one array: the code the blocked enumeration replaced, kept as the
    reference it must equal bit for bit."""
    aligned = _align(p0, like, p1).require_compatible()
    labels, (u, v, q) = aligned.labels, aligned.cell_masses()
    lower_bound = aligned.bound(a, b)
    if aligned.strays:
        return LossReport(math.inf, Event.of(aligned.strays[0]), lower_bound)

    def subset_sums(values):
        sums = np.zeros(1)
        for value in values:
            sums = np.concatenate([sums, sums + value])
        return sums

    prior_sums = subset_sums(u)[1:]
    like_sums = subset_sums(v)[1:]
    post_sums = subset_sums(q)[1:]
    with np.errstate(divide="ignore"):
        losses = np.log2(post_sums) - a * np.log2(prior_sums) - b * np.log2(like_sums)
    best = int(np.argmax(losses))
    mask = best + 1
    witness = Event(frozenset(labels[i] for i in range(len(labels)) if mask >> i & 1))
    return LossReport(max(float(losses[best]), 0.0), witness, lower_bound)


def _bits(report):
    return report.value.hex(), report.witness, report.lower_bound.hex()


def _assert_blocked_matches_whole_array(p1, p0, like, w0=1.0, wL=1.0):
    blocked = max_loss_exhaustive(p1, p0, like, w0, wL)
    if (w0, wL) == (1.0, 1.0):
        assert max_loss_exhaustive(p1, p0, like) == blocked
    reference = _whole_array_exhaustive_max_loss(p1, p0, like, *_exponents(w0, wL))
    assert _bits(blocked) == _bits(reference)


# Masses down to 1e-150 keep every joint product positive, so each case
# reaches the enumeration.
_MASSES = st.one_of(st.floats(0.01, 1.0), st.floats(-150.0, 0.0).map(lambda e: 10.0**e))


@st.composite
def _exhaustive_cases(draw):
    """A candidate, prior and likelihood on up to 14 shared atoms; the
    candidate may put zero mass on some of them."""
    n = draw(st.integers(1, 14))
    prior, like = (draw(st.lists(_MASSES, min_size=n, max_size=n)) for _ in range(2))
    candidate = draw(st.lists(st.one_of(st.just(0.0), _MASSES), min_size=n, max_size=n))
    if not any(candidate):
        candidate[-1] = 1.0
    return tuple(normalize(enumerate(masses)) for masses in (candidate, prior, like))


class TestBlockedEnumeration:
    """The blocked exhaustive oracle equals the whole-array one bit for bit,
    whatever the block size."""

    @settings(deadline=None, max_examples=150)
    @given(
        case=_exhaustive_cases(),
        bits=st.sampled_from([1, 2, 5, None]),
        weights=st.one_of(
            st.just((1.0, 1.0)),
            st.tuples(st.floats(1e-6, 1e6), st.floats(1e-6, 1e6)),
        ),
    )
    def test_matches_the_whole_array_oracle(self, case, bits, weights):
        candidate, prior, like = case
        bits = len(prior.atoms) if bits is None else bits
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(information, "_CHUNK_SIZE", 2**bits)
            _assert_blocked_matches_whole_array(candidate, prior, like, *weights)

    @settings(deadline=None, max_examples=100)
    @given(values=st.lists(_MASSES, min_size=1, max_size=10), data=st.data())
    def test_blocks_hold_the_subset_sums_bit_for_bit(self, values, data):
        """Block ``h`` of ``2**low`` masks is slice ``h`` of the whole-array
        subset sums, so the events' order of additions is kept."""
        low = data.draw(st.integers(0, len(values)))
        low_sums = _subset_sums(values[:low])
        blocks = [
            _block_sums(low_sums, values[low:], high) for high in range(2 ** (len(values) - low))
        ]
        assert np.concatenate(blocks).tobytes() == _subset_sums(values).tobytes()

    @pytest.mark.parametrize("bits", [1, 2, 5, 10])
    @pytest.mark.parametrize("weights", [(1.0, 1.0), (2.0, 1.0)])
    def test_uniform_ties_keep_the_lowest_mask(self, monkeypatch, bits, weights):
        uniform = normalize((k, 1.0) for k in range(10))
        monkeypatch.setattr(information, "_CHUNK_SIZE", 2**bits)
        report = max_loss_exhaustive(uniform, uniform, uniform, *weights)
        assert report.witness == Event.of("0")
        _assert_blocked_matches_whole_array(uniform, uniform, uniform, *weights)

    @pytest.mark.parametrize("bits", [1, 2, 5, 8])
    def test_candidate_without_mass_on_the_low_atoms(self, monkeypatch, bits):
        prior = normalize((k, 1.0 + k) for k in range(8))
        like = normalize((k, 9.0 - k) for k in range(8))
        candidate = normalize((k, 0.0 if k < 5 else 1.0) for k in range(8))
        monkeypatch.setattr(information, "_CHUNK_SIZE", 2**bits)
        _assert_blocked_matches_whole_array(candidate, prior, like)
        _assert_blocked_matches_whole_array(candidate, prior, like, 3.7, 5.1)

    def test_twenty_atoms_at_the_real_block_size(self):
        assert information._CHUNK_SIZE == 2**14
        prior = normalize((k, 1.0 + (k * 7) % 5) for k in range(20))
        like = normalize((k, 1.0 + (k * 3) % 11) for k in range(20))
        candidate = normalize((k, 1.0 + (k * 5) % 13) for k in range(20))
        _assert_blocked_matches_whole_array(candidate, prior, like)
        _assert_blocked_matches_whole_array(candidate, prior, like, 1.0, 1e-6)


_EXTREME_MASSES = st.floats(-300.0, 0.0).map(lambda e: 10.0**e)
_EXTREME_WEIGHTS = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)


def _loss_outcome(loss, candidate, prior, like, w0, wL):
    try:
        return loss(candidate, prior, like, w0, wL)
    except BayesfuseError as err:
        return type(err), str(err)


class TestSingletonReductionAtExtremes:
    @settings(deadline=None, max_examples=200)
    @given(
        masses=st.lists(
            st.tuples(_EXTREME_MASSES, _EXTREME_MASSES, _EXTREME_MASSES), min_size=1, max_size=12
        ),
        w0=_EXTREME_WEIGHTS,
        wL=_EXTREME_WEIGHTS,
        product_rule=st.booleans(),
    )
    def test_singleton_equals_exhaustive(self, masses, w0, wL, product_rule):
        """Masses from 1e-300 to 1 and weights from 1e-6 to 1e6: both
        functionals raise the same error or agree within 1e-12 relative."""
        prior, like, candidate = (
            normalize((k, row[j]) for k, row in enumerate(masses)) for j in range(3)
        )
        if product_rule:
            try:
                candidate = weighted_posterior(prior, like, w0, wL)
            except BayesfuseError:
                pass
        fast = _loss_outcome(max_loss, candidate, prior, like, w0, wL)
        slow = _loss_outcome(max_loss_exhaustive, candidate, prior, like, w0, wL)
        if isinstance(fast, tuple) or isinstance(slow, tuple):
            assert fast == slow
            return
        assert fast.lower_bound == slow.lower_bound
        assert fast.value == slow.value or (
            abs(fast.value - slow.value) <= 1e-12 * max(1.0, abs(slow.value))
        )


class TestOracleMemory:
    """Both brute-force oracles hold one block at a time, not the whole domain."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda: max_loss_exhaustive(*[normalize((k, 1.0 + k) for k in range(20))] * 3),
            lambda: minimize_max_loss(
                normalize((k, 1.0 + k) for k in range(5)),
                normalize((k, 5.0 - k) for k in range(5)),
                50,
            ),
        ],
        ids=["exhaustive_20_atoms", "scan_n5_K50"],
    )
    def test_peak_stays_under_8_mb(self, run):
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestWeightedMaxLoss:
    def test_weighted_posterior_attains_for_weight_grid(self, corpus):
        for prior, like in corpus[:15]:
            for w0, wL in itertools.product((1.0, 2.0, 5.0), repeat=2):
                post = weighted_posterior(prior, like, w0, wL)
                report = max_loss(post, prior, like, w0, wL)
                assert report.attained, (w0, wL)
                slow = max_loss_exhaustive(post, prior, like, w0, wL)
                assert abs(report.value - slow.value) <= 1e-12

    def test_equal_weights_give_identical_reports(self, corpus):
        for prior, like in corpus[:10]:
            post = bayes_posterior(prior, like)
            assert max_loss(post, prior, like, 4.0, 4.0) == max_loss(post, prior, like)

    def test_dominant_prior_weight_approaches_the_prior_only_limit(self):
        """With weights 100:1 the loss of the prior itself is within 0.02 bits
        of its value in the likelihood-weight-to-zero limit, which is 0."""
        prior = DiscreteDist((("0", 0.6), ("1", 0.4)))
        like = DiscreteDist((("0", 0.7), ("1", 0.3)))
        report = max_loss(prior, prior, like, 100.0, 1.0)
        # limit objective: max over atoms of (1/100) * -log2(pL)
        limit = 0.0
        assert abs(report.value - limit) < 0.02

    def test_grid_weighted_attainment(self):
        grid = (-8.0, 0.01, 1700)
        g0 = discretize(DistFamily.normal(0.0, 1.0), grid)
        g1 = discretize(DistFamily.normal(1.0, 1.0), grid)
        post = weighted_posterior(g0, g1, 2.0, 1.0)
        assert max_loss(post, g0, g1, 2.0, 1.0).attained


class TestBoundOverSubnormalTerms:
    """Joint terms below the normal range: the bound is summed in log space."""

    @pytest.mark.parametrize(
        "mass, w0, wL",
        [(1e-160, 1.0, 1.0), (2e-162, 1.0, 1.0), (1e-160, 1.0, 1.01)],
    )
    def test_symmetric_posterior_attains_the_bound(self, mass, w0, wL):
        prior = DiscreteDist.from_pairs([("0", mass), ("1", mass), ("2", 1.0)])
        like = DiscreteDist.from_pairs([("0", mass), ("1", mass), ("3", 1.0)])
        post = DiscreteDist.from_pairs([("0", 0.5), ("1", 0.5)])
        a, b = _exponents(w0, wL)
        bound = -1.0 - (a + b) * math.log2(mass)
        for loss in (max_loss, max_loss_exhaustive):
            report = loss(post, prior, like, w0, wL)
            assert report.attained
            assert abs(report.lower_bound - bound) <= 1e-12 * bound


    def test_bound_over_a_mass_above_one_is_clamped_at_zero(self):
        """A mass above 1, within the tolerance, puts the sum above 1 on the
        log-space path too; the bound stays at 0, where the loss is."""
        pair = DiscreteDist((("0", 1.0000000009), ("1", 1e-160)))
        post = DiscreteDist((("0", 1.0),))
        for loss in (max_loss, max_loss_exhaustive):
            report = loss(post, pair, pair)
            assert (report.value, report.lower_bound, report.attained) == (0.0, 0.0, True)


class TestLossReportInvariants:
    def test_value_below_bound_is_rejected(self):
        with pytest.raises(ValueError):
            LossReport(value=0.5, witness=Event.of("0"), lower_bound=1.0)

    @pytest.mark.parametrize(
        "value, lower_bound, attained",
        [
            (1.0, 1.0, True),
            (1e-9, 0.0, True),
            (1.0 + 2e-9, 1.0, False),
            (2.0, 1.0, False),
            (1.0, 1.0 + 5e-13, True),
            (math.inf, 1.0, False),
        ],
    )
    def test_attained_follows_the_value_and_the_bound(self, value, lower_bound, attained):
        report = LossReport(value=value, witness=Event.of("0"), lower_bound=lower_bound)
        assert report.attained is attained

    def test_negative_value_is_rejected(self):
        with pytest.raises(ValueError):
            LossReport(value=-0.1, witness=Event.of("0"), lower_bound=-0.2)


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
                max_loss(g1, g0, gl, w0, wL),
                max_loss(d1, d0, dl, w0, wL),
            ),
        ):
            assert grid_report.value == discrete_report.value
            assert grid_report.lower_bound == discrete_report.lower_bound
            assert grid_report.attained == discrete_report.attained


# The total mass a file may carry: 1 within each kind's tolerance.
_MASS_TOL = {"discrete": 1e-9, "grid": 1e-6}


@st.composite
def _extreme_pairs(draw):
    """A prior and a likelihood, discrete or on one grid, with masses
    log-uniform down to 1e-300, a cell width far from 1 and a total mass
    anywhere inside the tolerance."""
    kind = draw(st.sampled_from(["discrete", "grid"]))
    n = draw(st.integers(1, 8))
    delta = 10.0 ** draw(st.floats(-100.0, 100.0))
    pair = []
    for _ in range(2):
        raw = draw(st.lists(st.one_of(st.just(0.0), _EXTREME_MASSES), min_size=n, max_size=n))
        assume(any(raw))
        total = math.fsum(raw) / (1.0 + draw(st.floats(-0.99, 0.99)) * _MASS_TOL[kind])
        try:
            if kind == "discrete":
                pair.append(DiscreteDist(tuple((str(k), m / total) for k, m in enumerate(raw))))
            else:
                pair.append(GridDensity(0.0, delta, tuple(m / total / delta for m in raw)))
        except (ValueError, BayesfuseError):
            assume(False)  # rounding put the total outside the tolerance, or overflow
    return tuple(pair)


class TestBoundAttainmentAtExtremes:
    @settings(deadline=None, max_examples=150)
    @given(pair=_extreme_pairs(), w0=_EXTREME_WEIGHTS, wL=_EXTREME_WEIGHTS)
    @example(pair=(DiscreteDist((("0", 1.0000000009),)),) * 2, w0=1.0, wL=1.0)
    @example(pair=(GridDensity(0.0, 1.0, (1.0000005,)),) * 2, w0=1.0, wL=1.0)
    @example(pair=(GridDensity(0.0, 1e-100, (1e100, 3e-62)),) * 2, w0=1.0, wL=1.0)
    @example(
        pair=(
            GridDensity(0.0, 1e-9, (0.0, 0.0, 1e-50, 0.0, 999999999.9999999)),
            GridDensity(0.0, 1e-9, (0.0, 0.0, 1e-254, 999999999.9999999, 0.0)),
        ),
        w0=1.0,
        wL=1.0,
    )
    def test_plain_and_weighted_posteriors_attain_their_bounds(self, pair, w0, wL):
        """Each rule either raises a package error or attains its bound."""
        prior, like = pair
        for rule, weights in (
            (lambda: bayes_posterior(prior, like), (1.0, 1.0)),
            (lambda: weighted_posterior(prior, like, w0, wL), (w0, wL)),
        ):
            try:
                post = rule()
                report = max_loss(post, prior, like, *weights)
            except BayesfuseError:
                continue
            assert report.attained, (weights, report)


def _outcome(call):
    """The bits of a result, or the type and message of its package error."""
    try:
        result = call()
    except BayesfuseError as err:
        return type(err), str(err)
    if isinstance(result, float):
        return result.hex()
    if isinstance(result, LossReport):
        return _bits(result)
    if isinstance(result, SearchResult):
        return result.argmin, result.min_value.hex(), result.runner_up_value.hex()
    return result


class TestEqualWeights:
    """Equal weights are the unweighted objectives bit for bit, and only the
    ratio of the weights matters."""

    @settings(deadline=None, max_examples=60)
    @given(case=_exhaustive_cases(), w=_EXTREME_WEIGHTS, data=st.data())
    def test_equal_weights_are_the_default(self, case, w, data):
        candidate, prior, like = case
        n = len(prior.atoms)
        event = Event(frozenset(data.draw(st.sets(st.sampled_from(prior.keys), min_size=1))))
        calls = [
            lambda *ws: max_loss(candidate, prior, like, *ws),
            lambda *ws: combined_info(prior, like, event, *ws),
        ]
        if n <= 12:
            calls.append(lambda *ws: max_loss_exhaustive(candidate, prior, like, *ws))
        if n <= 4:
            K = data.draw(st.integers(1, 8))
            calls.append(lambda *ws: minimize_max_loss(prior, like, K, *ws))
        for call in calls:
            assert _outcome(lambda: call(w, w)) == _outcome(call)
        assert _outcome(lambda: weighted_posterior(prior, like, w, w)) == _outcome(
            lambda: bayes_posterior(prior, like)
        )

    @settings(deadline=None, max_examples=60)
    @given(
        case=_exhaustive_cases(),
        w0=_EXTREME_WEIGHTS,
        wL=_EXTREME_WEIGHTS,
        power=st.integers(-60, 60).map(lambda k: 2.0**k),
    )
    def test_scaling_both_weights_by_a_power_of_two_changes_nothing(self, case, w0, wL, power):
        candidate, prior, like = case
        for call in (
            lambda *ws: weighted_posterior(prior, like, *ws),
            lambda *ws: max_loss(candidate, prior, like, *ws),
        ):
            assert _outcome(lambda: call(w0 * power, wL * power)) == _outcome(
                lambda: call(w0, wL)
            )
