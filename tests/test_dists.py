"""Distribution construction, canonical keys, discretization, and smoothing."""

import math
from decimal import Decimal, InvalidOperation, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bayesfuse import dists
from bayesfuse import (
    AllZeroMassError,
    BadResolutionError,
    DiscreteDist,
    DistFamily,
    GridDensity,
    InsufficientCoverageError,
    NonFiniteError,
    TooLargeError,
    canonical_key,
    check_compatible,
    discretize,
    normalize,
    smooth_uniform,
)
from bayesfuse.dists import GRID_MASS_TOL


def _reference_pdf(family, x):
    """The per-cell scalar density that the array pdf replaced."""
    values = dict(family.params)
    if family.name == "geometric":
        p = values["success_prob"]
        return 0.0 if x < 1.0 else p * (1.0 - p) ** (x - 1.0)
    if family.name == "normal":
        mean, sd = values["mean"], values["sd"]
        z = (x - mean) / sd
        return math.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))
    if family.name == "exponential":
        rate = values["rate"]
        return 0.0 if x < 0.0 else rate * math.exp(-rate * x)
    lower, upper = values["lower"], values["upper"]
    return 1.0 / (upper - lower) if lower <= x <= upper else 0.0


def _reference_discretize(family, grid):
    """Per-cell scalar discretization: the midpoint density of each cell, renormalized."""
    origin, delta, count = grid
    raw = [_reference_pdf(family, origin + (i + 0.5) * delta) for i in range(count)]
    total = delta * math.fsum(raw)
    return [v / total for v in raw]


def _reference_smoothing_cdf(dist, epsilon):
    """The smoothed CDF as one Python function per point, with math.fsum."""
    if isinstance(dist, DiscreteDist):
        points = [(float(k), m) for k, m in dist.atoms]

        def cdf(x):
            acc = []
            for theta, mass in points:
                t = (x - (theta - epsilon)) / (2.0 * epsilon)
                acc.append(mass * min(1.0, max(0.0, t)))
            return math.fsum(acc)

        lo = min(theta for theta, _ in points) - epsilon
        hi = max(theta for theta, _ in points) + epsilon
        return cdf, lo, hi
    delta, n = dist.delta, dist.n_cells
    cdf_nodes = [0.0]
    for d in dist.densities:
        cdf_nodes.append(cdf_nodes[-1] + d * delta)
    g_nodes = [0.0]
    for i in range(n):
        g_nodes.append(g_nodes[-1] + cdf_nodes[i] * delta + dist.densities[i] * delta * delta / 2.0)
    total = cdf_nodes[-1]

    def integral_of_cdf(x):
        if x <= dist.origin:
            return 0.0
        if x >= dist.end:
            return g_nodes[-1] + (x - dist.end) * total
        i = min(int((x - dist.origin) / delta), n - 1)
        dx = x - (dist.origin + i * delta)
        return g_nodes[i] + cdf_nodes[i] * dx + dist.densities[i] * dx * dx / 2.0

    def cdf(x):
        return (integral_of_cdf(x + epsilon) - integral_of_cdf(x - epsilon)) / (2.0 * epsilon)

    return cdf, dist.origin - epsilon, dist.end + epsilon


def _reference_smooth(dist, epsilon, delta_out):
    """Pure-Python smoothing onto the default grid: (origin, densities)."""
    cdf, lo, hi = _reference_smoothing_cdf(dist, epsilon)
    origin = math.floor(lo / delta_out + 1e-12) * delta_out
    cells = max(1, math.ceil((hi - origin) / delta_out - 1e-12))
    at_edges = [cdf(origin + j * delta_out) for j in range(cells + 1)]
    return origin, [max(0.0, (b - a) / delta_out) for a, b in zip(at_edges, at_edges[1:])]


def _assert_matches_reference(dist, epsilon, delta_out):
    sm = smooth_uniform(dist, epsilon, delta_out)
    origin, densities = _reference_smooth(dist, epsilon, delta_out)
    assert sm.origin == origin
    assert sm.n_cells == len(densities)
    masses = np.array(sm.densities) * delta_out
    expected = np.array(densities) * delta_out
    assert np.abs(masses - expected).max() <= 1e-13
    assert abs(sm.total_mass() - delta_out * math.fsum(densities)) <= GRID_MASS_TOL
    return sm.densities, tuple(densities)


def _reference_canonical_key(value):
    """The Decimal definition of canonical keys, as it stood before the text fast path."""
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
        ctx.prec = 50
        text = format(dec.normalize(), "f")
    return "0" if text == "-0" else text


def _outcome(function, value):
    """The result of ``function(value)``, or the type and message it raised."""
    try:
        return "ok", function(value)
    except Exception as exc:  # the error itself is the value compared
        return type(exc), str(exc)


@st.composite
def _decimal_texts(draw):
    """Decimal text at and past the edges of the plain-text fast path.

    Digit runs of up to 12, 46-53 and 400+ characters, with leading and
    trailing zeros and signs, dressed in what Decimal also reads: exponents,
    whitespace, ``+``, ``_``, non-ASCII digits and a bare ``.``.
    """
    size = draw(st.integers(1, 12) | st.integers(46, 53) | st.integers(400, 420))
    text = draw(st.text(st.sampled_from("00123456789"), min_size=size, max_size=size))
    if size > 1 and draw(st.booleans()):
        cut = draw(st.integers(1, size - 1))
        text = f"{text[:cut]}.{text[cut:]}"
    sign = draw(st.sampled_from(["", "-", "+", "-00"]))
    text = sign + text + draw(st.sampled_from(["", "0", "000"]))
    dressing = draw(st.sampled_from(["", "exponent", "space", "underscore", "non-ascii", "dot"]))
    if dressing == "exponent":
        text += draw(st.sampled_from(["e5", "E-3", "e+0", "e-60", "e400"]))
    elif dressing == "space":
        text = draw(st.sampled_from([" ", "\t", ""])) + text + draw(st.sampled_from([" ", "\n"]))
    elif dressing == "underscore":
        cut = draw(st.integers(1, len(text)))
        text = f"{text[:cut]}_{text[cut:]}"
    elif dressing == "non-ascii":
        zero = draw(st.sampled_from(["\u0660", "\uff10", "\u0966"]))
        text = "".join(
            chr(ord(zero) + int(c)) if c.isdigit() and draw(st.booleans()) else c for c in text
        )
    elif dressing == "dot":
        text = draw(st.sampled_from([f".{text}", f"{text}."]))
    return text


_KEY_INPUTS = (
    _decimal_texts()
    | st.floats()
    | st.integers(-(10**60), 10**60)
    | st.booleans()
)


class TestCanonicalKeys:
    @settings(deadline=None, max_examples=400)
    @given(_KEY_INPUTS)
    @example("-0").via("the one canonical text with a sign the pattern allows")
    @example(-(10**5000)).via("an int too long for str()")
    def test_matches_the_decimal_reference(self, value):
        assert _outcome(canonical_key, value) == _outcome(_reference_canonical_key, value)

    @settings(deadline=None, max_examples=200)
    @given(_KEY_INPUTS)
    @example("-0").via("the one canonical text with a sign the pattern allows")
    @example("1" * 51).via("canonical text too long to be a key")
    def test_discrete_dist_accepts_exactly_the_canonical_keys(self, key):
        got = _outcome(lambda k: DiscreteDist(((k, 1.0),)).keys, key)
        expected = _outcome(_reference_canonical_key, key)
        if expected == ("ok", key):
            assert got == ("ok", (key,))
        elif expected[0] == "ok":
            assert got == (ValueError, f"atom key is not canonical: {key!r}")
        else:
            assert got == expected


    def test_trailing_zeros_stripped(self):
        assert canonical_key("0.50") == "0.5"
        assert canonical_key("2.000") == "2"
        assert canonical_key(100.0) == "100"

    def test_negative_zero_forbidden(self):
        assert canonical_key(-0.0) == "0"
        assert canonical_key("-0") == "0"

    def test_no_exponent_notation(self):
        assert canonical_key(1e-7) == "0.0000001"
        assert canonical_key(1e20) == "100000000000000000000"

    def test_float_and_string_agree(self):
        assert canonical_key(0.5) == canonical_key("0.5")
        assert canonical_key(0.1) == "0.1"

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            canonical_key(math.nan)
        with pytest.raises(NonFiniteError):
            canonical_key(math.inf)


class TestDiscreteDist:
    def test_atoms_sorted_numerically(self):
        d = DiscreteDist.from_pairs([(10, 0.2), (2, 0.3), (-1, 0.5)])
        assert d.keys == ("-1", "2", "10")

    def test_rejects_non_canonical_keys(self):
        with pytest.raises(ValueError):
            DiscreteDist((("0.50", 1.0),))

    def test_rejects_unsorted_or_duplicate(self):
        with pytest.raises(ValueError):
            DiscreteDist((("1", 0.5), ("0", 0.5)))
        with pytest.raises(ValueError):
            DiscreteDist((("1", 0.5), ("1", 0.5)))

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            DiscreteDist((("0", 0.5), ("1", 0.4)))

    def test_zero_masses_are_kept(self):
        d = DiscreteDist((("0", 1.0), ("1", 0.0)))
        assert d.atoms == (("0", 1.0), ("1", 0.0))

    def test_from_pairs_merges_duplicate_positions(self):
        d = DiscreteDist.from_pairs([("0.5", 0.25), (0.5, 0.25), (1, 0.5)])
        assert d.atoms == (("0.5", 0.5), ("1", 0.5))


_FLOAT_TIES = [
    ("0.1", "0.10000000000000000001"),
    ("-0.10000000000000000001", "-0.1"),
    ("1" + "0" * 400, "2" + "0" * 400),
    ("-2" + "0" * 400, "-1" + "0" * 400),
    ("0." + "0" * 400 + "1", "0." + "0" * 400 + "2"),
]


class TestKeysThatTieAsFloats:
    """Keys within a float ulp, or past the float range, order by exact value."""

    @pytest.mark.parametrize("low, high", _FLOAT_TIES)
    def test_from_pairs_and_normalize_order_exactly(self, low, high):
        assert float(low) == float(high)
        pairs = [("3", 0.25), (high, 0.25), ("-3", 0.25), (low, 0.25)]
        expected = tuple(sorted(("3", high, "-3", low), key=Decimal))
        assert DiscreteDist.from_pairs(pairs).keys == expected
        assert normalize(pairs).keys == expected

    @pytest.mark.parametrize("low, high", _FLOAT_TIES)
    def test_reverse_order_is_rejected(self, low, high):
        assert DiscreteDist(((low, 0.5), (high, 0.5))).keys == (low, high)
        with pytest.raises(ValueError, match="^atom keys must be strictly increasing$"):
            DiscreteDist(((high, 0.5), (low, 0.5)))
        with pytest.raises(ValueError, match="^atom keys must be strictly increasing$"):
            DiscreteDist(((high, 0.5), (high, 0.5)))


def _merge_path(pairs):
    """``from_pairs`` without its fast path: every key goes through the merge dict."""
    merged = {}
    for raw_key, mass in pairs:
        merged.setdefault(canonical_key(raw_key), []).append(float(mass))
    ordered = sorted(merged, key=Decimal)
    return DiscreteDist(tuple((key, math.fsum(merged[key])) for key in ordered))


# Keys that are equal after canonicalization ("0.1", "0.10", 0.1) and keys
# that tie as floats (0.1 and 0.1 plus 1e-20, two past the float range).
_PAIR_KEYS = (
    st.integers(-3, 3)
    | st.floats(-4.0, 4.0)
    | st.sampled_from(["0.1", "0.10", 0.1, "0.10000000000000000001", "-0", -0.0, "2.500"])
    | st.sampled_from(["1" + "0" * 400, "2" + "0" * 400, "-1" + "0" * 400])
)
_ODD_MASSES = st.sampled_from([-0.0, 5e-324, math.nan, math.inf, -math.inf, -0.25])


@st.composite
def _pairs(draw):
    """Pairs as drawn, or sorted by exact key value so the fast path runs;
    masses scaled to a unit sum, then sometimes one odd mass or a bad key."""
    pairs = draw(st.lists(st.tuples(_PAIR_KEYS, st.floats(0.0, 1.0)), max_size=10))
    if draw(st.booleans()):
        pairs.sort(key=lambda pair: Decimal(canonical_key(pair[0])))
    total = math.fsum(m for _, m in pairs)
    if total > 0.0 and draw(st.booleans()):
        pairs = [(k, m / total) for k, m in pairs]
    if pairs and draw(st.booleans()):
        i = draw(st.integers(0, len(pairs) - 1))
        pairs[i] = (pairs[i][0], draw(_ODD_MASSES))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(pairs)))
        pairs.insert(i, (draw(st.sampled_from(["x", math.nan, math.inf])), 0.0))
    return pairs


class TestFromPairsFastPath:
    @settings(deadline=None, max_examples=400)
    @given(_pairs())
    @example([("0", 0.5), ("1", -0.0), ("2", 0.5)]).via("-0.0 mass on the fast path")
    @example([("0", 0.5), ("2", 0.25), ("1", 0.25)]).via("unsorted keys")
    def test_matches_the_merge_path(self, pairs):
        def atoms(build):
            return lambda p: repr(build(p).atoms)

        got = _outcome(atoms(DiscreteDist.from_pairs), pairs)
        assert got == _outcome(atoms(_merge_path), pairs)

    def test_ascending_keys_skip_the_merge(self, monkeypatch):
        def refuse(keys):
            raise AssertionError("ascending keys were merged and sorted")

        monkeypatch.setattr(dists, "_ascending", refuse)
        d = DiscreteDist.from_pairs([(-1, 0.25), ("0.50", -0.0), (2, 0.75)])
        assert repr(d.atoms) == "(('-1', 0.25), ('0.5', 0.0), ('2', 0.75))"


class TestNormalize:
    def test_scales_by_reciprocal_total(self):
        d = normalize([("0", 0.4), ("1", 0.1)])
        assert d.masses == (0.8, 0.2)

    def test_single_atom_identity(self):
        assert normalize([("0", 1.0)]).masses == (1.0,)

    def test_all_zero_mass(self):
        with pytest.raises(AllZeroMassError):
            normalize([("0", 0.0), ("1", 0.0)])

    def test_non_finite(self):
        with pytest.raises(NonFiniteError):
            normalize([("0", math.nan)])
        with pytest.raises(NonFiniteError):
            normalize([("0", math.inf)])

    def test_exactly_idempotent(self, rng):
        """normalize(normalize(x)) returns the identical value, not merely a close one."""
        for _ in range(200):
            n = int(rng.integers(1, 30))
            raw = list(zip(range(n), rng.uniform(0.0, 5.0, n) + 1e-9))
            once = normalize(raw)
            twice = normalize(once.atoms)
            assert once == twice
            assert math.fsum(once.masses) == 1.0

    def test_zero_masses_survive_scaling(self):
        d = normalize([("0", 0.0), ("1", 2.0)])
        assert d.atoms == (("0", 0.0), ("1", 1.0))


class TestGridDensity:
    def test_validates_unit_integral(self):
        with pytest.raises(ValueError):
            GridDensity(0.0, 0.5, (1.0, 1.0, 1.0))

    def test_from_values_renormalizes(self):
        g = GridDensity.from_values(0.0, 0.5, [3.0, 1.0])
        assert g.total_mass() == pytest.approx(1.0, abs=1e-15)
        assert g.densities == (1.5, 0.5)

    def test_midpoints_and_masses(self):
        g = GridDensity(0.0, 0.25, (1.0, 1.0, 1.0, 1.0))
        assert g.end == 1.0

    @pytest.mark.parametrize(
        "values, error, message",
        [
            ([1.0, math.nan, -1.0], NonFiniteError, "density must be finite, got nan"),
            ([1.0, -1.0, math.inf], ValueError, "density must be nonnegative, got -1.0"),
            ([math.inf, 1.0], NonFiniteError, "density must be finite, got inf"),
            ([2.0, -0.5], ValueError, "density must be nonnegative, got -0.5"),
        ],
    )
    def test_first_bad_cell_names_the_error(self, values, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            GridDensity(0.0, 1.0, tuple(values))
        with pytest.raises(error, match=f"^{message}$"):
            GridDensity.from_values(0.0, 1.0, values)

    def test_same_grid_requires_exact_match(self):
        a = GridDensity(0.0, 0.25, (1.0, 1.0, 1.0, 1.0))
        b = GridDensity(0.0, 0.25, (1.0, 1.0, 1.0, 1.0))
        c = GridDensity(0.125, 0.25, (1.0, 1.0, 1.0, 1.0))
        assert a.same_grid(b)
        assert not a.same_grid(c)


class TestDistFamily:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DistFamily.geometric(0.0)
        with pytest.raises(ValueError):
            DistFamily.geometric(1.5)
        with pytest.raises(ValueError):
            DistFamily.normal(0.0, 0.0)
        with pytest.raises(ValueError):
            DistFamily.exponential(-1.0)
        with pytest.raises(ValueError):
            DistFamily.uniform(2.0, 2.0)

    def test_exponential_density_formula(self):
        fam = DistFamily.exponential(1.0)
        assert fam.pdf(0.005) == pytest.approx(math.exp(-0.005), rel=1e-15)
        assert fam.pdf(-0.1) == 0.0

    def test_geometric_decay_profile(self):
        fam = DistFamily.geometric(0.25)
        assert fam.pdf(0.5) == 0.0
        assert fam.pdf(1.0) == 0.25
        assert fam.pdf(2.0) == pytest.approx(0.25 * 0.75, rel=1e-15)

    @pytest.mark.parametrize(
        "family",
        [
            DistFamily.geometric(1.0),
            DistFamily.normal(0.0, 1.0),
            DistFamily.exponential(2.0),
            DistFamily.uniform(0.0, 1.0),
        ],
    )
    def test_pdf_of_a_float_is_a_float(self, family):
        for x in (-1e300, -0.5, 0.5, 1.0, 2.0, 1e300):
            value = family.pdf(x)
            assert type(value) is float
            assert value == pytest.approx(_reference_pdf(family, x), rel=1e-15)
        assert family.pdf(np.array([0.5, 2.0])).shape == (2,)

    def test_from_params_takes_any_order(self):
        assert DistFamily.from_params("normal", {"sd": 2, "mean": 1}) == DistFamily.normal(1.0, 2.0)
        with pytest.raises(ValueError, match="unknown family"):
            DistFamily.from_params("cauchy", {})
        with pytest.raises(ValueError, match="needs params"):
            DistFamily.from_params("normal", {"mean": 0.0})
        with pytest.raises(ValueError, match="needs params"):
            DistFamily.from_params("exponential", {"rate": 1.0, "shift": 0.0})


class TestDiscretize:
    def test_uniform_is_flat(self):
        g = discretize(DistFamily.uniform(0.0, 1.0), (0.0, 0.25, 4))
        assert g.densities == (1.0, 1.0, 1.0, 1.0)

    def test_normal_renormalization_is_tight(self):
        g = discretize(DistFamily.normal(0.0, 1.0), (-8.0, 0.01, 1600))
        assert abs(g.total_mass() - 1.0) <= 1e-9

    def test_exponential_midpoint_value(self):
        g = discretize(DistFamily.exponential(1.0), (0.0, 0.01, 4000))
        # First cell midpoint is 0.005; the pre-normalization value is exactly
        # exp(-0.005) and renormalization shifts it only by the quadrature
        # factor, about delta**2 / 24.
        assert g.densities[0] == pytest.approx(math.exp(-0.005), rel=1e-5)
        renorm = math.exp(-0.005) / g.densities[0]
        assert abs(renorm - 1.0) < 1e-5

    @pytest.mark.parametrize(
        "family, grid",
        [
            (DistFamily.normal(0.0, 1.0), (-8.0, 0.01, 1600)),
            (DistFamily.normal(1e3, 0.5), (995.0, 0.001, 10000)),
            (DistFamily.exponential(1.0), (-3.0, 0.01, 4000)),
            (DistFamily.exponential(0.5), (0.0, 0.02, 4000)),
            (DistFamily.geometric(0.4), (-2.0, 0.02, 3000)),
            (DistFamily.geometric(1.0), (-1.75, 0.5, 8)),
            (DistFamily.uniform(0.0, 1.0), (-0.5, 0.01, 200)),
            (DistFamily.uniform(-3.0, 2.0), (-4.0, 0.1, 70)),
        ],
    )
    def test_matches_the_per_cell_scalar_reference(self, family, grid):
        """Grids that start below 0 or 1 exercise the masked branches; geometric
        p = 1 puts all mass on the cell whose midpoint is 1."""
        got = np.array(discretize(family, grid).densities)
        expected = np.array(_reference_discretize(family, grid))
        assert np.all(np.abs(got - expected) <= 1e-15 * expected)

    def test_insufficient_coverage(self):
        with pytest.raises(InsufficientCoverageError):
            discretize(DistFamily.normal(0.0, 1.0), (-1.0, 0.01, 200))

    @pytest.mark.parametrize(
        "family,grid",
        [
            (DistFamily.uniform(0.0, 1.0), (0.0, 0.01, 100)),
            (DistFamily.normal(0.0, 1.0), (-8.0, 0.02, 800)),
            (DistFamily.exponential(0.5), (0.0, 0.02, 4000)),
            (DistFamily.geometric(0.4), (1.0, 0.02, 3000)),
        ],
    )
    def test_cell_sums_track_the_cdf(self, family, grid, rng):
        """Integrating any run of cells agrees with the family CDF difference
        within 2 * delta * sup(density)."""
        g = discretize(family, grid)
        sup_density = max(g.densities)
        tol = 2.0 * g.delta * sup_density
        for _ in range(50):
            i, j = sorted(rng.integers(0, g.n_cells + 1, size=2))
            if i == j:
                continue
            x1 = g.origin + i * g.delta
            x2 = g.origin + j * g.delta
            integral = g.delta * math.fsum(g.densities[i:j])
            expected = family.cdf(x2) - family.cdf(x1)
            assert abs(integral - expected) <= tol


class TestSmoothUniform:
    def test_point_mass_becomes_flat_bump(self):
        sm = smooth_uniform(DiscreteDist((("0", 1.0),)), 0.5, 0.25)
        assert sm.origin == -0.5
        assert sm.densities == (1.0, 1.0, 1.0, 1.0)

    def test_two_point_masses_two_bumps(self):
        d = DiscreteDist((("0", 0.5), ("10", 0.5)))
        sm = smooth_uniform(d, 0.5, 0.25)
        assert sm.total_mass() == pytest.approx(1.0, abs=1e-12)
        # Bumps of density 0.5 on (-0.5, 0.5) and (9.5, 10.5), zero between.
        mid = [
            v for i, v in enumerate(sm.densities) if 1.0 < sm.origin + (i + 0.5) * sm.delta < 9.0
        ]
        assert all(v == 0.0 for v in mid)
        assert sm.densities[0] == pytest.approx(0.5, abs=1e-12)

    def test_resolution_must_divide_window(self):
        with pytest.raises(BadResolutionError):
            smooth_uniform(DiscreteDist((("0", 1.0),)), 0.3, 0.25)

    def test_cell_budget_admits_exactly_its_count(self, monkeypatch):
        monkeypatch.setattr(dists, "SMOOTH_MAX_CELLS", 4)
        point = DiscreteDist((("0", 1.0),))
        assert smooth_uniform(point, 0.5, 0.25).n_cells == 4
        with pytest.raises(TooLargeError):
            smooth_uniform(point, 0.5, 0.25, origin=-0.5, cells=5)

    def test_mass_preserved_for_random_discrete_inputs(self, corpus):
        for prior, _ in corpus[:10]:
            sm = smooth_uniform(prior, 0.5, 0.125)
            assert abs(sm.total_mass() - 1.0) <= 1e-6

    def test_grid_input_matches_numeric_convolution(self):
        """Cell averages agree with a fine Riemann sum of the true convolution."""
        g = GridDensity(0.0, 0.5, (0.5, 1.0, 0.5))
        eps = 0.375
        sm = smooth_uniform(g, eps, 0.25)

        def input_density(x):
            if 0.0 <= x < 1.5:
                return g.densities[min(int(x / 0.5), 2)]
            return 0.0

        for j in range(sm.n_cells):
            a = sm.origin + j * sm.delta
            samples = np.linspace(a, a + sm.delta, 201)
            kernel_avg = []
            for x in samples:
                ts = np.linspace(x - eps, x + eps, 401)
                kernel_avg.append(np.trapezoid([input_density(t) for t in ts], ts) / (2 * eps))
            expected = np.trapezoid(kernel_avg, samples) / sm.delta
            assert sm.densities[j] == pytest.approx(expected, abs=5e-4)

    def test_shared_extent_makes_disjoint_pair_compatible(self):
        a = DiscreteDist((("0", 1.0),))
        b = DiscreteDist((("3", 1.0),))
        assert not check_compatible(a, b).compatible
        sa = smooth_uniform(a, 2.0, 0.25, origin=-2.0, cells=28)
        sb = smooth_uniform(b, 2.0, 0.25, origin=-2.0, cells=28)
        report = check_compatible(sa, sb)
        assert report.compatible and report.overlap_mass > 0.0

    def test_forced_extent_must_cover_the_mass(self):
        a = DiscreteDist((("0", 1.0),))
        with pytest.raises(ValueError):
            smooth_uniform(a, 2.0, 0.25, origin=-2.0, cells=4)

    @pytest.mark.parametrize("origin, captured", [(-2.0, "0.5"), (100.0, "0.0")])
    def test_forced_extent_reports_the_captured_mass(self, origin, captured):
        a = DiscreteDist((("0", 1.0),))
        with pytest.raises(InsufficientCoverageError, match=f"^output grid captures {captured} of"):
            smooth_uniform(a, 2.0, 0.25, origin=origin, cells=8)

    @pytest.mark.parametrize("origin", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("cells", [None, 4])
    def test_non_finite_origin_is_rejected(self, origin, cells):
        with pytest.raises(ValueError, match="origin must be finite"):
            smooth_uniform(DiscreteDist((("0", 1.0),)), 0.5, 0.25, origin=origin, cells=cells)


_MASSES = st.floats(1e-300, 1.0)


@st.composite
def _discrete_inputs(draw):
    """1-50 atoms anywhere in +-1e6, on an output grid of a few hundred cells."""
    positions = draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    masses = draw(st.lists(_MASSES, min_size=len(positions), max_size=len(positions)))
    span = max(positions) - min(positions)
    delta_out = 2.0 ** math.ceil(math.log2(max(span, 1e-3) / 256))
    epsilon = delta_out * draw(st.integers(1, 8)) / 2.0
    return normalize(zip(positions, masses)), epsilon, delta_out


@st.composite
def _grid_inputs(draw):
    """1-50 cells with origin in +-1e6; the output cell width divides 2*epsilon."""
    values = draw(st.lists(_MASSES, min_size=1, max_size=50))
    origin = draw(st.floats(-1e6, 1e6))
    delta = draw(st.sampled_from([0.125, 0.1, 1.0, 7.0]))
    delta_out = delta * draw(st.sampled_from([0.5, 1.0, 2.0]))
    epsilon = delta_out * draw(st.integers(1, 8)) / 2.0
    return GridDensity.from_values(origin, delta, values), epsilon, delta_out


class TestSmoothingMatchesTheReference:
    @settings(deadline=None, max_examples=60)
    @given(_discrete_inputs())
    def test_discrete_branch(self, case):
        _assert_matches_reference(*case)

    @settings(deadline=None, max_examples=60)
    @given(_grid_inputs())
    def test_grid_branch(self, case):
        """The array pass adds the same terms in the same order: bit for bit."""
        got, expected = _assert_matches_reference(*case)
        assert got == expected
