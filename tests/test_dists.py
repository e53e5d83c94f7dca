"""Distribution construction, canonical keys, discretization, and smoothing."""

import math
import re
from decimal import Decimal, InvalidOperation, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bayesfuse import dists
from bayesfuse import (
    AllZeroMassError,
    BadResolutionError,
    BayesfuseError,
    DiscreteDist,
    DistFamily,
    GridDensity,
    InsufficientCoverageError,
    InvalidArgumentError,
    NonFiniteError,
    TooLargeError,
    canonical_key,
    check_compatible,
    discretize,
    enumerate_simplex,
    normalize,
    smooth_uniform,
    weighted_posterior,
)
from bayesfuse.dists import GRID_MASS_TOL


def _reference_pdf(family, x):
    """Each family density written out on its own, as the family table must compute it."""
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
        points = [(float(k), m) for k, m in dist.atoms if m > 0.0]

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

    positive = [i for i, d in enumerate(dist.densities) if d > 0.0]
    lo = dist.origin + min(positive) * delta - epsilon
    hi = dist.origin + (max(positive) + 1) * delta + epsilon
    return cdf, lo, hi


def _reference_smooth(dist, epsilon, delta_out):
    """Pure-Python smoothing onto the default grid: (origin, densities)."""
    cdf, lo, hi = _reference_smoothing_cdf(dist, epsilon)
    origin = math.floor(lo / delta_out + 1e-12) * delta_out
    cells = max(1, math.ceil((hi - origin) / delta_out - 1e-12))
    at_edges = [cdf(origin + j * delta_out) for j in range(cells + 1)]
    return origin, [max(0.0, (b - a) / delta_out) for a, b in zip(at_edges, at_edges[1:])]


def _array_smoothing_cdf_discrete(dist, epsilon):
    """The numpy smoothed CDF of a discrete distribution that the list code
    replaced, kept as the reference it must equal bit for bit.  Its extent
    still spans zero-mass atoms, which the drawn inputs never have."""
    thetas = [float(k) for k in dist.keys]
    width = 2.0 * epsilon

    def cdf(x: np.ndarray) -> np.ndarray:
        # An atom's smoothed CDF is 0 up to theta - epsilon, then the ramp
        # mass * t, then mass from the first edge where t reaches 1.  Ramps
        # are added on their slices of the edges; the full masses are steps
        # summed in one cumsum.
        ramps = np.zeros(x.size)
        steps = np.zeros(x.size + 1)
        for theta, mass in zip(thetas, dist.masses):
            lo = theta - epsilon
            start = int(np.searchsorted(x, lo, side="right"))
            # One edge past theta + epsilon, t >= 1 unless the cell width is
            # below the rounding error of theta.
            stop = int(np.searchsorted(x, theta + epsilon, side="right")) + 1
            t = (x[start:stop] - lo) / width
            stop = start + int(np.searchsorted(t, 1.0))
            ramps[start:stop] += mass * t[: stop - start]
            steps[stop] += mass
        return ramps + np.cumsum(steps)[:-1]

    return cdf, min(thetas) - epsilon, max(thetas) + epsilon


def _array_smoothing_cdf_grid(dist, epsilon):
    """The numpy smoothed CDF of a grid density that the list code replaced,
    kept as the reference it must equal bit for bit."""
    # Convolving a piecewise-constant density with a uniform kernel gives a
    # piecewise-linear density; its CDF is evaluated through G, the running
    # integral of the input CDF (piecewise quadratic, exact).
    origin, delta, end = dist.origin, dist.delta, dist.end
    densities = np.array(dist.densities, dtype=float)
    cdf_nodes = np.concatenate(([0.0], np.cumsum(densities * delta)))
    # G grows by cdf * delta, then by density * delta**2 / 2, in each cell;
    # one cumsum over the interleaved terms adds them in that order.
    terms = np.empty(2 * densities.size)
    terms[0::2] = cdf_nodes[:-1] * delta
    terms[1::2] = densities * delta * delta / 2.0
    g_nodes = np.concatenate(([0.0], np.cumsum(terms)[1::2]))
    total = cdf_nodes[-1]

    def integral_of_cdf(x: np.ndarray) -> np.ndarray:
        # G(x) = integral of the input CDF from the grid origin up to x.
        g = np.where(x >= end, g_nodes[-1] + (x - end) * total, 0.0)
        inside = (x > origin) & (x < end)
        xi = x[inside]
        i = np.minimum(((xi - origin) / delta).astype(np.intp), densities.size - 1)
        dx = xi - (origin + i * delta)
        g[inside] = g_nodes[i] + cdf_nodes[i] * dx + densities[i] * dx * dx / 2.0
        return g

    def cdf(x: np.ndarray) -> np.ndarray:
        return (integral_of_cdf(x + epsilon) - integral_of_cdf(x - epsilon)) / (2.0 * epsilon)

    positive = np.flatnonzero(densities > 0.0)
    lo = origin + int(positive[0]) * delta - epsilon
    hi = origin + (int(positive[-1]) + 1) * delta + epsilon
    return cdf, lo, hi


def _array_smooth(dist, epsilon, delta_out):
    """Array smoothing onto the default grid, one pass over all edges: (origin, densities)."""
    if isinstance(dist, DiscreteDist):
        cdf, lo, hi = _array_smoothing_cdf_discrete(dist, epsilon)
    else:
        cdf, lo, hi = _array_smoothing_cdf_grid(dist, epsilon)
    origin = math.floor(lo / delta_out + 1e-12) * delta_out
    cells = max(1, math.ceil((hi - origin) / delta_out - 1e-12))
    densities = np.diff(cdf(origin + np.arange(cells + 1) * delta_out)) / delta_out
    return origin, tuple(np.where(densities > 0.0, densities, 0.0).tolist())


def _assert_matches_reference(dist, epsilon, delta_out):
    """Check ``smooth_uniform`` against the fsum reference; return its result
    and the reference densities."""
    sm = smooth_uniform(dist, epsilon, delta_out)
    origin, densities = _reference_smooth(dist, epsilon, delta_out)
    assert sm.origin == origin
    assert sm.n_cells == len(densities)
    masses = np.array(sm.densities) * delta_out
    expected = np.array(densities) * delta_out
    assert np.abs(masses - expected).max() <= 1e-13
    assert abs(sm.total_mass() - delta_out * math.fsum(densities)) <= GRID_MASS_TOL
    return sm, tuple(densities)


def _reference_canonical_key(value):
    """The Decimal definition of canonical keys, as it stood before the text fast path.

    A float, subclasses included, is read through ``float.__repr__``.
    """
    try:
        if isinstance(value, str):
            dec = Decimal(value)
        elif isinstance(value, float):
            if not math.isfinite(value):
                raise NonFiniteError(f"atom position is not finite: {value!r}")
            dec = Decimal(float.__repr__(value))
        else:
            dec = Decimal(value)
    except InvalidOperation as exc:
        raise ValueError(f"not a decimal atom key: {value!r}") from exc
    if not dec.is_finite():
        raise NonFiniteError(f"atom position is not finite: {value!r}")
    # A nonzero position needs its leading digit at 10**-400 or more as
    # written, and at 10**400 or less once rounded to 50 digits.  The exact
    # bound comes first, from the digits, so no rounding nears Decimal's limits.
    _, digits, exponent = dec.as_tuple()
    if any(digits) and not -400 <= exponent + len(digits) - 1 <= 400:
        raise InvalidArgumentError(f"atom key is outside the decimal exponent range: {value!r}")
    with localcontext() as ctx:
        ctx.prec = 50
        rounded = dec.normalize()
    if rounded.adjusted() > 400:
        raise InvalidArgumentError(f"atom key is outside the decimal exponent range: {value!r}")
    text = format(rounded, "f")
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


class _Float(float):
    """A float whose ``str()`` is not the ``repr`` that ``canonical_key`` reads."""

    def __str__(self):
        return "7"


# Keys whose str() is a plain decimal of at most 50 characters, mostly, so
# that a drawn list often takes the bulk path of one fullmatch.
_PLAIN_KEYS = (
    st.from_regex(r"-?(0|[1-9][0-9]{0,20})(\.[0-9]{1,20})?", fullmatch=True)
    | st.floats(-1e15, 1e15)
    | st.integers(-(10**49), 10**50)
)


class TestCanonicalKeys:
    @settings(deadline=None, max_examples=400)
    @given(_KEY_INPUTS)
    @example("-0").via("the one canonical text with a sign the pattern allows")
    @example(-(10**5000)).via("an int too long for str()")
    @example("1e400").via("the largest exponent")
    @example("-1e-400").via("the smallest exponent")
    @example("1e401").via("past the largest exponent")
    @example("1e-401").via("past the smallest exponent")
    @example("9" * 60 + "e340").via("rounds up to the largest exponent")
    @example("9" * 50 + "49e349").via("the largest size that rounds below 10**401")
    @example("9" * 50 + "5e350").via("past the largest exponent once rounded")
    @example("9" * 60 + "e-460").via("rounds up to the smallest exponent, but is below it")
    @example("1e1000000").via("past Decimal's own exponent range")
    @example("1e-1000049").via("a position Decimal would round to 0")
    @example("0e-2000000").via("zero, with any exponent")
    @example("1\n2").via("two plain lines")
    @example(np.float64(0.5)).via("a float subclass whose repr is not the float's")
    def test_matches_the_decimal_reference(self, value):
        assert _outcome(canonical_key, value) == _outcome(_reference_canonical_key, value)

    @settings(deadline=None, max_examples=300)
    @given(st.lists(_KEY_INPUTS | _PLAIN_KEYS, max_size=8))
    @example(["0\n1", "1"]).via("a newline inside a key")
    @example(["-0.0", "2"]).via("negative zero")
    @example(["007.50", "2"]).via("leading zeros")
    @example(["1" * 50, "-" + "1" * 49]).via("50 characters")
    @example(["1" * 51, "2"]).via("51 characters")
    @example([10**50, 2]).via("a 51-digit int")
    @example([True, 2]).via("a bool")
    @example([_Float(0.5), 2]).via("a float subclass, whose str() is not the text")
    @example([10**4301, 2]).via("an int too long for str()")
    @example([np.float64(-2.5), 2]).via("a float subclass whose repr is not the float's")
    @example([]).via("no keys")
    def test_bulk_keys_match_canonical_key_per_key(self, keys):
        """The bulk pass is ``canonical_key`` itself, so each key is checked
        against the Decimal reference, and the first error against its error."""
        per_key = _outcome(lambda ks: [_reference_canonical_key(k) for k in ks], keys)
        assert _outcome(dists._canonical_keys, keys) == per_key

    def test_plain_keys_are_canonicalized_in_bulk(self, monkeypatch):
        def refuse(key):
            raise AssertionError(f"{key!r} was canonicalized on its own")

        monkeypatch.setattr(dists, "canonical_key", refuse)
        keys = ["-0.0", "12.500", "3", -4.25, 100.0, 7, "1" * 50, "-0.05"]
        expected = ["0", "12.5", "3", "-4.25", "100", "7", "1" * 50, "-0.05"]
        assert dists._canonical_keys(keys) == expected

    def test_the_public_constructor_checks_plain_keys_in_bulk(self, monkeypatch):
        def refuse(key):
            raise AssertionError(f"{key!r} was checked on its own")

        monkeypatch.setattr(dists, "canonical_key", refuse)
        atoms = (("-4.25", 0.25), ("0", 0.25), ("3", 0.25), ("12.5", 0.25))
        assert DiscreteDist(atoms).atoms == atoms
        with pytest.raises(ValueError, match=r"^atom key is not canonical: '3\.0'$"):
            DiscreteDist((("0", 0.5), ("3.0", 0.5)))

    def test_a_float_subclass_is_read_as_a_float(self):
        assert canonical_key(np.float64(0.5)) == "0.5"
        keys = [0.1, -2.5, 1e20, 0.1, -0.0]
        masses = [0.125, 0.25, 0.125, 0.25, 0.25]
        built = DiscreteDist.from_pairs(zip(map(np.float64, keys), masses))
        assert built == DiscreteDist.from_pairs(zip(keys, masses))

    def test_keys_outside_the_exponent_range_are_refused(self):
        for key in ("1e401", "-1e401", "1e-401", "9" * 50 + "5e350", "1e1000000", "1e-1000049"):
            with pytest.raises(InvalidArgumentError, match="outside the decimal exponent range"):
                canonical_key(key)
        assert canonical_key("1e400") == "1" + "0" * 400
        assert canonical_key("-1e-400") == "-0." + "0" * 399 + "1"
        assert canonical_key("9" * 60 + "e340") == "1" + "0" * 400
        assert canonical_key("0e-2000000") == "0"
        assert len(canonical_key("-" + "9" * 50 + "e-449")) == 452

    @settings(deadline=None, max_examples=300)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(5e-324).via("the least subnormal")
    @example(1.7976931348623157e308).via("the largest float")
    def test_every_finite_float_is_a_key(self, x):
        key = canonical_key(x)
        assert float(key) == x
        assert canonical_key(key) == key

    @settings(deadline=None, max_examples=300)
    @given(
        st.builds(
            "{}{}e{}".format,
            st.sampled_from(["", "-"]),
            st.text(st.sampled_from("0123456789"), min_size=1, max_size=60),
            st.integers(-470, 410),
        )
        | _KEY_INPUTS
    )
    @example("-" + "9" * 50 + "e-449").via("the longest key")
    @example("9" * 50 + "49e349").via("the largest key")
    @example("9" * 60 + "e341").via("rounds up to 10**401")
    def test_an_accepted_key_is_short_and_canonical(self, value):
        """A key has at most 452 characters, and is its own key, so a written
        file can be read back."""
        try:
            key = canonical_key(value)
        except (ValueError, NonFiniteError):
            return
        assert len(key) <= 452
        assert canonical_key(key) == key

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

    @pytest.mark.parametrize("build", ["public", "trusted"])
    def test_keys_and_masses_are_built_once_and_leave_the_value_alone(self, build):
        atoms = (("0", 0.25), ("1", 0.75))
        d = DiscreteDist(atoms) if build == "public" else DiscreteDist.from_pairs(atoms)
        fresh = DiscreteDist(atoms)
        assert d.keys is d.keys and d.masses is d.masses
        assert (d.keys, d.masses) == (("0", "1"), (0.25, 0.75))
        assert d == fresh and hash(d) == hash(fresh) and repr(d) == repr(fresh)


_FLOAT_TIES = [
    ("0.1", "0.10000000000000000001"),
    ("-0.10000000000000000001", "-0.1"),
    ("1" + "0" * 400, "2" + "0" * 400),
    ("-2" + "0" * 400, "-1" + "0" * 400),
    ("0." + "0" * 399 + "1", "0." + "0" * 399 + "2"),
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
    """``from_pairs`` without its fast path: every key goes through the merge dict.

    Each mass is checked as given, after every key: a sum of duplicates
    could hide a negative or infinite one.
    """
    keys = [canonical_key(raw_key) for raw_key, _ in pairs]
    masses = [float(mass) for _, mass in pairs]
    for mass in masses:
        if not math.isfinite(mass):
            raise NonFiniteError(f"mass must be finite, got {mass!r}")
        if mass < 0.0:
            raise ValueError(f"mass must be nonnegative, got {mass!r}")
    merged = {}
    for key, mass in zip(keys, masses):
        merged.setdefault(key, []).append(mass)
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

        # _merged directly: the trust guard on from_pairs runs the public
        # constructor, which orders keys through _ascending itself.
        monkeypatch.setattr(dists, "_ascending", refuse)
        merged = dists._merged([(-1, 0.25), ("0.50", -0.0), (2, 0.75)])
        assert repr(merged) == "(['-1', '0.5', '2'], [0.25, 0.0, 0.75])"


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

    @settings(deadline=None, max_examples=300)
    @given(
        st.lists(
            st.tuples(
                st.integers(-5, 5),
                st.builds(lambda m, e: m * 10.0**e, st.floats(0.1, 1.0), st.integers(-299, 0)),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_exactly_idempotent_from_1e300_to_1(self, raw):
        once = normalize(raw)
        assert repr(normalize(once.atoms).atoms) == repr(once.atoms)
        assert math.fsum(once.masses) == 1.0

    # About one draw in ten succeeds on both sides; the rest raise.
    @settings(deadline=None, max_examples=500)
    @given(_pairs())
    def test_orders_keys_as_from_pairs_does(self, pairs):
        built = _outcome(lambda p: DiscreteDist.from_pairs(p).keys, pairs)
        scaled = _outcome(lambda p: normalize(p).keys, pairs)
        if built[0] == scaled[0] == "ok":
            assert scaled == built

    def test_each_mass_is_checked_before_duplicates_merge(self):
        with pytest.raises(ValueError, match=r"^mass must be nonnegative, got -0.25$"):
            normalize([("0", -0.25), ("0.0", 1.25)])

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

    def test_from_values_renormalizes_when_the_integral_underflows(self):
        # 1e-3 * 5e-324 rounds to 0.0, yet the cell has mass.
        assert GridDensity.from_values(0.0, 1e-3, [0.0, 5e-324]).densities == (0.0, 1000.0)
        assert GridDensity.from_values(0.0, 1e-3, [1e-320, 3e-320]).densities == (250.0, 750.0)

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
        """Grids that start below 0 or 1 exercise the zero branches; geometric
        p = 1 puts all mass on the cell whose midpoint is 1."""
        assert list(discretize(family, grid).densities) == _reference_discretize(family, grid)

    def test_insufficient_coverage(self):
        with pytest.raises(InsufficientCoverageError):
            discretize(DistFamily.normal(0.0, 1.0), (-1.0, 0.01, 200))

    def test_grid_past_the_cell_cap_is_refused_before_any_cell(self, uniform_cells_refused):
        """A 135-byte family file could otherwise ask for a billion cells."""
        family = DistFamily.uniform(0.0, 1.0)
        for grid in [(0.0, 1e-9, 10**9), (0.0, 1e-7, 10**7 + 1)]:
            with pytest.raises(TooLargeError, match="more than the 10000000 cells"):
                discretize(family, grid)

    @pytest.mark.parametrize(
        "grid",
        [
            (0.0, math.nan, 10**9),
            (0.0, math.inf, 10**9),
            (0.0, -math.inf, 10**9),
            (0.0, 0.0, 10**9),
            (0.0, -0.25, 10**9),
            (0.0, 0.25, 0),
        ],
    )
    def test_bad_width_or_count_is_refused_before_the_cap_and_any_cell(
        self, grid, uniform_cells_refused
    ):
        with pytest.raises(InvalidArgumentError, match="positive cell width"):
            discretize(DistFamily.uniform(0.0, 1.0), grid)

    @pytest.mark.parametrize("origin", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "family",
        [
            DistFamily.normal(0.0, 1.0),
            DistFamily.exponential(1.0),
            DistFamily.geometric(0.5),
            DistFamily.uniform(0.0, 1.0),
        ],
        ids=lambda family: family.name,
    )
    def test_origin_that_is_not_finite_is_refused_before_the_cap_and_any_cell(
        self, monkeypatch, family, origin
    ):
        """Normal, exponential and geometric CDFs pass a NaN origin through,
        so no coverage test would refuse it."""

        def no_cells(*args):
            raise AssertionError("a cell was evaluated")

        spec = dists._FAMILIES[family.name]._replace(pdf=no_cells)
        monkeypatch.setitem(dists._FAMILIES, family.name, spec)
        message = f"^grid origin must be finite, got {origin!r}$"
        with pytest.raises(InvalidArgumentError, match=message):
            discretize(family, (origin, 0.25, 10**9))

    def test_cell_cap_admits_exactly_its_count(self, monkeypatch):
        monkeypatch.setattr(dists, "MAX_GRID_CELLS", 4)
        family = DistFamily.uniform(0.0, 1.0)
        assert discretize(family, (0.0, 0.25, 4)).n_cells == 4
        with pytest.raises(TooLargeError):
            discretize(family, (0.0, 0.2, 5))

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

    @pytest.mark.parametrize(
        "atoms",
        [
            (("0", 1.0), ("1000", 0.0)),
            (("0", 1.0), ("100000000", 0.0)),
            (("-1000", 0.0), ("0", 1.0), ("5", 0.0)),
        ],
    )
    def test_zero_mass_atom_does_not_stretch_the_extent(self, atoms):
        dist = DiscreteDist(atoms)
        sm = smooth_uniform(dist, 0.5, 0.25)
        assert (sm.origin, sm.densities) == (-0.5, (1.0, 1.0, 1.0, 1.0))
        assert _reference_smooth(dist, 0.5, 0.25) == (-0.5, [1.0, 1.0, 1.0, 1.0])

    @pytest.mark.parametrize(
        "densities, origin",
        [((1.0,) + (0.0,) * 1000, -0.5), ((0.0,) * 1000 + (1.0,), 999.5)],
    )
    def test_zero_density_end_cells_do_not_stretch_the_extent(self, densities, origin):
        grid = GridDensity(0.0, 1.0, densities)
        sm = smooth_uniform(grid, 0.5, 0.25)
        assert sm.origin == origin
        assert sm.n_cells == 8
        assert _reference_smooth(grid, 0.5, 0.25) == (sm.origin, list(sm.densities))
        assert _array_smooth(grid, 0.5, 0.25) == (sm.origin, sm.densities)

    def test_resolution_must_divide_window(self):
        with pytest.raises(BadResolutionError):
            smooth_uniform(DiscreteDist((("0", 1.0),)), 0.3, 0.25)

    def test_cell_budget_admits_exactly_its_count(self, monkeypatch):
        monkeypatch.setattr(dists, "MAX_GRID_CELLS", 4)
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
        """Within 1e-13 of the fsum reference, and bit for bit the array algorithm."""
        sm, _ = _assert_matches_reference(*case)
        assert (sm.origin, sm.densities) == _array_smooth(*case)

    @settings(deadline=None, max_examples=60)
    @given(_grid_inputs())
    def test_grid_branch(self, case):
        """Both references add the same terms in the same order: bit for bit."""
        sm, expected = _assert_matches_reference(*case)
        assert sm.densities == expected
        assert (sm.origin, sm.densities) == _array_smooth(*case)


_POINT = DiscreteDist((("0", 1.0),))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: canonical_key("NaN"), NonFiniteError, "atom position is not finite: 'NaN'"),
        (
            lambda: canonical_key("-Infinity"),
            NonFiniteError,
            "atom position is not finite: '-Infinity'",
        ),
        (
            lambda: GridDensity.from_values(0.0, 1.0, []),
            ValueError,
            "a grid density needs at least one cell",
        ),
        (
            lambda: GridDensity.from_values(0.0, 1.0, [0.0, 0.0]),
            AllZeroMassError,
            "all cell densities are zero",
        ),
        (
            lambda: DistFamily.normal(math.nan, 1.0),
            NonFiniteError,
            "family parameter is not finite: nan",
        ),
        (
            lambda: discretize(DistFamily.uniform(0.0, 1.0), (0.0, 0.0, 4)),
            InvalidArgumentError,
            "grid needs positive cell width and at least one cell",
        ),
        (
            lambda: discretize(DistFamily.uniform(0.0, 1.0), (0.0, math.nan, 4)),
            InvalidArgumentError,
            "grid needs positive cell width and at least one cell",
        ),
        (
            lambda: discretize(DistFamily.uniform(0.0, 1.0), (0.0, math.inf, 4)),
            InvalidArgumentError,
            "grid needs positive cell width and at least one cell",
        ),
        (
            lambda: discretize(DistFamily.uniform(0.0, 1.0), (0.0, 0.25, 0)),
            InvalidArgumentError,
            "grid needs positive cell width and at least one cell",
        ),
        (
            lambda: smooth_uniform(_POINT, 0.0, 0.25),
            InvalidArgumentError,
            "epsilon must be positive, got 0.0",
        ),
        (
            lambda: smooth_uniform(_POINT, 0.5, -0.25),
            InvalidArgumentError,
            "delta_out must be positive, got -0.25",
        ),
        (
            lambda: smooth_uniform(_POINT, 0.5, 0.25, cells=0),
            InvalidArgumentError,
            "cells must be at least 1",
        ),
        (
            lambda: smooth_uniform(_POINT, 0.5, 0.25, origin=math.inf),
            InvalidArgumentError,
            "origin must be finite, got inf",
        ),
        (
            lambda: next(enumerate_simplex(3, 0)),
            InvalidArgumentError,
            "resolution K must be at least 1",
        ),
        (
            lambda: weighted_posterior(_POINT, _POINT, 0.0, 1.0),
            InvalidArgumentError,
            "prior weight must be positive, got 0.0",
        ),
    ],
    ids=[
        "nan-key",
        "infinite-key",
        "no-cells",
        "all-zero-cells",
        "non-finite-parameter",
        "zero-cell-width",
        "nan-cell-width",
        "infinite-cell-width",
        "zero-cells",
        "smooth-epsilon",
        "smooth-delta-out",
        "smooth-cells",
        "smooth-origin",
        "simplex-resolution",
        "prior-weight",
    ],
)
def test_input_checks_refuse_bad_values(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_argument_errors_are_package_value_errors():
    """The CLI maps a package error to its exit code; callers that catch
    ``ValueError`` still catch a bad argument."""
    assert issubclass(InvalidArgumentError, BayesfuseError)
    assert issubclass(InvalidArgumentError, ValueError)
