"""The contract of the eight value types.

Each is built from its fields by position or keyword, refuses assignment
and deletion, equals only a value of its own type with equal fields,
hashes and prints by its fields, and survives ``_replace``, copying and
pickling.  ``__post_init__`` validates every construction, ``_replace``
included.
"""

import copy
import pickle

import pytest

from bayesfuse import (
    CompatibilityReport,
    DiscreteDist,
    DistFamily,
    Event,
    GridDensity,
    InvalidEventError,
    LossReport,
    RatioProfile,
    SearchResult,
)

_ONE = DiscreteDist((("0", 1.0),))

# (type, fields in order, one valid change, one invalid change, repr)
CASES = [
    (
        CompatibilityReport,
        {"overlap_mass": 0.5},
        {"overlap_mass": 0.25},
        {"overlap_mass": -1.0},
        "CompatibilityReport(overlap_mass=0.5)",
    ),
    (
        DiscreteDist,
        {"atoms": (("0", 0.25), ("1", 0.75))},
        {"atoms": (("0", 1.0),)},
        {"atoms": (("0", 0.5),)},
        "DiscreteDist(atoms=(('0', 0.25), ('1', 0.75)))",
    ),
    (
        GridDensity,
        {"origin": 0.0, "delta": 0.5, "densities": (1.0, 1.0)},
        {"origin": 2.0},
        {"delta": -0.5},
        "GridDensity(origin=0.0, delta=0.5, densities=(1.0, 1.0))",
    ),
    (
        DistFamily,
        {"name": "normal", "params": (("mean", 0.0), ("sd", 1.0))},
        {"params": (("mean", 0.0), ("sd", 2.0))},
        {"name": "cauchy"},
        "DistFamily(name='normal', params=(('mean', 0.0), ('sd', 1.0)))",
    ),
    (
        Event,
        {"members": frozenset({"0"})},
        {"members": frozenset({"1"})},
        {"members": frozenset()},
        "Event(members=frozenset({'0'}))",
    ),
    (
        LossReport,
        {"value": 1.5, "witness": Event.of("0"), "lower_bound": 1.0},
        {"value": 2.0},
        {"value": -1.0},
        "LossReport(value=1.5, witness=Event(members=frozenset({'0'})), lower_bound=1.0)",
    ),
    (
        SearchResult,
        {"argmin": _ONE, "min_value": 0.5, "runner_up_value": 0.75, "evaluated_count": 10},
        {"evaluated_count": 11},
        {"evaluated_count": 0},
        "SearchResult(argmin=DiscreteDist(atoms=(('0', 1.0),)), min_value=0.5,"
        " runner_up_value=0.75, evaluated_count=10)",
    ),
    (
        RatioProfile,
        # The fields of the DiscreteDist case: equal fields, another type.
        {"entries": (("0", 0.25), ("1", 0.75))},
        {"entries": (("0", 1.0),)},
        {"entries": ()},
        "RatioProfile(entries=(('0', 0.25), ('1', 0.75)))",
    ),
]

each_type = pytest.mark.parametrize(
    "cls, fields, change, bad, text", CASES, ids=[case[0].__name__ for case in CASES]
)


@each_type
def test_built_by_position_or_keyword(cls, fields, change, bad, text):
    by_position = cls(*fields.values())
    by_keyword = cls(**dict(reversed(fields.items())))
    assert by_position == by_keyword
    assert [getattr(by_keyword, name) for name in fields] == list(fields.values())


@each_type
def test_fields_cannot_be_assigned_or_deleted(cls, fields, change, bad, text):
    value = cls(**fields)
    name, old = next(iter(fields.items()))
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, old)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(value, name)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        value.extra = 1
    assert getattr(value, name) is old


@each_type
def test_equal_only_to_its_own_type_with_equal_fields(cls, fields, change, bad, text):
    value = cls(**fields)
    assert value == cls(**fields)
    assert value != cls(**{**fields, **change})
    assert value != tuple(fields.values())
    assert value != tuple(fields.items())
    others = [c(**f) for c, f, *_ in CASES if c is not cls]
    assert all(value != other and other != value for other in others)


@each_type
def test_hash_and_repr_read_the_fields(cls, fields, change, bad, text):
    value = cls(**fields)
    assert hash(value) == hash(cls(**fields)) == hash(tuple(fields.values()))
    assert len({value, cls(**fields), cls(**{**fields, **change})}) == 2
    assert repr(value) == text


@each_type
def test_replace_builds_a_new_checked_value(cls, fields, change, bad, text):
    value = cls(**fields)
    assert value._replace(**change) == cls(**{**fields, **change})
    assert value._replace() == value
    assert value == cls(**fields)
    with pytest.raises((ValueError, InvalidEventError)):
        value._replace(**bad)
    with pytest.raises(TypeError):
        value._replace(no_such_field=1)


@each_type
def test_copies_and_pickles_round_trip(cls, fields, change, bad, text):
    value = cls(**fields)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value and repr(twin) == text


@each_type
def test_post_init_checks_every_construction(cls, fields, change, bad, text):
    with pytest.raises((ValueError, InvalidEventError)):
        cls(**{**fields, **bad})


@each_type
def test_wrong_field_lists_are_refused(cls, fields, change, bad, text):
    values = list(fields.values())
    name = next(iter(fields))
    for args, kwargs in [
        (values[:-1], {}),
        ([*values, None], {}),
        (values, {name: values[0]}),
        (values, {"no_such_field": 1}),
    ]:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


@pytest.mark.parametrize("cls", [DiscreteDist, GridDensity])
def test_validation_is_the_class_own_post_init(monkeypatch, cls):
    """The benchmark tracer wraps ``vars(cls)["__post_init__"]`` on the class;
    construction must call the wrapped method through the instance."""
    original = vars(cls)["__post_init__"]
    seen = []

    def spy(self):
        seen.append(self)
        original(self)

    monkeypatch.setattr(cls, "__post_init__", spy)
    fields = next(f for c, f, *_ in CASES if c is cls)
    value = cls(**fields)
    assert seen == [value]
