"""Shared fixtures: a reproducible corpus of random compatible discrete pairs."""

import numpy as np
import pytest

from bayesfuse import DiscreteDist, dists, normalize


def _outcome(build):
    """The atoms ``build()`` returns, or the type and message it raised."""
    try:
        return "ok", build().atoms
    except Exception as exc:  # the error itself is the value compared
        return type(exc), str(exc)


@pytest.fixture(scope="session", autouse=True)
def trusted_constructions_pass_the_public_check():
    """Every trusted construction in the suite must match the public constructor.

    ``DiscreteDist._trusted`` skips the key checks, on the caller's promise
    that its keys are canonical and strictly ascending.  Here
    each call also runs the public constructor on the same atoms: both must
    return the same atoms or raise the same error.
    """
    trusted = DiscreteDist._trusted.__func__

    def checked(cls, keys, masses):
        keys, masses = list(keys), list(masses)
        public = _outcome(lambda: cls(tuple(zip(keys, masses))))
        try:
            dist = trusted(cls, keys, masses)
        except Exception as exc:
            assert public == (type(exc), str(exc)), keys
            raise
        assert public == ("ok", dist.atoms), keys
        return dist

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DiscreteDist, "_trusted", classmethod(checked))
        yield


@pytest.fixture()
def uniform_cells_refused(monkeypatch):
    """The uniform family's pdf raises, so a grid that should be refused
    before any cell is evaluated fails at once instead of being built."""

    def no_cells(*args):
        raise AssertionError("a cell was evaluated")

    uniform = dists._FAMILIES["uniform"]._replace(pdf=no_cells)
    monkeypatch.setitem(dists._FAMILIES, "uniform", uniform)


CORPUS_SEED = 20240817


def random_pair(rng, n_joint, extra_prior=0, extra_like=0):
    """A compatible pair whose joint support has exactly ``n_joint`` atoms.

    Either side may carry extra private atoms, so the joint support is a
    strict subset of the union when ``extra_*`` is positive.  All masses
    are bounded away from zero.
    """
    total = n_joint + extra_prior + extra_like
    positions = rng.choice(np.arange(-10, 40), size=total, replace=False)
    joint = positions[:n_joint]
    prior_keys = np.concatenate([joint, positions[n_joint : n_joint + extra_prior]])
    like_keys = np.concatenate([joint, positions[n_joint + extra_prior :]])
    prior = normalize(
        (int(k), m) for k, m in zip(prior_keys, rng.uniform(0.05, 1.0, len(prior_keys)))
    )
    like = normalize(
        (int(k), m) for k, m in zip(like_keys, rng.uniform(0.05, 1.0, len(like_keys)))
    )
    return prior, like


def make_corpus(seed=CORPUS_SEED, pairs_per_size=10):
    rng = np.random.default_rng(seed)
    corpus = []
    for n in range(2, 7):
        for i in range(pairs_per_size):
            extra_prior = int(rng.integers(0, 3)) if i % 2 else 0
            extra_like = int(rng.integers(0, 3)) if i % 3 else 0
            corpus.append(random_pair(rng, n, extra_prior, extra_like))
    return corpus


@pytest.fixture(scope="session")
def corpus():
    """At least 50 random compatible discrete pairs, joint sizes 2 through 6."""
    return make_corpus()


@pytest.fixture()
def rng():
    return np.random.default_rng(CORPUS_SEED)


def dirichlet_alternative(rng, keys) -> DiscreteDist:
    """A random pmf on the given atom keys."""
    masses = rng.dirichlet(np.ones(len(keys)))
    return normalize(zip(keys, masses))
