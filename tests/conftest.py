import ctypes
import functools
import os
from pathlib import Path

import numpy as np
import pytest

from cantorstring import (
    IfsModel,
    StieltjesString,
    _native,
    atomize,
    lebesgue_model,
    make_letter,
    measure,
    middle_third_letter,
    single_letter_model,
    third_fifth_model,
    tree as tree_module,
)
from cantorstring._rng import child_state, root_states

# frozen reference values (independent solves, see test_exponent for the oracles)
GAMMA_R_THIRD_FIFTH = 0.39640345203549965
GAMMA_H_THIRD_FIFTH = 0.39630395655253714


def tie_model():
    """Offsets a = -log(1/4) and 2a = -log(1/16) are exact multiples of one
    double, so child 2 of a "quarter" node ties with its grandchild 1.1."""
    quarter = make_letter("quarter", [(0.5, 0.0), (0.125, 0.875)], (0.5, 0.5))
    eighth = make_letter("eighth", [(0.25, 0.0), (0.25, 0.75)], (0.5, 0.5))
    return IfsModel((0.0, 1.0), (quarter, eighth), (0.5, 0.5))


def child_bounds(tree, n):
    """[lo_1, ..., lo_k, hi]: root child i's atoms are lo_i:lo_(i+1) of the depth-n string,
    read from the first index of generation n's addresses."""
    lo, hi = tree.nodes.levels[n:n + 2].tolist()
    heads = [address[0] for address in tree_module.node_addresses(tree.nodes)[lo:hi]]
    return [heads.index(i) for i in range(1, heads[-1] + 1)] + [len(heads)]


def forest_piece_cells(tree, n, seed):
    """The reference bracketing pieces' cells: per root child i, generation n - 1 of the
    subtree at i, addresses relative to i, from the root children of `seed`'s tree regrown
    as one forest of depth n - 1 and split where its ranks pass each root's."""
    measure._require_depth(tree, n, least=1)
    kids = child_state(root_states([seed]), np.arange(1, tree.nodes.first[1], dtype=np.uint64))
    forest = tree_module._grow(tree.model, kids, depth=n - 1)
    lo, hi = forest.levels[n - 1:n + 1].tolist()
    bounds = [*(lo + forest.rank[lo:hi].searchsorted(forest.rank[:kids.size])).tolist(), hi]
    return [measure._cells(tree, n - 1, forest, slice(*ends)) for ends in zip(bounds, bounds[1:])]


def forest_pieces(tree, n, seed):
    """[(r_i * m_i, piece i's string)]: the child subtrees' strings, which the whole string's
    pieces at x match when counted at r_i * m_i * x (the oracle of check_bracketing)."""
    root = tree.model.letters[tree.nodes.letter[0]]
    return [(s.ratio * w, StieltjesString.from_measure(atomize(cells)))
            for s, w, cells in zip(root.maps, root.weights, forest_piece_cells(tree, n, seed))]


def pytest_configure(config):
    """With CANTORSTRING_TEST_LIBRARY naming a build of _native.c (one built under
    sanitizers, say), the compiled paths load that build instead of the cached one; the
    tests that rebuild the cache (`_native.library.cache_clear()`) do not apply to it."""
    path = os.environ.get("CANTORSTRING_TEST_LIBRARY")
    if path:
        loaded = _native._typed(ctypes.CDLL(path))
        _native.library = functools.cache(lambda: loaded)


@pytest.fixture
def third_fifth():
    return third_fifth_model()


@pytest.fixture
def middle_third():
    return single_letter_model(middle_third_letter())


@pytest.fixture
def lebesgue():
    return lebesgue_model()


@pytest.fixture
def balanced_pair():
    """Two distinct letters sharing the per-letter exponent alpha = ln2/ln6."""
    import math

    alpha = math.log(2) / math.log(6)
    # three maps with equal products q = 3^(-1/alpha), equal weights 1/3
    r = 3.0 ** (1.0 - 1.0 / alpha)
    gap = (1.0 - 3.0 * r) / 2.0
    other = make_letter("tri", [(r, 0.0), (r, r + gap), (r, 1.0 - r)],
                        (1 / 3, 1 / 3, 1 / 3))
    return IfsModel((0.0, 1.0), (middle_third_letter(), other), (0.5, 0.5))


@pytest.fixture(scope="session")
def models_dir():
    return Path(__file__).resolve().parent.parent / "models"


@pytest.fixture
def both_paths(monkeypatch):
    """Iterate for "compiled", with the C loops in place (when they build), then for
    "numpy", with the loader patched to None: counts and growth on their numpy paths."""
    def paths():
        yield "compiled"
        with monkeypatch.context() as patch:
            patch.setattr(_native, "library", lambda: None)
            yield "numpy"
    return paths
