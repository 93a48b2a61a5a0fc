from pathlib import Path

import pytest

from cantorstring import (
    IfsModel,
    _native,
    lebesgue_model,
    make_letter,
    middle_third_letter,
    single_letter_model,
    third_fifth_model,
)

# frozen reference values (independent solves, see test_exponent for the oracles)
GAMMA_R_THIRD_FIFTH = 0.39640345203549965
GAMMA_H_THIRD_FIFTH = 0.39630395655253714


def tie_model():
    """Offsets a = -log(1/4) and 2a = -log(1/16) are exact multiples of one
    double, so child 2 of a "quarter" node ties with its grandchild 1.1."""
    quarter = make_letter("quarter", [(0.5, 0.0), (0.125, 0.875)], (0.5, 0.5))
    eighth = make_letter("eighth", [(0.25, 0.0), (0.25, 0.75)], (0.5, 0.5))
    return IfsModel((0.0, 1.0), (quarter, eighth), (0.5, 0.5))


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
