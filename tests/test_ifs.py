"""Model validation, contraction products, and the JSON file format.

Core claims:
    - the canonical middle-third letter is admissible as constructed
    - bad weight sums, endpoint pins, overlaps and products r_i m_i that
      underflow to 0 are all reported with indices
    - a tolerance that is NaN, infinite, negative or above 1e-3 is reported, not used
    - a non-finite interval endpoint or map offset is reported by name: a NaN
      offset fails no comparison, and 0 < inf passes the a < b check
    - so is a finite interval whose length b - a or midpoint sum a + b overflows
    - contraction products are r_i * m_i in map order and stay in (0, 1)
    - validation is pure: identical violation lists on repeated calls
    - JSON round trips preserve the model and its digest
    - random models are always admissible; balanced ones share a letter alpha
"""
import math

import pytest

from cantorstring import (
    IfsModel,
    contraction_products,
    load_model,
    make_letter,
    middle_third_letter,
    model_digest,
    random_model,
    save_model,
    third_fifth_model,
    validate_model,
)
from cantorstring.ifs import five_interval_letter, model_from_dict, model_to_dict, validate_letter
from cantorstring.exponent import _alpha


class TestValidation:
    def test_middle_third_valid(self, middle_third):
        assert validate_model(middle_third) == []

    def test_third_fifth_valid(self, third_fifth):
        assert validate_model(third_fifth) == []

    def test_weights_sum_violation(self):
        letter = make_letter("bad", [(1 / 3, 0.0), (1 / 3, 2 / 3)], (0.6, 0.6))
        problems = validate_letter(letter, (0.0, 1.0))
        assert any("sum" in p for p in problems)

    def test_endpoint_and_overlap_violations(self):
        # S_1(b) = 0.5 > S_2(a) = 0.4 and S_2(b) = 0.9 != 1
        letter = make_letter("bad", [(0.5, 0.0), (0.5, 0.4)], (0.5, 0.5))
        problems = validate_letter(letter, (0.0, 1.0))
        assert any("overlap" in p for p in problems)
        assert any("right endpoint" in p for p in problems)

    def test_touching_maps_allowed(self, lebesgue):
        assert validate_model(lebesgue) == []

    def test_underflowing_product_rejected(self):
        letter = make_letter("u", [(1e-200, 0.0), (0.3, 0.35), (0.3, 0.7)], (1e-200, 0.5, 0.5))
        assert [p for p in validate_letter(letter, (0.0, 1.0)) if "underflows" in p] == [
            "letter 'u' map 1: product 1e-200 * 1e-200 underflows to 0"]

    def test_single_map_rejected(self):
        letter = make_letter("solo", [(0.5, 0.0)], (1.0,))
        assert any("at least 2 maps" in p for p in validate_letter(letter, (0.0, 1.0)))

    def test_prob_violations(self):
        model = IfsModel((0.0, 1.0), (middle_third_letter(),), (0.7,))
        assert any("probs" in p for p in validate_model(model))
        model = IfsModel((0.0, 1.0), (middle_third_letter(),), (-0.2,))
        assert any("not in [0, 1]" in p for p in validate_model(model))

    def test_duplicate_ids_rejected(self):
        model = IfsModel((0.0, 1.0), (middle_third_letter(), middle_third_letter()),
                         (0.5, 0.5))
        assert any("unique" in p for p in validate_model(model))

    @pytest.mark.parametrize("tol", ["NaN", "Infinity", "-Infinity", "-1"])
    def test_bad_tolerance_rejected(self, tmp_path, tol):
        # with a NaN or infinite tolerance, overlapping maps whose weights sum to 0.6
        # passed every check; -1 failed the probabilities, which sum to 1.0
        letter = make_letter("bad", [(0.5, 0.0), (0.5, 0.4)], (0.3, 0.3))
        path = tmp_path / "m.json"
        save_model(IfsModel((0.0, 1.0), (letter,), (1.0,)), path)
        path.write_text(path.read_text().replace("1e-12", tol))
        model = load_model(path)
        assert validate_model(model) == [f"tolerance: {float(tol)!r} must be finite and >= 0"]
        with pytest.raises(ValueError, match="tolerance"):
            model.support

    def test_huge_tolerance_rejected(self, tmp_path):
        # middle-third maps whose weights sum to 0.6 passed every check at tolerance 1e9
        letter = make_letter("bad", [(1 / 3, 0.0), (1 / 3, 2 / 3)], (0.3, 0.3))
        path = tmp_path / "m.json"
        save_model(IfsModel((0.0, 1.0), (letter,), (1.0,)), path)
        path.write_text(path.read_text().replace("1e-12", "1e9"))
        model = load_model(path)
        assert validate_model(model) == ["tolerance: 1000000000.0 must be <= 0.001"]
        with pytest.raises(ValueError, match="tolerance"):
            model.support

    @pytest.mark.parametrize("interval, expected", [
        ([0.0, math.inf], "interval: endpoints 0.0, inf must be finite"),
        ([-math.inf, 1.0], "interval: endpoints -inf, 1.0 must be finite"),
        # finite endpoints whose cell lengths or midpoints overflow
        ([-1e308, 1e308], "interval: b - a and a + b must be finite, got [-1e+308, 1e+308]"),
        ([1e308, 1.7e308], "interval: b - a and a + b must be finite, got [1e+308, 1.7e+308]"),
    ], ids=["infinite-b", "infinite-a", "length-overflows", "midpoint-overflows"])
    def test_non_finite_interval_rejected(self, third_fifth, interval, expected):
        model = model_from_dict(dict(model_to_dict(third_fifth), interval=interval))
        assert validate_model(model) == [expected]
        with pytest.raises(ValueError, match="must be finite"):
            model.support

    @pytest.mark.parametrize("offset", [math.nan, math.inf])
    def test_non_finite_offset_rejected(self, offset):
        letter = make_letter("A", [(0.2, 0.0), (0.2, offset), (0.2, 0.8)], (0.3, 0.4, 0.3))
        problems = validate_model(IfsModel((0.0, 1.0), (letter,), (1.0,)))
        assert f"letter 'A' map 2: offset {offset!r} is not finite" in problems
        if math.isnan(offset):  # no other check sees a NaN
            assert len(problems) == 1

    def test_loose_tolerance_accepted(self, third_fifth):
        loose = IfsModel(third_fifth.interval, third_fifth.letters, third_fifth.probs, tol=1e-3)
        assert validate_model(loose) == []
        letter = make_letter("bad", [(1 / 3, 0.0), (1 / 3, 2 / 3)], (0.6, 0.6))
        assert any("sum" in p for p in validate_letter(letter, (0.0, 1.0), 1e-3))

    def test_validation_is_pure(self):
        letter = make_letter("bad", [(0.5, 0.0), (0.5, 0.4)], (0.6, 0.6))
        model = IfsModel((0.0, 1.0), (letter,), (1.0,))
        assert validate_model(model) == validate_model(model)


class TestContractionProducts:
    def test_middle_third(self):
        assert contraction_products(middle_third_letter()) == pytest.approx([1 / 6, 1 / 6])

    def test_fifths(self):
        assert contraction_products(five_interval_letter()) == pytest.approx([1 / 15] * 3)

    def test_mixed(self):
        letter = make_letter("mix", [(0.5, 0.0), (0.25, 0.75)], (0.8, 0.2))
        assert contraction_products(letter) == pytest.approx([0.4, 0.05])

    def test_products_in_unit_interval(self):
        for seed in range(50):
            model = random_model(seed)
            for letter in model.letters:
                for q in contraction_products(letter):
                    assert 0.0 < q < 1.0

    def test_non_overlap_conservation(self):
        # total image length never exceeds the interval
        for seed in range(50):
            model = random_model(seed)
            a, b = model.interval
            for letter in model.letters:
                assert sum(s.ratio for s in letter.maps) * (b - a) <= (b - a) + 1e-12


class TestModelFiles:
    def test_round_trip(self, tmp_path, third_fifth):
        path = tmp_path / "m.json"
        save_model(third_fifth, path)
        loaded = load_model(path)
        assert loaded == third_fifth
        assert model_digest(loaded) == model_digest(third_fifth)

    def test_shipped_file_matches_builder(self, models_dir):
        assert load_model(models_dir / "third-fifth.json") == third_fifth_model()

    def test_tolerance_key(self, tmp_path, third_fifth):
        path = tmp_path / "m.json"
        save_model(third_fifth, path)
        text = path.read_text().replace('"tolerance": 1e-12', '"tolerance": 1e-06')
        path.write_text(text)
        assert load_model(path).tol == 1e-06


class TestRandomModels:
    def test_always_valid(self):
        for seed in range(200):
            assert validate_model(random_model(seed)) == []
            assert validate_model(random_model(seed, balanced=True)) == []

    def test_balanced_letters_share_alpha(self):
        for seed in range(30):
            model = random_model(seed, balanced=True)
            alphas = [_alpha(contraction_products(letter)) for letter in model.letters]
            assert max(alphas) - min(alphas) < 1e-12

    def test_deterministic_in_seed(self):
        assert random_model(77) == random_model(77)
        assert random_model(77) != random_model(78)


def test_lebesgue_products(lebesgue):
    assert contraction_products(lebesgue.letters[0]) == pytest.approx([0.25, 0.25])


def test_third_fifth_geometry(third_fifth):
    fifth = third_fifth.letters[1]
    images = [e for s in fifth.maps for e in (s(0.0), s(1.0))]
    assert images == pytest.approx([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
