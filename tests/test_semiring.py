import math

import pytest

from skn import (
    BOOLEAN, MIN_TROPICAL, REAL, SEMIRINGS, WeightLiteralError,
    parse_weight_literal,
)

import props


def test_boolean_add_or():
    assert BOOLEAN.add(True, False) == True
    assert BOOLEAN.add(False, False) == False


def test_min_tropical_add_is_min():
    assert MIN_TROPICAL.add(2.0, 1.0) == 1.0


def test_real_add():
    assert REAL.add(0.7, 0.3) == pytest.approx(1.0, abs=1e-15)


def test_boolean_mul_annihilates():
    assert BOOLEAN.mul(True, False) == False


def test_min_tropical_mul_is_real_addition():
    # two weight-1 edges chain to a weight-2 path
    assert MIN_TROPICAL.mul(1.0, 1.0) == 2.0


def test_min_tropical_infinity_annihilates():
    assert MIN_TROPICAL.mul(math.inf, 5.0) == math.inf
    assert MIN_TROPICAL.add(math.inf, 5.0) == 5.0


def test_real_mul_identity():
    assert REAL.mul(0.7, 1.0) == 0.7


def test_parse_real_literal():
    assert parse_weight_literal("0.7", REAL) == 0.7


def test_parse_tropical_inf():
    assert parse_weight_literal("inf", MIN_TROPICAL) == math.inf


def test_parse_boolean_rejects_decimal():
    with pytest.raises(WeightLiteralError) as e:
        parse_weight_literal("0.7", BOOLEAN)
    assert "0.7" in str(e.value) and "boolean" in str(e.value)


def test_parse_boolean_spellings():
    for text, want in [("true", True), ("#t", True), ("1", True),
                       ("false", False), ("#f", False), ("0", False)]:
        assert parse_weight_literal(text, BOOLEAN) == want


def test_real_rejects_inf_and_garbage():
    for bad in ("inf", "nan", "zero", "1/2"):
        with pytest.raises(WeightLiteralError):
            parse_weight_literal(bad, REAL)


def test_decimal_overflowing_to_inf_rejected():
    # -1e400 would read as -inf and break min-tropical's annihilator law
    for spec in (REAL, MIN_TROPICAL):
        for bad in ("1e400", "-1e400"):
            with pytest.raises(WeightLiteralError):
                parse_weight_literal(bad, spec)


def test_render_weight():
    assert BOOLEAN.render(True) == "true"
    assert BOOLEAN.render(False) == "false"
    assert REAL.render(0.7) == "0.7"
    assert MIN_TROPICAL.render(math.inf) == "inf"


def test_registry():
    assert set(SEMIRINGS) == {"boolean", "real", "min-tropical"}
    assert BOOLEAN.idempotent_add and MIN_TROPICAL.idempotent_add
    assert not REAL.idempotent_add


@pytest.mark.parametrize("spec", [BOOLEAN, REAL, MIN_TROPICAL], ids=lambda s: s.name)
def test_axioms_sampled(spec):
    assert props.check_semiring_axioms(spec, 200) >= 8
