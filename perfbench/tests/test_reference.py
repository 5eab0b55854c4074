import pytest

from reference import REFERENCE_S, fastest, speed


def test_speed_scales_to_the_reference():
    assert speed(REFERENCE_S) == 1.0
    # A host on which the loop takes twice as long halves every time.
    assert speed(2 * REFERENCE_S) == pytest.approx(0.5)


def test_fastest_is_a_positive_time():
    assert 0 < fastest(reps=2) < 1
