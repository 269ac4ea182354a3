import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipulse.propagate import evolve_qubit
from mipulse.pulse import (
    BangAngles,
    PulseProgram,
    make_constant,
    make_sampled,
    make_torf,
    parse,
    serialize,
    shift_axis,
    wrap_phase,
)

RABI = 2 * math.pi * 20e3
ETA = 0.2156


def test_constant_uncorrected_duration():
    pulse = make_constant(math.pi, RABI)
    assert pulse.duration == pytest.approx(25.0e-6, rel=1e-12)
    assert len(pulse.segments) == 1
    assert pulse.segments[0][1] == 0.0


def test_constant_corrected_duration_published_value():
    # quarter flip at 770 Hz drive: 1 / (4 * 770 * (1 - eta^2/2)) seconds
    pulse = make_constant(math.pi / 2, 2 * math.pi * 770, speed_correction=True, eta=ETA)
    expected = 1 / (4 * 770 * (1 - 0.5 * ETA**2))
    assert pulse.duration == pytest.approx(expected, rel=1e-12)
    assert pulse.duration == pytest.approx(332e-6, rel=2e-3)


def test_constant_corrected_duration_at_20khz():
    pulse = make_constant(math.pi / 2, RABI, speed_correction=True, eta=ETA)
    assert pulse.duration * 1e6 == pytest.approx(12.80, abs=5e-3)


def test_torf_degenerate_angles_collapse():
    pulse = make_torf(BangAngles(0.0, 0.0, math.pi), RABI)
    assert len(pulse.segments) == 1
    assert pulse.area == pytest.approx(math.pi, rel=1e-12)
    assert pulse.segments[0][1] == 0.0


def test_torf_area_first_order():
    angles = BangAngles(0.0840 * math.pi, 0.0269 * math.pi, 0.3858 * math.pi)
    pulse = make_torf(angles, RABI)
    assert pulse.area == pytest.approx(0.6077 * math.pi, abs=1e-3)
    assert len(pulse.segments) == 5
    assert [p for _, p in pulse.segments] == [0.0, math.pi, 0.0, math.pi, 0.0]


def test_torf_area_second_order():
    angles = BangAngles(
        0.0589 * math.pi, 0.0313 * math.pi, 0.1015 * math.pi,
        0.0097 * math.pi, 0.2729 * math.pi,
    )
    pulse = make_torf(angles, RABI)
    assert len(pulse.segments) == 9
    assert pulse.area == pytest.approx(angles.area, rel=1e-14)
    assert pulse.area == pytest.approx(0.6757 * math.pi, abs=1e-3)


def test_bang_angles_validation():
    with pytest.raises(ValueError):
        BangAngles(-0.1, 0.2, 0.3)
    with pytest.raises(ValueError):
        BangAngles(0.1, 0.2, 0.3, 0.1, None)


def test_sampled_single():
    pulse = make_sampled([0.0], 1e-6, RABI)
    assert pulse.duration == pytest.approx(1e-6)
    assert len(pulse.segments) == 1


def test_sampled_refinement_invariance():
    fine = make_sampled([0.0] * 100, 25e-6 / 100, RABI)
    coarse = make_constant(math.pi, RABI)
    assert np.abs(evolve_qubit(fine) - evolve_qubit(coarse)).max() < 1e-12


def test_sampled_validation():
    with pytest.raises(ValueError):
        make_sampled([], 1e-6, RABI)
    with pytest.raises(ValueError):
        make_sampled([0.0], -1e-6, RABI)


def test_serialize_round_trip_constant():
    pulse = make_constant(math.pi, RABI)
    assert parse(serialize(pulse)) == pulse


def test_serialize_round_trip_sawtooth_bit_exact(rng):
    phases = list(rng.uniform(-math.pi, math.pi, 37))
    pulse = make_sampled(phases, 0.731e-6, RABI, label="sawtooth")
    again = parse(serialize(pulse))
    assert again.segments == pulse.segments
    assert again.rabi == pulse.rabi
    assert again.label == pulse.label


def test_serialize_round_trip_nine_segments():
    angles = BangAngles(0.11, 0.07, 0.31, 0.05, 0.61)
    pulse = make_torf(angles, RABI)
    again = parse(serialize(pulse))
    assert again.segments == pulse.segments


PHASES = st.one_of(
    st.floats(-1e3, 1e3),
    st.floats(math.pi - 1e-9, math.pi + 1e-9),
    st.floats(-math.pi - 1e-9, -math.pi + 1e-9),
)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    rabi_hz=st.sampled_from([770.0, 20e3, 20.48e3]) | st.floats(1.0, 1e7),
    segments=st.lists(
        st.tuples(st.floats(0.0, exclude_min=True, allow_infinity=False), PHASES),
        max_size=6,
    ),
    label=st.text(max_size=12),
)
def test_serialize_round_trip_is_bit_exact(rabi_hz, segments, label):
    # the file stores the rate in Hz, as every command enters it
    pulse = PulseProgram(rabi=2 * math.pi * rabi_hz, segments=tuple(segments), label=label)
    text = serialize(pulse)
    again = parse(text)
    assert again.rabi.hex() == pulse.rabi.hex()
    assert again.label == pulse.label
    assert [(d.hex(), p.hex()) for d, p in again.segments] == [
        (d.hex(), p.hex()) for d, p in pulse.segments
    ]
    assert serialize(again) == text


def test_parse_rejects_negative_duration():
    text = ('{"version": 1, "rabi_hz": 20000.0, "label": "", '
            '"segments": [{"duration_s": -1e-6, "phase_rad": 0.0}]}')
    with pytest.raises(ValueError, match="segment 0"):
        parse(text)


def test_parse_rejects_missing_field():
    with pytest.raises(ValueError, match="rabi_hz"):
        parse('{"version": 1, "segments": []}')


def test_parse_rejects_non_finite_phase():
    text = ('{"version": 1, "rabi_hz": 20000.0, '
            '"segments": [{"duration_s": 1e-6, "phase_rad": NaN}]}')
    with pytest.raises(ValueError, match="segment 0"):
        parse(text)


def test_shift_axis_quarter_turn():
    pulse = make_torf(BangAngles(0.2, 0.1, 0.5), RABI)
    shifted = shift_axis(pulse, math.pi / 2)
    assert shifted.phases[0] == pytest.approx(math.pi / 2)
    assert shifted.phases[1] == pytest.approx(-math.pi / 2)  # pi + pi/2 wrapped


def test_shift_axis_identity():
    pulse = make_constant(1.0, RABI)
    assert shift_axis(pulse, 0.0) == pulse


def test_shift_axis_full_turn_wraps():
    pulse = make_torf(BangAngles(0.2, 0.1, 0.5), RABI)
    wrapped = shift_axis(pulse, 2 * math.pi)
    assert np.allclose(wrapped.phases, pulse.phases, atol=1e-12)
    assert np.allclose(wrapped.durations, pulse.durations)


def test_shift_axis_commutes_with_serialization():
    pulse = make_torf(BangAngles(0.3, 0.04, 0.8), RABI)
    a = serialize(shift_axis(pulse, 0.77))
    b = serialize(shift_axis(parse(serialize(pulse)), 0.77))
    assert a == b


def test_wrap_phase_boundaries():
    assert wrap_phase(math.pi) == math.pi
    assert wrap_phase(-math.pi) == math.pi
    assert wrap_phase(0.3) == 0.3
    assert -math.pi < wrap_phase(7.5) <= math.pi


def test_phase_storage_interval(rng):
    phases = rng.uniform(-10, 10, 25)
    pulse = make_sampled(phases, 1e-6, RABI)
    assert all(-math.pi < p <= math.pi for p in pulse.phases)


def test_program_validation():
    with pytest.raises(ValueError):
        PulseProgram(rabi=-1.0, segments=((1e-6, 0.0),))
    with pytest.raises(ValueError, match="segment 1"):
        PulseProgram(rabi=RABI, segments=((1e-6, 0.0), (0.0, 0.0)))
    empty = PulseProgram(rabi=RABI, segments=())
    assert empty.duration == 0.0
