"""The value classes are frozen records with the dataclass behaviour they had.

One parametrized test holds every class to the contract of ``wtfc.record``:
construction, defaults, equality, hashing, immutability, argument errors,
``replace`` and the dataclass repr. A frozen dataclass with the same fields
is the reference for the repr.
"""

import dataclasses

import pytest

from wtfc import (
    LargeScaleModel,
    PeEstimate,
    PhysicalInputs,
    RunConfig,
    SchemeParams,
    SweepResult,
    SweepRow,
    SweepSpec,
)
from wtfc.record import Record

INPUTS = PhysicalInputs(100e6, 101e-6, 20e-6, 25e3, 1 / 100)
MODEL = LargeScaleModel()
CONFIG = RunConfig(INPUTS, MODEL, 10e3, None, 1.0, 1000, 7)
ROW = SweepRow("duty_cycle", 1e-2, "WTFC", False, 7, 1000)

# Each class with its required fields, in declaration order, and one other
# valid value of one field.
CASES = [
    (LargeScaleModel, {}, ("distance_m", 10.0)),
    (PhysicalInputs, {"bandwidth_hz": 100e6, "symbol_time_s": 101e-6,
                      "delay_spread_s": 20e-6, "doppler_spread_hz": 25e3,
                      "duty_cycle": 1 / 100}, ("q_override", 4)),
    (SchemeParams, {"inputs": INPUTS}, ("variant", "IFSK")),
    (PeEstimate, {"p_e": 1e-3, "iterations": 1000, "half_width_95": 2e-3, "seed": 7},
     ("seed", 8)),
    (RunConfig, {"inputs": INPUTS, "model": MODEL, "p_r": 10e3, "p_t": None, "n_0": 1.0,
                 "iterations": 1000, "seed": 7}, ("hold_mean_rx_power", True)),
    (SweepSpec, {"base": CONFIG, "axis": "duty_cycle", "grid": (1e-2, 1e-3)},
     ("include_awgn", False)),
    (SweepRow, {"axis_name": "duty_cycle", "axis_value": 1e-2, "variant": "WTFC",
                "shadowing_enabled": False, "seed": 7, "iterations": 1000},
     ("p_e", 1e-3)),
    (SweepResult, {"rows": (ROW,)}, ("rows", ())),
]


@pytest.mark.parametrize("cls, required, change", CASES,
                         ids=[cls.__name__ for cls, _, _ in CASES])
def test_record_contract(cls, required, change):
    fields = tuple(cls.__annotations__)
    defaults = {name: getattr(cls, name) for name in fields if name not in required}
    assert tuple(required) == fields[:len(required)]

    by_keyword = cls(**required)
    by_position = cls(*required.values())
    assert vars(by_keyword) == vars(by_position) == {**required, **defaults}
    assert by_keyword == by_position
    assert hash(by_keyword) == hash(by_position)

    name, value = change
    changed = by_keyword.replace(**{name: value})
    assert getattr(changed, name) == value
    assert changed != by_keyword
    assert by_keyword.replace() == by_keyword
    twin = type(cls.__name__, (Record,), {"__annotations__": dict(cls.__annotations__)})
    assert twin(**vars(by_keyword)) != by_keyword
    assert by_keyword != twin(**vars(by_keyword))

    with pytest.raises(AttributeError):
        setattr(by_keyword, name, value)
    with pytest.raises(AttributeError):
        delattr(by_keyword, name)
    assert getattr(by_keyword, name) != value

    with pytest.raises(TypeError):
        cls(**required, no_such_field=1)
    with pytest.raises(TypeError):
        by_keyword.replace(no_such_field=1)
    with pytest.raises(TypeError):
        cls(*vars(by_keyword).values(), None)
    if required:
        with pytest.raises(TypeError):
            cls(**dict(list(required.items())[1:]))
        with pytest.raises(TypeError):
            cls(*required.values(), **{fields[0]: required[fields[0]]})

    reference = dataclasses.make_dataclass(
        cls.__name__, [(field, object) for field in fields], frozen=True)
    assert repr(by_keyword) == repr(reference(**vars(by_keyword)))


def test_large_scale_model_repr_is_the_dataclass_repr():
    assert repr(LargeScaleModel()) == (
        "LargeScaleModel(distance_m=1.0, reference_distance_m=1.0, "
        "wavelength_m=12.566370614359172, path_loss_exponent=2.0, shadowing_std_db=0.0, "
        "enabled=False, block_len=1)"
    )


def test_replace_validates_again():
    with pytest.raises(ValueError, match="^duty_cycle"):
        INPUTS.replace(duty_cycle=0.3)
    spec = SweepSpec(CONFIG, "duty_cycle", (1e-2,)).replace(grid=(1, 2))
    assert spec.grid == (1.0, 2.0)
    assert all(type(value) is float for value in spec.grid)


def test_row_fields_keep_declaration_order():
    # ``cli.cmd_estimate`` reads a capacity report from ``vars`` of a row.
    assert list(vars(ROW)) == list(SweepRow.__annotations__)
    assert list(vars(ROW))[:4] == ["axis_name", "axis_value", "variant", "shadowing_enabled"]
