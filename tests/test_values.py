"""The value types' shared contract: positional and keyword
construction with a function's TypeErrors, equality and hashing by
fields, the Name(field=value, ...) repr, no assignment or deletion, and
copies and pickles equal to the original."""

import copy
import importlib
import pickle
import pkgutil

import pytest

import teleroute
from teleroute._frozen import Frozen
from teleroute import (
    FidelityEstimate,
    Link,
    LinkWeights,
    Path,
    PathObjective,
    PreparationAssessment,
    PreparationPlan,
    PureSchmidtChannel,
    RouteResult,
    SwapFormulaResult,
    ViolationWitness,
    WernerGenChannel,
    XState,
)

PURE = PureSchmidtChannel(theta=0.3)
TO_B = Path(nodes=("A", "B"), link_ids=("ab",))
TO_D = Path(nodes=("A", "B", "D"), link_ids=("ab", "bd"))
OBJECTIVE = PathObjective(mu_product=0.9, nu_product=-0.25)
PLAN = PreparationPlan(
    swap_node="C", consumed_link_ids=("ac", "cb"), endpoints=("A", "B"),
    new_negativity=0.5, success_probability=0.375,
)

# each public value type with keyword arguments for every field, in field order
CASES = [
    (PureSchmidtChannel, {"theta": 0.3}),
    (XState, {"a11": 0.4, "a22": 0.1, "a33": 0.1, "a44": 0.4, "a14": 0.1 + 0.05j, "a23": 0.02j}),
    (WernerGenChannel, {"p_w": 0.8, "theta": 0.5}),
    (LinkWeights, {"mu": 1.0, "nu": 0.5, "log_neg_weight": 0.6931471805599453}),
    (PathObjective, {"mu_product": 0.9, "nu_product": -0.25}),
    (Link, {"u": "A", "v": "B", "link_id": "ab", "channel": PURE}),
    (Path, {"nodes": ("A", "B", "D"), "link_ids": ("ab", "bd")}),
    (RouteResult, {"path": TO_D, "objective": OBJECTIVE, "method": "exact"}),
    (ViolationWitness, {
        "source": "A", "mid": "B", "ext": "D", "best_to_mid": TO_B, "best_to_ext": TO_D,
        "mid_objective": PathObjective(1.0, 0.8), "prefix_objective": PathObjective(0.5, 0.5),
        "ext_objective": OBJECTIVE,
    }),
    (FidelityEstimate, {"value": 0.875}),
    (SwapFormulaResult, {
        "delta_1": 0.25, "delta_2": 0.125, "gamma": 0.0625, "new_negativity": 0.75,
        "success_probability": 0.25, "physical": True,
    }),
    (PreparationPlan, {
        "swap_node": "C", "consumed_link_ids": ("ac", "cb"), "endpoints": ("A", "B"),
        "new_negativity": 0.5, "success_probability": 0.375,
    }),
    (PreparationAssessment, {
        "plan": PLAN, "success_link_id": "swap:ac+cb", "base_fidelity": 0.8,
        "success_fidelity": 0.9, "failure_fidelity": 0.8, "expected_fidelity": 0.8375,
    }),
]
IDS = [cls.__name__ for cls, _ in CASES]


@pytest.mark.parametrize("cls,fields", CASES, ids=IDS)
def test_keyword_construction(cls, fields):
    value = cls(**fields)
    assert {name: getattr(value, name) for name in fields} == fields


@pytest.mark.parametrize("cls,fields", CASES, ids=IDS)
def test_positional_construction(cls, fields):
    value = cls(*fields.values())
    assert {name: getattr(value, name) for name in fields} == fields
    assert value == cls(**fields)


@pytest.mark.parametrize("cls,fields", CASES, ids=IDS)
def test_bad_arguments_raise_a_type_error_naming_the_class(cls, fields):
    values = list(fields.values())
    bad_calls = [
        lambda: cls(*values, values[0]),  # too many
        lambda: cls(**dict(list(fields.items())[1:])),  # the first one missing
        lambda: cls(**fields, extra=1),  # unknown
        lambda: cls(values[0], **fields),  # the first one twice
    ]
    for call in bad_calls:
        with pytest.raises(TypeError, match=cls.__name__):
            call()


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_value_type_rebuilds_from_its_fields_in_slot_order():
    # every module loaded, so a value type no case names is found too
    for module in pkgutil.iter_modules(teleroute.__path__):
        importlib.import_module(f"teleroute.{module.name}")
    found = {cls for cls in _subclasses(Frozen) if cls.__module__.startswith("teleroute.")}
    assert found == {cls for cls, _ in CASES}
    for cls, fields in CASES:
        assert tuple(fields) == cls.__slots__
        value = cls(**fields)
        assert value._fields() == tuple(fields.values())
        assert cls(*value._fields()) == value


@pytest.mark.parametrize("cls,fields", CASES, ids=IDS)
def test_equal_by_fields(cls, fields):
    a = cls(**fields)
    b = cls(**fields)
    assert a is not b
    assert a == b
    assert not a != b
    assert hash(a) == hash(b)
    assert a != object()


@pytest.mark.parametrize("cls,fields", CASES, ids=IDS)
def test_repr_names_every_field(cls, fields):
    body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({body})"


@pytest.mark.parametrize("cls,fields", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields):
    value = cls(**fields)
    name, old = next(iter(fields.items()))
    with pytest.raises(AttributeError):
        setattr(value, name, old)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert getattr(value, name) == old


@pytest.mark.parametrize("cls,fields", CASES, ids=IDS)
def test_copies_and_pickles_round_trip(cls, fields):
    value = cls(**fields)
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is cls
        assert other == value
        assert hash(other) == hash(value)
        assert repr(other) == repr(value)
