"""Value semantics of the package's immutable classes and the job spec.

Each class keeps its constructor (positional order, keyword names and
defaults), equality by class and fields, a hash of the same fields, and
its field-listing repr; every class but ``JobSpec`` refuses to be changed
after construction.  None of them needs ``dataclasses`` at start-up.
"""

import copy
import json
import pickle
import subprocess
import sys

import pytest

from bdfkalc import (
    ZERO,
    AugmentedKoszulComplex,
    BettiTable,
    Degree,
    DirectSum,
    FreeModule,
    GradedPiece,
    KClass,
    KoszulPiece,
    KoszulTensorComplex,
    LaurentSeries,
    MonomialIdeal,
    MonomialQuotient,
    RingSpec,
    ShiftedModule,
    SupportDescriptor,
    Variable,
    Window,
    graded_piece,
    modules,
)
from bdfkalc.cli import JobSpec

UNHASHABLE = (KClass, JobSpec)
MUTABLE = (JobSpec,)


def cases():
    """(class, field names, field values, the same values with one changed), built fresh per call."""
    e1, e2 = Degree.of({1: 1}), Degree.of({2: 1})
    ring2, ring3 = RingSpec.standard(2), RingSpec.standard(3)
    window = Window.of([Degree.of({1: 2, 2: 2})])
    free = FreeModule((Degree.of({}),))
    label = (0, e1)
    piece = GradedPiece(e1, (label,))
    series = [LaurentSeries(window, SupportDescriptor.of([ZERO]), {ZERO: c}) for c in (1, 2)]
    return [
        (Degree, ("entries",), (e1.entries,), (Degree.of({1: 2}).entries,)),
        (SupportDescriptor, ("lower_bounds",), ((e1,),), ((e2,),)),
        (Window, ("ceiling",), ((e1,),), ((e2,),)),
        (Variable, ("name", "degree"), ("x1", e1), ("x1", e2)),
        (RingSpec, ("variables",), (ring2.variables,), (ring3.variables,)),
        (GradedPiece, ("degree", "basis"), (e1, (label,)), (e2, (label,))),
        (FreeModule, ("shifts",), ((e1,),), ((e2,),)),
        (ShiftedModule, ("inner", "by"), (free, e1), (free, e2)),
        (DirectSum, ("parts",), ((free,),), ((free, free),)),
        (MonomialIdeal, ("gens",), ((e1,),), ((e2,),)),
        (MonomialQuotient, ("gens",), ((e1,),), ((e2,),)),
        (KoszulPiece, ("parts",), ((((1,), piece),),), ((((2,), piece),),)),
        (BettiTable, ("window", "entries"), (window, ((0, e1, 1),)), (window, ((0, e1, 2),))),
        (KoszulTensorComplex, ("module", "ring", "sequence"), (free, ring2, (1, 2)), (free, ring2, (1,))),
        (AugmentedKoszulComplex, ("ring",), (ring2,), (ring3,)),
        (KClass, ("series", "provenance"), (series[0], "a"), (series[1], "a")),
        (
            JobSpec,
            ("command", "ring", "window", "module", "module2", "series_terms",
             "sequence", "degree", "output", "characteristic"),
            ("betti", ring2, window, free, None, None, (1,), e1, "json", 0),
            ("betti", ring2, window, free, None, None, (1,), e1, "json", 32003),
        ),
    ]


IDS = [case[0].__name__ for case in cases()]


def test_every_value_class_is_listed():
    assert len(set(IDS)) == len(IDS) == 17


@pytest.mark.parametrize("index", range(len(IDS)), ids=IDS)
def test_equal_fields_give_equal_values_and_hashes(index):
    cls, names, values, _ = cases()[index]
    again = cases()[index][2]
    a, b = cls(*values), cls(**dict(zip(names, again)))
    assert a is not b
    assert a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1
    assert repr(a) == f"{cls.__name__}(" + ", ".join(f"{n}={v!r}" for n, v in zip(names, values)) + ")"


@pytest.mark.parametrize("index", range(len(IDS)), ids=IDS)
def test_a_changed_field_gives_an_unequal_value(index):
    cls, _, values, changed = cases()[index]
    assert cls(*values) != cls(*changed)
    assert not cls(*values) == cls(*changed)


@pytest.mark.parametrize("index", range(len(IDS)), ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(index):
    cls, names, values, changed = cases()[index]
    value = cls(*values)
    if cls in MUTABLE:
        setattr(value, names[-1], changed[-1])
        assert value == cls(*changed)
        return
    for name, replacement in zip(names, changed):
        with pytest.raises(AttributeError):
            setattr(value, name, replacement)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == cls(*values)


@pytest.mark.parametrize("index", range(len(IDS)), ids=IDS)
def test_pickle_and_copy_give_an_equal_value(index):
    cls, _, values, _ = cases()[index]
    value = cls(*values)
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is cls and twin == value
        if cls not in UNHASHABLE:
            assert hash(twin) == hash(value)


def test_defaults():
    ring, window = RingSpec.standard(1), Window.of([ZERO])
    assert Degree() == ZERO
    assert SupportDescriptor().is_empty and Window().is_empty
    assert FreeModule().shifts == ()
    series = LaurentSeries(window, SupportDescriptor.of([ZERO]), {ZERO: 1})
    assert KClass(series).provenance == ""
    job = JobSpec("hilbert", ring, window)
    assert (job.module, job.module2, job.series_terms, job.sequence, job.degree) == (None,) * 5
    assert (job.output, job.characteristic) == ("json", 0)


def test_classes_with_a_cached_property_keep_an_instance_dict():
    e1 = Degree.of({1: 1})
    piece = GradedPiece(e1, ((0, e1),))
    for value in (KoszulPiece((((1,), piece),)), piece, MonomialQuotient((e1,))):
        assert isinstance(vars(value), dict)


def test_a_ring_keeps_no_instance_dict():
    assert not hasattr(RingSpec.standard(2), "__dict__")


def test_an_ideal_and_a_quotient_on_the_same_generators_are_different_cache_keys():
    ring, gens = RingSpec.standard(2), (Degree.of({1: 1}),)
    ideal, quotient = MonomialIdeal(gens), MonomialQuotient(gens)
    assert ideal != quotient and quotient != ideal
    modules._graded_piece.cache_clear()
    g = Degree.of({1: 1})
    assert graded_piece(ideal, ring, g).dimension == 1
    assert graded_piece(quotient, ring, g).dimension == 0
    assert modules._graded_piece.cache_info().currsize == 2


def test_equal_trees_of_any_depth_compare_without_recursion():
    def tree(depth, leaf):
        module = FreeModule((leaf,))
        for k in range(depth):
            module = ShiftedModule(module, ZERO) if k % 2 else DirectSum((module,))
        return module

    assert tree(5000, ZERO) == tree(5000, ZERO)
    assert tree(5000, ZERO) != tree(5000, Degree.of({1: 1}))


def test_importing_the_cli_loads_no_dataclass_machinery():
    """``import bdfkalc.cli`` adds none of these modules to what a bare interpreter loads."""

    def loaded(code):
        script = code + "; import json, sys; print(json.dumps(sorted(sys.modules)))"
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
        return set(json.loads(result.stdout))

    added = loaded("import bdfkalc.cli") - loaded("pass")
    assert "bdfkalc.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect", "ast", "dis", "tokenize", "csv"}), sorted(added)
