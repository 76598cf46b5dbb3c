"""The record classes: plain slotted classes with written-out ``__init__``s.

Each keeps the positional order, keywords and defaults it had as a
dataclass, less the fields that nothing reads and the defaults that no
caller omits. The five hashable types compare and hash by exactly their
compared fields and refuse assignment, also under ``python -O``; the other
records compare by their public fields.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from chainshift import (
    auxiliary,
    block_eigenvalues,
    build_auxiliary,
    classify,
    component_chain,
    cylinder_measure,
    decomposition_report,
    incidence_matrix,
    measures,
    spectral,
    structure,
    words,
)
from chainshift.auxiliary import AuxiliarySubstitution
from chainshift.structure import ComponentChain, IncidenceMatrix
from chainshift.words import Alphabet, FrozenRecord, Record, Substitution

NEW_LIST = object()  # a default that must be a new empty list per instance

# class -> (fields in positional order, {field: default})
RECORDS = {
    words.InputSpec: (["substitution"], {}),
    words.Alphabet: (["letters"], {}),
    words.Substitution: (["alphabet", "images"], {}),
    structure.IncidenceMatrix: (["letters", "entries"], {}),
    structure.ComponentChain: (["sub", "components", "witness_k"], {}),
    auxiliary.AuxiliarySubstitution: (
        ["sub", "components", "m", "words", "q_blocks", "g_blocks", "word_level", "images"], {}
    ),
    spectral.LevelSpectrum: (["level", "letters", "block", "char_poly", "row_bounds", "theta"], {}),
    spectral.EigenPair: (["m", "aux", "lam", "alpha", "beta", "exact"], {}),
    spectral.LimitData: (
        ["level", "m", "mode", "exact", "i_prime", "theta", "alpha", "beta", "gamma", "delta",
         "infinite_words", "restricted_words"],
        {"alpha": None, "beta": None, "gamma": None, "delta": None,
         "infinite_words": frozenset(), "restricted_words": ()},
    ),
    classify.SeedPair: (["level", "a", "b", "k", "u", "v", "orientation"], {}),
    classify.PointSeed: (
        ["kind", "form", "gamma", "delta", "q", "middle_s", "shift_periodic", "window", "center", "radius"],
        {"form": None, "gamma": None, "delta": None, "q": 1, "middle_s": 0, "shift_periodic": False,
         "window": "", "center": 0, "radius": 0},
    ),
    classify.QuasiFixedSeed: (["seed", "primitive_type", "positively_recurrent", "isolated_orbit"], {}),
    classify.LevelReport: (
        ["level", "case", "seed", "quasi_fixed", "anchor", "point_seeds", "x_i_nonempty", "notes"],
        {"seed": None, "quasi_fixed": None, "anchor": None, "point_seeds": NEW_LIST,
         "x_i_nonempty": False, "notes": NEW_LIST},
    ),
    classify.MinimalSets: (["census", "uniquely_ergodic", "clause"], {}),
    classify.DecompositionReport: (["levels", "minimal"], {}),
    measures.MeasureDescriptor: (
        ["level", "kind", "anchor", "i_prime", "finite_atoms", "infinite_orbits"], {}
    ),
    measures.CylinderValue: (
        ["level", "word", "infinite", "exact", "value", "anchor", "algebraic"], {}
    ),
    measures.EmpiricalFrequency: (
        ["level", "word", "length", "power", "ratio", "scaled_power", "scaled_count", "scaled_value"],
        {"scaled_power": None, "scaled_count": None, "scaled_value": None},
    ),
    measures.UniformityResult: (
        ["level", "word", "window_count", "target", "ratios", "max_deviation"], {}
    ),
}
HASHABLE = [Alphabet, Substitution, ComponentChain, IncidenceMatrix, AuxiliarySubstitution]
IDS = [cls.__name__ for cls in RECORDS]


def _values(cls) -> dict:
    """One value per field: valid where ``__init__`` checks them, else a
    distinct marker."""
    if cls is Alphabet:
        return {"letters": ("a", "b")}
    if cls is Substitution:
        return {"alphabet": Alphabet(("a", "b")), "images": ("ab", "a")}
    if cls is ComponentChain:
        return {"sub": object(), "components": (("a",), ("b",)), "witness_k": object()}
    return {name: object() for name in RECORDS[cls][0]}


def _library_records() -> set[type]:
    modules = (words, structure, auxiliary, spectral, classify, measures)
    return {
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, Record) and obj not in (Record, FrozenRecord)
    }


def test_the_table_names_every_record_class():
    assert set(RECORDS) == _library_records()
    assert len(RECORDS) == 19
    assert {cls for cls in RECORDS if issubclass(cls, FrozenRecord)} == set(HASHABLE)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_positional_and_keyword_construction(cls):
    fields, _ = RECORDS[cls]
    values = _values(cls)
    for record in (cls(*values.values()), cls(**values)):
        assert [getattr(record, name) for name in fields] == list(values.values())
        assert not hasattr(record, "__dict__")
    with pytest.raises(TypeError):
        cls(*values.values(), object())
    with pytest.raises(TypeError):
        cls(**values, no_such_field=1)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_defaults_hold(cls):
    fields, defaults = RECORDS[cls]
    required = {name: value for name, value in _values(cls).items() if name not in defaults}
    assert list(required) == fields[: len(required)]  # defaults trail
    record = cls(**required)
    for name, default in defaults.items():
        got = getattr(record, name)
        assert got == [] if default is NEW_LIST else got == default, name
    if required:
        with pytest.raises(TypeError):
            cls(*list(required.values())[:-1])


def test_each_level_report_gets_its_own_lists():
    first, second = classify.LevelReport(1, "bottom_empty"), classify.LevelReport(1, "bottom_empty")
    first.notes.append("x")
    first.point_seeds.append(classify.PointSeed("fixed_letter_power"))
    assert second.notes == [] and second.point_seeds == []
    assert first.notes is not second.notes and first.point_seeds is not second.point_seeds
    notes = ["given"]
    assert classify.LevelReport(2, "c", notes=notes).notes is notes


def test_records_compare_by_their_public_fields():
    a = measures.CylinderValue(2, "ab", False, None, 0.5, "b", None)
    assert a == measures.CylinderValue(2, "ab", False, None, 0.5, "b", None)
    assert a != measures.CylinderValue(2, "ab", False, None, 0.25, "b", None)
    assert a != (2, "ab", False, None, 0.5, "b", None)
    assert repr(a) == (
        "CylinderValue(level=2, word='ab', infinite=False, exact=None, value=0.5, anchor='b', algebraic=None)"
    )
    with pytest.raises(TypeError):
        hash(a)


def _equal_pairs():
    """Two separately built, equal instances of each hashable type."""
    def sub():
        return Substitution.from_rules({"a": "ab", "b": "a"})

    def chain():
        return ComponentChain(sub(), (("a", "b"),), 2)

    def aux(word_level, images):
        return AuxiliarySubstitution(sub(), (("a", "b"),), 1, ("a", "b"), (("a", "b"),), (), word_level, images)

    return {
        Alphabet: (Alphabet(("a", "b")), Alphabet(("a", "b"))),
        Substitution: (sub(), sub()),
        ComponentChain: (chain(), chain()),
        IncidenceMatrix: tuple(IncidenceMatrix(("a", "b"), ((1, 1), (1, 0))) for _ in range(2)),
        AuxiliarySubstitution: (aux({"a": 1, "b": 1}, {"a": ("a", "b")}), aux({}, {})),
    }


# the fields that take no part in equality or hashing
UNCOMPARED = {
    Alphabet: ["_index", "_ranks"],
    Substitution: ["_table"],
    ComponentChain: ["_memo", "_level_of"],
    IncidenceMatrix: [],
    AuxiliarySubstitution: ["word_level", "images"],
}


@pytest.mark.parametrize("cls", HASHABLE, ids=[cls.__name__ for cls in HASHABLE])
def test_hashable_types_compare_and_hash_by_value(cls):
    a, b = _equal_pairs()[cls]
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert len({a, b}) == 1
    for name in UNCOMPARED[cls]:
        object.__setattr__(b, name, {"differs": name})
        assert a == b and hash(a) == hash(b), name
    assert a != object() and a != None  # noqa: E711


def test_hashable_types_compare_their_other_fields():
    alphabet = Alphabet(("a", "b"))
    assert alphabet != Alphabet(("b", "a"))
    sub = Substitution(alphabet, ("ab", "a"))
    assert sub != Substitution(alphabet, ("ab", "b"))
    assert ComponentChain(sub, (("a", "b"),), 2) != ComponentChain(sub, (("a", "b"),), 3)
    assert IncidenceMatrix(("a",), ((1,),)) != IncidenceMatrix(("a",), ((2,),))
    base = (sub, (("a", "b"),), 1, ("a", "b"), (("a", "b"),), ())
    aux = AuxiliarySubstitution(*base, {}, {})
    for k, other in enumerate([(), 2, ("b", "a"), (("b", "a"),), (("a",),)], start=1):
        changed = list(base)
        changed[k] = other
        assert aux != AuxiliarySubstitution(*changed, {}, {}), k


def test_records_survive_pickle_and_copy():
    # a frozen record cannot be filled in field by field, so it is rebuilt
    # through ``__init__``
    sub = Substitution.from_rules({"a": "ab", "b": "a", "c": "cabc"})
    chain = component_chain(sub)
    spectral_profile = block_eigenvalues(sub, chain)
    records = [
        sub.alphabet, sub, chain, incidence_matrix(sub), build_auxiliary(sub, chain, 2),
        decomposition_report(sub, chain, spectral_profile),
        cylinder_measure(sub, chain, spectral_profile, 2, "ca"),
    ]
    for record in records:
        for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
            assert clone == record and type(clone) is type(record)
    aux = records[4]
    assert copy.deepcopy(aux).images == aux.images


_ASSIGN_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from chainshift import *
from chainshift.auxiliary import AuxiliarySubstitution
sub = Substitution.from_rules({{"a": "ab", "b": "a"}})
chain = component_chain(sub)
records = [sub.alphabet, sub, chain, incidence_matrix(sub), build_auxiliary(sub, chain, 2)]
refused = 0
for record in records:
    for name in type(record).__slots__ + ("new_field",):
        try:
            setattr(record, name, None)
        except AttributeError:
            refused += 1
        try:
            delattr(record, name)
        except AttributeError:
            refused += 1
print(refused, sum(2 * (len(type(r).__slots__) + 1) for r in records))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_hashable_types_refuse_assignment(flags):
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _ASSIGN_SCRIPT.format(src=src)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    refused, tried = proc.stdout.split()
    assert refused == tried and int(tried) > 0
