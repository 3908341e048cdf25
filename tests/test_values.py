"""The contract of the frozen value classes (``graphs._Value``): equality
and hashing by fields within one class, immutability, the dataclass repr,
and copying; and that importing the package generates no code."""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import knitweave
from knitweave.certify import DenseNeighborhoodReport, GreedyLinkResult, Knitted1Verdict
from knitweave.coloring import Coloring, RecombinationPlan
from knitweave.generators import SplitHost
from knitweave.graphs import Graph, MinorWitness, _Value
from knitweave.solver import Configuration, Knit, Linkage, PlanarObstruction, TerminalSpec
from knitweave.structure import MassedReport, MinimizeResult, Separation

# each class, a function making fresh field values for it, and the repr a
# frozen dataclass with those fields writes
SAMPLES = [
    (TerminalSpec, lambda: (((0, 1), (2,)), 8), "TerminalSpec(parts=((0, 1), (2,)), forbidden=8)"),
    (Linkage, lambda: (((0, 2, 1), (3, 4)),), "Linkage(paths=((0, 2, 1), (3, 4)))"),
    (Knit, lambda: ((0b101, 0b10),), "Knit(subgraphs=(5, 2))"),
    (
        PlanarObstruction,
        lambda: (((0b1010, 0b100),), ((1, 3), (0,), (), (0, 4), (3,))),
        "PlanarObstruction(reductions=((10, 4),), rotation=((1, 3), (0,), (), (0, 4), (3,)))",
    ),
    (
        Configuration,
        lambda: (Graph.path(3), 1, ((1,), (0, 2))),
        "Configuration(host=Graph(n=3, edges=[(0, 1), (1, 2)]), u0=1, blocks=((1,), (0, 2)))",
    ),
    (Separation, lambda: (0b011, 0b110), "Separation(a=3, b=6)"),
    (
        MassedReport,
        lambda: (False, 5, Fraction(7, 2), Separation(0b011, 0b110), True, False),
        "MassedReport(satisfied=False, rho_value=5, threshold=Fraction(7, 2),"
        " violating_separation=Separation(a=3, b=6), condition_i=True, condition_ii=False)",
    ),
    (
        MinimizeResult,
        lambda: (Graph.complete(3), 0b11, ((2, "delete"),)),
        "MinimizeResult(graph=Graph(n=3, edges=[(0, 1), (0, 2), (1, 2)]), s=3, trail=((2, 'delete'),))",
    ),
    (Coloring, lambda: ((0, 1, 0), 2), "Coloring(colors=(0, 1, 0), palette_size=2)"),
    (
        RecombinationPlan,
        lambda: (0b111, 0, 2, (0b10,), (1,), (frozenset({1, 2}),), {(0,): 2}, (0b10,), (), Coloring((0, 1, 0), 2)),
        "RecombinationPlan(domain=7, u=0, w=2, classes=(2,), class_colors=(1,), lists=(frozenset({1, 2}),),"
        " codes={(0,): 2}, components=(2,), leftovers=(), phi1=Coloring(colors=(0, 1, 0), palette_size=2))",
    ),
    (
        GreedyLinkResult,
        lambda: (Linkage(((0, 2, 1),)), (0,), None),
        "GreedyLinkResult(linkage=Linkage(paths=((0, 2, 1),)), ordering=(0,), failed_pair=None)",
    ),
    (
        DenseNeighborhoodReport,
        lambda: ("ii", 6, 3, 0b11),
        "DenseNeighborhoodReport(case='ii', n_h=6, delta_h=3, low_degree_vertices=3)",
    ),
    (
        Knitted1Verdict,
        lambda: ("not-found", "", 0b111, 4, ((((0, 1),), 0),)),
        "Knitted1Verdict(status='not-found', route='', candidate=7, samples_run=4, failures=((((0, 1),), 0),))",
    ),
    (
        MinorWitness,
        lambda: (Graph.path(3), (0b11, 0b100), ((0, 1),)),
        "MinorWitness(host=Graph(n=3, edges=[(0, 1), (1, 2)]), branch_sets=(3, 4), model_edges=((0, 1),))",
    ),
    (
        SplitHost,
        lambda: (Graph.path(3), (0, 1, 2), 1),
        "SplitHost(graph=Graph(n=3, edges=[(0, 1), (1, 2)]), terminals=(0, 1, 2), straddling=1)",
    ),
]


@pytest.mark.parametrize("cls, fields, want_repr", SAMPLES, ids=[c.__name__ for c, _, _ in SAMPLES])
def test_value_class_contract(cls, fields, want_repr):
    obj, twin = cls(*fields()), cls(*fields())
    assert obj == twin and not obj != twin
    if cls is RecombinationPlan:  # its codes field is a dict
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)
    else:
        assert hash(obj) == hash(twin)
    # a class with the same fields, even a subclass, is another value
    other = type(cls.__name__, (cls,), {})(*fields())
    assert obj != other and other != obj and obj.__eq__(other) is NotImplemented
    assert obj != fields()
    for name in cls._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert obj == twin
    assert repr(obj) == want_repr
    for copied in (copy.copy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(copied) is cls and copied == obj and repr(copied) == want_repr


def test_every_value_class_has_a_sample():
    assert set(_Value.__subclasses__()) == {cls for cls, _, _ in SAMPLES}


def test_importing_the_package_generates_no_code():
    # dataclasses would build its classes by exec and load inspect; the
    # annotations stay strings, so typing is not needed either
    probe = (
        "import sys, knitweave, knitweave.cli, knitweave.campaigns;"
        " print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    src = str(Path(knitweave.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], env={"PYTHONPATH": src}, capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"
