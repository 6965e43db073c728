"""The package's records: immutable values with a fixed repr, and a package
import that loads neither `dataclasses` nor `inspect`."""

import os
import subprocess
import sys

import pytest

from surfcluster import blocks as bl
from surfcluster import cluster as cl
from surfcluster import finite_models as fm
from surfcluster import mutation as mu
from surfcluster import surface as sf
from surfcluster import tagged as tg
from surfcluster import trimap as tm

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

B = mu.ExchangeMatrix(((0, 1), (-1, 0)))

# (type, a fresh instance, its repr); records hold no type check, so plain
# strings stand in for fields whose own repr names an address
RECORDS = [
    (sf.MarkedSurface, lambda: sf.validate_surface(0, [2, 3], 1),
     "MarkedSurface(genus=0, boundary=(3, 2), punctures=1)"),
    (sf.Growth, lambda: sf.Growth("Gamma2", (3, 2)),
     "Growth(family='Gamma2', params=(3, 2))"),
    (sf.Homotopy, lambda: sf.Homotopy("sphere", 2),
     "Homotopy(kind='sphere', dim=2)"),
    (sf.SurfaceClassification, lambda: sf.classify(sf.validate_surface(0, [3], 1)),
     "SurfaceClassification(rank=3, finite_arcs=True, growth=Growth(family='D', params=(3,)), "
     "homotopy=Homotopy(kind='sphere', dim=2), note='Cartan type A3')"),
    (mu.ExchangeMatrix, lambda: mu.ExchangeMatrix(((0, 1), (-1, 0))),
     "ExchangeMatrix(rows=((0, 1), (-1, 0)))"),
    (mu.MutationClass, lambda: mu.mutation_class(B),
     "MutationClass(matrices=(ExchangeMatrix(rows=((0, -1), (1, 0))),), complete=True, limit=10000)"),
    (bl.BlockPlacement, lambda: bl.BlockPlacement("II", (0, 1, 2)),
     "BlockPlacement(kind='II', vertices=(0, 1, 2))"),
    (bl.BlockDecomposition, lambda: bl.decompose(mu.make_quiver("A", 3)),
     "BlockDecomposition(n=3, blocks=(BlockPlacement(kind='II', vertices=(0, 1, 2)), "
     "BlockPlacement(kind='I', vertices=(0, 2))), bare=())"),
    (cl.Seed, lambda: cl.Seed(("x0", "x1"), B),
     "Seed(cluster=('x0', 'x1'), matrix=ExchangeMatrix(rows=((0, 1), (-1, 0))))"),
    (cl.VariableCensus, lambda: cl.VariableCensus(("x0", "x1"), 5, True),
     "VariableCensus(variables=('x0', 'x1'), seeds_seen=5, complete=True)"),
    (fm.Model, lambda: fm.Model("polygon", 5),
     "Model(kind='polygon', m=5)"),
    (fm.ModelArc, lambda: fm.chord(fm.Model("punctured", 4), 0, 2, fm.CW),
     "ModelArc(model=Model(kind='punctured', m=4), kind='chord', i=0, j=2, side='cw', tag=0)"),
    (tg.TaggedTriangulation, lambda: tg.TaggedTriangulation("T", ((3, 1), (4, 0))),
     "TaggedTriangulation(base='T', signatures=((3, 1), (4, 0)))"),
    (tg.FlipGraph, lambda: tg.FlipGraph(("T",), ((0, 0),), True, (("k",),)),
     "FlipGraph(nodes=('T',), edges=((0, 0),), truncated=True, keys=(('k',),))"),
]


@pytest.mark.parametrize("cls, make, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_repr_equality_and_immutability(cls, make, text):
    a, b = make(), make()
    assert type(a) is cls
    assert repr(a) == text
    assert a is not b and a == b and hash(a) == hash(b)
    first_field = text[len(cls.__name__) + 1:].partition("=")[0]
    for attr in (first_field, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, attr, None)
    assert a == b


def test_computed_records_compare_by_value():
    T0 = tg.tag_with(tm.initial_triangulation(sf.validate_surface(0, [2], 1)))
    pairs = [
        (tg.tag_with(tm.initial_triangulation(sf.validate_surface(0, [2], 1))), T0),
        (tg.exchange_graph_bfs(T0, max_nodes=3), tg.exchange_graph_bfs(T0, max_nodes=3)),
        (cl.Seed.initial(B), cl.Seed.initial(B)),
        (cl.all_cluster_variables(B), cl.all_cluster_variables(B)),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    assert cl.mutate_seed(cl.Seed.initial(B), 0) != cl.Seed.initial(B)


def test_record_defaults():
    assert sf.Growth("Exponential").params == ()
    assert sf.Homotopy("contractible").dim is None
    blocks = (bl.BlockPlacement("I", (0, 1)),)
    assert bl.BlockDecomposition(2, blocks).bare == ()
    assert sf.SurfaceClassification(1, True, sf.Growth("A", (1,)), sf.Homotopy("sphere", 0)).note is None
    arc = fm.ModelArc(fm.Model("punctured", 3), "radius", 1)
    assert (arc.j, arc.side, arc.tag) == (-1, "", 0)


def test_keyword_construction():
    assert mu.ExchangeMatrix(rows=((0, 2), (-2, 0))) == mu.ExchangeMatrix(((0, 2), (-2, 0)))
    assert fm.Model(kind="polygon", m=6).rank == 3


def test_model_arcs_keep_their_order():
    model = fm.Model("punctured", 4)
    arcs = fm.enumerate_tagged_arcs(model)
    assert list(arcs) == sorted(arcs, key=lambda a: (a.model, a.kind, a.i, a.j, a.side, a.tag))
    assert fm.Model("polygon", 9) < fm.Model("punctured", 3) < fm.Model("punctured", 4)


@pytest.mark.parametrize("rows", [((0, 1), (1, 0)), ((1, 0), (0, 0)), ((0, 1),)])
def test_exchange_matrix_checks_its_rows(rows):
    with pytest.raises(ValueError):
        mu.ExchangeMatrix(rows)


@pytest.mark.parametrize("kind, m", [("polygon", 3), ("punctured", 2), ("disc", 5)])
def test_model_checks_its_arguments(kind, m):
    with pytest.raises(fm.ExcludedModel):
        fm.Model(kind, m)


def test_cold_import_loads_neither_dataclasses_nor_inspect():
    # -S keeps a site .pth file from importing either module first
    code = ("import sys, surfcluster, surfcluster.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
