import pytest

from surfcluster import surface as sf


@pytest.mark.parametrize("desc,reason", [
    (dict(genus=0, boundary=[], punctures=1), "once-punctured sphere"),
    (dict(genus=0, boundary=[], punctures=2), "twice-punctured sphere"),
    (dict(genus=0, boundary=[], punctures=3), "thrice-punctured sphere"),
    (dict(genus=0, boundary=[1], punctures=0), "unpunctured monogon"),
    (dict(genus=0, boundary=[2], punctures=0), "unpunctured digon"),
    (dict(genus=0, boundary=[3], punctures=0), "unpunctured triangle"),
    (dict(genus=0, boundary=[1], punctures=1), "once-punctured monogon"),
])
def test_exclusions(desc, reason):
    with pytest.raises(sf.ExcludedSurface) as exc:
        sf.validate_surface(**desc)
    assert exc.value.reason == reason


def test_empty_marking():
    with pytest.raises(sf.EmptyMarking):
        sf.validate_surface(1, [], 0)
    with pytest.raises(sf.EmptyMarking):
        sf.validate_surface(0, [3, 0], 1)


def test_valid_surfaces_and_rank():
    sq = sf.validate_surface(0, [4], 1)  # once-punctured square, type D4
    assert sq.rank == 4
    assert sf.validate_surface(0, [4], 0).rank == 1
    assert sf.validate_surface(1, [], 1).rank == 3
    assert sf.validate_surface(0, [2, 1], 0).rank == 3
    assert sf.validate_surface(0, [], 4).rank == 6


def test_boundary_sorted_multiset():
    a = sf.validate_surface(0, [1, 3, 2], 0)
    b = sf.validate_surface(0, [3, 2, 1], 0)
    assert a == b
    assert a.boundary == (3, 2, 1)


@pytest.mark.parametrize("desc,rank,finite,growth,homotopy", [
    ((0, [6], 0), 3, True, "A(3)", "S^2"),
    ((0, [5], 0), 2, True, "A(2)", "S^1"),
    ((1, [], 1), 3, False, "Exponential", "S^0"),
    ((0, [2, 1], 0), 3, False, "AffineA(2,1)", "contractible"),
    ((0, [3], 1), 3, True, "D(3)", "S^2"),
    ((0, [2], 2), 5, False, "AffineD(4)", "contractible"),
    ((0, [2, 1], 1), 6, False, "Gamma2(2,1)", "contractible"),
    ((0, [1, 1, 1], 0), 6, False, "Gamma3(1,1,1)", "contractible"),
    ((0, [], 5), 9, False, "Exponential", "S^4"),
    ((2, [], 1), 9, False, "Exponential", "S^0"),
])
def test_classify(desc, rank, finite, growth, homotopy):
    c = sf.classify(sf.validate_surface(*desc))
    assert c.rank == rank
    assert c.finite_arcs == finite
    assert str(c.growth) == growth
    assert str(c.homotopy) == homotopy


def test_classify_pure_function():
    s = sf.validate_surface(0, [2], 1)
    assert sf.classify(s) == sf.classify(sf.validate_surface(0, [2], 1))


def test_growth_exponential_iff_not_small_sphere():
    for desc in [(0, [4], 0), (0, [4], 1), (0, [1], 2), (0, [1, 1], 0),
                 (0, [1, 1], 1), (0, [1, 1, 1], 0)]:
        assert str(sf.classify(sf.validate_surface(*desc)).growth) != "Exponential"
    for desc in [(1, [], 1), (1, [1], 0), (0, [], 4), (0, [1, 1, 1], 1),
                 (2, [], 2), (0, [1, 1], 2)]:
        assert str(sf.classify(sf.validate_surface(*desc)).growth) == "Exponential"


def test_cartan_note_on_ties():
    c = sf.classify(sf.validate_surface(0, [2], 1))
    assert c.note == "Cartan type A1 x A1"
    assert sf.classify(sf.validate_surface(0, [3], 1)).note == "Cartan type A3"


def test_json_roundtrip():
    s = sf.validate_surface(1, [2, 1], 2)
    assert sf.MarkedSurface.from_json(s.to_json()) == s
