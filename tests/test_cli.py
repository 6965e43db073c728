import collections
import copy
import io
import json
import random

import pytest

from conftest import recursion_headroom
from surfcluster import blocks, cli, finite_models, mutation


def run(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    text = out.getvalue()
    try:
        return code, json.loads(text)
    except json.JSONDecodeError:
        return code, text


def test_surface_classify_hexagon():
    code, data = run(["surface", "classify", '{"genus":0,"boundary":[6],"punctures":0}'])
    assert code == 0
    assert data["classification"]["rank"] == 3
    assert data["classification"]["growth"] == "A(3)"


def test_surface_classify_prints_the_note():
    out = io.StringIO()
    assert cli.main(["surface", "classify", '{"genus":0,"boundary":[3],"punctures":1}'], out=out) == 0
    assert '"note": "Cartan type A3"' in out.getvalue()
    assert json.loads(out.getvalue())["classification"]["growth"] == "D(3)"


def test_surface_classify_rejection():
    code, data = run(["surface", "classify", '{"genus":0,"boundary":[],"punctures":3}'])
    assert code == 1
    assert data == {"error": "excluded-surface", "detail": "thrice-punctured sphere"}


def test_triangulate_flip_bmatrix(tmp_path):
    code, tri = run(["triangulate", "--surface", '{"genus":0,"boundary":[1,1],"punctures":0}'])
    assert code == 0
    assert tri["arcs"] == 2
    path = tmp_path / "t.json"
    path.write_text(json.dumps(tri))
    code, mat = run(["b-matrix", "--triangulation", str(path)])
    assert code == 0
    assert mat == {"n": 2, "rows": [[0, 2], [-2, 0]]}
    code, flipped = run(["flip", "--triangulation", str(path), "--arc", "0"])
    assert code == 0
    assert flipped["arcs"] == 2
    code, mat2 = run(["b-matrix", "--triangulation", json.dumps(flipped)])
    assert mat2 == {"n": 2, "rows": [[0, -2], [2, 0]]}


def test_flip_rejects_fold():
    code, tri = run(["triangulate", "--surface", '{"genus":0,"boundary":[5],"punctures":0}'])
    code, data = run(["flip", "--triangulation", json.dumps(tri), "--arc", "7"])
    assert code == 1
    assert data["error"] == "not-flippable"


@pytest.mark.parametrize("key, value", [
    (0, {"v": [0, 1, 2, 0], "e": [2, 3, 0, 2]}),
    (0, {"v": [0, 1], "e": [2, 3]}),
    (0, {"v": ["0", "1", "2"], "e": [2, 3, 0]}),
    (0, {"v": [0, 1, 2], "e": [2, 3, False]}),
    ("arcs", 2.0),
    ("triangles", []),
], ids=["four-entries", "two-entries", "string-ids", "boolean-id", "float-count", "no-triangles"])
def test_malformed_triangulation_exits_2(key, value, capsys):
    # one edit of the (0,[5],0) fan: key 0 replaces its first triangle
    code, tri = run(["triangulate", "--surface", '{"genus":0,"boundary":[5],"punctures":0}'])
    assert tri["triangles"][0] == {"v": [0, 1, 2], "e": [2, 3, 0]}
    (tri["triangles"] if key == 0 else tri)[key] = value
    for argv in (["flip", "--arc", "1"], ["b-matrix"]):
        code, out = run(argv + ["--triangulation", json.dumps(tri)])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("invalid input: ")


@pytest.mark.parametrize("matrix", [
    '{"rows":[[0,1.5],[-1.5,0]]}',
    '{"n":2,"edges":[[0,-1]]}',
    '{"n":2,"edges":[[0,5]]}',
    '{"rows":5}',
    '{"n":2,"edges":[[0,1,"2"]]}',
    '[[0,1],[-1,0]]',
    '{"n":3,"edges":[[0,0,1]]}',
], ids=["float-entry", "negative-index", "index-past-n", "rows-not-a-list", "string-weight", "not-an-object",
        "self-loop"])
def test_malformed_matrix_exits_2(matrix, capsys):
    for command in ("corank", "recognize-type"):
        code, out = run([command, "--matrix", matrix])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("invalid input: ")


@pytest.mark.parametrize("n", [2 ** 70, 100000])
@pytest.mark.parametrize("argv", [
    ["corank", "--matrix"],
    ["recognize-type", "--matrix"],
    ["mutation-class", "--matrix"],
    ["cluster-vars", "--matrix"],
    ["denominators", "--path", "0", "--matrix"],
    ["is-surface-matrix"],
], ids=lambda argv: argv[0])
def test_huge_quiver_exits_2(argv, n, capsys):
    # refused before the n x n matrix is allocated
    code, out = run(argv + [json.dumps({"n": n, "edges": []})])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and str(mutation.QUIVER_MAX_N) in err, err


def test_huge_rows_matrix_exits_2(capsys):
    # the rows form states its n only as a check of len(rows)
    code, out = run(["corank", "--matrix", json.dumps({"n": 2 ** 70, "rows": []})])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "invalid input: declared dimension does not match rows\n"


@pytest.mark.parametrize("n", [2 ** 70, 10 ** 6])
def test_huge_decomposition_is_uncovered(n):
    # coverage is checked without building range(n)
    dec = {"n": n, "blocks": [{"kind": "I", "vertices": [0, 1]}], "bare": []}
    code, data = run(["block-assemble", json.dumps(dec)])
    assert code == 1
    assert data == {"error": "invalid-decomposition", "detail": "blocks and bare vertices must cover every index"}


@pytest.mark.parametrize("descriptor", [
    {"genus": 2 ** 70, "boundary": [], "punctures": 1},
    {"genus": 0, "boundary": [1004], "punctures": 0},
], ids=["genus-2**70", "rank-1001"])
@pytest.mark.parametrize("argv", [
    ["triangulate", "--surface"],
    ["b-matrix", "--surface"],
    ["tagged-bfs", "--surface"],
], ids=lambda argv: argv[0])
def test_huge_surface_map_exits_2(argv, descriptor, capsys):
    # refused before the template triangulation is built
    code, out = run(argv + [json.dumps(descriptor)])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and str(mutation.QUIVER_MAX_N) in err, err


def test_largest_surface_map_is_built():
    # rank QUIVER_MAX_N is still triangulated; classify builds no map at all
    surf = json.dumps({"genus": 0, "boundary": [3 + mutation.QUIVER_MAX_N], "punctures": 0})
    code, data = run(["tagged-bfs", "--max-nodes", "1", "--surface", surf])
    assert code == 0 and data["truncated"] and len(data["vertices"]) == 1
    code, data = run(["surface", "classify", json.dumps({"genus": 2 ** 70, "boundary": [], "punctures": 1})])
    assert code == 0 and data["classification"]["rank"] == 6 * 2 ** 70 - 3


@pytest.mark.parametrize("descriptor", [
    '{"genus":0.5,"boundary":[6],"punctures":0}',
    '{"genus":0,"boundary":"6","punctures":0}',
    '{"genus":0,"boundary":"55","punctures":0}',
    '{"genus":0,"boundary":[6.9],"punctures":0}',
    '{"genus":0,"boundary":[6],"punctures":true}',
], ids=["float-genus", "string-boundary", "string-of-digits", "float-count", "boolean-punctures"])
def test_malformed_surface_exits_2(descriptor, capsys):
    code, out = run(["surface", "classify", descriptor])
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("invalid input: ")


@pytest.mark.parametrize("decomposition", [
    '{"n":3.7,"blocks":[{"kind":"II","vertices":[0,1,2]}],"bare":[]}',
    '{"n":3,"blocks":[{"kind":"II","vertices":[0,1,2.0]}],"bare":[]}',
    '{"n":3,"blocks":[{"kind":"VI","vertices":[0,1,2]}],"bare":[]}',
    '{"n":3,"blocks":[{"kind":"II","vertices":[0,1,2]}],"bare":[true]}',
    '{"n":3,"blocks":{"kind":"II","vertices":[0,1,2]}}',
    '{"n":-1,"blocks":[]}',
], ids=["float-n", "float-vertex", "unknown-kind", "boolean-bare", "blocks-not-a-list", "negative-n"])
def test_malformed_decomposition_exits_2(decomposition, capsys):
    code, out = run(["block-assemble", decomposition])
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("invalid input: ")


@pytest.mark.parametrize("argv, field", [
    (["is-surface-matrix", '{"n":2}'], "edges"),
    (["mutation-class", "--matrix", '{"m":1}'], "n"),
    (["block-assemble", '{"n":3,"blocks":[{"kind":"II"}]}'], "vertices"),
    (["block-assemble", '{"n":3,"blocks":[{"vertices":[0,1,2]}]}'], "kind"),
    (["block-assemble", '{"n":3}'], "blocks"),
], ids=["quiver-edges", "quiver-n", "block-vertices", "block-kind", "blocks"])
def test_missing_field_exits_2(argv, field, capsys):
    code, out = run(argv)
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: missing field {field!r}: expected ") and err.endswith("}\n"), err


@pytest.mark.parametrize("field", ["surface", "triangles", "arcs", "boundary_segments", "v", "e"])
def test_triangulation_missing_field_exits_2(field, capsys):
    code, tri = run(["triangulate", "--surface", '{"genus":0,"boundary":[5],"punctures":0}'])
    del (tri["triangles"][1] if field in ("v", "e") else tri)[field]
    for argv in (["flip", "--arc", "1"], ["b-matrix"]):
        code, out = run(argv + ["--triangulation", json.dumps(tri)])
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith(f"invalid input: missing field {field!r}: expected {{\"surface\"") and \
            err.endswith('optional "punctures": [integers]\n'), err


def test_triangulation_surface_not_an_object_exits_2(capsys):
    code, tri = run(["triangulate", "--surface", '{"genus":0,"boundary":[5],"punctures":0}'])
    tri["surface"] = 3
    code, out = run(["b-matrix", "--triangulation", json.dumps(tri)])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == \
        "invalid input: a surface must be a JSON object {genus, boundary, punctures}\n"


@pytest.mark.parametrize("desc, field, value, detail", [
    ((0, [3, 1], 0), "arcs", 5, "5 arcs but surface rank is 4"),
    ((0, [3, 1], 0), "boundary_segments", 3, "boundary segment count must equal"),
    ((0, [3, 1], 0), "punctures", [0], "puncture list [0] is not the gluing's []"),
    ((0, [3], 1), "punctures", None, "puncture list [] is not the gluing's [2]"),
    ((0, [3, 1], 0), "surface", {"genus": 0, "boundary": [2, 2], "punctures": 0},
     "the gluing is MarkedSurface(genus=0, boundary=(3, 1), punctures=0), not"),
], ids=["arcs", "boundary-segments", "punctures", "punctures-absent", "mislabeled-boundary"])
def test_triangulation_disagreeing_with_its_gluing_exits_2(desc, field, value, detail, capsys):
    # a triangulate output with one stated field changed (None: removed)
    surf = dict(zip(("genus", "boundary", "punctures"), desc))
    code, tri = run(["triangulate", "--surface", json.dumps(surf)])
    assert run(["flip", "--triangulation", json.dumps(tri), "--arc", "0"])[0] == 0
    if value is None:
        del tri[field]
    else:
        tri[field] = value
    code, out = run(["flip", "--triangulation", json.dumps(tri), "--arc", "0"])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and detail in err, err


def test_empty_marking_has_one_error_code():
    for argv in (["surface", "classify"], ["triangulate", "--surface"], ["tagged-bfs", "--surface"]):
        code, data = run(argv + ['{"genus":0,"boundary":[0],"punctures":0}'])
        assert code == 1
        assert data == {"error": "empty-marking",
                        "detail": "every boundary component needs at least one marked point"}


def _out_of_depth(command):
    # a chain places one block per recursion level
    with recursion_headroom(150):
        code, data = run(command + [json.dumps(mutation.make_quiver("A", 300).to_json())])
    assert code == 3
    assert data == {"error": "undecided", "detail": "block search ran out of recursion depth"}


def test_is_surface_matrix_undecided(monkeypatch):
    _out_of_depth(["is-surface-matrix"])
    monkeypatch.setattr(blocks, "SEARCH_BUDGET", 1)
    code, data = run(["is-surface-matrix", '{"n":2,"rows":[[0,1],[-1,0]]}'])
    assert code == 3
    assert data == {"error": "undecided", "detail": "block search budget of 1 calls exhausted"}


def test_recognize_type_undecided(monkeypatch):
    # an exhausted block search is undecided, not a reason to try the catalog
    _out_of_depth(["recognize-type", "--matrix"])
    monkeypatch.setattr(blocks, "SEARCH_BUDGET", 1)
    code, data = run(["recognize-type", "--matrix", '{"n":2,"rows":[[0,1],[-1,0]]}'])
    assert code == 3
    assert data == {"error": "undecided", "detail": "block search budget of 1 calls exhausted"}


def test_tagged_bfs_json_and_dot():
    code, data = run(["tagged-bfs", "--surface", '{"genus":0,"boundary":[2],"punctures":1}',
                      "--max-nodes", "50"])
    assert code == 0
    assert len(data["vertices"]) == 4
    assert sorted(map(tuple, data["edges"])) == [(0, 1), (0, 2), (1, 3), (2, 3)]
    assert data["truncated"] is False
    code, dot = run(["tagged-bfs", "--surface", '{"genus":0,"boundary":[2],"punctures":1}',
                     "--format", "dot"])
    assert code == 0
    assert dot.startswith("graph")


def test_mutation_class_cmd(capsys):
    code, data = run(["mutation-class", "--matrix", '{"n":2,"rows":[[0,1],[-1,0]]}',
                      "--max-size", "50"])
    assert code == 0
    assert data["size"] == 1 and data["complete"] is True
    path = {"n": 65, "edges": [[i, i + 1, 1] for i in range(64)]}
    code, out = run(["mutation-class", "--matrix", json.dumps(path)])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "invalid input: n=65 exceeds canonical-form bound 64\n"


def test_recognize_type_cmd():
    code, data = run(["recognize-type", "--matrix",
                      '{"n":4,"edges":[[0,1,1],[1,2,1],[2,3,1],[3,0,1]]}'])
    assert code == 0
    assert data["type"] == "D(4)"
    code, data = run(["recognize-type", "--matrix", '{"n":2,"edges":[[0,1,3]]}'])
    assert code == 1
    assert data["type"] == "Unknown"
    code, data = run(["recognize-type", "--matrix", '{"n":0,"edges":[]}'])
    assert code == 1
    assert data == {"type": "Unknown"}


def test_corank_cmd():
    code, data = run(["corank", "--matrix", '{"n":3,"rows":[[0,2,-2],[-2,0,2],[2,-2,0]]}'])
    assert code == 0
    assert data == {"n": 3, "rank": 2, "corank": 1}


def test_is_surface_matrix_positive_negative(tmp_path):
    code, data = run(["is-surface-matrix", '{"n":2,"rows":[[0,1],[-1,0]]}'])
    assert code == 0
    assert data["decomposition"]["blocks"]
    e6 = {"n": 6, "edges": [[0, 1, 1], [1, 2, 1], [2, 3, 1], [3, 4, 1], [2, 5, 1]]}
    path = tmp_path / "e6.json"
    path.write_text(json.dumps(e6))
    code, data = run(["is-surface-matrix", str(path)])
    assert code == 1
    assert data["error"] == "not-block-decomposable"
    code, data = run(["is-surface-matrix", '{"n":0,"rows":[]}'])
    assert code == 1
    assert data["error"] == "not-block-decomposable"


def test_block_assemble_cmd():
    dec = {"n": 3, "blocks": [{"kind": "II", "vertices": [0, 1, 2]}], "bare": []}
    code, data = run(["block-assemble", json.dumps(dec)])
    assert code == 0
    assert data["matrix"]["rows"] == [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]
    assert data["surface"] == {"genus": 0, "boundary": [6], "punctures": 0}
    apart = {"n": 4, "blocks": [{"kind": "I", "vertices": [0, 1]},
                                {"kind": "I", "vertices": [2, 3]}], "bare": []}
    code, data = run(["block-assemble", json.dumps(apart)])
    assert code == 1
    assert data["error"] == "invalid-decomposition"
    long = {"n": 4, "blocks": [{"kind": "II", "vertices": [0, 1, 2, 3]}]}
    code, data = run(["block-assemble", json.dumps(long)])
    assert code == 1
    assert data == {"error": "invalid-decomposition", "detail": "block II needs 3 vertices, got 4"}
    code, data = run(["block-assemble", '{"n":1,"blocks":[],"bare":[0,0]}'])
    assert code == 1
    assert data == {"error": "invalid-decomposition", "detail": "bare vertices must be distinct"}
    chain = [{"kind": "I", "vertices": [0, 1]}, {"kind": "I", "vertices": [1, 2]}]
    for dec, detail in (
            ({"n": 4, "blocks": chain + [{"kind": "I", "vertices": [1, 3]}], "bare": []},
             "vertex 1 lies in 3 blocks"),
            ({"n": 3, "blocks": chain, "bare": [2]}, "bare vertex 2 is also covered by a block")):
        code, data = run(["block-assemble", json.dumps(dec)])
        assert code == 1
        assert data == {"error": "invalid-decomposition", "detail": detail}


def test_denominators_cmd():
    code, data = run(["denominators", "--matrix", '{"n":2,"rows":[[0,1],[-1,0]]}',
                      "--path", "0,1"])
    assert code == 0
    assert data["denominator_vectors"] == [[1, 0], [1, 1]]
    for path, k in (("0,2", 2), ("-1", -1)):
        code, data = run(["denominators", "--matrix", '{"n":2,"rows":[[0,1],[-1,0]]}',
                          f"--path={path}"])
        assert code == 1
        assert data == {"error": "bad-path", "detail": f"mutation index {k} out of range"}


def test_cluster_vars_cmd():
    code, data = run(["cluster-vars", "--matrix", '{"n":2,"rows":[[0,1],[-1,0]]}',
                      "--limit", "100"])
    assert code == 0
    assert data["count"] == 5 and data["complete"] is True
    code, data = run(["cluster-vars", "--matrix", '{"n":2,"rows":[[0,30000],[-30000,0]]}'])
    assert code == 1
    assert data["error"] == "exponent-range"


def test_clusters_cmd():
    code, data = run(["clusters", "--model", "punctured", "--m", "3"])
    assert code == 0
    assert data["count"] == 14
    code, data = run(["clusters", "--model", "polygon", "--m", "3"])
    assert code == 1
    assert data["error"] == "excluded-model"


def test_clusters_past_the_cluster_ceiling_exit_2(monkeypatch, capsys):
    monkeypatch.setattr(finite_models, "CLUSTER_CEILING", 14)
    code, data = run(["clusters", "--model", "polygon", "--m", "6"])
    assert (code, data["count"]) == (0, 14)
    assert run(["clusters", "--model", "polygon", "--m", "7"]) == (2, "")
    assert capsys.readouterr().err == \
        "invalid input: the polygon model with m=7 has more than 14 clusters\n"


def test_unreadable_path_exits_2(tmp_path, capsys):
    # a directory where a JSON file is expected: an OSError, not a rejection
    for argv in (["corank", "--matrix", str(tmp_path)], ["triangulate", "--surface", str(tmp_path)]):
        code, out = run(argv)
        assert code == 2 and out == ""
        assert str(tmp_path) in capsys.readouterr().err


@pytest.mark.parametrize("options", [
    ["--surface", '{"genus":1,"boundary":[],"punctures":1}', "--triangulation", '{"bogus":1}'],
    [],
], ids=["both", "neither"])
def test_b_matrix_needs_exactly_one_source(options):
    with pytest.raises(SystemExit) as exc:
        cli.main(["b-matrix"] + options)
    assert exc.value.code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


def test_repeated_main_calls_match_fresh_parsers():
    # main() reuses one parser per process; a call after a usage error, or
    # after any other call, answers as it would with a parser of its own
    calls = [
        ["corank", "--matrix", '{"n": 2, "edges": [[0, 1]]}'],
        ["no-such-command"],
        ["is-surface-matrix", '{"n": 3, "edges": [[0, 1], [1, 2]]}'],
        ["corank"],
        ["recognize-type", "--matrix", '{"n": 2, "edges": [[0, 1, 3]]}'],
        ["corank", "--matrix", '{"n": 2, "edges": [[0, 1]]}'],
    ]

    def answers(fresh):
        got = []
        for argv in calls:
            if fresh:
                cli._parser.cache_clear()
            try:
                got.append(run(argv))
            except SystemExit as exc:
                got.append(("exit", exc.code))
        return got

    fresh = answers(fresh=True)
    assert ("exit", 2) in fresh
    assert answers(fresh=False) == fresh


A3 = '{"n": 3, "edges": [[0, 1], [1, 2]]}'
CYCLE = '{"n": 4, "edges": [[0, 1, 1], [1, 2, 1], [2, 3, 1], [3, 0, 1]]}'
E6 = '{"n": 6, "edges": [[0, 1, 1], [1, 2, 1], [2, 3, 1], [3, 4, 1], [2, 5, 1]]}'
PENTAGON = '{"genus": 0, "boundary": [5], "punctures": 0}'


OUTPUT_CALLS = [
    (["surface", "classify", '{"genus": 0, "boundary": [3], "punctures": 1}'], 0),
    (["surface", "classify", '{"genus": 0, "boundary": [], "punctures": 3}'], 1),
    (["triangulate", "--surface", PENTAGON], 0),
    (["flip", "--triangulation", "FAN", "--arc", "1"], 0),
    (["flip", "--triangulation", "FAN", "--arc", "7"], 1),
    (["b-matrix", "--surface", '{"genus": 1, "boundary": [], "punctures": 2}'], 0),
    (["tagged-bfs", "--surface", '{"genus": 0, "boundary": [2], "punctures": 1}'], 0),
    (["mutation-class", "--matrix", A3, "--full"], 0),
    (["mutation-class", "--matrix", A3], 0),
    (["recognize-type", "--matrix", CYCLE], 0),
    (["recognize-type", "--matrix", '{"n": 2, "edges": [[0, 1, 3]]}'], 1),
    (["corank", "--matrix", CYCLE], 0),
    (["is-surface-matrix", CYCLE], 0),
    (["is-surface-matrix", E6], 1),
    (["block-assemble", '{"n": 3, "blocks": [{"kind": "II", "vertices": [0, 1, 2]}], "bare": []}'], 0),
    (["block-assemble", '{"n": 1, "blocks": [], "bare": [0, 0]}'], 1),
    (["denominators", "--matrix", A3, "--path", "0,1,2,0"], 0),
    (["denominators", "--matrix", A3, "--path", ""], 0),
    (["denominators", "--matrix", A3, "--path", "3"], 1),
    (["cluster-vars", "--matrix", A3], 0),
    (["cluster-vars", "--matrix", '{"n": 2, "rows": [[0, 30000], [-30000, 0]]}'], 1),
    (["clusters", "--model", "punctured", "--m", "4"], 0),
    (["clusters", "--model", "polygon", "--m", "3"], 1),
]


@pytest.mark.parametrize("argv, code", OUTPUT_CALLS, ids=[f"{a[0]}-exit{c}" for a, c in OUTPUT_CALLS])
def test_output_is_the_bytes_of_json_dumps(argv, code):
    # every subcommand, answers and error objects alike, writes exactly what
    # json.dumps(indent=2, sort_keys=True) writes, plus one newline
    if "FAN" in argv:
        argv = [json.dumps(run(["triangulate", "--surface", PENTAGON])[1]) if a == "FAN" else a
                for a in argv]
    out = io.StringIO()
    assert cli.main(argv, out=out) == code
    text = out.getvalue()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": {}, "b": [], "c": [[], {}], "d": {"e": {"f": []}}}, [[]], [{}],
    [[1, True], [False, 2]], [True, 1], [1, [2, 3], 4], [[1, 2], 3], [[1, 2], []], [[1], [[2]]],
    [(1, 2), (3, 4)], ((1, 2), [3, 4]), [("a", 1), ("b",)], [["a", "b"], ["c"]],
    ["caf\u00e9", "\u00e9t\u00e9", "\U0001f600", "\x00\x1f\x7f", 'say "no" \\ \t \n'],
    {"caf\u00e9": ["\u2028"], "\x01": None, "": ""},
    [-1, 0, -(2 ** 70), 2 ** 64, 2 ** 64 + 1], [[-3, 2 ** 100], [0, -(2 ** 64)]],
    [None, True, False, "s", 1, [None], {"k": [True]}], "x", 7, True, None,
], ids=repr)
def test_encode_is_json_dumps(value):
    assert cli._encode(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [1.5, {1, 2}, [1, 2.0], [[1, 2], [3.0]], {"a": {3}}, [frozenset()]],
                         ids=repr)
def test_encode_rejects_floats_and_sets(value):
    # json writes floats, which no subcommand outputs; a set fails in both
    with pytest.raises(TypeError):
        cli._encode(value)


FUZZ_VALUES = ("0", "1", "2", "-1", "5", "15", "x", "")


def _spots(doc):
    """(container, key) of every value inside a JSON document."""
    for k, v in list(doc.items() if isinstance(doc, dict) else enumerate(doc)):
        yield doc, k
        if isinstance(v, (dict, list)):
            yield from _spots(v)


def _fuzz_edit(rng, argv):
    """One edit of argv, mostly a near-valid one inside a JSON document: a
    number nudged, a value dropped, repeated or retyped; else a character of
    a document dropped, or an option value replaced, dropped or added."""
    docs = [i for i, a in enumerate(argv) if isinstance(a, (dict, list)) and a]
    r = rng.random()
    if docs and r < 0.8:
        box, k = rng.choice(list(_spots(argv[rng.choice(docs)])))
        r = rng.random()
        if type(box[k]) is int and r < 0.7:
            box[k] += rng.choice((-1, 1, 2))
        elif isinstance(box, list) and r < 0.8:
            box.insert(k, copy.deepcopy(box[k]))
        elif r < 0.9:
            del box[k]
        else:
            box[k] = rng.choice((None, "1", 1.5, True, [], {}, -1))
    elif docs and r < 0.9:
        i = rng.choice(docs)
        text = json.dumps(argv[i])
        j = rng.randrange(len(text))
        argv[i] = text[:j] + text[j + 1:]
    else:
        j = rng.randrange(1, len(argv) + 1)
        if j == len(argv) or rng.random() < 0.2:
            argv.insert(j, rng.choice(("--bogus", "7")))
        elif rng.random() < 0.3:
            del argv[j]
        else:
            argv[j] = rng.choice(FUZZ_VALUES)


def test_cli_fuzz_referee(tmp_path, monkeypatch, capsys):
    # every subcommand on one to three edits of a valid call: each call ends
    # with an exit code, never a traceback, and exit 2 explains itself on
    # stderr with nothing on stdout. Sizes stay small: --m never reaches the
    # 10-14 models that take seconds, and the matrices have too few vertices
    # for canonical_form's factorial cases
    monkeypatch.chdir(tmp_path)  # a document edited into a file name names no file
    surf = {"genus": 0, "boundary": [3], "punctures": 1}
    tri = run(["triangulate", "--surface", json.dumps(surf)])[1]
    a3 = {"n": 3, "edges": [[0, 1], [1, 2]]}
    rows = {"n": 3, "rows": [[0, 1, 0], [-1, 0, 1], [0, -1, 0]]}
    cycle = {"n": 4, "edges": [[0, 1, 1], [1, 2, 1], [2, 3, 1], [3, 0, 1]]}
    dec = {"n": 3, "blocks": [{"kind": "II", "vertices": [0, 1, 2]}], "bare": []}
    calls = [
        ["surface", "classify", surf],
        ["triangulate", "--surface", surf],
        ["flip", "--triangulation", tri, "--arc", "1"],
        ["b-matrix", "--triangulation", tri],
        ["b-matrix", "--surface", surf],
        ["tagged-bfs", "--surface", {"genus": 0, "boundary": [2], "punctures": 1}, "--max-nodes", "40"],
        ["mutation-class", "--matrix", a3, "--max-size", "50", "--full"],
        ["recognize-type", "--matrix", cycle],
        ["corank", "--matrix", rows],
        ["is-surface-matrix", cycle],
        ["block-assemble", dec],
        ["denominators", "--matrix", rows, "--path", "0,1,2"],
        ["cluster-vars", "--matrix", a3, "--limit", "10"],
        ["clusters", "--model", "punctured", "--m", "4"],
    ]
    rng = random.Random(7)
    codes = collections.Counter()
    for t in range(280):
        argv = copy.deepcopy(calls[t % len(calls)])
        for _ in range(rng.choice((1, 1, 1, 2, 3))):
            _fuzz_edit(rng, argv)
        argv = [a if isinstance(a, str) else json.dumps(a) for a in argv]
        out = io.StringIO()
        try:
            code = cli.main(argv, out=out)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        codes[code] += 1
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), argv
        if code == 2:
            assert err.strip() and out.getvalue() == "", argv
    assert {0, 1, 2} <= set(codes), codes
