import io
import json

import pytest

from surfcluster import blocks, cli, mutation


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


def test_is_surface_matrix_undecided(monkeypatch):
    decompose = blocks.decompose
    monkeypatch.setattr(blocks, "decompose", lambda B: decompose(B, budget=1))
    code, data = run(["is-surface-matrix", '{"n":2,"rows":[[0,1],[-1,0]]}'])
    assert code == 3
    assert data == {"error": "undecided", "detail": "block search budget of 1 calls exhausted"}


def test_recognize_type_undecided(monkeypatch):
    # an exhausted block search is undecided, not a reason to try the catalog
    decompose = blocks.decompose
    monkeypatch.setattr(blocks, "decompose", lambda B: decompose(B, budget=1))
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


def test_denominators_cmd():
    code, data = run(["denominators", "--matrix", '{"n":2,"rows":[[0,1],[-1,0]]}',
                      "--path", "0,1"])
    assert code == 0
    assert data["denominator_vectors"] == [[1, 0], [1, 1]]


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
