"""Command-line front end: JSON in, JSON (or DOT) out.

Exit codes: 0 success, 1 domain rejection (excluded surface, empty marking,
non-surface matrix, unknown type, a cluster variable whose exponents leave
the packed range), 2 usage error, 3 undecided (the block search of
is-surface-matrix or recognize-type ran out of its call budget or of
recursion depth). Rejections and undecided answers print a machine readable
{"error": ..., "detail": ...} object; an unknown type prints {"type": "Unknown"}.

Output is JSON indented by 2 with sorted keys, byte for byte what
json.dumps(data, indent=2, sort_keys=True) gives, written by `_encode`.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import chain, repeat

from . import blocks, cluster, finite_models, mutation, surface, tagged, trimap


def _read_json_arg(value: str) -> dict:
    """Accept an inline JSON object or a path to a file holding one."""
    text = value
    if not value.lstrip().startswith(("{", "[")):
        with open(value, "r", encoding="utf-8") as fh:
            text = fh.read()
    data = json.loads(text)
    if type(data) is not dict:
        raise ValueError("expected a JSON object")
    return data


_escape = json.encoder.encode_basestring_ascii


def _encode(value, pad=""):
    """The text of json.dumps(value, indent=2, sort_keys=True) for a value
    written on a line indented by `pad`. Takes dicts with str keys, lists,
    tuples, str, int, bool and None, and raises TypeError on anything else.
    A list of ints, of strings or of non-empty int rows is written by one
    str.join, with no Python call per element."""
    if isinstance(value, str):
        return _escape(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        kinds = set(map(type, value))
        if kinds == {int}:
            body = sep.join(map(int.__repr__, value))
        elif kinds == {str}:
            body = sep.join(map(_escape, value))
        elif kinds <= {list, tuple} and all(value) and set(map(type, chain.from_iterable(value))) == {int}:
            deeper = inner + "  "
            rows = map((",\n" + deeper).join, map(map, repeat(int.__repr__), value))
            between = f"\n{inner}]{sep}[\n{deeper}"  # closes one row and opens the next
            body = f"[\n{deeper}" + between.join(rows) + f"\n{inner}]"
        else:
            body = sep.join(map(_encode, value, repeat(inner)))
        return "[\n" + inner + body + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        keys = sorted(value)
        items = map("{}: {}".format, map(_escape, keys), map(_encode, map(value.__getitem__, keys), repeat(inner)))
        return "{\n" + inner + sep.join(items) + "\n" + pad + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(data, out):
    out.write(_encode(data) + "\n")


def _fail(code: str, detail: str, out) -> int:
    _emit({"error": code, "detail": detail}, out)
    return 1


def _load_surface(value: str) -> surface.MarkedSurface:
    return surface.MarkedSurface.from_json(_read_json_arg(value))


def _load_matrix(value: str) -> mutation.ExchangeMatrix:
    data = _read_json_arg(value)
    if "rows" in data:
        return mutation.ExchangeMatrix.from_json(data)
    return mutation.quiver_from_json(data)


def cmd_surface_classify(args, out) -> int:
    s = _load_surface(args.descriptor)
    c = surface.classify(s)
    _emit({"surface": s.to_json(), "classification": c.to_json()}, out)
    return 0


def cmd_triangulate(args, out) -> int:
    T = trimap.initial_triangulation(_load_surface(args.surface))
    _emit(T.to_json(), out)
    return 0


def cmd_flip(args, out) -> int:
    T = trimap.IdealTriangulation.from_json(_read_json_arg(args.triangulation))
    try:
        T2 = trimap.flip(T, args.arc)
    except (trimap.NotFlippable, trimap.UnknownArc) as exc:
        return _fail("not-flippable", str(exc), out)
    _emit(T2.to_json(), out)
    return 0


def cmd_b_matrix(args, out) -> int:
    if args.surface is not None:
        s = _load_surface(args.surface)
        T = trimap.initial_triangulation(s)
    else:
        T = trimap.IdealTriangulation.from_json(_read_json_arg(args.triangulation))
    _emit(trimap.signed_adjacency(T).to_json(), out)
    return 0


def cmd_tagged_bfs(args, out) -> int:
    T0 = tagged.tag_with(trimap.initial_triangulation(_load_surface(args.surface)))
    graph = tagged.exchange_graph_bfs(T0, max_nodes=args.max_nodes)
    if args.format == "dot":
        out.write(graph.to_dot() + "\n")
    else:
        _emit(graph.to_json(), out)
    return 0


def cmd_mutation_class(args, out) -> int:
    B = _load_matrix(args.matrix)
    cls = mutation.mutation_class(B, max_size=args.max_size)
    _emit(
        {
            "size": cls.size,
            "complete": cls.complete,
            "limit": cls.limit,
            "representatives": [m.to_json() for m in cls.matrices] if args.full else None,
        },
        out,
    )
    return 0


def cmd_recognize_type(args, out) -> int:
    B = _load_matrix(args.matrix)
    tag = mutation.recognize_type(B)
    _emit({"type": tag}, out)
    return 0 if tag != "Unknown" else 1


def cmd_corank(args, out) -> int:
    B = _load_matrix(args.matrix)
    _emit({"n": B.n, "rank": mutation.rank(B), "corank": mutation.corank(B)}, out)
    return 0


def cmd_is_surface_matrix(args, out) -> int:
    B = _load_matrix(args.matrix)
    d = blocks.decompose(B)
    if d is None:
        return _fail("not-block-decomposable", "no block decomposition exists", out)
    _emit({"decomposition": d.to_json()}, out)
    return 0


def cmd_block_assemble(args, out) -> int:
    d = blocks.BlockDecomposition.from_json(_read_json_arg(args.decomposition))
    try:
        blocks.validate_decomposition(d)
    except ValueError as exc:
        return _fail("invalid-decomposition", str(exc), out)
    B = blocks.assemble_matrix(d)
    surf, T = blocks.surface_from_decomposition(d)
    _emit({"matrix": B.to_json(), "surface": surf.to_json(), "triangulation": T.to_json()}, out)
    return 0


def cmd_denominators(args, out) -> int:
    B = _load_matrix(args.matrix)
    path = [int(x) for x in args.path.split(",") if x.strip() != ""]
    D = cluster.initial_denominator_vectors(B.n)
    cur = B
    for k in path:
        if not 0 <= k < B.n:
            return _fail("bad-path", f"mutation index {k} out of range", out)
        D = cluster.tropical_mutate(D, cur, k)
        cur = mutation.mutate(cur, k)
    _emit({"path": path, "denominator_vectors": D}, out)
    return 0


def cmd_cluster_vars(args, out) -> int:
    B = _load_matrix(args.matrix)
    try:
        census = cluster.all_cluster_variables(B, limit=args.limit)
    except OverflowError as exc:
        return _fail("exponent-range", str(exc), out)
    _emit(
        {
            "count": len(census.variables),
            "seeds_seen": census.seeds_seen,
            "complete": census.complete,
            "variables": [str(v) for v in census.variables],
            "denominator_vectors": [cluster.denominator_vector(v) for v in census.variables],
        },
        out,
    )
    return 0


def cmd_clusters(args, out) -> int:
    try:
        model = finite_models.Model(args.model, args.m)
    except finite_models.ExcludedModel as exc:
        return _fail("excluded-model", str(exc), out)
    cls, edges = finite_models.enumerate_clusters(model)
    _emit(
        {
            "model": {"kind": model.kind, "m": model.m, "rank": model.rank},
            "count": len(cls),
            "clusters": [[str(a) for a in cl] for cl in cls],
            "edges": edges,
        },
        out,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="surfcluster",
                                 description="cluster combinatorics of triangulated surfaces")
    sub = ap.add_subparsers(dest="command", required=True)

    p_surface = sub.add_parser("surface", help="surface-level queries")
    surface_sub = p_surface.add_subparsers(dest="surface_command", required=True)
    p_classify = surface_sub.add_parser("classify", help="validate and classify a surface")
    p_classify.add_argument("descriptor", help="JSON descriptor or path")
    p_classify.set_defaults(func=cmd_surface_classify)

    p = sub.add_parser("triangulate", help="initial triangulation of a surface")
    p.add_argument("--surface", required=True)
    p.set_defaults(func=cmd_triangulate)

    p = sub.add_parser("flip", help="flip one arc of a triangulation")
    p.add_argument("--triangulation", required=True)
    p.add_argument("--arc", type=int, required=True)
    p.set_defaults(func=cmd_flip)

    p = sub.add_parser("b-matrix", help="signed adjacency matrix of a triangulation")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--triangulation")
    source.add_argument("--surface")
    p.set_defaults(func=cmd_b_matrix)

    p = sub.add_parser("tagged-bfs", help="breadth-first search of tagged flips")
    p.add_argument("--surface", required=True)
    p.add_argument("--max-nodes", type=int, default=1000)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(func=cmd_tagged_bfs)

    p = sub.add_parser("mutation-class", help="enumerate a mutation class")
    p.add_argument("--matrix", required=True)
    p.add_argument("--max-size", type=int, default=10000)
    p.add_argument("--full", action="store_true", help="include all representatives")
    p.set_defaults(func=cmd_mutation_class)

    p = sub.add_parser("recognize-type", help="mutation type: block witness, else exceptional catalog")
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=cmd_recognize_type)

    p = sub.add_parser("corank", help="integer rank and corank of a matrix")
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=cmd_corank)

    p = sub.add_parser("is-surface-matrix", help="decide block decomposability")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_is_surface_matrix)

    p = sub.add_parser("block-assemble", help="assemble matrix and surface from blocks")
    p.add_argument("decomposition")
    p.set_defaults(func=cmd_block_assemble)

    p = sub.add_parser("denominators", help="tropical denominator vectors along a path")
    p.add_argument("--matrix", required=True)
    p.add_argument("--path", required=True, help="comma-separated mutation indices")
    p.set_defaults(func=cmd_denominators)

    p = sub.add_parser("cluster-vars", help="enumerate cluster variables symbolically")
    p.add_argument("--matrix", required=True)
    p.add_argument("--limit", type=int, default=1000)
    p.set_defaults(func=cmd_cluster_vars)

    p = sub.add_parser("clusters", help="enumerate clusters of a finite model")
    p.add_argument("--model", choices=["polygon", "punctured"], required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_clusters)

    return ap


# built on the first call, not at import; parsing leaves the parser unchanged
_parser = functools.cache(build_parser)


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    args = _parser().parse_args(argv)
    try:
        return args.func(args, out)
    except surface.ExcludedSurface as exc:
        return _fail("excluded-surface", str(exc), out)
    except surface.EmptyMarking as exc:
        return _fail("empty-marking", str(exc), out)
    except blocks.BudgetExhausted as exc:
        _emit({"error": "undecided", "detail": str(exc)}, out)
        return 3
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"bad JSON input: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
