#!/usr/bin/env bash
# Smoke calls of the installed `surfcluster` entry point: each call but the
# last must exit 0 with one JSON document on stdout; the last, a model past
# the cluster ceiling, must exit 2 with the refusal on stderr and nothing on
# stdout. Run after `pip install -e .`:
#     bash tools/smoke_cli.sh
set -eo pipefail

json() { python -c 'import json, sys; json.load(sys.stdin)'; }

surfcluster surface classify '{"genus":0,"boundary":[6],"punctures":0}' | json
surfcluster is-surface-matrix '{"n":2,"rows":[[0,1],[-1,0]]}' | json
surfcluster tagged-bfs --surface '{"genus":0,"boundary":[3],"punctures":1}' | json
surfcluster cluster-vars --matrix '{"n":3,"edges":[[0,1],[1,2]]}' | json
surfcluster mutation-class --matrix '{"n":3,"edges":[[0,1],[1,2]]}' --full | json
surfcluster clusters --model punctured --m 3 | json

errfile=$(mktemp)
trap 'rm -f "$errfile"' EXIT
code=0
out=$(surfcluster clusters --model polygon --m 15 2>"$errfile") || code=$?
err=$(<"$errfile")
if [[ $code -ne 2 || -n $out || $err != "invalid input: "* ]]; then
    echo "clusters --model polygon --m 15: exit $code, stdout '$out', stderr '$err'" >&2
    exit 1
fi
