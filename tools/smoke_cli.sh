#!/usr/bin/env bash
# Smoke calls of the installed `surfcluster` entry point: each call but the
# last must exit 0 with one JSON document on stdout, byte for byte what
# json.dumps(indent=2, sort_keys=True) writes, then a newline; the last, a
# model past the cluster ceiling, must exit 2 with the refusal on stderr and
# nothing on stdout. Run after `pip install -e .`:
#     bash tools/smoke_cli.sh
set -eo pipefail

json() {
    python -c 'import json, sys
text = sys.stdin.read()
if text != json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n":
    sys.exit("smoke_cli: stdout is not the bytes of json.dumps(indent=2, sort_keys=True)")'
}

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
