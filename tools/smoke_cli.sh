#!/usr/bin/env bash
# Smoke calls of the installed `surfcluster` entry point: each call must exit
# 0 with one JSON document on stdout. Run after `pip install -e .`:
#     bash tools/smoke_cli.sh
set -eo pipefail

json() { python -c 'import json, sys; json.load(sys.stdin)'; }

surfcluster surface classify '{"genus":0,"boundary":[6],"punctures":0}' | json
surfcluster is-surface-matrix '{"n":2,"rows":[[0,1],[-1,0]]}' | json
surfcluster tagged-bfs --surface '{"genus":0,"boundary":[3],"punctures":1}' | json
surfcluster cluster-vars --matrix '{"n":3,"edges":[[0,1],[1,2]]}' | json
surfcluster mutation-class --matrix '{"n":3,"edges":[[0,1],[1,2]]}' --full | json
surfcluster clusters --model punctured --m 3 | json
