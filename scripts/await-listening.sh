#!/usr/bin/env bash
# Waits until every LOG shows a started server's "listening on" line.
#
#   scripts/await-listening.sh LOG...
#
# Polls every 0.2 s for up to 10 s in all.  For each log that never shows
# the line it prints the log's tail and then exits 1, so a server that did
# not start fails the step that waited for it, not the next step's
# connection.
set -uo pipefail

if [[ $# -eq 0 ]]; then
    sed -n '4p' "${BASH_SOURCE[0]}" | sed 's/^# *//' >&2
    exit 2
fi

listening() { grep -q "listening on" "$1" 2>/dev/null; }

for _ in $(seq 50); do
    ready=1
    for log in "$@"; do
        listening "$log" || ready=0
    done
    [[ $ready -eq 1 ]] && exit 0
    sleep 0.2
done
for log in "$@"; do
    if ! listening "$log"; then
        echo "await-listening: no \"listening on\" in $log after 10 s; its tail:" >&2
        tail -n 20 "$log" >&2 || true
    fi
done
exit 1
