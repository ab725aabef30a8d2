#!/usr/bin/env bash
# trace-smoke: distributed-tracing smoke across two real processes.
#
# Starts `chop serve -trace server.jsonl`, submits a traced run with
# `chop submit -trace-out client.jsonl -wait`, stops the server (so its
# buffered JSONL flushes), then stitches both files with `chop trace`:
# the text waterfall must contain the cross-process chain and
# -fail-on-orphans makes broken parent links fatal. Then replays the
# server trace with `chop explain` and `chop explain -stats`, failing if
# either errors or sees no trials, or if the phase attribution the server's
# search folded does not cover all of the trials explain counts. Finally
# exports perfetto.json for ui.perfetto.dev (uploaded as a CI artifact).
set -euo pipefail

DIR="${TRACE_SMOKE_DIR:-trace-smoke}"
ADDR="${TRACE_SMOKE_ADDR:-127.0.0.1:18080}"
GO="${GO:-go}"

mkdir -p "$DIR"
rm -f "$DIR"/server.jsonl "$DIR"/client.jsonl "$DIR"/perfetto.json "$DIR"/stitched.txt "$DIR"/explain*.txt

echo "== building chop"
"$GO" build -o "$DIR/chop" ./cmd/chop

echo "== starting chop serve on $ADDR"
"$DIR/chop" serve -addr "$ADDR" -trace "$DIR/server.jsonl" -log-level debug &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true' EXIT

echo "== submitting a traced run"
"$DIR/chop" submit -addr "http://$ADDR" -kind eval \
	-trace-out "$DIR/client.jsonl" -retry-for 15s -wait

echo "== stopping the server (flushes its trace file)"
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || true
trap - EXIT

echo "== stitching both processes' traces"
"$DIR/chop" trace -fail-on-orphans -out "$DIR/stitched.txt" \
	"$DIR/client.jsonl" "$DIR/server.jsonl"
cat "$DIR/stitched.txt"

for want in "submit" "http submit" "Search"; do
	if ! grep -q "$want" "$DIR/stitched.txt"; then
		echo "FAIL: stitched waterfall missing span \"$want\"" >&2
		exit 1
	fi
done

echo "== replaying the server trace with chop explain"
# Every serve run has a tracer of its own: explain must read the multi-run
# file on one time base and see the submitted run's trials.
for mode in "" "-stats"; do
	out="$DIR/explain${mode}.txt"
	"$DIR/chop" explain $mode -f "$DIR/server.jsonl" > "$out"
	cat "$out"
	if grep -q "trials: 0 examined" "$out"; then
		echo "FAIL: chop explain $mode saw no trials in the server trace" >&2
		exit 1
	fi
done
# The "phases" point is the server's phase accounter after the search's
# recorders folded their tallies into it: its trial count must equal the
# trials explain examined, with every nanosecond of them attributed.
examined=$(sed -n 's/^trials: \([0-9]*\) examined.*/\1/p' "$DIR/explain.txt")
if ! grep -q "trial coverage: 100\.0% .*(${examined} trials)" "$DIR/explain-stats.txt"; then
	echo "FAIL: chop explain -stats phase fold does not cover the ${examined} examined trials" >&2
	exit 1
fi

echo "== exporting Perfetto JSON"
"$DIR/chop" trace -fail-on-orphans -o perfetto -out "$DIR/perfetto.json" \
	"$DIR/client.jsonl" "$DIR/server.jsonl"

echo "== trace smoke OK: open $DIR/perfetto.json at https://ui.perfetto.dev"
