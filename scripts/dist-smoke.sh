#!/usr/bin/env bash
# dist-smoke: fault-tolerant distributed search across real processes.
#
# Phase 1 (chaos): a coordinator (`chop search -distributed`) farms shards
# to two `chop serve` workers, one of which stalls every job via fault
# injection and is SIGKILLed mid-search. The lease machinery must recover
# (failed lease -> shards reassigned to the survivor) and the merged
# result must be byte-identical to a serial `-workers 1` run — for both
# heuristics.
#
# Phase 2 (trace): a clean two-worker run with -trace everywhere, stitched
# by `chop trace -fail-on-orphans` (coordinator Lease spans must parent
# the workers' HTTP/job spans) and exported as perfetto.json for CI. Both
# workers run admission-controlled (`-api-keys`): the coordinator passes
# its tenant key, and a keyless `chop submit` must be rejected with
# bad-key.
set -euo pipefail

DIR="${DIST_SMOKE_DIR:-dist-smoke}"
PORT1="${DIST_SMOKE_PORT1:-18411}"
PORT2="${DIST_SMOKE_PORT2:-18412}"
GO="${GO:-go}"

W1="http://127.0.0.1:$PORT1"
W2="http://127.0.0.1:$PORT2"

mkdir -p "$DIR"
rm -f "$DIR"/*.json "$DIR"/*.jsonl "$DIR"/*.txt "$DIR"/*.log

echo "== building chop"
"$GO" build -o "$DIR/chop" ./cmd/chop

cleanup() {
	kill -9 "${W1_PID:-}" "${W2_PID:-}" 2>/dev/null || true
}
trap cleanup EXIT

wait_port() { # host port
	for _ in $(seq 1 100); do
		if (exec 3<>"/dev/tcp/$1/$2") 2>/dev/null; then
			exec 3>&- 3<&-
			return 0
		fi
		sleep 0.1
	done
	echo "FAIL: nothing listening on $1:$2" >&2
	return 1
}

start_worker() { # port logfile extra-env...
	local port="$1" log="$2"
	shift 2
	env "$@" "$DIR/chop" serve -addr "127.0.0.1:$port" -log-level warn >"$log" 2>&1 &
	echo $!
}

echo "== writing specs (both heuristics)"
"$DIR/chop" spec > "$DIR/spec_I.json"
sed 's/"heuristic": "I"/"heuristic": "E"/' "$DIR/spec_I.json" > "$DIR/spec_E.json"
grep -q '"heuristic": "E"' "$DIR/spec_E.json"

for H in I E; do
	SPEC="$DIR/spec_$H.json"

	echo "== [$H] serial baseline"
	"$DIR/chop" search -f "$SPEC" -workers 1 -json \
		> "$DIR/serial_$H.json" 2>/dev/null

	echo "== [$H] starting fleet: healthy worker + stalled victim"
	W1_PID=$(start_worker "$PORT1" "$DIR/w1_$H.log")
	# Every job on the victim stalls far longer than the search, so its
	# leased shards can only complete through failure recovery.
	W2_PID=$(start_worker "$PORT2" "$DIR/w2_$H.log" CHOP_FAULT_INJECT="serve.job=stall:1:60s")
	wait_port 127.0.0.1 "$PORT1"
	wait_port 127.0.0.1 "$PORT2"

	echo "== [$H] distributed search; SIGKILL the stalled worker mid-search"
	( sleep 0.4; kill -9 "$W2_PID" 2>/dev/null || true ) &
	KILLER=$!
	"$DIR/chop" search -f "$SPEC" -distributed \
		-workers-url "$W1,$W2" \
		-lease 500ms -poll 50ms -json \
		> "$DIR/dist_$H.json" 2> "$DIR/dist_$H.log"
	wait "$KILLER" 2>/dev/null || true
	kill -9 "$W1_PID" 2>/dev/null || true
	wait "$W1_PID" 2>/dev/null || true

	echo "== [$H] asserting recovery and byte-identity"
	reassigned=$(grep -o 'reassigned=[0-9]*' "$DIR/dist_$H.log" | head -1 | cut -d= -f2)
	if [ "${reassigned:-0}" -lt 1 ]; then
		echo "FAIL: [$H] no shards were reassigned after the worker kill" >&2
		cat "$DIR/dist_$H.log" >&2
		exit 1
	fi
	if ! cmp -s "$DIR/serial_$H.json" "$DIR/dist_$H.json"; then
		echo "FAIL: [$H] distributed result diverged from serial" >&2
		diff "$DIR/serial_$H.json" "$DIR/dist_$H.json" | head -20 >&2
		exit 1
	fi
	echo "   [$H] OK: reassigned=$reassigned shards, result byte-identical to serial"
done

echo "== clean traced run for cross-process stitching (admission-controlled workers)"
# Workers record their side of every request; the coordinator stamps each
# lease submission with its span's traceparent so the trees join.
echo '{"tenants": [{"name": "coord", "key": "dist-smoke-key"}]}' > "$DIR/tenants.json"
"$DIR/chop" serve -addr "127.0.0.1:$PORT1" -api-keys "$DIR/tenants.json" \
	-trace "$DIR/w1.jsonl" -log-level warn >"$DIR/w1_trace.log" 2>&1 &
W1_PID=$!
"$DIR/chop" serve -addr "127.0.0.1:$PORT2" -api-keys "$DIR/tenants.json" \
	-trace "$DIR/w2.jsonl" -log-level warn >"$DIR/w2_trace.log" 2>&1 &
W2_PID=$!
wait_port 127.0.0.1 "$PORT1"
wait_port 127.0.0.1 "$PORT2"

echo "== a keyless submit must be rejected with bad-key"
if "$DIR/chop" submit -addr "$W1" > "$DIR/keyless.log" 2>&1; then
	echo "FAIL: a submit without an API key was accepted" >&2
	cat "$DIR/keyless.log" >&2
	exit 1
fi
if ! grep -q 'bad-key' "$DIR/keyless.log"; then
	echo "FAIL: the keyless submit failed without a bad-key rejection" >&2
	cat "$DIR/keyless.log" >&2
	exit 1
fi

"$DIR/chop" search -f "$DIR/spec_I.json" -distributed \
	-workers-url "$W1,$W2" -api-key dist-smoke-key \
	-trace "$DIR/coord.jsonl" -poll 50ms -json \
	> "$DIR/dist_traced.json" 2> "$DIR/dist_traced.log"

kill -TERM "$W1_PID" "$W2_PID" 2>/dev/null || true
wait "$W1_PID" 2>/dev/null || true
wait "$W2_PID" 2>/dev/null || true

cmp -s "$DIR/serial_I.json" "$DIR/dist_traced.json" || {
	echo "FAIL: traced distributed run diverged from serial" >&2
	exit 1
}

echo "== stitching coordinator + worker traces"
"$DIR/chop" trace -fail-on-orphans -out "$DIR/stitched.txt" \
	"$DIR/coord.jsonl" "$DIR/w1.jsonl" "$DIR/w2.jsonl"
for want in "DistSearch" "Lease"; do
	if ! grep -q "$want" "$DIR/stitched.txt"; then
		echo "FAIL: stitched waterfall missing span \"$want\"" >&2
		cat "$DIR/stitched.txt" >&2
		exit 1
	fi
done

echo "== exporting Perfetto JSON"
"$DIR/chop" trace -fail-on-orphans -o perfetto -out "$DIR/perfetto.json" \
	"$DIR/coord.jsonl" "$DIR/w1.jsonl" "$DIR/w2.jsonl"

echo "== dist smoke OK: worker killed mid-search, results byte-identical, keyless submit rejected; open $DIR/perfetto.json at https://ui.perfetto.dev"
