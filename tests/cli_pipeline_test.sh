#!/bin/sh
# End-to-end CLI pipeline: make-dataset -> server -> device -> eval.
# Run by ctest with the build directory as argument.
set -eu
BUILD_DIR="$1"
WORK=$(mktemp -d)
trap 'kill $SERVER_PID 2>/dev/null || true; rm -rf "$WORK"' EXIT
cd "$WORK"

# Bad flag values exit 1 with a message naming the offender, never an
# abort or a silent wrap (70000 would otherwise listen on 4464).
expect_refusal() {
  WANT="$1"
  shift
  CODE=0
  "$BUILD_DIR/tools/crowdml-server" "$@" --max-iterations 0 \
      > refused.log 2>&1 || CODE=$?
  [ "$CODE" -eq 1 ] && grep -q -e "$WANT" refused.log || {
    echo "crowdml-server $*: want exit 1 naming '$WANT', got exit $CODE"
    cat refused.log; exit 1; }
}
expect_refusal "threads" --engine threads
expect_refusal "--port" --port abc
expect_refusal "--port" --port 70000
expect_refusal "--repl-followers" --repl-followers abc

# epoll is the only engine: a pool starts without --engine.
"$BUILD_DIR/tools/crowdml-server" --port 0 --model-instances 2 \
    --max-iterations 0 > pool.log 2>&1 || {
  echo "pooled server without --engine failed"; cat pool.log; exit 1; }
grep -q "^config: engine=epoll .*model-instances=2 " pool.log || {
  echo "pooled server did not start the epoll engine"; cat pool.log; exit 1; }

"$BUILD_DIR/tools/crowdml-make-dataset" --kind mnist --scale 0.05 --shards 2 \
    --shard-prefix dev_ --seed 42

"$BUILD_DIR/tools/crowdml-server" --port 0 --classes 10 --dim 50 \
    --enroll 2 --keys-out keys.csv --checkpoint state.bin \
    --max-iterations 2000 --report-every 1 > server.log 2>&1 &
SERVER_PID=$!

# Wait for the server to announce its port.
PORT=""
for i in $(seq 1 50); do
  PORT=$(sed -n 's/.*listening on 127.0.0.1:\([0-9]*\).*/\1/p' server.log)
  [ -n "$PORT" ] && break
  sleep 0.1
done
[ -n "$PORT" ] || { echo "server did not start"; cat server.log; exit 1; }

KEY1=$(sed -n 1p keys.csv)
KEY2=$(sed -n 2p keys.csv)
"$BUILD_DIR/tools/crowdml-device" --host 127.0.0.1 --port "$PORT" \
    --data dev_0.csv --key "$KEY1" --minibatch 10 --epsilon 50 --passes 6 \
    --classes 10 &
DEV1=$!
"$BUILD_DIR/tools/crowdml-device" --host 127.0.0.1 --port "$PORT" \
    --data dev_1.csv --key "$KEY2" --minibatch 10 --epsilon 50 --passes 6 \
    --classes 10 &
DEV2=$!
wait $DEV1
wait $DEV2

# Let the server hit its iteration cap and write the final checkpoint.
for i in $(seq 1 100); do
  kill -0 $SERVER_PID 2>/dev/null || break
  sleep 0.1
done
kill $SERVER_PID 2>/dev/null || true
wait $SERVER_PID 2>/dev/null || true

[ -f state.bin ] || { echo "no checkpoint written"; cat server.log; exit 1; }

OUT=$("$BUILD_DIR/tools/crowdml-eval" --checkpoint state.bin --data test.csv \
      --classes 10)
echo "$OUT"
ERR=$(echo "$OUT" | sed -n 's/test error: *//p')
# The model must beat chance (0.9) clearly after the DP updates.
awk "BEGIN { exit !($ERR < 0.5) }" || {
  echo "learned model too weak: $ERR"; exit 1; }
echo "CLI pipeline OK (test error $ERR)"
