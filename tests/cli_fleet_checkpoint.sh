#!/bin/sh
# The fleet checkpoint contract registered in CMakeLists.txt:
#   sh tests/cli_fleet_checkpoint.sh <rdsim> <work dir> <case>
# <case> is one of
#   stop_resume  --stop-after-checkpoints interrupts a tiny fig_fleet run
#                at 4 threads; --resume at 2 threads must write the CSV of
#                an uninterrupted 1-thread run.
#   hard_kill    SIGKILL a half-scale 4-thread run as soon as its first
#                per-epoch checkpoint lands (exit status 137 is required,
#                so a run that finished first fails the case); --resume at
#                8 threads must write the CSV of an uninterrupted 2-thread
#                run.
#   truncated    a checkpoint cut to 12 KiB must be rejected with a
#                "checkpoint truncated" diagnostic, never restored.
set -eu
rdsim=$1
name=$3
rm -rf "$2"
mkdir -p "$2"
cd "$2"

fail() {
  echo "$name: $*" >&2
  exit 1
}

fleet() {
  "$rdsim" --experiment fig_fleet "$@"
}

case $name in
stop_resume)
  if ! fleet --tiny --threads 4 --checkpoint stop.ckpt --checkpoint-every 2 \
    --stop-after-checkpoints 1 --quiet --no-file 2>stop.err ||
    ! grep -q "interrupted" stop.err; then
    cat stop.err >&2
    fail "run was not interrupted"
  fi
  fleet --tiny --threads 2 --resume stop.ckpt --csv resumed.csv
  fleet --tiny --threads 1 --csv uninterrupted.csv
  cmp resumed.csv uninterrupted.csv
  ;;
hard_kill)
  fleet --scale 0.5 --threads 4 --checkpoint kill.ckpt --checkpoint-every 1 \
    --quiet --no-file &
  pid=$!
  # Checkpoints land via temp file + rename, so the name appearing means
  # a complete checkpoint. Stop polling if the run ends on its own.
  while ! test -f kill.ckpt && kill -0 "$pid" 2>/dev/null; do
    sleep 0.01 2>/dev/null || sleep 1
  done
  kill -9 "$pid" 2>/dev/null || true
  status=0
  wait "$pid" || status=$?
  test "$status" -eq 137 ||
    fail "run exited with status $status before SIGKILL reached it"
  fleet --scale 0.5 --threads 8 --resume kill.ckpt --csv resumed.csv
  fleet --scale 0.5 --threads 2 --csv uninterrupted.csv
  cmp resumed.csv uninterrupted.csv
  ;;
truncated)
  fleet --tiny --checkpoint full.ckpt --checkpoint-every 2 \
    --stop-after-checkpoints 1 --quiet --no-file
  dd if=full.ckpt of=truncated.ckpt bs=1k count=12 2>/dev/null
  if fleet --tiny --resume truncated.ckpt --quiet --no-file 2>resume.err; then
    fail "truncated checkpoint was restored"
  fi
  if ! grep -q "checkpoint truncated" resume.err; then
    cat resume.err >&2
    fail "rejection does not say the checkpoint is truncated"
  fi
  ;;
*)
  fail "unknown case"
  ;;
esac
