#!/bin/sh
# Exit-code contract of the command-line tools: a zero sample count (no
# Monte-Carlo simulations, no sketch snapshots) is invalid input and exits
# 2 (InvalidArgument) — never an abort, never a silent 0/0 estimate.
#
# Usage: cli_exit_codes.sh <holim_cli> <holimd_cli>   (registered in ctest)
holim_cli="$1"
holimd_cli="$2"
status=0

expect_exit() {
  want="$1"
  shift
  "$@" >/dev/null 2>&1 </dev/null
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: exit $got, want $want: $*"
    status=1
  fi
}

small="--scale=0.005 --k=2"
expect_exit 2 "$holim_cli" --algo=celf --oracle=sketch --mc=0 $small
expect_exit 2 "$holim_cli" --algo=easyim --oracle=sketch --sketches=0 --mc=0 $small
expect_exit 2 "$holim_cli" --algo=celf --mc=0 $small
expect_exit 2 "$holimd_cli" --sketches=0
expect_exit 0 "$holim_cli" --algo=celf --oracle=sketch --sketches=8 --mc=8 $small
exit $status
