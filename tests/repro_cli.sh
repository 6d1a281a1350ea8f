#!/bin/sh
# Command-line contract of bench_repro, the figure driver:
#  - a flag the chosen figure does not read (an optional one, or one of
#    the common --mc/--max_k/--seed), and a missing or unknown --figure,
#    exit 2 (InvalidArgument) and say why;
#  - --figure=<id> --help prints that figure's own default --scale;
#  - a tiny run exits 0 and writes a non-empty results/<id>.csv.
#
# Usage: repro_cli.sh <bench_repro>   (registered in ctest)
repro="$1"
status=0
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1

# expect <exit> <pattern in stdout+stderr> <args...>
expect() {
  want="$1"
  pattern="$2"
  shift 2
  out="$("$repro" "$@" 2>&1 </dev/null)"
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: exit $got, want $want: $*"
    status=1
  fi
  if ! printf '%s\n' "$out" | grep -q -- "$pattern"; then
    echo "FAIL: output lacks '$pattern': $*"
    status=1
  fi
}

expect 2 "figure fig5e_lambda" --figure=fig5e_lambda --oracle=sketch
expect 2 "figure fig6j_memory_overhead" --figure=fig6j_memory_overhead --mc=5
expect 2 "figure fig6j_memory_overhead" \
  --figure=fig6j_memory_overhead --max_k=3
expect 2 "figure fig6j_memory_overhead" --figure=fig6j_memory_overhead --seed=9
expect 2 "unknown flag: --max_k" --figure=fig5a_twitter_groundtruth --max_k=3
expect 2 "unknown flag: --mc" --figure=table2_datasets --mc=5
expect 0 "--seed: global RNG seed" --figure=table2_datasets --help
expect 2 "fig7j_large_memory" --figure=no_such_figure
expect 2 "table3_easyim_vs_tim" --scale=0.01
expect 0 "fig2_model_comparison" --help
expect 0 "(default 0.002)" --figure=fig7j_large_memory --help
expect 0 "(default 0.2; capped at 0.05 on panel 7f)" \
  --figure=fig7fg_osim_time_large --help
expect 0 "lambda=1 >= lambda=0" \
  --figure=fig5e_lambda --scale=0.005 --mc=10 --max_k=8
if [ ! -s results/fig5e_lambda.csv ]; then
  echo "FAIL: results/fig5e_lambda.csv missing or empty"
  status=1
fi
exit $status
