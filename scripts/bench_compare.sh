#!/usr/bin/env bash
# Regression gate for the machine-readable bench reports.
#
#   scripts/bench_compare.sh            # compare working-tree BENCH_*.json
#                                       # against the committed baselines
#
# Fails (exit 1) when the fresh numbers regress by more than the
# tolerance (default 20%, override with BNM_BENCH_TOLERANCE_PCT) against
# the baselines committed at HEAD:
#
#   BENCH_engine.json    wheel events/sec must not drop, peak RSS must
#                        not grow
#   BENCH_serve.json     monitor rounds/sec must not drop, snapshot
#                        latency must not grow
#   BENCH_webrtc.json    datagram reps/sec must not drop, peak RSS must
#                        not grow
#   BENCH_battery.json   scored entries/sec must not drop, peak RSS
#                        must not grow
#
# A report missing from HEAD is skipped with a note (first commit of a
# new bench has no baseline yet); a report missing from the working tree
# is an error (run `scripts/check.sh --bench` first).
set -euo pipefail
cd "$(dirname "$0")/.."

tol="${BNM_BENCH_TOLERANCE_PCT:-20}"
fail=0

# json_num FILE KEY NTH — the NTH numeric value of "KEY": N in FILE
# (files are flat enough that position disambiguates the section: the
# engine report's first events_per_sec is the timer wheel's).
json_num() {
  grep -o "\"$2\": *[0-9.]*" "$1" | sed -n "$3{s/.*: *//;p}"
}

baseline_of() {
  git show "HEAD:$1" 2>/dev/null
}

# check LABEL BASE FRESH DIRECTION — DIRECTION is 'min' (fresh must not
# drop below BASE by more than tol%) or 'max' (must not exceed).
check() {
  local label="$1" base="$2" fresh="$3" dir="$4"
  if [[ -z "$base" || -z "$fresh" ]]; then
    echo "!! $label: missing value (base='$base' fresh='$fresh')" >&2
    fail=1
    return
  fi
  local ok
  if [[ "$dir" == min ]]; then
    ok=$(awk -v b="$base" -v f="$fresh" -v t="$tol" \
      'BEGIN { print (f >= b * (1 - t / 100)) ? 1 : 0 }')
  else
    ok=$(awk -v b="$base" -v f="$fresh" -v t="$tol" \
      'BEGIN { print (f <= b * (1 + t / 100)) ? 1 : 0 }')
  fi
  if [[ "$ok" == 1 ]]; then
    printf '   %-40s %12s -> %-12s ok\n' "$label" "$base" "$fresh"
  else
    printf '!! %-40s %12s -> %-12s REGRESSION (>%s%%)\n' \
      "$label" "$base" "$fresh" "$tol" >&2
    fail=1
  fi
}

compare_engine() {
  local file=BENCH_engine.json
  if [[ ! -f $file ]]; then
    echo "!! $file not in working tree; run scripts/check.sh --bench" >&2
    fail=1
    return
  fi
  local base
  if ! base=$(baseline_of $file); then
    echo "-- $file: no committed baseline, skipping"
    return
  fi
  local tmp
  tmp=$(mktemp)
  printf '%s\n' "$base" >"$tmp"
  check "engine: wheel events/sec" \
    "$(json_num "$tmp" events_per_sec 1)" "$(json_num $file events_per_sec 1)" min
  check "engine: peak RSS KiB" \
    "$(json_num "$tmp" peak_rss_kib 1)" "$(json_num $file peak_rss_kib 1)" max
  rm -f "$tmp"
}

compare_serve() {
  local file=BENCH_serve.json
  if [[ ! -f $file ]]; then
    echo "!! $file not in working tree; run scripts/check.sh --bench" >&2
    fail=1
    return
  fi
  local base
  if ! base=$(baseline_of $file); then
    echo "-- $file: no committed baseline, skipping"
    return
  fi
  local tmp
  tmp=$(mktemp)
  printf '%s\n' "$base" >"$tmp"
  check "serve: monitor rounds/sec" \
    "$(json_num "$tmp" rounds_per_sec 1)" "$(json_num $file rounds_per_sec 1)" min
  check "serve: snapshot ms" \
    "$(json_num "$tmp" snapshot_ms 1)" "$(json_num $file snapshot_ms 1)" max
  rm -f "$tmp"
}

compare_webrtc() {
  local file=BENCH_webrtc.json
  if [[ ! -f $file ]]; then
    echo "!! $file not in working tree; run scripts/check.sh --bench" >&2
    fail=1
    return
  fi
  local base
  if ! base=$(baseline_of $file); then
    echo "-- $file: no committed baseline, skipping"
    return
  fi
  local tmp
  tmp=$(mktemp)
  printf '%s\n' "$base" >"$tmp"
  check "webrtc: datagram reps/sec" \
    "$(json_num "$tmp" reps_per_sec 1)" "$(json_num $file reps_per_sec 1)" min
  check "webrtc: peak RSS KiB" \
    "$(json_num "$tmp" peak_rss_kib 1)" "$(json_num $file peak_rss_kib 1)" max
  rm -f "$tmp"
}

compare_battery() {
  local file=BENCH_battery.json
  if [[ ! -f $file ]]; then
    echo "!! $file not in working tree; run scripts/check.sh --bench" >&2
    fail=1
    return
  fi
  local base
  if ! base=$(baseline_of $file); then
    echo "-- $file: no committed baseline, skipping"
    return
  fi
  local tmp
  tmp=$(mktemp)
  printf '%s\n' "$base" >"$tmp"
  check "battery: scored entries/sec" \
    "$(json_num "$tmp" entries_per_sec 1)" "$(json_num $file entries_per_sec 1)" min
  check "battery: peak RSS KiB" \
    "$(json_num "$tmp" peak_rss_kib 1)" "$(json_num $file peak_rss_kib 1)" max
  rm -f "$tmp"
}

echo "bench regression gate (tolerance ${tol}%)"
compare_engine
compare_serve
compare_webrtc
compare_battery

if [[ $fail -ne 0 ]]; then
  echo "bench_compare: REGRESSION detected" >&2
  exit 1
fi
echo "bench_compare: OK"
