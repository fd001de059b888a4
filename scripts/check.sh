#!/usr/bin/env bash
# Repo health gate: the tier-1 acceptance commands plus lint and docs.
#
#   scripts/check.sh            # fmt + build + test + parity + clippy + docs,
#                               # then the CLI and example smokes, the
#                               # battery, serve and reproduce artifact gates and
#                               # the benchmark's tests + traced run
#   scripts/check.sh --fast     # skip the release build (debug test run only)
#                               # and the smokes and gates, which need it
#   scripts/check.sh --quick    # skip the smokes, the artifact gates and the
#                               # benchmark's tests + traced run
#   scripts/check.sh --bench    # also run the benchmark (BENCHMARK.json's
#                               # command, all workloads) and gate it with its
#                               # own `compare` against the records in BENCH.json
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
quick=0
bench=0
for arg in "$@"; do
  case "$arg" in
    --fast) fast=1 ;;
    --quick) quick=1 ;;
    --bench) bench=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

echo "==> cargo fmt --check"
cargo fmt --all -- --check

if [[ $fast -eq 0 ]]; then
  echo "==> cargo build --release"
  cargo build --release
fi

echo "==> cargo test -q"
cargo test -q

# Every other workspace member's own unit and doc tests, the
# `crates/compat` stand-ins included: `cargo test` at the root runs only
# the root package's.
echo "==> cargo test -q --workspace --exclude bnm"
cargo test -q --workspace --exclude bnm

# The tracing layer's tier-1 guarantees, run explicitly so a filtered or
# partial test invocation can't silently skip them: parallel traces must
# be byte-identical to serial, and attribution must close the Δd budget.
echo "==> cargo test -q --test trace_parity"
cargo test -q --test trace_parity

# The impairment subsystem's guarantees: fault rates compose, lossy
# cells exclude retransmitted rounds without breaking the attribution
# closure, and impaired cells stay bit-identical across schedulers.
echo "==> cargo test -q --test impairment"
cargo test -q --test impairment

# The multi-client scenario layer's guarantees: a one-session scenario
# hand-built from the documented seed derivations is byte-identical to
# the runner's repetition, per-session results are keyed by id (not
# insertion order), and contended cells keep the executor's
# serial/parallel bit parity.
echo "==> cargo test -q --test scenario_parity"
cargo test -q --test scenario_parity

# The streaming capture pipeline's guarantees: every repetition the
# runner streams equals the batch reference matcher field for field
# (clean, lossy, duplicating, jittered and noisy-capture networks; 1, 3
# and 8 clients; reliable and datagram methods), bounded retention
# sketches stay within their error bound, and the frame pool's
# per-client high-water mark stays flat.
echo "==> cargo test -q --test streaming_parity"
cargo test -q --test streaming_parity

# The continuous-monitoring layer's guarantees: windowed sketch
# quantiles agree with exact batch quantiles within the documented
# bound, the 1 s and 10 s windows slide exactly at pan boundaries and
# `run_for` equals explicit steps, snapshots are scheduling-independent,
# and a 1,000-round run's pan ring and buckets stay flat.
echo "==> cargo test -q --test monitor_parity"
cargo test -q --test monitor_parity

# The datagram (WebRTC) method's guarantees: per-probe verdicts match
# the wire-truth capture counts exactly, measured loss tracks the
# injected rate instead of excluding rounds, attribution closes the Δd
# budget on delivered probes, and datagram cells keep the executor's
# serial/parallel bit parity.
echo "==> cargo test -q --test webrtc_parity"
cargo test -q --test webrtc_parity

# The link-dynamics layer's guarantees: an all-static shape stays
# bit-identical to the fixed-rate path, the bufferbloat scenario pair
# shows the Δd inflation the AQM variant relieves, CoDel bounds the
# engine-level standing queue, and shaped cells plus the whole scored
# battery keep the executor's serial/parallel bit parity.
echo "==> cargo test -q --test dynamics_parity"
cargo test -q --test dynamics_parity

# The front door: every bad flag exits 2 naming itself, and hex and decimal seeds agree.
echo "==> cargo test -q --test cli"
cargo test -q --test cli

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The benchmark package, outside the workspace; BENCHMARK.json runs it
# through this manifest. It names library items the workspace's own
# builds never check (`Monitor::new`, `LinkDynamics::codel`,
# `FaultSpec::CLEAN`, ...), so every mode compiles it: removing one of
# them fails here, not only in the full run.
bench_manifest=crates/bench/src/bin/benchmark/Cargo.toml
echo "==> cargo check: the benchmark package"
cargo check --offline --manifest-path "$bench_manifest"

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

# Bench-sweep smoke: one tiny contention sweep end to end (run, CSV
# rows). `--quick` skips it, and `--fast` implies it (no release binary
# to run).
if [[ $quick -eq 0 && $fast -eq 0 ]]; then
  echo "==> bench smoke: contend (2 reps, capped at 4 clients)"
  smoke_csv=$(./target/release/bnm contend --clients 4 --reps 2 --format csv)
  rows=$(printf '%s\n' "$smoke_csv" | wc -l)
  if [[ $rows -lt 4 ]]; then
    echo "contend smoke produced $rows rows, expected >= 4" >&2
    exit 1
  fi

  # Serve smoke: a 2 s virtual-time monitored run polled once, with the
  # snapshot JSON spot-checked for the schema's required keys.
  echo "==> serve smoke: 2s monitored run, one JSON snapshot"
  serve_json=$(./target/release/bnm serve --duration 2 --every 2 --format json)
  for key in '"label"' '"windows"' '"p50"' '"rounds"'; do
    if ! printf '%s' "$serve_json" | grep -q "$key"; then
      echo "serve snapshot JSON missing key $key" >&2
      exit 1
    fi
  done

  # Datagram serve smoke: a WebRTC monitor streams its captures like any
  # other method, so its snapshot must carry samples.
  echo "==> serve smoke: 2s WebRTC monitored run, samples present"
  serve_json=$(./target/release/bnm serve --method webrtc --duration 2 --every 2 --format json)
  if ! printf '%s' "$serve_json" | grep -Eq '"samples": *[1-9]'; then
    echo "WebRTC serve snapshot reports no samples" >&2
    exit 1
  fi

  # Lossless crowd serve smoke: at a loss rate that never fires, the
  # server tap of an HTTP crowd is indexed but nothing is retransmitted,
  # so no round may be excluded, even where one session's token is a
  # decimal prefix of another's.
  echo "==> serve smoke: 8-client crowd at loss 1e-12, no excluded rounds"
  serve_json=$(./target/release/bnm serve --clients 8 --loss 1e-12 --rate-mbps 100 \
    --duration 10 --every 10 --format json)
  excluded=$(printf '%s' "$serve_json" | grep -Eo '"excluded_rounds": *[0-9]+' || true)
  if [[ -z "$excluded" ]] || printf '%s\n' "$excluded" | grep -Evq ': *0$'; then
    echo "lossless serve crowd excluded rounds:" $excluded >&2
    exit 1
  fi

  # Battery smoke: the scored suite at quick depth, with the report JSON
  # spot-checked for the schema's required keys and every scenario
  # family present.
  echo "==> battery smoke: quick scored suite, JSON report"
  battery_json=$(./target/release/bnm battery --quick --format json)
  for key in '"battery"' '"scenarios"' '"verdict"' '"score"' '"bufferbloat"' '"bufferbloat-aqm"' '"time-varying"'; do
    if ! printf '%s' "$battery_json" | grep -q "$key"; then
      echo "battery report JSON missing key $key" >&2
      exit 1
    fi
  done

  # Battery artifact gate: the full scored suite must reproduce the
  # committed results/battery.json byte for byte. Its cells cover every
  # roster method under clean, impaired, contended, bufferbloat and
  # time-varying links, so a change that reorders simulation events
  # fails here.
  echo "==> battery gate: full suite equals results/battery.json"
  if ! ./target/release/bnm battery --format json | cmp - results/battery.json; then
    echo "bnm battery --format json differs from results/battery.json" >&2
    exit 1
  fi

  # Serve artifact gate: a 90 s monitored crowd at 250 ms rounds must
  # reproduce the committed results/serve.json byte for byte. Four
  # rounds share each one-second pan, 2% loss gives the counters
  # exclusions, and the 1-min window slides, so a change to how the
  # monitor folds rounds into its windows fails here.
  echo "==> serve gate: 90 s monitored crowd equals results/serve.json"
  if ! ./target/release/bnm serve --clients 16 --loss 0.02 --duration 90 --every 10 \
      --period 250 --format json | cmp - results/serve.json; then
    echo "bnm serve --format json differs from results/serve.json" >&2
    exit 1
  fi

  # Reproduce artifact gate: every experiment at the default reps, in one
  # process, must write the 13 committed results/*.csv byte for byte, as
  # the battery gate does for results/battery.json.
  echo "==> reproduce gate: all 13 artifacts equal results/*.csv"
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' EXIT
  ./target/release/bnm reproduce --results "$tmp" >/dev/null
  for f in table1 table2 fig3_deltas table3 fig4_cdfs fig5_granularity table4 \
           tput sweep appraisals impair contend webrtc; do
    if ! cmp "$tmp/$f.csv" "results/$f.csv"; then
      echo "bnm reproduce wrote $f.csv differently from results/$f.csv" >&2
      exit 1
    fi
  done

  # Example smoke: build every example and run each once with no
  # arguments, from a temp dir so the files they write (pcap_dump's
  # .pcap) stay out of the tree. A non-zero exit fails the gate.
  echo "==> examples: build, then run each once"
  cargo build --release --examples
  mkdir "$tmp/examples"
  examples_bin=$PWD/target/release/examples
  for src in examples/*.rs; do
    name=$(basename "$src" .rs)
    if ! (cd "$tmp/examples" && "$examples_bin/$name" >/dev/null); then
      echo "example $name failed" >&2
      exit 1
    fi
  done

  # The benchmark's replay mirrors the runner's layer calls, and its
  # traced run checks every replayed unit against `run_rep_traced`: a
  # runner change the replay no longer follows fails here. Its own unit
  # tests first, then a 1 s traced run of every workload.
  echo "==> benchmark unit tests"
  cargo test -q --offline --manifest-path "$bench_manifest"
  echo "==> benchmark traced run: all workloads, 1 s, outputs checked"
  traced=$(cargo run --release --quiet --offline --manifest-path "$bench_manifest" -- \
    --workload all --seconds 1 --trace 1)
  if ! printf '%s' "$traced" | grep -q '"correct":true'; then
    echo "traced benchmark run failed its output checks" >&2
    exit 1
  fi
fi

# The bench gate: one untraced run of every workload, its records
# written under target/, then the benchmark's own `compare` against the
# committed records in BENCH.json. A gated metric worse than its bound
# in BENCHMARK.json fails the gate (`compare` exits 1).
if [[ $bench -eq 1 ]]; then
  records=target/bench/records.json
  mkdir -p "$(dirname "$records")"
  echo "==> benchmark: all workloads -> $records"
  cargo run --release --quiet --offline --manifest-path "$bench_manifest" -- --out "$records"
  echo "==> benchmark compare BENCH.json $records"
  if ! cargo run --release --quiet --offline --manifest-path "$bench_manifest" -- \
      compare BENCH.json "$records"; then
    echo "benchmark regression against BENCH.json" >&2
    exit 1
  fi
fi

echo "OK"
