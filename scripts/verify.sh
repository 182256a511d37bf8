#!/usr/bin/env bash
# verify.sh — the repo's tier-1 gate plus the concurrency checks. Each
# stage is a toolchain command or a Go test run; the script runs no
# experiment of its own.
#
# 1. go build ./...          — everything compiles
# 2. go vet ./...            — stdlib static sanity, hardened flag set
# 2b. gofmt -l .             — every Go file is gofmt-clean; any file
#                              listed fails the stage
# 3. ivnlint report          — only with IVNLINT_REPORT=<path> set: write
#                              `ivnlint -json ./...`, the machine-readable
#                              report CI uploads as a build artifact; its
#                              findings fail the stage too. Without it the
#                              stage is skipped: stage 4's TestRepoIsClean
#                              (internal/lint) runs the same analyzers
#                              over the same tree and fails on any finding,
#                              so a local run lints once
# 4. go test ./...           — unit + golden + determinism + lint fixtures,
#                              the whole-tree lint gate (TestRepoIsClean:
#                              determinism, float comparisons, goroutine
#                              hygiene, discarded errors, physical-unit
#                              consistency, static hot-path alloc-freedom,
#                              and no function that no main, init,
#                              package-level initializer, root-package API
#                              or interface method reaches), and the
#                              end-to-end contracts: every experiment's
#                              goldens and JSON document, the same bytes
#                              at any -parallel, merged shards and daemon
#                              results equal to the CLI's, and the ivnsim
#                              (SIGKILL, -resume, -merge) and ivnsimd
#                              (ready line, SIGTERM drain) commands run as
#                              child processes
# 5. go test -race <pkgs>    — the packages with parallel trial loops and
#                              phasor's shared scan-scratch free list,
#                              under the race detector
# 5a. fuzz                   — 20 s of coverage-guided fuzzing each of
#                              gen2's FuzzBroadcastMatchesPerTagLoop
#                              (command programs through the round-member
#                              broadcaster and its slot calendar against
#                              the per-tag loop), phasor's
#                              FuzzScanMatchesSerial (every scan mode of
#                              both kernel families, Go and AVX, against
#                              the serial reference, bit for bit) and
#                              FuzzBatchMatchesPerTrial (the batched
#                              Monte-Carlo scans, lane kernel included,
#                              against the per-trial scans, bit for bit),
#                              and session's FuzzRunRound (inventory
#                              rounds under faults, recovery and a stub
#                              channel against the round invariants:
#                              the command budget, the slot tally, the
#                              re-ACK bounds, Q's range, traced equal to
#                              untraced). Stage 4 replays the committed
#                              corpora under each package's
#                              testdata/fuzz; a failing input found here
#                              is written there. The phasor runs cap
#                              minimizing a new input at 3 s: a long scan
#                              runs for milliseconds under coverage, and
#                              the default 60 s would spend the whole
#                              window minimizing one input
# 5b. cross-arch kernel      — `GOARCH=arm64 go build -gcflags=-S` of
#                              internal/phasor, internal/rng, internal/gen2
#                              and internal/session must list no fused
#                              multiply-add (FMADDD/FMSUBD/FNMADDD/FNMSUBD:
#                              a fused x*y+z rounds once and would break
#                              the kernels', the normals', the decoders'
#                              and the event channel's bit-identity; this
#                              is a codegen check, nothing here runs arm64
#                              code), and the rng, phasor, core, baseline,
#                              gen2, session, ivnsim, link, reader and lint
#                              tests must pass as GOARCH=386 (runs natively
#                              on amd64 Linux; ivnsim's golden test then
#                              pins the text and CSV goldens on a second
#                              architecture, while its JSON goldens and
#                              output digests stay amd64-only). On 386
#                              phasor has no AVX kernel, so this run is
#                              where every scan, and every output built
#                              on one, goes through the Go kernels
#                              (sumSeries1..4) alone; on amd64 the tests
#                              run both families. The run
#                              sets CGO_ENABLED=0: without a 386 C
#                              toolchain the go command builds 386 with
#                              cgo off anyway, but a 386 test binary's
#                              go/build context turns cgo on, and the lint
#                              loader's type-check of net (imported by
#                              cmd/ivnsimd) then runs `go tool cgo` and
#                              fails. The module has no cgo code
# 6. benchmark self-test     — `(cd _perfbench && go test .)`: every
#                              workload of the repository's benchmark at
#                              its smallest size (outputs checked against
#                              the goldens, exact counts, every metric
#                              named in BENCHMARK.json emitted); its
#                              drivers call link.ChainAmplitude, core.New
#                              and the trial kits directly (≈30 s, no
#                              network)
#
# Stages run fail-fast: the first failing stage stops the script with a
# FAIL banner naming the stage, so CI logs point at the culprit directly.
set -uo pipefail
cd "$(dirname "$0")/.."

stage() {
  local name="$1"
  shift
  echo "== ${name} =="
  if ! "$@"; then
    echo "-- FAIL: ${name} --" >&2
    exit 1
  fi
}

stage "go build" go build ./...

# -unusedresult's default function list misses the fmt.Sprint family when
# the result feeds nothing; keep the default checks and add the stricter
# composite/copylock coverage explicitly so a future vet default change
# cannot silently drop them.
stage "go vet" go vet -copylocks -composites -unusedresult ./...

gofmt_check() {
  local unformatted
  unformatted="$(gofmt -l .)" || return 1
  if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    return 1
  fi
}
stage "gofmt" gofmt_check

ivnlint_report() {
  # TestRepoIsClean in the next stage is the lint gate; this stage only
  # writes the JSON report object (findings, analyzer list, package
  # count) for artifact upload. Its exit status still gates the stage.
  if [ -z "${IVNLINT_REPORT:-}" ]; then
    echo "skipped: IVNLINT_REPORT not set (TestRepoIsClean lints the tree in go test)"
    return 0
  fi
  go run ./cmd/ivnlint -json ./... > "${IVNLINT_REPORT}"
}
stage "ivnlint report" ivnlint_report

stage "go test" go test ./...

stage "go test -race (parallel trial paths)" \
  go test -race . ./internal/engine/ ./internal/ivnsim/ ./internal/phasor/ ./internal/dsp/ \
  ./internal/fault/ ./internal/gen2/ ./internal/session/ ./internal/link/ ./internal/service/

stage "fuzz (Population against the per-tag loop)" \
  go test -run '^$' -fuzz '^FuzzBroadcastMatchesPerTagLoop$' -fuzztime 20s ./internal/gen2/

stage "fuzz (scan kernels against the serial reference)" \
  go test -run '^$' -fuzz '^FuzzScanMatchesSerial$' -fuzztime 20s -fuzzminimizetime 3s ./internal/phasor/

stage "fuzz (batched scans against the per-trial scans)" \
  go test -run '^$' -fuzz '^FuzzBatchMatchesPerTrial$' -fuzztime 20s -fuzzminimizetime 3s ./internal/phasor/

stage "fuzz (inventory rounds against their invariants)" \
  go test -run '^$' -fuzz '^FuzzRunRound$' -fuzztime 20s ./internal/session/

# no_fused_arm64 PKG SYMBOL: the arm64 listing of PKG must name SYMBOL (an
# empty listing would pass the grep below vacuously) and hold no fused
# multiply-add.
no_fused_arm64() {
  local pkg="$1" symbol="$2" asm fused
  asm="$(GOARCH=arm64 go build -gcflags=-S "./internal/$pkg" 2>&1)" || { echo "$asm" >&2; return 1; }
  grep -q "$symbol" <<<"$asm" || { echo "no arm64 listing for internal/$pkg" >&2; return 1; }
  fused="$(grep -E '\b(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\b' <<<"$asm")"
  if [ -n "$fused" ]; then
    echo "fused multiply-add in the arm64 build of internal/$pkg:" >&2
    echo "$fused" >&2
    return 1
  fi
}

cross_arch_kernel() {
  no_fused_arm64 phasor 'phasor\.SumSeries' &&
    no_fused_arm64 rng 'rng\.(\*Rand)\.NormFloat64s' &&
    no_fused_arm64 gen2 'gen2\.MillerDecoder\.DecodePayload' &&
    no_fused_arm64 session 'session\.DecodeProbability' &&
    CGO_ENABLED=0 GOARCH=386 go test ./internal/rng/ ./internal/phasor/ ./internal/core/ ./internal/baseline/ \
      ./internal/gen2/ ./internal/session/ ./internal/ivnsim/ ./internal/link/ ./internal/reader/ ./internal/lint/
}
stage "cross-arch kernel (arm64 codegen, 386 tests)" cross_arch_kernel

perfbench_selftest() {
  (cd _perfbench && go test .)
}
stage "benchmark self-test" perfbench_selftest

echo "verify: OK"
