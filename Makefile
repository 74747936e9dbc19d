# privstm — build/test/benchmark entry points.

GO ?= go

.PHONY: all build test race test-faults test-faults-gv5 explore explore-reclaim explore-tds bench bench-json bench-smoke bench-readpath bench-readpath-smoke bench-clock bench-reclaim bench-tds bench-tds-smoke bench-remote-smoke benchmark-smoke figures privtest run-stmd stress cover clean lint lint-json

all: build test lint

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

# STM-specific static checks (see internal/analysis and CORRECTNESS.md
# "Static checks" / §12): atomic access discipline, metadata accessor
# discipline, transaction-body purity, lock-copy freedom, privatization
# safety (privaccess), wait-loop yield discipline (yieldsite). Runs the
# build-tag matrix: the default file set carries the committed baseline
# and its shrink-only ratchet; the watermark-race set re-lints the
# historical variant the loader used to skip (ratchet off there — a
# default-set baseline entry would read as stale under other tags).
lint:
	$(GO) run ./cmd/stmlint -baseline stmlint.baseline ./...
	$(GO) run ./cmd/stmlint -tags privstm_watermark_race -ratchet=false ./...
	$(GO) run ./cmd/stmlint -tags privstm_reclaim_race -ratchet=false ./...
	$(GO) run ./cmd/stmlint -tags privstm_semlock_race -ratchet=false ./...
	$(GO) run ./cmd/stmlint -tags privstm_semrevalidate_race -ratchet=false ./...

# Machine-readable findings for the CI artifact (default tag set).
lint-json:
	$(GO) run ./cmd/stmlint -json -baseline stmlint.baseline ./... > stmlint.json || true
	@test -s stmlint.json

race:
	$(GO) test -race ./...

# Failpoint-driven fault-injection and liveness suite (CORRECTNESS.md §9):
# stall watchdog, doomed-body sandboxing, serialized escalation, CM
# policies — under the race detector, repeated to shake out interleavings.
test-faults:
	$(GO) test -race -count=3 -run 'Fault|Failpoint|Stall|Watchdog|Serial|CM|Karma' ./...

# The same fault suite under the deferred GV5 clock (the -stm.clock flag
# lives in the root package only; undo-log engines stay pinned to GV1).
test-faults-gv5:
	$(GO) test -race -count=2 -run 'Fault|Failpoint|Stall|Watchdog|Serial|CM|Karma' -stm.clock gv5 .

# Schedule-exploration corpus (CORRECTNESS.md §11): the fixed-seed PCT and
# bounded-DFS corpus over every engine family (serializability and
# privatization-safety oracles; failures print a replayable trace), the
# slot tracker's watermark program enumerated exhaustively on the
# production write path, and the rediscovery control — with the historical
# watermark fix reverted (-tags privstm_watermark_race) the same program
# must FAIL: the explorer finds the race and logs the trace.
explore:
	$(GO) test -count=1 -run 'TestExplore|TestSched|TestWatermark|TestPCT|TestDFS' . ./internal/sched ./internal/txnlist
	$(GO) test -count=1 -tags privstm_watermark_race -run TestWatermarkRaceRediscovered -v ./internal/txnlist

# Reclamation rediscovery pair (CORRECTNESS.md §14): the retire→collect→
# reuse program enumerated exhaustively on the production epoch check, then
# with the check compiled out (-tags privstm_reclaim_race) the explorer
# must FIND the use-after-reclaim and log a replayable trace.
explore-reclaim:
	$(GO) test -count=1 -run TestReclaimExplorationCorpus -v ./internal/reclaim
	$(GO) test -count=1 -tags privstm_reclaim_race -run TestReclaimRaceCaught -v ./internal/reclaim

# Semantic-lock rediscovery pairs (CORRECTNESS.md §15). The abstract-lock
# micro-program's schedule corpus must pass clean on the production stripe
# release, then with the release version bump compiled out
# (-tags privstm_semlock_race) the explorer must FIND a committed torn read
# and log a replayable trace. Likewise the privatizer-versus-Delete/Put
# program must pass clean with the stripe samples re-validated after the
# commit timestamp, and with that re-validation compiled out
# (-tags privstm_semrevalidate_race) the explorer must FIND the mutator
# committing into a chain the privatizer has already detached.
explore-tds:
	$(GO) test -count=1 -run 'TestSemLockExplorationCorpus|TestPrivOvertakeExplorationCorpus' -v ./internal/tds
	$(GO) test -count=1 -tags privstm_semlock_race -run TestSemLockRaceCaught -v ./internal/tds
	$(GO) test -count=1 -tags privstm_semrevalidate_race -run TestPrivOvertakeCaught -v ./internal/tds

# One testing.B benchmark per paper figure, plus the ablations.
bench:
	$(GO) test -bench . -benchmem ./...

# Commit-path baseline for regression checks: the figures most sensitive
# to the oldest-begin tracker and snapshot extension (3e, 3g, t1), as a
# JSON file comparable with `go run ./cmd/stmbench -compare old new`.
bench-json:
	$(GO) run ./cmd/stmbench -fig 3e,3g,t1 -reps 3 -json BENCH_commitpath.json

# Single-iteration pass over the hot-path benchmarks; catches bit-rot
# without paying for a real measurement run (used by CI). The clock-mode
# matrix drives a quick figure pass under each version-clock scheme and the
# Ord commit batcher so none of those paths rot between measurement runs.
bench-smoke:
	$(GO) test -bench . -benchtime 1x ./internal/bench ./internal/txnlist ./internal/sched
	$(GO) run ./cmd/stmbench -fig 3b -threads 1,2 -txns 500 -algos TL2,Ord,Val,pvrHybrid -clock gv5
	$(GO) run ./cmd/stmbench -fig 3b -threads 1,2 -txns 500 -algos TL2,Ord,Val,pvrHybrid -clock local
	$(GO) run ./cmd/stmbench -fig 3b -threads 1,2 -txns 500 -algos Ord -clock gv5 -orderbatch 8

# Clock-scalability baseline: the paired A/B sweep (every deferred-clock
# variant interleaved with a same-seed GV1 run of the same engine) on the
# write-heavy hashtable. Candidates land in BENCH_clock.json (with the
# median-of-pairs deltas embedded), the GV1 sides in
# BENCH_clock_baseline.json.
bench-clock:
	$(GO) run ./cmd/stmbench -clocksweep -threads 1,2,4 -pairs 5 -dur 150ms \
		-json BENCH_clock.json -basejson BENCH_clock_baseline.json

# Reclamation-overhead baseline: the paired A/B sweep (epoch reclaimer
# interleaved with a same-seed legacy-pool run of the same engine) on the
# high-free-rate write-heavy hashtable. Reclaim cells land in
# BENCH_reclaim.json (median-of-pairs deltas embedded), pool sides in
# BENCH_reclaim_baseline.json.
bench-reclaim:
	$(GO) run ./cmd/stmbench -reclaimsweep -threads 1,2,4 -pairs 5 -dur 150ms \
		-json BENCH_reclaim.json -basejson BENCH_reclaim_baseline.json

# Semantic-structure baseline: the paired A/B sweep (internal/tds map+queue
# interleaved with same-seed tlib word-level runs) on the Zipf-skewed mixed
# producer/consumer workload. tds cells land in BENCH_tds.json
# (median-of-pairs deltas and per-structure abort attribution embedded),
# tlib sides in BENCH_tds_baseline.json. The trailing -tdscheck pins the
# acceptance criterion: at 8 threads on the in-place privatization-safe
# engine, the tds map's abort rate is strictly lower than tlib's and
# aggregate throughput at least 1.15x.
bench-tds:
	$(GO) run ./cmd/stmbench -tdssweep -threads 2,8 -txns 50000 -pairs 3 -zipf 0.8 \
		-json BENCH_tds.json -basejson BENCH_tds_baseline.json
	$(GO) run ./cmd/stmbench -tdscheck BENCH_tds.json BENCH_tds_baseline.json

# CI guard for the semantic layer: exercise the sweep path end-to-end at a
# tiny size (no acceptance gate — single short runs on a shared CI host are
# scheduler weather), then hold the committed artifacts to the acceptance
# criterion so a regressed re-measurement cannot land quietly.
bench-tds-smoke:
	$(GO) run ./cmd/stmbench -tdssweep -algos pvrStore -threads 2 -txns 1000 -pairs 1 -zipf 0.8
	$(GO) run ./cmd/stmbench -tdscheck BENCH_tds.json BENCH_tds_baseline.json

# Read-path baseline for regression checks: the figures most sensitive to
# MakeVisible cost (read-mostly hashtable 3a and long-traversal multi-list
# 3g) plus the MakeVisible microbenchmarks, comparable against the
# committed BENCH_readpath_baseline.json.
bench-readpath:
	$(GO) run ./cmd/stmbench -fig 3a,3g -threads 1,2,4,8 -reps 5 -micro -json BENCH_readpath.json

# CI guard: run the read-path micros once (exercises the zero-alloc
# assertions in-process) and compare a quick figure pass against the
# committed baseline with a generous tolerance — catches order-of-magnitude
# regressions, not scheduler noise. 60% leaves headroom over the known
# ~1 ns MakeVisibleCovered delta (EXPERIMENTS.md), which can read as a
# large percentage of a 3 ns benchmark on a slower CI host.
bench-readpath-smoke:
	$(GO) test -bench 'BenchmarkMakeVisible' -benchtime 1x ./internal/bench
	$(GO) run ./cmd/stmbench -fig 3a,3g -threads 1,2 -reps 2 -micro -json /tmp/readpath_ci.json
	$(GO) run ./cmd/stmbench -compare -tolerance 60 BENCH_readpath_baseline.json /tmp/readpath_ci.json

# Regenerate every evaluation figure (CI scale; see EXPERIMENTS.md for
# paper-scale invocations).
figures:
	$(GO) run ./cmd/stmbench -fig all -reps 3 -scale 4

# Serve the transactional KV store on :7077 (SIGINT drains gracefully and
# prints the final server/reclaim stats).
run-stmd:
	$(GO) run ./cmd/stmd -addr :7077

# End-to-end smoke for the network path: stmd on a scratch port with
# four STM threads and a write-set-capped tenant, ~200 connections of Zipf
# traffic from stmbench -remote, then SIGTERM. Asserts nonzero committed
# transactions, quota aborts attributed to the capped tenant, zero
# transport errors, and a clean drain (stmd exits nonzero if any reclaim
# extents stay quarantined).
bench-remote-smoke:
	./scripts/remote_smoke.sh

# The repository benchmark (BENCHMARK.json, benchmark/README.md) is a module
# of its own, so `go test ./...` does not reach it: run its tests, then every
# workload and the layer ladder at tiny counts with all correctness checks.
benchmark-smoke:
	$(GO) test -C benchmark ./...
	$(GO) run -C benchmark . -smoke

privtest:
	$(GO) run ./cmd/privtest -iters 500

stress:
	$(GO) run ./cmd/stmstress -dur 30s

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean -testcache
