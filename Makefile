# privstm — build/test/benchmark entry points.

GO ?= go

.PHONY: all build test race test-faults inline-check explore explore-reclaim explore-tds bench bench-smoke bench-remote-smoke benchmark-smoke figures examples run-stmd cover clean lint lint-json

all: build test lint

build:
	$(GO) build ./...
	$(GO) vet ./...

# The benchmark module (benchmark/) is a module of its own, so `./...` never
# compiles it: build and vet it here too, so a change to an identifier it
# uses fails in the ordinary test run rather than only in benchmark-smoke.
# (-o /dev/null: the module is one main package, and a plain build would
# leave its binary in benchmark/.)
test:
	$(GO) test ./...
	$(GO) build -C benchmark -o /dev/null ./...
	$(GO) vet -C benchmark ./...

# STM-specific static checks (see internal/analysis and CORRECTNESS.md
# "Static checks" / §12): atomic access discipline, transaction-body
# purity, privatization safety (privaccess), wait-loop yield discipline
# (yieldsite). Runs the build-tag matrix: the default file set carries the
# committed baseline and its shrink-only ratchet; each *_race set re-lints
# its tagged variant (ratchet off there — a default-set baseline entry
# would read as stale under other tags). Copying orecs, spin mutexes or
# other atomic-bearing metadata by value is go vet's copylocks check, run
# on every cell too.
lint:
	$(GO) run ./cmd/stmlint -baseline stmlint.baseline ./...
	$(GO) vet -copylocks ./...
	$(GO) run ./cmd/stmlint -tags privstm_watermark_race -ratchet=false ./...
	$(GO) vet -copylocks -tags privstm_watermark_race ./...
	$(GO) run ./cmd/stmlint -tags privstm_reclaim_race -ratchet=false ./...
	$(GO) vet -copylocks -tags privstm_reclaim_race ./...
	$(GO) run ./cmd/stmlint -tags privstm_semlock_race -ratchet=false ./...
	$(GO) vet -copylocks -tags privstm_semlock_race ./...
	$(GO) run ./cmd/stmlint -tags privstm_semrevalidate_race -ratchet=false ./...
	$(GO) vet -copylocks -tags privstm_semrevalidate_race ./...
	$(GO) run ./cmd/stmlint -tags privstm_storevis_race -ratchet=false ./...
	$(GO) vet -copylocks -tags privstm_storevis_race ./...
	$(GO) run ./cmd/stmlint -tags privstm_undoaba_race -ratchet=false ./...
	$(GO) vet -copylocks -tags privstm_undoaba_race ./...

# Machine-readable findings for the CI artifact (default tag set).
lint-json:
	$(GO) run ./cmd/stmlint -json -baseline stmlint.baseline ./... > stmlint.json || true
	@test -s stmlint.json

race:
	$(GO) test -race ./...

# Failpoint-driven fault-injection and liveness suite (CORRECTNESS.md §9):
# stall watchdog, doomed-body sandboxing, serialized escalation, the
# contention-management wait — under the race detector, repeated to shake
# out interleavings.
test-faults:
	$(GO) test -race -count=3 -run 'Fault|Failpoint|Stall|Watchdog|Serial|CM' ./...

# The read path's mechanism (EXPERIMENTS.md "Call-free visible reads"):
# the read log's Add is a plain append that the compiler inlines into the
# engines' read path. And the privatized walk's: stm.Private's Load and
# Follow inline into internal/tds's chain walk (kv_privatize's), so an
# uninstrumented access keeps plain-load cost. And the dense orec layout's
# accessors (DESIGN.md §4.1): Table.For and Table.Grace inline into
# internal/core, and Orec.Index, the publication log's key, inlines into
# internal/logs (core has no call of its own to Index). Fails, naming the
# lost decision, when an edit undoes one.
inline-check:
	@$(GO) build -gcflags=-m ./internal/logs 2>&1 | grep -q 'can inline (\*ReadSet).Add' \
		|| { echo 'inline-check: internal/logs: (*ReadSet).Add no longer inlines'; exit 1; }
	@$(GO) build -gcflags=-m ./internal/core 2>&1 | grep -q 'inlining call to logs.(\*ReadSet).Add' \
		|| { echo 'inline-check: internal/core: no call to logs.(*ReadSet).Add is inlined'; exit 1; }
	@for m in Load Follow; do \
		$(GO) build -gcflags=-m ./internal/tds 2>&1 | grep -q "inlining call to stm.Private.$$m" \
			|| { echo "inline-check: internal/tds: no call to stm.Private.$$m is inlined"; exit 1; }; \
	done
	@for m in For Grace; do \
		$(GO) build -gcflags=-m ./internal/core 2>&1 | grep -q "inlining call to orec.(\*Table).$$m" \
			|| { echo "inline-check: internal/core: no call to orec.(*Table).$$m is inlined"; exit 1; }; \
	done
	@$(GO) build -gcflags=-m ./internal/orec 2>&1 | grep -q 'can inline (\*Orec).Index' \
		|| { echo 'inline-check: internal/orec: (*Orec).Index no longer inlines'; exit 1; }
	@$(GO) build -gcflags=-m ./internal/logs 2>&1 | grep -q 'inlining call to orec.(\*Orec).Index' \
		|| { echo 'inline-check: internal/logs: no call to orec.(*Orec).Index is inlined'; exit 1; }
	@echo 'inline-check: ok'

# Schedule-exploration corpus (CORRECTNESS.md §11): the fixed-seed PCT and
# bounded-DFS corpus over every engine family (serializability and
# privatization-safety oracles; failures print a replayable trace), the
# store-cover program (storeCoverProgram: clean on every visible engine),
# the slot tracker's watermark program enumerated exhaustively on the
# production write path, the aborted-write read of CORRECTNESS.md §2 (a
# hand-placed schedule, the rmw corpus on the undo engines, a stress), and
# three rediscovery controls that must FAIL, the explorer finding the race
# and logging the trace: the watermark program with the historical fix
# reverted (-tags privstm_watermark_race), the store-cover program with the
# closed §III-B store-protocol hole of CORRECTNESS.md §4 restored (-tags
# privstm_storevis_race), and an abort that restores the exact
# pre-acquisition owner word (-tags privstm_undoaba_race; its stress runs
# under the race detector, which widens the window it needs).
explore:
	$(GO) test -count=1 -run 'TestExplore|TestStoreCover|TestSched|TestWatermark|TestPCT|TestDFS|TestUndoABA|TestAbortedWrite' . ./internal/sched ./internal/txnlist
	$(GO) test -count=1 -tags privstm_watermark_race -run TestWatermarkRaceRediscovered -v ./internal/txnlist
	$(GO) test -count=1 -tags privstm_storevis_race -run TestExploreFindsStoreProtocolCoverageLoss -v .
	$(GO) test -count=1 -race -tags privstm_undoaba_race -run 'TestUndoABAScheduleFindsHole|TestExploreFindsUndoABA|TestAbortedWriteStressFindsHole' -v .

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

# Single-iteration pass over every package's benchmarks; catches bit-rot
# without paying for a real measurement run (used by CI).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

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

# Run every example; each prints its audit and exits nonzero when the
# audit disagrees (a lost transfer, a torn privatized sum, a job claimed
# twice, ...).
examples:
	@set -e; for e in bank histogram pipeline privatization quickstart scheduler; do \
		echo "== examples/$$e"; $(GO) run ./examples/$$e; \
	done

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean -testcache
