package stm

import (
	"sync"
	"testing"

	"privstm/internal/serial"
)

// serializabilityRun records concurrent read-modify-write histories through
// the public API and feeds them to the offline conflict-serializability
// checker (internal/serial) — an end-to-end verification of the engine's
// isolation that trusts nothing inside the runtime. Every transaction reads
// then overwrites 1–3 registers with values unique to the attempt, so a
// committed read of an aborted attempt's write names a value no committed
// transaction wrote; the checker reconstructs version orders from the
// history alone and rejects that, and any precedence cycle.
func serializabilityRun(t *testing.T, s *STM, threads, txns, registers int) {
	t.Helper()
	base := s.MustAlloc(registers)
	var mu sync.Mutex
	hist := &serial.History{}
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		th := s.MustNewThread()
		tid := uint64(w + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := tid * 0x9e3779b97f4a7c15
			local := make([]serial.Txn, 0, txns)
			attempt := uint64(0)
			for i := 0; i < txns; i++ {
				// Unique value per (thread, attempt, register-slot).
				mk := func(slot int) uint64 {
					return tid<<48 | attempt<<8 | uint64(slot)
				}
				x = x*6364136223846793005 + 1442695040888963407
				nops := 1 + int(x>>61)%3
				var rec serial.Txn
				err := th.Atomic(func(tx *Tx) {
					attempt++
					rec = serial.Txn{ID: int(tid)<<32 | i}
					y := x
					seen := map[Addr]bool{}
					for k := 0; k < nops; k++ {
						y = y*6364136223846793005 + 1442695040888963407
						a := base + Addr(y>>33)%Addr(registers)
						if seen[a] {
							continue
						}
						seen[a] = true
						v := tx.Load(a)
						rec.Reads = append(rec.Reads, serial.Op{Addr: uint64(a), Val: uint64(v)})
						if k%2 == 0 { // half the accessed registers get overwritten
							nv := mk(k)
							tx.Store(a, Word(nv))
							rec.Writes = append(rec.Writes, serial.Op{Addr: uint64(a), Val: nv})
						}
					}
				})
				if err == nil {
					local = append(local, rec)
				}
			}
			mu.Lock()
			hist.Txns = append(hist.Txns, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	hist.SortByID()
	if err := serial.Check(hist); err != nil {
		t.Errorf("%v: history of %d txns not serializable: %v", s.Algorithm(), len(hist.Txns), err)
	}
	if len(hist.Txns) != threads*txns {
		t.Errorf("committed %d txns, want %d", len(hist.Txns), threads*txns)
	}
}

// TestSerializabilityAllEngines runs the offline checker over every engine
// under the default (GV1) clock.
func TestSerializabilityAllEngines(t *testing.T) {
	forEachAlgorithm(t, func(t *testing.T, alg Algorithm) {
		serializabilityRun(t, newSTM(t, alg), 4, 400, 8)
	})
}
