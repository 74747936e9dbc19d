package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"time"

	stm "privstm"
	"privstm/internal/clock"
	"privstm/internal/heap"
	"privstm/internal/logs"
	"privstm/internal/orec"
	"privstm/internal/reclaim"
	"privstm/internal/rng"
	"privstm/internal/server"
	"privstm/internal/txnlist"
)

// The ladder times each layer's public functions directly, on one
// goroutine with nothing contending: what a call costs when only that
// layer is at work. Every rung is a frozen iteration count repeated
// ladderRepeats times, reported as the fast-decile mean. A rung names the
// layer an optimisation would touch; the workloads say whether a user of
// the system would notice.

const ladderRepeats = 9

// sink keeps the compiler from discarding a rung's result.
var sink uint64

type ladder struct {
	smoke bool
	seed  uint64
	out   map[string]float64
}

// time returns the fast-decile nanoseconds per call of fn over iters calls.
func (l *ladder) time(iters int, fn func()) float64 {
	repeats := ladderRepeats
	if l.smoke {
		iters, repeats = max(iters/100, 1), 3
	}
	per := make([]float64, repeats)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		per[r] = float64(time.Since(t0)) / float64(iters)
	}
	return fastMean(per, false)
}

func atomically(th *stm.Thread, body func(*stm.Tx)) {
	// No ladder body cancels, so Atomic has no error to return.
	if err := th.Atomic(body); err != nil {
		panic(err)
	}
}

// runLadder measures every rung and returns the metrics by name.
func runLadder(seed uint64, smoke bool) (map[string]float64, error) {
	l := &ladder{smoke: smoke, seed: seed, out: make(map[string]float64)}
	l.engines()
	l.stm()
	l.substrate()
	l.reclaim()
	if err := l.tds(); err != nil {
		return nil, fmt.Errorf("tds ladder: %w", err)
	}
	if err := l.server(); err != nil {
		return nil, fmt.Errorf("server ladder: %w", err)
	}
	return l.out, nil
}

const ladderWords = 256 // words a load rung reads, each under its own orec

func ladderSTM(alg stm.Algorithm) (*stm.STM, *stm.Thread, stm.Addr) {
	s := stm.MustNew(stm.Config{Algorithm: alg, HeapWords: 1 << 12, OrecCount: 1 << 12, MaxThreads: 2})
	return s, s.MustNewThread(), s.MustAlloc(ladderWords)
}

// engines times the three costs every engine has — an empty transaction, a
// one-store transaction and a first load of a word — for all of
// stm.Algorithms. Seven of the eight serve no workload here; their rungs
// are the only place a change to them shows.
func (l *ladder) engines() {
	for _, alg := range stm.Algorithms {
		_, th, base := ladderSTM(alg)
		empty := func(*stm.Tx) {}
		store1 := func(tx *stm.Tx) { tx.Store(base, 1) }
		load := func(tx *stm.Tx) {
			for i := stm.Addr(0); i < ladderWords; i++ {
				sink += uint64(tx.Load(base + i))
			}
		}
		ro0 := l.time(100_000, func() { atomically(th, empty) })
		p := "engine." + alg.String()
		l.out[p+".atomic_ro0_ns"] = ro0
		l.out[p+".atomic_w1_ns"] = l.time(100_000, func() { atomically(th, store1) })
		l.out[p+".load_ns"] = (l.time(2_000, func() { atomically(th, load) }) - ro0) / ladderWords
		if err := th.Close(); err != nil {
			panic(err)
		}
	}
}

// stm times the rest of the public transaction API on pvrStore, the engine
// all four workloads run on.
func (l *ladder) stm() {
	const p = "engine.pvrStore"
	ro0, w1 := l.out[p+".atomic_ro0_ns"], l.out[p+".atomic_w1_ns"]
	l.out["stm.atomic_ro0_ns"] = ro0
	l.out["stm.atomic_w1_ns"] = w1
	l.out["stm.load_ns"] = l.out[p+".load_ns"]

	s, th, base := ladderSTM(stm.PVRStore)
	const stores = 64
	store := func(tx *stm.Tx) {
		for i := stm.Addr(0); i < stores; i++ {
			tx.Store(base+i, stm.Word(i))
		}
	}
	l.out["stm.store_ns"] = (l.time(20_000, func() { atomically(th, store) }) - w1) / (stores - 1)

	// A re-read of a word the transaction already read is covered by its
	// own earlier visibility update: time four extra passes over the same
	// words and charge the difference to them.
	passes := func(n int) func(*stm.Tx) {
		return func(tx *stm.Tx) {
			for p := 0; p < n; p++ {
				for i := stm.Addr(0); i < ladderWords; i++ {
					sink += uint64(tx.Load(base + i))
				}
			}
		}
	}
	one, five := passes(1), passes(5)
	t1 := l.time(2_000, func() { atomically(th, one) })
	t5 := l.time(2_000, func() { atomically(th, five) })
	l.out["stm.load_again_ns"] = (t5 - t1) / (4 * ladderWords)

	st := stm.NewSemTable(2)
	weak := func(tx *stm.Tx) {
		tx.SemSample(st, 1)
		for i := stm.Addr(0); i < ladderWords; i++ {
			sink += uint64(tx.LoadWeak(base + i))
		}
	}
	l.out["stm.loadweak_ns"] = (l.time(2_000, func() { atomically(th, weak) }) - ro0) / ladderWords

	l.out["stm.thread_new_close_us"] = l.time(20_000, func() {
		if err := s.MustNewThread().Close(); err != nil {
			panic(err)
		}
	}) / 1e3
}

// substrate times the structures the engines are built from.
func (l *ladder) substrate() {
	const batch = 1024
	tab := orec.NewTable(1<<16, 1)
	l.out["orec.for_ns"] = l.time(2_000, func() {
		for a := heap.Addr(0); a < batch; a++ {
			sink += uint64(tab.For(a * 7).Index())
		}
	}) / batch

	var rs logs.ReadSet
	l.out["logs.readset_add_ns"] = l.time(5_000, func() {
		for a := heap.Addr(0); a < 128; a++ {
			rs.Add(tab.For(a), a, 1)
		}
		rs.Reset()
	}) / 128

	var undo logs.Undo
	l.out["logs.undo_add_ns"] = l.time(20_000, func() {
		for a := heap.Addr(0); a < 64; a++ {
			undo.Add(a, 1)
		}
		undo.Reset()
	}) / 64

	var redo logs.Redo
	l.out["logs.redo_put_get_ns"] = l.time(10_000, func() {
		for a := heap.Addr(0); a < 32; a++ {
			redo.Put(a, 1)
		}
		for a := heap.Addr(0); a < 32; a++ {
			w, _ := redo.Get(a)
			sink += uint64(w)
		}
		redo.Reset()
	}) / 32

	var clk clock.Clock
	l.out["clock.tick_ns"] = l.time(1_000, func() {
		for i := 0; i < batch; i++ {
			sink += clk.Tick()
		}
	}) / batch

	slots := txnlist.NewSlots(numWorkers)
	l.out["txnlist.enter_leave_ns"] = l.time(600, func() {
		for i := 0; i < batch; i++ {
			sink += slots.Enter(0, &clk)
			slots.Leave(0)
		}
	}) / batch
	slots.Enter(1, &clk)
	l.out["txnlist.oldest_ns"] = l.time(2_000, func() {
		for i := 0; i < batch; i++ {
			ts, _ := slots.OldestBegin()
			sink += ts
		}
	}) / batch

	// Alloc from the free list and Free again: the pair a recycled node
	// pays below the reclaimer.
	h := heap.New(1 << 12)
	l.out["heap.alloc_ns"] = l.time(128, func() {
		for i := 0; i < batch; i++ {
			a, err := h.Alloc(2)
			if err != nil {
				panic(err)
			}
			h.Free(a, 2)
		}
	}) / batch

	// The load generator's own cost per key: should move nothing.
	z := rng.NewZipf(rng.New(l.seed), serveKeys, serveTheta)
	l.out["rng.zipf_next_ns"] = l.time(100, func() {
		for i := 0; i < batch; i++ {
			sink += z.Next()
		}
	}) / batch

	l.out["run.timer_overhead_ns"] = l.time(100, func() {
		for i := 0; i < batch; i++ {
			sink += uint64(time.Since(time.Now()))
		}
	}) / batch
}

func (l *ladder) reclaim() {
	_, th, _ := ladderSTM(stm.PVRStore)
	// The steady-state node cycle through a thread's private front.
	l.out["reclaim.retire_alloc_ns"] = l.time(500_000, func() {
		th.Retire(th.MustAlloc(2), 2)
	})

	// The shared path: retire into the locked shard, collect, and return
	// the cleared extents to the heap, per extent.
	const extents = 64
	h := heap.New(1 << 12)
	idle := func() (uint64, bool) { return 0, false }
	r := reclaim.New(h, idle, reclaim.Config{Threads: 1, CollectEvery: 1 << 30})
	l.out["reclaim.collect_ns"] = l.time(10_000, func() {
		for i := 0; i < extents; i++ {
			a, err := h.Alloc(2)
			if err != nil {
				panic(err)
			}
			r.Retire(0, a, 2, 1)
		}
		sink += r.Drain()
	}) / extents
}

// tds times the semantic map at the kv_privatize workload's shape. The
// three spans inside a privatization are recorded the way the workload
// records them, so on workloads without a map of their own these are the
// uncontended figures for the same names.
func (l *ladder) tds() error {
	load := &kvLoad{}
	ws, err := load.setup(l.seed, 1)
	if err != nil {
		return err
	}
	w := ws[0].(*kvWorker)
	const nkeys = 4096
	keys := make([]stm.Word, nkeys)
	for i := range keys {
		keys[i] = stm.Word(scatter(w.z.Next(), kvKeys))
	}
	i := 0
	l.out["tds.get_ns"] = l.time(100_000, func() {
		w.k = keys[i&(nkeys-1)]
		i++
		atomically(w.th, w.getFn)
		sink += uint64(w.v)
	})

	// Insert, then delete, a run of keys the preload never holds: every
	// Put links a node and every Delete unlinks one.
	repeats, n := ladderRepeats, nkeys
	if l.smoke {
		repeats, n = 3, 64
	}
	put, del := make([]float64, repeats), make([]float64, repeats)
	snap, walk, retire := make([]float64, repeats), make([]float64, repeats), make([]float64, repeats)
	for r := 0; r < repeats; r++ {
		t0 := time.Now()
		for k := 0; k < n; k++ {
			w.k, w.v = stm.Word(kvKeys+k), 1
			atomically(w.th, w.putFn)
		}
		t1 := time.Now()
		for k := 0; k < n; k++ {
			w.k = stm.Word(kvKeys + k)
			atomically(w.th, w.delFn)
		}
		t2 := time.Now()
		put[r] = float64(t1.Sub(t0)) / float64(n)
		del[r] = float64(t2.Sub(t1)) / float64(n)

		// Privatize a quarter of the buckets under a span recorder, then
		// put the keys back so every repeat walks chains of equal length.
		sp := newSpans(t2, 3*kvBuckets/4)
		var taken []stm.Word
		nodes := 0
		for b := 0; b < kvBuckets/4; b++ {
			got, ok := privatizeBucket(load.m, w.th, sp, b, func(k, v stm.Word) bool {
				taken = append(taken, k)
				return uint64(v) == valueOf(uint64(k))
			})
			if !ok {
				return fmt.Errorf("private walk of bucket %d failed its checks", b)
			}
			nodes += got
		}
		for _, k := range taken {
			w.k, w.v = k, stm.Word(valueOf(uint64(k)))
			atomically(w.th, w.putFn)
		}
		snap[r], walk[r], retire[r] = privSpanMetrics(aggregateSpans(sp.buf), nodes)
	}
	l.out["tds.put_ns"] = fastMean(put, false)
	l.out["tds.delete_ns"] = fastMean(del, false)
	l.out["tds.snapshot_us"] = fastMean(snap, false)
	l.out["tds.walk_ns_per_node"] = fastMean(walk, false)
	l.out["tds.retire_us"] = fastMean(retire, false)
	if failures, _ := load.finish(); len(failures) > 0 {
		return fmt.Errorf("%d checks failed, first: %s", len(failures), failures[0])
	}
	return nil
}

// privSpanMetrics reduces the spans inside privatizations to the three
// tds.* figures: mean microseconds per snapshot and per retire, and walk
// nanoseconds per node visited.
func privSpanMetrics(agg map[string]spanTotals, nodes int) (snapshotUs, walkNsPerNode, retireUs float64) {
	mean := func(name spanName) float64 {
		a := agg[spanNames[name]]
		if a.Count == 0 {
			return 0
		}
		return float64(a.SelfNs) / float64(a.Count)
	}
	if nodes > 0 {
		walkNsPerNode = float64(agg[spanNames[spanWalk]].SelfNs) / float64(nodes)
	}
	return mean(spanSnapshot) / 1e3, walkNsPerNode, mean(spanRetire) / 1e3
}

// server times the wire format on in-memory buffers, then one request on
// one connection against the same-size frame through a bare TCP echo: the
// echo is the part of a request no change to the server can remove, and
// the difference is the server's own.
func (l *ladder) server() error {
	var payload []byte
	var buf bytes.Buffer
	l.out["server.frame_encode_ns"] = l.time(200_000, func() {
		payload = append(payload[:0], server.OpGet)
		payload = server.AppendU64(payload, serveBatch)
		for k := uint64(0); k < serveBatch; k++ {
			payload = server.AppendU64(payload, k)
		}
		buf.Reset()
		if err := server.WriteFrame(&buf, payload); err != nil {
			panic(err)
		}
	})
	frame := bytes.Clone(buf.Bytes())
	rd := bytes.NewReader(frame)
	l.out["server.frame_decode_ns"] = l.time(200_000, func() {
		rd.Reset(frame)
		p, err := server.ReadFrame(rd)
		if err != nil {
			panic(err)
		}
		sink += uint64(len(p))
	})

	srv, err := server.New(server.WithWorkers(numWorkers))
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	c, _, err := server.Dial(ln.Addr().String(), "ladder")
	if err != nil {
		return err
	}
	var rttErr error
	key := []uint64{1}
	rtt := l.time(1_000, func() {
		if _, _, st, err := c.Get(key); err != nil || st != server.StatusOK {
			rttErr = fmt.Errorf("GET: status %d, err %v", st, err)
		}
	})
	if err := c.Close(); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-served; err != nil {
		return err
	}
	if rttErr != nil {
		return rttErr
	}

	echo, err := echoRTT(l, 4+1+8+8) // a one-key GET frame
	if err != nil {
		return err
	}
	l.out["server.rtt_get1_us"] = rtt / 1e3
	l.out["server.loopback_echo_us"] = echo / 1e3
	l.out["server.overhead_us"] = (rtt - echo) / 1e3
	return nil
}

// echoRTT times a size-byte message to a goroutine that writes back what
// it reads, one read and one write per side per trip.
func echoRTT(l *ladder, size int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	echoed := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer conn.Close()
		buf := make([]byte, size)
		for {
			n, err := conn.Read(buf)
			if err == io.EOF { // the client is done
				echoed <- nil
				return
			}
			if err == nil {
				_, err = conn.Write(buf[:n])
			}
			if err != nil {
				echoed <- err
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	msg := make([]byte, size)
	var ioErr error
	ns := l.time(1_000, func() {
		if _, err := conn.Write(msg); err != nil {
			ioErr = err
		}
		if _, err := io.ReadFull(conn, msg); err != nil {
			ioErr = err
		}
	})
	if err := conn.Close(); err != nil {
		return 0, err
	}
	if err := <-echoed; err != nil {
		return 0, err
	}
	return ns, ioErr
}
