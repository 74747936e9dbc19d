package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"time"

	stm "privstm"
	"privstm/internal/bench"
	"privstm/internal/reclaim"
	"privstm/internal/rng"
	"privstm/internal/server"
	"privstm/internal/stats"
	"privstm/internal/tds"
)

// class is what an operation does to the shared structure: read it, write
// it, or privatize part of it (detach nodes and hand them to code that
// touches them without instrumentation — the reclaimer or a private walk).
type class uint8

const (
	classRead class = iota
	classWrite
	classPriv
	numClasses
)

var classNames = [numClasses]string{"read", "write", "priv"}

// worker is one closed-loop client: it issues its next operation only when
// the previous one has returned.
type worker interface {
	// op runs one operation of class c — the driver draws the class, the
	// worker the keys and, where a class has several, the operation — and
	// reports whether every check on its result passed. sp is non-nil when
	// the operation is traced.
	op(c class, sp *spans) bool
	// thread is the STM thread the worker drives, nil when the STM sits
	// behind a layer that does not expose it.
	thread() *stm.Thread
}

// layerCounters are the counters the system's public functions expose.
// Fields a workload cannot see stay zero.
type layerCounters struct {
	stm          stats.Counters
	reclaim      reclaim.Stats
	committed    uint64 // server: committed transactions
	privatizeOps uint64 // server: SNAPSHOT requests served
}

// workload is one of the four systems under test. Everything runs on
// pvrStore, the engine stmd serves with and the paper's best performer.
type workload interface {
	// setup builds the system, preloads it from seed and returns its
	// workers.
	setup(seed uint64, workers int) ([]worker, error)
	// counters may be called only while no worker is inside op.
	counters() layerCounters
	// finish checks the final state against what the workers did and
	// tears the system down; each returned string is one failed check.
	// extra holds counters only this workload has.
	finish() (failures []string, extra map[string]float64)
}

// workloadSpec freezes a workload's size. The counts were sized once, at
// the commit that added the benchmark, so that a slice takes about a
// quarter of a second; they must not follow the code's speed, or a faster
// build would measure more work.
type workloadSpec struct {
	name string
	// sliceOps is the operation count of one timed slice, over all
	// workers, at refSeconds; warmOps is the untimed warm-up that ends
	// set-up.
	sliceOps, warmOps int
	// mix is the share of each class, percent.
	mix [numClasses]int
	// sampleEvery is, per class, the stride of timed operations (a power
	// of two). Operations of a third of a microsecond are timed 1 in 16,
	// so the timer costs throughput under a percent; slow or rare ones
	// are all timed, so every slice has samples enough for an exact
	// median that repeats.
	sampleEvery [numClasses]int
	build       func() workload
}

const (
	refSeconds = 22 // BENCHMARK.json run_seconds
	// A run is one discarded settling stretch of settleSlices slices'
	// length, then timedSlices timed slices: 88 quarter-seconds in all.
	// Interference on a shared host comes in bursts of tens to hundreds of
	// milliseconds; a slice is clean only if no burst hits it, so slices
	// are kept as short as the slowest periodic work inside a workload
	// allows, and there are many of them.
	timedSlices  = 80
	settleSlices = 8
	// A traced run has fewer slices, half of them traced, and spends the
	// rest of its time on the ladder.
	tracedRunSlices = 48
	numWorkers      = 2
)

var workloadSpecs = []workloadSpec{
	// The paper's hashtable under its 40/40/20 insert/delete/lookup mix.
	{name: "set_write", sliceOps: 860_000, warmOps: 1_000_000,
		mix: [numClasses]int{20, 40, 40}, sampleEvery: [numClasses]int{16, 16, 16},
		build: func() workload { return &benchLoad{spec: bench.Hashtable(64, 256)} }},
	// The paper's large multi-list under its 10/10/80 mix.
	{name: "list_read", sliceOps: 36_000, warmOps: 40_000,
		mix: [numClasses]int{80, 10, 10}, sampleEvery: [numClasses]int{1, 1, 1},
		build: func() workload { return &benchLoad{spec: bench.MultiList(64, 512)} }},
	{name: "kv_privatize", sliceOps: 640_000, warmOps: 400_000,
		mix: [numClasses]int{60, 38, 2}, sampleEvery: [numClasses]int{16, 16, 1},
		build: func() workload { return &kvLoad{} }},
	{name: "serve_mixed", sliceOps: 13_600, warmOps: 20_000,
		mix: [numClasses]int{70, 29, 1}, sampleEvery: [numClasses]int{1, 1, 1},
		build: func() workload { return &serveLoad{} }},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, s := range workloadSpecs {
		if s.name == name {
			return s, true
		}
	}
	return workloadSpec{}, false
}

// valueOf is the only value ever stored under key k, so any value read
// back — transactionally, over the wire or from a private walk — can be
// checked without a model of the interleaving.
func valueOf(k uint64) uint64 { return k*0x9e3779b97f4a7c15 | 1 }

// scatter spreads Zipf ranks (rank 0 hottest) over a power-of-two key
// space, so hot keys do not share a bucket.
func scatter(rank, nkeys uint64) uint64 { return rank * 0x9e3779b1 & (nkeys - 1) }

// ---- set_write, list_read: the paper's microbenchmark structures ----

// benchLoad drives a bench.Instance. read = lookup, write = insert, priv =
// delete: the unlinked node is privatized to the epoch reclaimer through
// Thread.Retire.
type benchLoad struct {
	spec bench.Spec

	s       *stm.STM
	inst    bench.Instance
	initial int
	ws      []*benchWorker
}

// Instance.Op draws the operation from a Mix; a degenerate mix forces the
// class the driver drew.
var forcedMix = [numClasses]bench.Mix{
	classRead:  {},
	classWrite: {InsertPct: 100},
	classPriv:  {DeletePct: 100},
}

type benchWorker struct {
	inst    bench.Instance
	ctx     bench.OpCtx
	inserts int
}

func (l *benchLoad) setup(seed uint64, workers int) ([]worker, error) {
	s, err := stm.New(stm.Config{
		Algorithm:  stm.PVRStore,
		HeapWords:  l.spec.HeapWords,
		OrecCount:  l.spec.OrecCount,
		MaxThreads: workers,
	})
	if err != nil {
		return nil, err
	}
	l.s = s
	if l.inst, err = l.spec.Build(s, rng.New(seed)); err != nil {
		return nil, err
	}
	l.initial = l.inst.Size(s)
	out := make([]worker, workers)
	for i := range out {
		th, err := s.NewThread()
		if err != nil {
			return nil, err
		}
		w := &benchWorker{inst: l.inst, ctx: bench.OpCtx{Th: th, RNG: rng.New(seed + uint64(i+1)*1e9), S: s}}
		l.ws = append(l.ws, w)
		out[i] = w
	}
	return out, nil
}

func (w *benchWorker) op(c class, _ *spans) bool {
	if c == classWrite {
		w.inserts++
	}
	w.inst.Op(&w.ctx, forcedMix[c])
	return true
}

func (w *benchWorker) thread() *stm.Thread { return w.ctx.Th }

func (l *benchLoad) counters() layerCounters {
	return layerCounters{stm: l.s.Stats(), reclaim: l.s.ReclaimStats()}
}

func (l *benchLoad) finish() (failures []string, extra map[string]float64) {
	inserts := 0
	for _, w := range l.ws {
		inserts += w.inserts
		if err := w.ctx.Th.Close(); err != nil { // flushes the thread's retires
			failures = append(failures, fmt.Sprintf("Thread.Close: %v", err))
		}
	}
	if err := l.inst.Check(l.s); err != nil {
		failures = append(failures, fmt.Sprintf("Instance.Check: %v", err))
	}
	// Every insert allocates a node and every node that leaves the
	// structure — a duplicate insert's spare or a deleted node — is
	// retired, so the reclaimer's own count gives the model population.
	size := l.inst.Size(l.s)
	if want := l.initial + inserts - int(l.s.ReclaimStats().Retires); size != want {
		failures = append(failures, fmt.Sprintf("population %d, model %d", size, want))
	}
	return append(failures, drainCheck(l.s)...), nil
}

func drainCheck(s *stm.STM) []string {
	s.DrainReclaim()
	if limbo := s.ReclaimStats().Limbo; limbo != 0 {
		return []string{fmt.Sprintf("%d extents in limbo after DrainReclaim", limbo)}
	}
	return nil
}

// ---- kv_privatize: tds.Map with explicit whole-bucket privatization ----

const (
	kvBuckets = 1024
	kvStripes = 256
	kvKeys    = 1 << 14
	kvTheta   = 0.8
	// Of all operations, percent: a write is a Put or a Delete with equal
	// odds, a priv is a PrivateSnapshot of a random bucket. The preload's
	// equilibrium is computed from these, so they must match the spec's mix.
	kvPutPct, kvDeletePct, kvSnapPct = 19, 19, 2
)

type kvLoad struct {
	s       *stm.STM
	m       *tds.Map
	preload int
	ws      []*kvWorker
}

type kvWorker struct {
	m  *tds.Map
	th *stm.Thread
	r  *rng.RNG
	z  *rng.Zipf
	// Operands and results of the transaction bodies below, which are
	// built once so an operation allocates nothing.
	k, v                stm.Word
	found               bool
	getFn, putFn, delFn func(*stm.Tx)
	// tracedNodes counts the nodes traced private walks visited, the
	// divisor of tds.walk_ns_per_node.
	tracedNodes int
}

// equilibrium returns, for each Zipf rank, the probability that the key is
// present once a mix has run for long: a key enters on a put and leaves on
// a delete or when its bucket is snapshotted, so
// p = put·q / ((put+del)·q + snap/buckets) for draw probability q.
func equilibrium(nkeys int, theta, put, del, snap float64, buckets int) []float64 {
	q := make([]float64, nkeys)
	zeta := 0.0
	for i := range q {
		q[i] = 1 / math.Pow(float64(i+1), theta)
		zeta += q[i]
	}
	for i := range q {
		qi := q[i] / zeta
		q[i] = put * qi / ((put+del)*qi + snap/float64(buckets))
	}
	return q
}

func (l *kvLoad) setup(seed uint64, workers int) ([]worker, error) {
	s, err := stm.New(stm.Config{Algorithm: stm.PVRStore, HeapWords: 1 << 18, MaxThreads: workers})
	if err != nil {
		return nil, err
	}
	l.s = s
	if l.m, err = tds.NewMap(s, kvBuckets, kvStripes); err != nil {
		return nil, err
	}
	out := make([]worker, workers)
	for i := range out {
		th, err := s.NewThread()
		if err != nil {
			return nil, err
		}
		w := &kvWorker{m: l.m, th: th, r: rng.New(seed + uint64(i+1)*1e9)}
		w.z = rng.NewZipf(w.r, kvKeys, kvTheta)
		w.getFn = func(tx *stm.Tx) { w.v, w.found = w.m.Get(tx, w.k) }
		w.putFn = func(tx *stm.Tx) { w.m.Put(tx, w.k, w.v) }
		w.delFn = func(tx *stm.Tx) { w.found = w.m.Delete(tx, w.k) }
		l.ws = append(l.ws, w)
		out[i] = w
	}
	// Preload at the mix's equilibrium, so the timed slices see the
	// occupancy a long run settles at and not a transient.
	r, w := rng.New(seed), l.ws[0]
	present := equilibrium(kvKeys, kvTheta, kvPutPct, kvDeletePct, kvSnapPct, kvBuckets)
	for rank, p := range present {
		if float64(r.Uint64()>>11)/(1<<53) < p {
			w.k = stm.Word(scatter(uint64(rank), kvKeys))
			w.v = stm.Word(valueOf(uint64(w.k)))
			if err := w.th.Atomic(w.putFn); err != nil {
				return nil, err
			}
			l.preload++
		}
	}
	return out, nil
}

func (w *kvWorker) thread() *stm.Thread { return w.th }

func (w *kvWorker) op(c class, sp *spans) bool {
	if c == classPriv {
		return w.privatize(sp, w.r.Intn(kvBuckets))
	}
	w.k = stm.Word(scatter(w.z.Next(), kvKeys))
	switch {
	case c == classRead:
		err := w.th.Atomic(w.getFn)
		return err == nil && (!w.found || uint64(w.v) == valueOf(uint64(w.k)))
	case w.r.Uint64()&1 == 0:
		w.v = stm.Word(valueOf(uint64(w.k)))
		return w.th.Atomic(w.putFn) == nil
	default:
		return w.th.Atomic(w.delFn) == nil
	}
}

// privatize is the paper's Figure 1: detach bucket b in a transaction,
// then walk it with plain loads and give the nodes back. The walk must see
// exactly the nodes the privatizing transaction counted, in key order,
// each holding its key's value.
func (w *kvWorker) privatize(sp *spans, b int) bool {
	n, ok := privatizeBucket(w.m, w.th, sp, b, func(k, v stm.Word) bool { return uint64(v) == valueOf(uint64(k)) })
	if sp != nil {
		w.tracedNodes += n
	}
	return ok
}

func privatizeBucket(m *tds.Map, th *stm.Thread, sp *spans, b int, valid func(k, v stm.Word) bool) (nodes int, ok bool) {
	id := sp.begin(spanSnapshot)
	pl, err := m.PrivateSnapshot(th, b)
	sp.end(id)
	if err != nil {
		return 0, false
	}
	id = sp.begin(spanWalk)
	ok = true
	var last stm.Word
	pl.EachKV(func(k, v stm.Word) bool {
		if !valid(k, v) || (nodes > 0 && k <= last) {
			ok = false
		}
		last = k
		nodes++
		return true
	})
	sp.end(id)
	ok = ok && nodes == pl.Count
	id = sp.begin(spanRetire)
	pl.Retire(th)
	sp.end(id)
	return nodes, ok
}

func (l *kvLoad) counters() layerCounters {
	return layerCounters{stm: l.s.Stats(), reclaim: l.s.ReclaimStats()}
}

func (l *kvLoad) finish() (failures []string, extra map[string]float64) {
	fail := func(format string, a ...any) { failures = append(failures, fmt.Sprintf(format, a...)) }
	w := l.ws[0]
	// Read the whole key space transactionally, then privatize every
	// bucket: the private walks must return exactly the keys the
	// transactions saw, and the map's own size word must agree with both.
	seen := make([]bool, kvKeys)
	live := 0
	for k := range seen {
		w.k = stm.Word(k)
		if err := w.th.Atomic(w.getFn); err != nil {
			fail("final Get(%d): %v", k, err)
		}
		if w.found {
			seen[k] = true
			live++
		}
	}
	mapLen := func() (n int) {
		if err := w.th.Atomic(func(tx *stm.Tx) { n = l.m.Len(tx) }); err != nil {
			fail("Map.Len: %v", err)
		}
		return n
	}
	if n := mapLen(); n != live {
		fail("Map.Len %d, transactional scan found %d", n, live)
	}
	walked := 0
	for b := 0; b < kvBuckets; b++ {
		n, ok := privatizeBucket(l.m, w.th, nil, b, func(k, v stm.Word) bool {
			fresh := k < kvKeys && seen[k]
			if fresh {
				seen[k] = false
			}
			return fresh && uint64(v) == valueOf(uint64(k))
		})
		if !ok {
			fail("final private walk of bucket %d differs from the transactional scan", b)
		}
		walked += n
	}
	if walked != live {
		fail("private walks returned %d keys, transactional scan %d", walked, live)
	}
	if n := mapLen(); n != 0 {
		fail("Map.Len %d after every bucket was privatized", n)
	}
	tracedNodes := 0
	for _, w := range l.ws {
		tracedNodes += w.tracedNodes
		if err := w.th.Close(); err != nil {
			fail("Thread.Close: %v", err)
		}
	}
	return append(failures, drainCheck(l.s)...), map[string]float64{
		"tds.live_keys_drift_pct": driftPct(live, l.preload),
		"priv_nodes_traced":       float64(tracedNodes),
	}
}

// driftPct is how far the final population sits from the preloaded one:
// near zero when the preload really was the mix's equilibrium.
func driftPct(live, preload int) float64 {
	return 100 * float64(live-preload) / float64(preload)
}

// ---- serve_mixed: the TCP service, in process ----

const (
	serveKeys    = 1 << 16
	serveBuckets = 1024 // server default
	serveTheta   = 0.8
	serveBatch   = 4 // keys per request
	// Of all requests, percent: a read is a GET, a priv a SNAPSHOT, and a
	// write is one of these three. They must add up to the spec's mix.
	servePutPct, serveCASPct, serveDeletePct, serveSnapPct = 20, 5, 4, 1
)

type serveLoad struct {
	srv      *server.Server
	serveErr chan error
	preload  int
	ws       []*serveWorker
}

type serveWorker struct {
	c       *server.Client
	r       *rng.RNG
	z       *rng.Zipf
	keys    [serveBatch]uint64
	pairs   [2 * serveBatch]uint64
	triples [3 * serveBatch]uint64
}

func (l *serveLoad) setup(seed uint64, workers int) ([]worker, error) {
	srv, err := server.New(server.WithWorkers(workers))
	if err != nil {
		return nil, err
	}
	l.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l.serveErr = make(chan error, 1)
	go func() { l.serveErr <- srv.Serve(ln) }()
	out := make([]worker, workers)
	for i := range out {
		// One tenant per connection, none with a quota: no request is
		// meant to fail.
		c, _, err := server.Dial(ln.Addr().String(), fmt.Sprintf("tenant-%d", i))
		if err != nil {
			return nil, err
		}
		w := &serveWorker{c: c, r: rng.New(seed + uint64(i+1)*1e9)}
		w.z = rng.NewZipf(w.r, serveKeys, serveTheta)
		l.ws = append(l.ws, w)
		out[i] = w
	}
	r, c := rng.New(seed), l.ws[0].c
	present := equilibrium(serveKeys, serveTheta, servePutPct*serveBatch, serveDeletePct*serveBatch, serveSnapPct, serveBuckets)
	var batch []uint64
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		st, err := c.Put(batch)
		batch = batch[:0]
		if err != nil {
			return err
		}
		if st != server.StatusOK {
			return fmt.Errorf("preload PUT: status %d", st)
		}
		return nil
	}
	for rank, p := range present {
		if float64(r.Uint64()>>11)/(1<<53) < p {
			k := scatter(uint64(rank), serveKeys)
			batch = append(batch, k, valueOf(k))
			l.preload++
			if len(batch) == 1024 {
				if err := flush(); err != nil {
					return nil, err
				}
			}
		}
	}
	return out, flush()
}

func (w *serveWorker) thread() *stm.Thread { return nil }

func (w *serveWorker) op(c class, _ *spans) bool {
	if c == classPriv {
		pairs, st, err := w.c.Snapshot(uint64(w.r.Intn(serveBuckets)))
		ok := err == nil && st == server.StatusOK
		for i := 0; i+1 < len(pairs); i += 2 {
			ok = ok && pairs[i+1] == valueOf(pairs[i])
		}
		return ok
	}
	for i := range w.keys {
		w.keys[i] = scatter(w.z.Next(), serveKeys)
	}
	if c == classRead {
		found, vals, st, err := w.c.Get(w.keys[:])
		ok := err == nil && st == server.StatusOK && len(found) == serveBatch
		for i := 0; ok && i < serveBatch; i++ {
			ok = !found[i] || vals[i] == valueOf(w.keys[i])
		}
		return ok
	}
	switch p := w.r.Intn(servePutPct + serveCASPct + serveDeletePct); {
	case p < servePutPct:
		for i, k := range w.keys {
			w.pairs[2*i], w.pairs[2*i+1] = k, valueOf(k)
		}
		st, err := w.c.Put(w.pairs[:])
		return err == nil && st == server.StatusOK
	case p < servePutPct+serveCASPct:
		// Swap each key's value for itself: succeeds iff all four are
		// present, and either outcome is a served request.
		for i, k := range w.keys {
			w.triples[3*i], w.triples[3*i+1], w.triples[3*i+2] = k, valueOf(k), valueOf(k)
		}
		_, st, err := w.c.CAS(w.triples[:])
		return err == nil && st == server.StatusOK
	default:
		existed, st, err := w.c.Delete(w.keys[:])
		return err == nil && st == server.StatusOK && len(existed) == serveBatch
	}
}

func (l *serveLoad) counters() layerCounters {
	st := l.srv.Stats()
	return layerCounters{reclaim: l.srv.ReclaimStats(), committed: st.Committed, privatizeOps: st.PrivatizeOps}
}

func (l *serveLoad) finish() (failures []string, extra map[string]float64) {
	fail := func(format string, a ...any) { failures = append(failures, fmt.Sprintf(format, a...)) }
	c := l.ws[0].c
	// The same closing argument as kv_privatize, over the wire: GET every
	// key, then SNAPSHOT every bucket; the two must return the same set.
	seen := make([]bool, serveKeys)
	live := 0
	keys := make([]uint64, 512)
	for base := 0; base < serveKeys; base += len(keys) {
		for i := range keys {
			keys[i] = uint64(base + i)
		}
		found, vals, st, err := c.Get(keys)
		if err != nil || st != server.StatusOK || len(found) != len(keys) {
			fail("final GET at %d: status %d, err %v", base, st, err)
			continue
		}
		for i, f := range found {
			if f {
				seen[keys[i]] = true
				live++
				if vals[i] != valueOf(keys[i]) {
					fail("key %d holds %d", keys[i], vals[i])
				}
			}
		}
	}
	walked := 0
	for b := 0; b < serveBuckets; b++ {
		pairs, st, err := c.Snapshot(uint64(b))
		if err != nil || st != server.StatusOK {
			fail("final SNAPSHOT %d: status %d, err %v", b, st, err)
			continue
		}
		for i := 0; i+1 < len(pairs); i += 2 {
			k, v := pairs[i], pairs[i+1]
			if k >= serveKeys || !seen[k] || v != valueOf(k) {
				fail("SNAPSHOT %d returned (%d,%d), which the GET scan did not see", b, k, v)
				continue
			}
			seen[k] = false
			walked++
		}
	}
	if walked != live {
		fail("snapshots returned %d keys, GET scan %d", walked, live)
	}
	for _, w := range l.ws {
		if err := w.c.Close(); err != nil {
			fail("Client.Close: %v", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil { // also checks limbo is empty
		fail("Server.Shutdown: %v", err)
	}
	if err := <-l.serveErr; err != nil {
		fail("Server.Serve: %v", err)
	}
	if limbo := l.srv.ReclaimStats().Limbo; limbo != 0 {
		fail("%d extents in limbo after Shutdown", limbo)
	}
	return failures, map[string]float64{"tds.live_keys_drift_pct": driftPct(live, l.preload)}
}
