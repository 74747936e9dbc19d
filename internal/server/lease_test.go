package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
)

// opPayload builds a request payload: the opcode and its words.
func opPayload(op byte, words ...uint64) []byte {
	p := []byte{op}
	for _, w := range words {
		p = AppendU64(p, w)
	}
	return p
}

// keysPayload builds "op, n, 0 … n×group-1": a multi-key request whose keys
// are small consecutive integers.
func keysPayload(op byte, n, group int) []byte {
	p := opPayload(op, uint64(n))
	for i := 0; i < n*group; i++ {
		p = AppendU64(p, uint64(i))
	}
	return p
}

func frameOf(payload []byte) []byte {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, payload); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// poolState reports the buffers srv's pool has out on loan and the bytes
// its stashes keep.
func poolState(srv *Server) (lent, kept int) {
	p := &srv.bufs
	p.mu.Lock()
	defer p.mu.Unlock()
	for c := range p.stash {
		for _, b := range p.stash[c][:p.n[c]] {
			kept += cap(b)
		}
	}
	return p.lent, kept
}

// TestPoolClasses pins the class of the payloads around a power-of-two
// count of words: each fills its class instead of taking the next one up.
func TestPoolClasses(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n     int
		class int
	}{
		{"just over retainBytes", retainBytes + 1, 0},
		{"GET request of 512 keys", 1 + 8 + 8*512, 0},
		{"PUT request of 512 pairs", 1 + 8 + 16*512, 0},
		{"GET response of 512 keys", respBody + 8 + 16*512, 0},
		{"PUT request of 1024 pairs", 1 + 8 + 16*1024, 1},
		{"DELETE response of maxOpKeys", respBody + 8 + 8*maxOpKeys, 2},
		{"GET response of maxOpKeys", respBody + 8 + 16*maxOpKeys, 3},
		{"CAS request of maxOpKeys", 1 + 8 + 24*maxOpKeys, 4},
		{"largest class", classBytes(poolClasses - 1), poolClasses - 1},
		{"past the largest class", classBytes(poolClasses-1) + 1, poolClasses},
	} {
		if c := class(tc.n); c != tc.class {
			t.Errorf("%s: %d bytes in class %d, want %d", tc.name, tc.n, c, tc.class)
		}
	}
	for n := retainBytes + 1; n <= classBytes(poolClasses-1); n++ {
		c := class(n)
		if classBytes(c) < n || c > 0 && classBytes(c-1) >= n {
			t.Fatalf("%d bytes in class %d of %d bytes, not the smallest that holds it", n, c, classBytes(c))
		}
	}
}

// newIdle is a server that is never given a listener: tests drive respond
// directly. Cleanup asserts the drain every test ends with.
func newIdle(t testing.TB, opts ...Option) *Server {
	t.Helper()
	srv, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return srv
}

// stallPeer opens a connection that asks for large responses and never reads
// one, and returns once the server has stopped taking its requests — which
// it only does when its handler is blocked writing to this peer.
func stallPeer(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.(*net.TCPConn).SetReadBuffer(4 << 10) // fewer responses fill the path
	req := frameOf(keysPayload(OpGet, maxOpKeys, 1))
	// One write deadline can expire while the whole process is descheduled,
	// before the server had a chance to read, and it can leave half a request
	// on the wire that a server which then drains the rest waits on forever.
	// So a timed-out write resumes where it stopped, and only stallRounds
	// consecutive deadlines without one byte accepted mean the server has
	// stopped reading.
	const stallRounds = 5
	pending, idle := req, 0
	for sent := 0; sent < 10_000; {
		_ = conn.SetWriteDeadline(time.Now().Add(200 * time.Millisecond))
		n, err := conn.Write(pending)
		if n > 0 {
			idle = 0
		}
		if pending = pending[n:]; len(pending) == 0 {
			pending, sent = req, sent+1
		}
		switch {
		case err == nil:
		case !errors.Is(err, os.ErrDeadlineExceeded):
			return conn // the server hung up on the stalled peer
		case n == 0:
			if idle++; idle == stallRounds {
				return conn
			}
		}
	}
	t.Fatal("server kept reading from a peer that never reads")
	return nil
}

func serveForStall(t *testing.T, timeout time.Duration) (*Server, string, chan error) {
	t.Helper()
	srv, err := New(WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if timeout > 0 {
		srv.writeTimeout = timeout
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	return srv, ln.Addr().String(), served
}

// TestStalledReaderHoldsNoLease: a peer that stops reading blocks only its
// own goroutine. With a single STM thread a second connection is still
// served, and Shutdown unblocks the stalled write instead of waiting for its
// context.
func TestStalledReaderHoldsNoLease(t *testing.T) {
	srv, addr, served := serveForStall(t, 0)
	stallPeer(t, addr)

	c, _, err := Dial(addr, "second")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if st, err := c.Put([]uint64{1, 10}); err != nil || st != StatusOK {
		t.Fatalf("Put beside a stalled peer: status %d err %v", st, err)
	}
	if _, vals, st, err := c.Get([]uint64{1}); err != nil || st != StatusOK || vals[0] != 10 {
		t.Fatalf("Get beside a stalled peer: %v status %d err %v", vals, st, err)
	}
	if n := len(srv.threads); n != srv.Workers() {
		t.Fatalf("%d of %d threads in the pool while a peer is stalled", n, srv.Workers())
	}

	ctx, cancel := context.WithTimeout(context.Background(), writeTimeout/2)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with a stalled peer: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if rs := srv.ReclaimStats(); rs.Limbo != 0 {
		t.Fatalf("Limbo = %d after Shutdown", rs.Limbo)
	}
}

// TestWriteDeadlineDropsStalledReader: without any Shutdown, the write
// deadline ends a connection whose peer stopped reading.
func TestWriteDeadlineDropsStalledReader(t *testing.T) {
	srv, addr, served := serveForStall(t, 50*time.Millisecond)
	stallPeer(t, addr)
	for deadline := time.Now().Add(10 * time.Second); srv.Stats().Conns != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("stalled connection still open: %d conns", srv.Stats().Conns)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestTenantMapBounded: HELLO names the configuration does not know cannot
// grow the tenant map without bound, and quota aborts are still attributed —
// to configured tenants by name even once the map is full, to late strangers
// under the overflow record.
func TestTenantMapBounded(t *testing.T) {
	srv := newIdle(t,
		WithWorkers(1),
		WithWriteSetCap(4),
		WithTenantQuota("noisy", Quota{WriteSetCap: 2}),
	)
	var c connState
	hello := func(name string) {
		t.Helper()
		srv.respond(&c, append([]byte{OpHello, byte(len(name))}, name...))
		if st := c.out[frameHeader]; st != StatusOK {
			t.Fatalf("HELLO %q: status %d", name, st)
		}
	}
	for i := 0; i < 10_000; i++ {
		hello(fmt.Sprintf("stranger-%d", i))
	}
	if n, limit := len(srv.tenants), 1+maxFreeTenants; n > limit {
		t.Fatalf("tenant map holds %d records after 10000 names, want <= %d", n, limit)
	}
	big := keysPayload(OpPut, 10, 2)
	for _, name := range []string{"noisy", "stranger-9999", "stranger-0"} {
		hello(name)
		srv.respond(&c, big)
		if st := c.out[frameHeader]; st != StatusWriteQuota {
			t.Fatalf("%s: big PUT status %d, want StatusWriteQuota", name, st)
		}
	}
	ss := srv.Stats()
	if ss.QuotaAborts != 3 || ss.TenantQuota["noisy"] != 1 ||
		ss.TenantQuota[overflowTenant] != 1 || ss.TenantQuota["stranger-0"] != 1 {
		t.Fatalf("quota aborts misattributed: %+v", ss)
	}
}

// TestRetainedBuffersBounded: connections that each made one maximal
// exchange and then went idle must not keep the buffers it needed.
func TestRetainedBuffersBounded(t *testing.T) {
	const conns = 128
	_, addr := startServer(t, WithWorkers(2), WithMaxConns(conns))
	small := frameOf(keysPayload(OpGet, 1, 1))
	big := frameOf(keysPayload(OpCAS, maxOpKeys, 3))  // the widest request…
	wide := frameOf(keysPayload(OpGet, maxOpKeys, 1)) // …and the widest response
	var resp []byte
	exchange := func(conn net.Conn, req []byte) {
		t.Helper()
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		var err error
		if resp, err = readFrameInto(conn, resp); err != nil {
			t.Fatal(err)
		}
		if resp[0] != StatusOK {
			t.Fatalf("status %d", resp[0])
		}
	}
	open := make([]net.Conn, conns)
	for i := range open {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		open[i] = conn
		exchange(conn, small)
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for _, conn := range open {
		exchange(conn, big)
		exchange(conn, wide)
		// The server trims after it writes; once it has answered another
		// request the trim of the large ones is behind it.
		exchange(conn, small)
	}
	after := heap()
	// Kept, per connection: at most retainBytes for each of in, vals, out.
	if grew, limit := int64(after)-int64(before), int64(conns*16<<10); grew > limit {
		t.Fatalf("%d idle connections hold %d KiB more after one large exchange each, want <= %d KiB",
			conns, grew>>10, limit>>10)
	}
}

// TestPoolSharedByWideExchanges: connections that run maximal PUT, GET and
// CAS at the same time, each on its own keys, must each read exactly their
// own responses; a buffer lent to two exchanges at once, or put back twice,
// would mix them. Beside them, the maximal GETs of a tenant with a 1 ns
// deadline abort after borrowing their buffers, and maximal frames one word
// short are refused after borrowing theirs. Once every connection has
// closed, every buffer is back and the pool keeps no more than poolBound.
func TestPoolSharedByWideExchanges(t *testing.T) {
	const conns, rounds = 3, 3
	srv, addr := startServer(t, WithWorkers(2), WithTenantQuota("late", Quota{TxnDeadline: time.Nanosecond}))
	var wg sync.WaitGroup
	for id := uint64(1); id <= conns; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := wideExchanges(addr, id, rounds); err != nil {
				t.Errorf("connection %d: %v", id, err)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, _, err := Dial(addr, "late")
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		keys := make([]uint64, maxOpKeys)
		for r := 0; r < rounds; r++ {
			if _, _, st, err := c.Get(keys); err != nil || st != StatusDeadline {
				t.Errorf("late GET: status %d err %v, want StatusDeadline", st, err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		var resp []byte
		for r := 0; r < rounds; r++ {
			for group, op := range []byte{OpGet, OpPut, OpCAS} {
				short := keysPayload(op, maxOpKeys, group+1)
				if resp, err = exchangeFrame(conn, short[:len(short)-8], resp); err != nil ||
					!bytes.Equal(resp, []byte{StatusBadRequest}) {
					t.Errorf("short frame: response %x err %v", resp, err)
					return
				}
			}
		}
	}()
	wg.Wait()
	for deadline := time.Now().Add(10 * time.Second); srv.Stats().Conns != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d connections still open", srv.Stats().Conns)
		}
		time.Sleep(5 * time.Millisecond)
	}
	lent, kept := poolState(srv)
	if lent != 0 || kept == 0 || kept > poolBound {
		t.Fatalf("pool after the exchanges: %d buffers lent, %d bytes kept, want 0 and 1..%d", lent, kept, poolBound)
	}
}

// exchangeFrame sends payload as one frame on conn and reads the response
// payload into resp.
func exchangeFrame(conn net.Conn, payload, resp []byte) ([]byte, error) {
	if _, err := conn.Write(frameOf(payload)); err != nil {
		return nil, err
	}
	_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	return readFrameInto(conn, resp)
}

// wideExchanges runs rounds of maximal PUT, GET, CAS and GET on the keys
// id<<32 + j, whose value in round r is id<<48 + r<<32 + j, and checks each
// response byte for byte.
func wideExchanges(addr string, id uint64, rounds int) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	var resp []byte
	exchange := func(name string, req []uint64, op byte, want []byte) error {
		if resp, err = exchangeFrame(conn, opPayload(op, req...), resp); err != nil {
			return fmt.Errorf("%s: %v", name, err)
		}
		if !bytes.Equal(resp, want) {
			i := 0
			for i < min(len(resp), len(want)) && resp[i] == want[i] {
				i++
			}
			return fmt.Errorf("%s: %d-byte response differs from the %d bytes expected at byte %d", name, len(resp), len(want), i)
		}
		return nil
	}
	key := func(j int) uint64 { return id<<32 + uint64(j) }
	val := func(r, j int) uint64 { return id<<48 + uint64(r)<<32 + uint64(j) }
	for r := 0; r < 2*rounds; r += 2 {
		put, get, cas := []uint64{maxOpKeys}, []uint64{maxOpKeys}, []uint64{maxOpKeys}
		found, swapped := []uint64{maxOpKeys}, []uint64{maxOpKeys}
		for j := range maxOpKeys {
			put = append(put, key(j), val(r, j))
			get = append(get, key(j))
			cas = append(cas, key(j), val(r, j), val(r+1, j))
			found = append(found, 1, val(r, j))
			swapped = append(swapped, 1, val(r+1, j))
		}
		if err := exchange("PUT", put, OpPut, []byte{StatusOK}); err != nil {
			return err
		}
		if err := exchange("GET", get, OpGet, opPayload(StatusOK, found...)); err != nil {
			return err
		}
		if err := exchange("CAS", cas, OpCAS, opPayload(StatusOK, 1)); err != nil {
			return err
		}
		if err := exchange("GET after CAS", get, OpGet, opPayload(StatusOK, swapped...)); err != nil {
			return err
		}
	}
	return nil
}

// TestKilledConnectionsLeakNoLease: connections that vanish mid-request —
// after a whole frame, after half of one, with and without a reset — must
// each give their thread back. A leaked lease would hang the Shutdown in
// startServer's cleanup, which also asserts Limbo == 0.
func TestKilledConnectionsLeakNoLease(t *testing.T) {
	srv, addr := startServer(t, WithWorkers(2), WithBuckets(8, 8))
	reqs := [][]byte{
		frameOf(keysPayload(OpPut, 64, 2)),
		frameOf(keysPayload(OpGet, maxOpKeys, 1)),
		frameOf(keysPayload(OpDelete, 64, 1)),
		frameOf(opPayload(OpSnapshot, 3)),
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					t.Error(err)
					return
				}
				req := reqs[(g+i)%len(reqs)]
				if i%3 == 0 {
					req = req[:len(req)/2]
				}
				_, _ = conn.Write(req) // the server may already have gone
				if i%2 == 0 {
					_ = conn.(*net.TCPConn).SetLinger(0) // close with a reset
				}
				conn.Close()
			}
		}(g)
	}
	// Live traffic beside the wreckage.
	c, _, err := Dial(addr, "live")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for k := uint64(0); k < 200; k++ {
		if st, err := c.Put([]uint64{k, k}); err != nil || st != StatusOK {
			t.Fatalf("Put: status %d err %v", st, err)
		}
		if _, st, err := c.Snapshot(k); err != nil || st != StatusOK {
			t.Fatalf("Snapshot: status %d err %v", st, err)
		}
	}
	wg.Wait()
	for deadline := time.Now().Add(10 * time.Second); srv.Stats().Conns != 1; {
		if time.Now().After(deadline) {
			t.Fatalf("%d connections still open", srv.Stats().Conns)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := len(srv.threads); n != srv.Workers() {
		t.Fatalf("%d of %d threads in the pool after the killed connections drained", n, srv.Workers())
	}
	if lent, _ := poolState(srv); lent != 0 {
		t.Fatalf("%d buffers still lent after the killed connections drained", lent)
	}
}

// TestRequestPathAllocatesNothing pins the steady-state server side of a
// request — read the frame, decode, lease, execute, encode, give borrowed
// buffers back — at zero allocations, for 4-key requests and for maxOpKeys
// ones, whose request or response is larger than retainBytes. The 4-key
// cases run in order on a one-bucket map: SNAP and POP first take what PUT4
// and PUSH4 left, then run on an empty bucket and queue. The wide cases run
// on the default 1024 buckets, which keep their chains short.
func TestRequestPathAllocatesNothing(t *testing.T) {
	narrow := newIdle(t, WithWorkers(1), WithBuckets(1, 8))
	wide := newIdle(t, WithWorkers(1))
	for _, tc := range []struct {
		name    string
		srv     *Server
		payload []byte
	}{
		{"GET4", narrow, keysPayload(OpGet, 4, 1)},
		{"PUT4", narrow, keysPayload(OpPut, 4, 2)},
		{"CAS4", narrow, keysPayload(OpCAS, 4, 3)},
		{"SNAP", narrow, opPayload(OpSnapshot, 0)},
		{"DEL4", narrow, keysPayload(OpDelete, 4, 1)},
		{"PUSH4", narrow, keysPayload(OpPush, 4, 1)},
		{"POP4", narrow, opPayload(OpPop, 4)},
		{"GETmax", wide, keysPayload(OpGet, maxOpKeys, 1)},
		{"PUTmax", wide, keysPayload(OpPut, maxOpKeys, 2)},
		{"CASmax", wide, keysPayload(OpCAS, maxOpKeys, 3)},
		{"DELmax", wide, keysPayload(OpDelete, maxOpKeys, 1)},
		{"PUSHmax", wide, keysPayload(OpPush, maxOpKeys, 1)},
		{"POPmax", wide, opPayload(OpPop, maxOpKeys)},
	} {
		frame := frameOf(tc.payload)
		rd := bytes.NewReader(frame)
		c := connState{ten: tc.srv.tenantFor("")}
		var st byte
		runs := 200
		if tc.srv == wide {
			runs = 20 // each PUSHmax leaves maxOpKeys values queued
		}
		n := testing.AllocsPerRun(runs, func() {
			rd.Reset(frame)
			if err := c.read(rd, &tc.srv.bufs); err != nil {
				t.Fatal(err)
			}
			tc.srv.respond(&c, c.in)
			st = c.out[frameHeader]
			c.release(&tc.srv.bufs)
		})
		if n != 0 {
			t.Errorf("%s: %v allocations per request, want 0", tc.name, n)
		}
		if st != StatusOK {
			t.Errorf("%s: status %d", tc.name, st)
		}
	}
}

// TestRoundTripAllocations counts both ends of a live connection (the
// allocation counter is process-wide): no request costs an allocation on
// either side, since the Client decodes into buffers it reuses. DELETE,
// SNAPSHOT and POP each follow the write that gives them something to
// return, so every run moves the four keys or values through the server.
func TestRoundTripAllocations(t *testing.T) {
	_, addr := startServer(t, WithWorkers(1), WithBuckets(1, 8))
	c, _, err := Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, wideAddr := startServer(t, WithWorkers(1))
	wc, _, err := Dial(wideAddr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	keys, pairs := []uint64{1, 2, 3, 4}, []uint64{1, 10, 2, 20, 3, 30, 4, 40}
	// serve_mixed's preload PUTs 512 pairs at a time (an 8201-byte request
	// payload) and its closing scan GETs 512 keys (a 4105-byte request and
	// an 8205-byte response frame): each fills the 8 KiB class. A 1024-pair
	// PUT (16393 bytes) fills the 16 KiB class.
	preload, widePairs, wideKeys := make([]uint64, 2*512), make([]uint64, 2*1024), make([]uint64, 512)
	for i := range widePairs {
		widePairs[i] = uint64(i)
	}
	for i := range preload {
		preload[i] = uint64(len(widePairs) + i)
	}
	for i := range wideKeys {
		wideKeys[i] = uint64(2 * i)
	}
	put := func() {
		if st, err := c.Put(pairs); err != nil || st != StatusOK {
			t.Fatalf("Put: status %d err %v", st, err)
		}
	}
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"PUT", put},
		{"GET", func() {
			if found, _, st, err := c.Get(keys); err != nil || st != StatusOK || len(found) != 4 || !found[3] {
				t.Fatalf("Get: %v status %d err %v", found, st, err)
			}
		}},
		{"PUT+DELETE", func() {
			put()
			if existed, st, err := c.Delete(keys); err != nil || st != StatusOK || len(existed) != 4 || !existed[0] {
				t.Fatalf("Delete: %v status %d err %v", existed, st, err)
			}
		}},
		{"PUT+SNAPSHOT", func() {
			put()
			if got, st, err := c.Snapshot(0); err != nil || st != StatusOK || len(got) != len(pairs) {
				t.Fatalf("Snapshot: %v status %d err %v", got, st, err)
			}
		}},
		{"PUSH+POP", func() {
			if st, err := c.Push(keys); err != nil || st != StatusOK {
				t.Fatalf("Push: status %d err %v", st, err)
			}
			if got, st, err := c.Pop(4); err != nil || st != StatusOK || len(got) != 4 || got[3] != 4 {
				t.Fatalf("Pop: %v status %d err %v", got, st, err)
			}
		}},
		{"PUT512pairs", func() {
			if st, err := wc.Put(preload); err != nil || st != StatusOK {
				t.Fatalf("Put: status %d err %v", st, err)
			}
		}},
		{"PUT1024pairs", func() {
			if st, err := wc.Put(widePairs); err != nil || st != StatusOK {
				t.Fatalf("Put: status %d err %v", st, err)
			}
		}},
		{"GET512", func() {
			if found, vals, st, err := wc.Get(wideKeys); err != nil || st != StatusOK ||
				len(found) != len(wideKeys) || !found[511] || vals[511] != 1023 {
				t.Fatalf("Get: status %d err %v", st, err)
			}
		}},
	} {
		if n := testing.AllocsPerRun(200, tc.fn); n != 0 {
			t.Errorf("%s round trip: %v allocations, want 0", tc.name, n)
		}
	}
}

// TestClientResultsAreReused pins the Client's aliasing contract: a result
// slice is valid until the next call on the Client, which decodes into the
// same storage.
func TestClientResultsAreReused(t *testing.T) {
	_, addr := startServer(t, WithWorkers(1))
	c, _, err := Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if st, err := c.Put([]uint64{1, 10, 2, 20}); err != nil || st != StatusOK {
		t.Fatalf("Put: status %d err %v", st, err)
	}
	found1, vals1, _, err := c.Get([]uint64{1, 3})
	if err != nil || !found1[0] || found1[1] || vals1[0] != 10 {
		t.Fatalf("first Get = %v %v, err %v", found1, vals1, err)
	}
	found2, vals2, _, err := c.Get([]uint64{3, 2})
	if err != nil || found2[0] || !found2[1] || vals2[1] != 20 {
		t.Fatalf("second Get = %v %v, err %v", found2, vals2, err)
	}
	if &found1[0] != &found2[0] || &vals1[0] != &vals2[0] {
		t.Fatal("second Get decoded into fresh slices")
	}
	if found1[0] || !found1[1] || vals1[1] != 20 {
		t.Errorf("first Get's slices read %v %v after the second Get, want its results", found1, vals1)
	}
}

func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Add([]byte{0, 0x10, 0, 1, 1, 2, 3}) // MaxFrame+1
	f.Add([]byte{0, 0x10, 0, 0, 1, 2, 3}) // MaxFrame announced, 3 bytes sent
	f.Add(frameOf(keysPayload(OpGet, 4, 1)))
	f.Add(frameOf(keysPayload(OpGet, 4, 1))[:20])
	reused := make([]byte, 0, 64)
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := ReadFrame(bytes.NewReader(data))
		again, errAgain := readFrameInto(bytes.NewReader(data), reused)
		if (err == nil) != (errAgain == nil) || !bytes.Equal(payload, again) {
			t.Fatalf("ReadFrame = %x, %v; into a reused buffer = %x, %v", payload, err, again, errAgain)
		}
		if cap(payload) > MaxFrame || cap(again) > max(MaxFrame, cap(reused)) {
			t.Fatalf("frame buffers of %d and %d bytes, above MaxFrame", cap(payload), cap(again))
		}
		whole := len(data) >= frameHeader &&
			uint64(binary.BigEndian.Uint32(data)) <= uint64(min(MaxFrame, len(data)-frameHeader))
		if whole != (err == nil) {
			t.Fatalf("%d bytes in, whole frame %v, err %v", len(data), whole, err)
		}
		if whole && !bytes.Equal(payload, data[frameHeader:frameHeader+len(payload)]) {
			t.Fatalf("payload %x is not the frame's", payload)
		}
	})
}

func FuzzExecute(f *testing.F) {
	for op := byte(0); op <= OpStats+1; op++ {
		f.Add(op, []byte{})
		f.Add(op, opPayload(0, 2)[1:])
		f.Add(op, keysPayload(0, 1, 1)[1:])
		f.Add(op, keysPayload(0, 3, 2)[1:])
		f.Add(op, keysPayload(0, 3, 3)[1:])
		f.Add(op, keysPayload(0, maxOpKeys+1, 1)[1:])
		// Bodies or responses above retainBytes: borrowed buffers.
		f.Add(op, keysPayload(0, maxOpKeys, 1)[1:])
		f.Add(op, keysPayload(0, maxOpKeys, 2)[1:])
		f.Add(op, keysPayload(0, maxOpKeys, 3)[1:])
		f.Add(op, opPayload(0, maxOpKeys)[1:])
		f.Add(op, opPayload(0, 1<<63)[1:])
		f.Add(op, []byte("\x03abc"))
	}
	const buckets = 4
	srv := newIdle(f,
		WithWorkers(2),
		WithBuckets(buckets, 8),
		WithTenantQuota("abc", Quota{ReadSetCap: 8, WriteSetCap: 8, TxnDeadline: time.Minute}),
	)
	// The fuzzed connection can HELLO itself into the capped tenant; the
	// tidying one stays on the default, which has no quota.
	fuzzed, tidy := &connState{ten: srv.tenantFor("")}, &connState{ten: srv.tenantFor("")}
	respond := func(t *testing.T, c *connState, payload []byte) byte {
		srv.respond(c, payload)
		if n := len(srv.threads); n != srv.Workers() {
			t.Fatalf("%d of %d threads in the pool after %x", n, srv.Workers(), payload)
		}
		if got := int(binary.BigEndian.Uint32(c.out)); got != len(c.out)-frameHeader || got < 1 {
			t.Fatalf("response to %x: header says %d, frame carries %d", payload, got, len(c.out)-frameHeader)
		}
		st := c.out[frameHeader]
		c.release(&srv.bufs)
		if lent, kept := poolState(srv); lent != 0 || kept > poolBound {
			t.Fatalf("after %x: %d buffers lent, %d bytes kept (bound %d)", payload, lent, kept, poolBound)
		}
		return st
	}
	f.Fuzz(func(t *testing.T, op byte, body []byte) {
		if st := respond(t, fuzzed, append([]byte{op}, body...)); st > StatusDraining {
			t.Fatalf("op %d body %x: status %d is not a documented one", op, body, st)
		}
		// Empty the map and the queue again, so a long fuzzing run does not
		// fill the transactional heap.
		for b := uint64(0); b < buckets; b++ {
			if st := respond(t, tidy, opPayload(OpSnapshot, b)); st != StatusOK {
				t.Fatalf("SNAPSHOT %d: status %d", b, st)
			}
		}
		if st := respond(t, tidy, opPayload(OpPop, maxOpKeys)); st != StatusOK {
			t.Fatalf("POP: status %d", st)
		}
	})
}
