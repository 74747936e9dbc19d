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
}

// TestRequestPathAllocatesNothing pins the steady-state server side of a
// request — read the frame, decode, lease, execute, encode — at zero
// allocations.
func TestRequestPathAllocatesNothing(t *testing.T) {
	srv := newIdle(t, WithWorkers(1))
	for name, payload := range map[string][]byte{
		"GET4": keysPayload(OpGet, 4, 1),
		"PUT4": keysPayload(OpPut, 4, 2),
		"CAS4": keysPayload(OpCAS, 4, 3),
		"DEL4": keysPayload(OpDelete, 4, 1),
	} {
		frame := frameOf(payload)
		rd := bytes.NewReader(frame)
		var c connState
		c.ten = srv.tenantFor("")
		n := testing.AllocsPerRun(200, func() {
			rd.Reset(frame)
			in, err := readFrameInto(rd, c.in)
			if err != nil {
				t.Fatal(err)
			}
			c.in = in
			srv.respond(&c, in)
			c.trim()
		})
		if n != 0 {
			t.Errorf("%s: %v allocations per request, want 0", name, n)
		}
		if st := c.out[frameHeader]; st != StatusOK {
			t.Errorf("%s: status %d", name, st)
		}
	}
}

// TestRoundTripAllocations counts both ends of a live connection (the
// allocation counter is process-wide): a PUT costs nothing, a GET only the
// two slices Client.Get hands to its caller.
func TestRoundTripAllocations(t *testing.T) {
	_, addr := startServer(t, WithWorkers(1))
	c, _, err := Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys, pairs := []uint64{1, 2, 3, 4}, []uint64{1, 10, 2, 20, 3, 30, 4, 40}
	if n := testing.AllocsPerRun(200, func() {
		if st, err := c.Put(pairs); err != nil || st != StatusOK {
			t.Fatalf("Put: status %d err %v", st, err)
		}
	}); n != 0 {
		t.Errorf("PUT round trip: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, _, st, err := c.Get(keys); err != nil || st != StatusOK {
			t.Fatalf("Get: status %d err %v", st, err)
		}
	}); n > 2 {
		t.Errorf("GET round trip: %v allocations, want at most the 2 returned slices", n)
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
		c.trim()
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
