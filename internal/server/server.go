// Package server implements stmd: a TCP key-value service backed by the
// privatization-safe STM through the internal/tds semantic containers.
//
// Architecture: every connection gets one goroutine that frames, parses,
// executes and answers its requests in order. To run a transaction it leases
// one of a fixed set of STM threads (registry slots bounded by
// Config.MaxThreads) for the length of that request, and hands it back
// before it touches the socket again, so thousands of connections multiplex
// onto a handful of transactional contexts and a slow peer never holds one.
// A lease covers a whole request: SNAPSHOT privatizes a bucket, walks it
// uninstrumented and retires its nodes on the same thread. The threads come
// from stm.STM.NewThread at New and are released with Thread.Close on drain —
// the lifecycle path that returns registry slots and flushes per-thread
// reclaim fronts. Each connection reads a frame through a buffered reader
// into a request buffer it keeps, builds the response in a response buffer
// it keeps and writes it with a single Write; a request or response larger
// than retainBytes borrows its buffer from a pool the connections share.
//
// Per-tenant quotas (read/write-set caps, transaction deadlines) are
// enforced cooperatively inside transaction bodies via Tx.Cancel: a tenant
// over budget gets a clean quota status on the wire and the connection stays
// usable. Contention pathologies are bounded by the engine's MaxAttempts
// escalation to the serialized-irrevocable fallback.
package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	stm "privstm"
	"privstm/internal/reclaim"
	"privstm/internal/tds"
)

// Quota-abort sentinels: Tx.Cancel(err) makes Atomic return err without
// retrying, which execute maps onto a wire status.
var (
	ErrReadQuota  = errors.New("server: read-set quota exceeded")
	ErrWriteQuota = errors.New("server: write-set quota exceeded")
)

// maxOpKeys bounds the keys/pairs of one multi-key request: past this the
// request is malformed, not a big transaction.
const maxOpKeys = 4096

const (
	// connReadBuf sizes a connection's buffered reader: a whole 4-key
	// request arrives in one read; larger payloads bypass it.
	connReadBuf = 2 << 10
	// retainBytes bounds each buffer a connection keeps between requests;
	// a larger one is borrowed from the server's bufPool for the exchange
	// that needs it, so idle connections do not pin the memory of their
	// largest request.
	retainBytes = 4 << 10
	// maxFreeTenants bounds the records kept for HELLO names that have no
	// WithTenantQuota entry; later names share the overflow record.
	maxFreeTenants = 1024
	// overflowTenant is the STATS name of that shared record.
	overflowTenant = "(other)"
	// writeTimeout bounds one response write, so a peer that stops reading
	// loses its connection instead of pinning a goroutine.
	writeTimeout = 10 * time.Second
	// respBody is where a response body starts in a connection's out
	// buffer: behind the frame header and the status byte.
	respBody = frameHeader + 1
)

// Server is one stmd instance. Create with New, start with Serve, stop
// with Shutdown.
type Server struct {
	cfg config
	s   *stm.STM
	m   *tds.Map
	q   *tds.Queue

	// threads holds the STM threads not leased to a request: cfg.workers
	// of them when the server is idle. Receiving leases one, and blocked
	// receivers are served first come, first served.
	threads chan *stm.Thread

	bufs bufPool // the buffers of exchanges larger than retainBytes

	writeTimeout time.Duration // the constant; tests shorten it

	connWg   sync.WaitGroup
	connMu   sync.Mutex
	conns    map[net.Conn]struct{}
	nconns   atomic.Int64
	draining atomic.Bool

	lnMu sync.Mutex
	ln   net.Listener

	tenantMu sync.Mutex
	tenants  map[string]*tenant
	overflow *tenant

	committed      atomic.Uint64
	cancelled      atomic.Uint64
	quotaAborts    atomic.Uint64
	deadlineAborts atomic.Uint64
	privatizeOps   atomic.Uint64
	rejectedConns  atomic.Uint64
}

type tenant struct {
	name        string
	quota       Quota
	quotaAborts atomic.Uint64
}

// connState is what one connection keeps between requests: its tenant, and
// one request and one response buffer of at most retainBytes each. An
// exchange that needs more borrows from the server's pool and gives the
// buffer back once its response is written.
type connState struct {
	ten    *tenant
	inBuf  []byte // the kept request buffer
	outBuf []byte // the kept response buffer
	in     []byte // this request's payload: in inBuf or a borrowed buffer
	out    []byte // this response's frame: in outBuf or a borrowed buffer
}

// buffer returns an empty buffer with room for n bytes: *kept, grown if it
// is too small, when n is at most retainBytes, and one borrowed from p when
// n is more.
func buffer(p *bufPool, kept *[]byte, n int) []byte {
	if n > retainBytes {
		return p.get(n)
	}
	if cap(*kept) < n {
		*kept = make([]byte, 0, max(n, min(2*cap(*kept), retainBytes)))
	}
	return (*kept)[:0]
}

// read reads one request payload into c.in. The length prefix is staged in
// the kept buffer, which read allocates only on the connection's first
// request.
func (c *connState) read(r io.Reader, p *bufPool) error {
	if cap(c.inBuf) < frameHeader {
		c.inBuf = make([]byte, 0, frameHeader)
	}
	n, err := readFrameLen(r, c.inBuf)
	if err != nil {
		return err
	}
	c.in = buffer(p, &c.inBuf, n)[:n]
	_, err = io.ReadFull(r, c.in)
	return err
}

// reserve starts the response in c.out, with room for a body of size bytes
// behind the frame header and an OK status, and returns it. A request
// reserves once its body's size is known, before its transaction runs, so
// building the body never grows the buffer.
func (c *connState) reserve(p *bufPool, size int) []byte {
	c.out = append(buffer(p, &c.outBuf, respBody+size), 0, 0, 0, 0, StatusOK)
	return c.out
}

// fail makes the response a bare status.
func (c *connState) fail(status byte) { c.out = append(c.out[:frameHeader], status) }

// release ends the exchange once its response is written: borrowed
// buffers go back to p, and c keeps no reference to them.
func (c *connState) release(p *bufPool) {
	if cap(c.in) > retainBytes {
		p.put(c.in)
	}
	if cap(c.out) > retainBytes {
		p.put(c.out)
	}
	c.in, c.out = nil, nil
}

// New assembles a server and registers its STM threads (network listening
// starts with Serve). The STM instance sizes MaxThreads to exactly
// WithWorkers: the leased threads, not the connections, are the
// transactional footprint.
func New(opts ...Option) (*Server, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		if o == nil {
			continue
		}
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	scfg := cfg.stmConfig
	scfg.Algorithm = cfg.algorithm
	scfg.MaxThreads = cfg.workers
	if !cfg.hasSTMConf {
		// Default heap sized for a service: 1<<22 words ≈ 32 MiB.
		scfg.HeapWords = 1 << 22
	}
	s, err := stm.New(scfg)
	if err != nil {
		return nil, err
	}
	m, err := tds.NewMap(s, cfg.buckets, cfg.stripes)
	if err != nil {
		return nil, err
	}
	q, err := tds.NewQueue(s)
	if err != nil {
		return nil, err
	}
	srv := &Server{
		cfg:          cfg,
		s:            s,
		m:            m,
		q:            q,
		threads:      make(chan *stm.Thread, cfg.workers),
		writeTimeout: writeTimeout,
		conns:        make(map[net.Conn]struct{}),
		tenants:      make(map[string]*tenant),
		overflow:     &tenant{name: overflowTenant, quota: cfg.defQuota},
	}
	for name, q := range cfg.tenants {
		srv.tenants[name] = &tenant{name: name, quota: q}
	}
	for i := 0; i < cfg.workers; i++ {
		th, err := s.NewThread()
		if err != nil {
			return nil, fmt.Errorf("server: thread %d: %w", i, err)
		}
		srv.threads <- th
	}
	return srv, nil
}

// Algorithm reports the engine serving traffic.
func (srv *Server) Algorithm() stm.Algorithm { return srv.cfg.algorithm }

// Workers reports the number of STM threads requests lease from.
func (srv *Server) Workers() int { return srv.cfg.workers }

// ReclaimStats exposes the underlying reclaimer's counters; after Shutdown
// a healthy server reports zero quarantined extents.
func (srv *Server) ReclaimStats() reclaim.Stats { return srv.s.ReclaimStats() }

// Serve accepts connections on ln until Shutdown closes it. Always returns
// a non-nil error; after Shutdown it returns nil-wrapped ErrServerClosed
// semantics (a plain nil).
func (srv *Server) Serve(ln net.Listener) error {
	srv.lnMu.Lock()
	if srv.draining.Load() {
		srv.lnMu.Unlock()
		ln.Close()
		return errors.New("server: Serve after Shutdown")
	}
	srv.ln = ln
	srv.lnMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if srv.draining.Load() {
				return nil
			}
			return err
		}
		reject := srv.draining.Load()
		if !reject && srv.nconns.Add(1) > int64(srv.cfg.maxConns) {
			srv.nconns.Add(-1)
			reject = true
		}
		if reject {
			srv.rejectedConns.Add(1)
			_ = WriteFrame(conn, []byte{StatusDraining})
			conn.Close()
			continue
		}
		srv.connMu.Lock()
		srv.conns[conn] = struct{}{}
		srv.connMu.Unlock()
		srv.connWg.Add(1)
		go srv.handleConn(conn)
	}
}

// Addr returns the bound listener address ("" before Serve).
func (srv *Server) Addr() string {
	srv.lnMu.Lock()
	defer srv.lnMu.Unlock()
	if srv.ln == nil {
		return ""
	}
	return srv.ln.Addr().String()
}

// tenantFor returns the record HELLO name binds a connection to. Tenants
// named in WithTenantQuota have theirs from New; the first maxFreeTenants
// other names get one each, and every later name shares the overflow
// record, so the map cannot grow with the names clients invent.
func (srv *Server) tenantFor(name string) *tenant {
	srv.tenantMu.Lock()
	defer srv.tenantMu.Unlock()
	if t, ok := srv.tenants[name]; ok {
		return t
	}
	if len(srv.tenants) >= len(srv.cfg.tenants)+maxFreeTenants {
		return srv.overflow
	}
	t := &tenant{name: name, quota: srv.cfg.defQuota}
	srv.tenants[name] = t
	return t
}

func (srv *Server) handleConn(conn net.Conn) {
	c := connState{ten: srv.tenantFor("")} // until HELLO names one
	defer func() {
		c.release(&srv.bufs)
		srv.connMu.Lock()
		delete(srv.conns, conn)
		srv.connMu.Unlock()
		srv.nconns.Add(-1)
		conn.Close()
		srv.connWg.Done()
	}()
	br := bufio.NewReaderSize(conn, connReadBuf)
	for {
		if err := c.read(br, &srv.bufs); err != nil {
			// Read errors include the deadline pokes Shutdown uses to
			// unblock idle connections — either way the conversation is
			// over.
			return
		}
		srv.respond(&c, c.in)
		// No thread is leased here: a peer that stops reading costs this
		// goroutine until the deadline, and nobody else anything.
		_ = conn.SetWriteDeadline(time.Now().Add(srv.writeTimeout))
		if _, err := conn.Write(c.out); err != nil {
			return
		}
		c.release(&srv.bufs)
		if srv.draining.Load() {
			return
		}
	}
}

// respond builds the response frame for one request payload in c.out.
func (srv *Server) respond(c *connState, payload []byte) {
	c.reserve(&srv.bufs, 0)
	if len(payload) == 0 {
		c.fail(StatusBadRequest)
	} else {
		switch op, body := payload[0], payload[1:]; op {
		case OpHello:
			srv.hello(c, body)
		case OpStats:
			srv.statsResponse(c)
		case OpGet, OpPut, OpCAS, OpDelete, OpSnapshot, OpPush, OpPop:
			th := <-srv.threads
			srv.execute(th, c, op, body)
			srv.threads <- th
		default:
			c.fail(StatusUnsupported)
		}
	}
	binary.BigEndian.PutUint32(c.out, uint32(len(c.out)-frameHeader))
}

func (srv *Server) hello(c *connState, body []byte) {
	r := wireReader{b: body}
	name, ok := r.str()
	if !ok || !r.empty() {
		c.fail(StatusBadRequest)
		return
	}
	c.ten = srv.tenantFor(name)
	alg := srv.cfg.algorithm.String()
	out, err := AppendString(c.reserve(&srv.bufs, 1+len(alg)), alg)
	if err != nil {
		c.fail(StatusBadRequest)
		return
	}
	c.out = out
}

// StatsSnapshot is the JSON body of a STATS response.
type StatsSnapshot struct {
	Algorithm      string            `json:"algorithm"`
	Workers        int               `json:"workers"`
	Conns          int64             `json:"conns"`
	Committed      uint64            `json:"committed_txns"`
	Cancelled      uint64            `json:"cancelled_txns"`
	QuotaAborts    uint64            `json:"quota_aborts"`
	DeadlineAborts uint64            `json:"deadline_aborts"`
	PrivatizeOps   uint64            `json:"privatize_ops"`
	RejectedConns  uint64            `json:"rejected_conns"`
	TenantQuota    map[string]uint64 `json:"tenant_quota_aborts,omitempty"`
}

// Stats snapshots the server-level counters (maintained with atomics, so
// this is safe while traffic runs — unlike raw per-thread STM counters).
func (srv *Server) Stats() StatsSnapshot {
	ss := StatsSnapshot{
		Algorithm:      srv.cfg.algorithm.String(),
		Workers:        srv.cfg.workers,
		Conns:          srv.nconns.Load(),
		Committed:      srv.committed.Load(),
		Cancelled:      srv.cancelled.Load(),
		QuotaAborts:    srv.quotaAborts.Load(),
		DeadlineAborts: srv.deadlineAborts.Load(),
		PrivatizeOps:   srv.privatizeOps.Load(),
		RejectedConns:  srv.rejectedConns.Load(),
	}
	srv.tenantMu.Lock()
	defer srv.tenantMu.Unlock()
	add := func(t *tenant) {
		if n := t.quotaAborts.Load(); n > 0 {
			if ss.TenantQuota == nil {
				ss.TenantQuota = make(map[string]uint64)
			}
			ss.TenantQuota[t.name] += n // a client may have named itself overflowTenant
		}
	}
	for _, t := range srv.tenants {
		add(t)
	}
	add(srv.overflow)
	return ss
}

func (srv *Server) statsResponse(c *connState) {
	b, err := json.Marshal(srv.Stats())
	if err != nil {
		c.fail(StatusCancelled)
		return
	}
	c.out = append(c.reserve(&srv.bufs, len(b)), b...)
}

// enforce applies the tenant's quota inside a transaction body. Pure by
// construction: it only calls runtime accessors, so the transaction-purity
// analyzer stays clean over the server package.
func enforce(tx *stm.Tx, q Quota) {
	if q.ReadSetCap > 0 && tx.ReadSetLen() > q.ReadSetCap {
		tx.Cancel(ErrReadQuota)
	}
	if q.WriteSetCap > 0 && tx.WriteSetLen() > q.WriteSetCap {
		tx.Cancel(ErrWriteQuota)
	}
	tx.CheckDeadline()
}

// finish completes an executed request: out is the OK response the
// transaction built, err what Atomic returned.
func (srv *Server) finish(c *connState, err error, out []byte) {
	c.out = out
	switch {
	case err == nil:
		srv.committed.Add(1)
	case errors.Is(err, ErrReadQuota):
		c.ten.quotaAborts.Add(1)
		srv.quotaAborts.Add(1)
		c.fail(StatusReadQuota)
	case errors.Is(err, ErrWriteQuota):
		c.ten.quotaAborts.Add(1)
		srv.quotaAborts.Add(1)
		c.fail(StatusWriteQuota)
	case errors.Is(err, stm.ErrDeadlineExceeded):
		srv.deadlineAborts.Add(1)
		c.fail(StatusDeadline)
	default:
		srv.cancelled.Add(1)
		c.fail(StatusCancelled)
	}
}

// execute runs one transactional request on the leased thread th and leaves
// the response in c.out. Each op reserves its whole response before its
// transaction runs; bodies append the response behind the header and status
// and cut back to respBody first, so a retried attempt starts from a clean
// buffer.
func (srv *Server) execute(th *stm.Thread, c *connState, op byte, body []byte) {
	q := c.ten.quota
	if q.TxnDeadline > 0 {
		th.SetTxnDeadline(time.Now().Add(q.TxnDeadline))
		defer th.SetTxnDeadline(time.Time{})
	}
	r := wireReader{b: body}
	p := &srv.bufs
	switch op {
	case OpGet:
		keys, ok := readKeys(&r, 1)
		if !ok {
			c.fail(StatusBadRequest)
			return
		}
		out := c.reserve(p, 8+16*keys.len())
		err := th.Atomic(func(tx *stm.Tx) {
			out = AppendU64(out[:respBody], uint64(keys.len()))
			for i := range keys.len() {
				v, found := srv.m.Get(tx, stm.Word(keys.at(i)))
				var f uint64
				if found {
					f = 1
				}
				out = AppendU64(AppendU64(out, f), uint64(v))
				enforce(tx, q)
			}
		})
		srv.finish(c, err, out)
	case OpPut:
		pairs, ok := readKeys(&r, 2)
		if !ok {
			c.fail(StatusBadRequest)
			return
		}
		err := th.Atomic(func(tx *stm.Tx) {
			for i := 0; i < pairs.len(); i += 2 {
				srv.m.Put(tx, stm.Word(pairs.at(i)), stm.Word(pairs.at(i+1)))
				enforce(tx, q)
			}
		})
		srv.finish(c, err, c.out)
	case OpCAS:
		triples, ok := readKeys(&r, 3)
		if !ok {
			c.fail(StatusBadRequest)
			return
		}
		out := c.reserve(p, 8)
		var swapped uint64
		err := th.Atomic(func(tx *stm.Tx) {
			swapped = 1
			for i := 0; i < triples.len(); i += 3 {
				v, found := srv.m.Get(tx, stm.Word(triples.at(i)))
				enforce(tx, q)
				if !found || v != stm.Word(triples.at(i+1)) {
					swapped = 0
					return
				}
			}
			for i := 0; i < triples.len(); i += 3 {
				srv.m.Put(tx, stm.Word(triples.at(i)), stm.Word(triples.at(i+2)))
				enforce(tx, q)
			}
		})
		srv.finish(c, err, AppendU64(out, swapped))
	case OpDelete:
		keys, ok := readKeys(&r, 1)
		if !ok {
			c.fail(StatusBadRequest)
			return
		}
		out := c.reserve(p, 8+8*keys.len())
		err := th.Atomic(func(tx *stm.Tx) {
			out = AppendU64(out[:respBody], uint64(keys.len()))
			for i := range keys.len() {
				var e uint64
				if srv.m.Delete(tx, stm.Word(keys.at(i))) {
					e = 1
				}
				out = AppendU64(out, e)
				enforce(tx, q)
			}
		})
		srv.finish(c, err, out)
	case OpSnapshot:
		b, ok := r.u64()
		if !ok || !r.empty() {
			c.fail(StatusBadRequest)
			return
		}
		pl, err := srv.m.PrivateSnapshot(th, int(b%uint64(srv.m.Buckets())))
		if err != nil {
			if errors.Is(err, tds.ErrNotPrivatizationSafe) {
				c.fail(StatusUnsupported)
				return
			}
			srv.finish(c, err, c.out)
			return
		}
		// The privatizing transaction committed and weak readers are
		// quiesced: walk the detached chain uninstrumented, then retire
		// the nodes through the epoch reclaimer — all on the thread that
		// privatized, which this request holds until it returns.
		out := AppendU64(c.reserve(p, 8+16*pl.Count), uint64(pl.Count))
		pl.EachKV(func(k, v stm.Word) bool {
			out = AppendU64(AppendU64(out, uint64(k)), uint64(v))
			return true
		})
		pl.Retire(th)
		srv.privatizeOps.Add(1)
		srv.finish(c, nil, out)
	case OpPush:
		vals, ok := readKeys(&r, 1)
		if !ok {
			c.fail(StatusBadRequest)
			return
		}
		err := th.Atomic(func(tx *stm.Tx) {
			for i := range vals.len() {
				srv.q.Push(tx, stm.Word(vals.at(i)))
				enforce(tx, q)
			}
		})
		srv.finish(c, err, c.out)
	case OpPop:
		n, ok := r.u64()
		if !ok || !r.empty() || n == 0 || n > maxOpKeys {
			c.fail(StatusBadRequest)
			return
		}
		out := c.reserve(p, 8+8*int(n))
		err := th.Atomic(func(tx *stm.Tx) {
			out = out[:respBody+8] // the count, written once the pops are done
			for i := uint64(0); i < n; i++ {
				v, found := srv.q.Pop(tx)
				if !found {
					break
				}
				out = AppendU64(out, uint64(v))
				enforce(tx, q)
			}
			binary.BigEndian.PutUint64(out[respBody:], uint64(len(out)-respBody-8)/8)
		})
		srv.finish(c, err, out)
	}
}

// words is a request's keys, pairs or triples, read in place from the
// request payload: word i is bytes 8i to 8i+8, big-endian.
type words []byte

func (w words) len() int        { return len(w) / 8 }
func (w words) at(i int) uint64 { return binary.BigEndian.Uint64(w[8*i:]) }

// readKeys parses "count, count×group u64s", with the count bounded by
// maxOpKeys and required to account for the body exactly.
func readKeys(r *wireReader, group int) (words, bool) {
	n, ok := r.u64()
	if !ok || n > maxOpKeys || uint64(len(r.b)) != n*uint64(group)*8 {
		return nil, false
	}
	return words(r.b), true
}

// Shutdown drains the server: stop accepting, unblock idle and stalled
// connections and let in-flight requests finish, collect every STM thread
// from the lease pool and Thread.Close it (flushing reclaim fronts and
// returning registry slots), then drain the epoch reclaimer. On a clean
// drain the reclaimer reports zero quarantined extents. ctx bounds the wait;
// on expiry remaining connections are closed forcibly and Shutdown reports
// the first error.
func (srv *Server) Shutdown(ctx context.Context) error {
	if srv.draining.Swap(true) {
		return errors.New("server: Shutdown twice")
	}
	srv.lnMu.Lock()
	if srv.ln != nil {
		srv.ln.Close()
	}
	srv.lnMu.Unlock()

	// Poke blocked connections; handlers notice draining after their
	// current request and exit.
	srv.pokeConns()
	done := make(chan struct{})
	go func() { srv.connWg.Wait(); close(done) }()
	var errs []error
	select {
	case <-done:
	case <-ctx.Done():
		errs = append(errs, fmt.Errorf("server: drain: %w", ctx.Err()))
		srv.connMu.Lock()
		for c := range srv.conns {
			c.Close()
		}
		srv.connMu.Unlock()
		<-done
	}

	// Every handler has exited, so every lease is back: a thread missing
	// here would be a leaked lease.
	for i := 0; i < srv.cfg.workers; i++ {
		th := <-srv.threads
		if err := th.Close(); err != nil {
			errs = append(errs, fmt.Errorf("server: thread %d: %w", i, err))
		}
	}

	// All threads are closed; every retired extent is published. The final
	// drain must clear the quarantine completely.
	srv.s.DrainReclaim()
	if rs := srv.s.ReclaimStats(); rs.Limbo != 0 {
		errs = append(errs, fmt.Errorf("server: %d extents still quarantined after drain", rs.Limbo))
	}
	return errors.Join(errs...)
}

// pokeConns interrupts connections blocked reading a request or writing to
// a peer that stopped reading, so handlers observe the draining flag. A
// handler that is executing a request sets a fresh write deadline before it
// answers, so in-flight requests still complete.
func (srv *Server) pokeConns() {
	srv.connMu.Lock()
	defer srv.connMu.Unlock()
	for c := range srv.conns {
		_ = c.SetDeadline(time.Now())
	}
}
