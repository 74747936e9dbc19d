// Remote macro-benchmark: stmbench -remote drives a running stmd instance
// over the wire protocol with thousands of concurrent connections, Zipf-
// skewed keys, and per-tenant operation mixes, reporting throughput and
// latency quantiles in the same JSON schema as the local cells (remote_*
// fields).
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"privstm/internal/rng"
	"privstm/internal/server"
)

// RemoteMix is the per-connection operation mix in percent; the five shares
// must sum to 100. Privatize is the share of PRIVATIZE-SNAPSHOT requests —
// keep it small, each one detaches a whole bucket.
type RemoteMix struct {
	GetPct       int
	PutPct       int
	CASPct       int
	DeletePct    int
	PrivatizePct int
}

func (m RemoteMix) total() int {
	return m.GetPct + m.PutPct + m.CASPct + m.DeletePct + m.PrivatizePct
}

// DefaultRemoteMix is a read-mostly KV profile with a trickle of
// privatization.
var DefaultRemoteMix = RemoteMix{GetPct: 70, PutPct: 20, CASPct: 5, DeletePct: 4, PrivatizePct: 1}

// RemoteTenant weights one tenant's share of the connection pool.
type RemoteTenant struct {
	Name   string
	Weight int
	// Mix overrides the run-level mix for this tenant's connections when
	// non-zero.
	Mix RemoteMix
}

// RemoteConfig configures one RunRemote macro run.
type RemoteConfig struct {
	Addr     string
	Conns    int
	Duration time.Duration // wall-clock budget per connection loop
	Keys     int           // key space (Zipf-ranked)
	Batch    int           // keys per multi-key GET/PUT/DELETE request
	Zipf     float64       // key skew; 0 = uniform
	Seed     uint64
	Mix      RemoteMix
	Tenants  []RemoteTenant // empty = single anonymous tenant
}

func (rc *RemoteConfig) fill() error {
	if rc.Addr == "" {
		return fmt.Errorf("bench: remote run needs an address")
	}
	if rc.Conns <= 0 {
		rc.Conns = 64
	}
	if rc.Duration <= 0 {
		rc.Duration = time.Second
	}
	if rc.Keys <= 0 {
		rc.Keys = 1 << 16
	}
	if rc.Batch <= 0 {
		rc.Batch = 4
	}
	if rc.Seed == 0 {
		rc.Seed = defaultSeed
	}
	if rc.Mix.total() == 0 {
		rc.Mix = DefaultRemoteMix
	}
	if rc.Mix.total() != 100 {
		return fmt.Errorf("bench: remote mix %+v sums to %d, want 100", rc.Mix, rc.Mix.total())
	}
	for i := range rc.Tenants {
		t := &rc.Tenants[i]
		if t.Weight <= 0 {
			t.Weight = 1
		}
		if t.Mix.total() == 0 {
			t.Mix = rc.Mix
		} else if t.Mix.total() != 100 {
			return fmt.Errorf("bench: tenant %q mix sums to %d, want 100", t.Name, t.Mix.total())
		}
	}
	if len(rc.Tenants) == 0 {
		rc.Tenants = []RemoteTenant{{Name: "", Weight: 1, Mix: rc.Mix}}
	}
	return nil
}

// RemoteStats carries the remote-only result fields of a Measurement.
type RemoteStats struct {
	Conns          int
	Workers        int
	P50            time.Duration
	P99            time.Duration
	Requests       uint64
	CommittedTxns  uint64
	QuotaAborts    uint64
	DeadlineAborts uint64
	PrivatizeOps   uint64
	TenantQuota    map[string]uint64
	// TransportErrs counts requests lost to connection errors (0 on a
	// healthy run).
	TransportErrs uint64
}

// latHist is a lock-free log-linear latency histogram: 16 linear
// sub-buckets per power of two of nanoseconds. Workers share one histogram
// through atomic adds; quantiles are reconstructed at bucket midpoints
// (≤ ~6% relative error, plenty for p50/p99 reporting).
type latHist struct {
	counts [64 * 16]atomic.Uint64
	n      atomic.Uint64
}

func (h *latHist) bucket(ns uint64) int {
	if ns < 16 {
		return int(ns)
	}
	exp := bits.Len64(ns) - 1 // top bit position, ≥ 4
	sub := (ns >> (uint(exp) - 4)) & 15
	return (exp-3)*16 + int(sub)
}

func (h *latHist) add(d time.Duration) {
	h.counts[h.bucket(uint64(d.Nanoseconds()))].Add(1)
	h.n.Add(1)
}

func (h *latHist) value(b int) time.Duration {
	if b < 16 {
		return time.Duration(b)
	}
	exp := b/16 + 3
	sub := uint64(b % 16)
	lo := (uint64(1) << uint(exp)) | (sub << (uint(exp) - 4))
	mid := lo + (uint64(1) << (uint(exp) - 4 - 1))
	return time.Duration(mid)
}

func (h *latHist) quantile(q float64) time.Duration {
	total := h.n.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for b := range h.counts {
		seen += h.counts[b].Load()
		if seen > rank {
			return h.value(b)
		}
	}
	return h.value(len(h.counts) - 1)
}

// RunRemote drives the stmd instance at cfg.Addr and returns one
// measurement cell. w receives progress lines (nil for quiet).
func RunRemote(w io.Writer, cfg RemoteConfig) (*Measurement, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if w == nil {
		w = io.Discard
	}

	// Control connection: algorithm label and the before-side of the
	// server counter deltas.
	ctl, alg, err := server.Dial(cfg.Addr, "")
	if err != nil {
		return nil, fmt.Errorf("bench: remote dial %s: %w", cfg.Addr, err)
	}
	defer ctl.Close()
	before, err := fetchStats(ctl)
	if err != nil {
		return nil, err
	}

	// Assign tenants to connections proportionally to weight.
	var weightSum int
	for _, t := range cfg.Tenants {
		weightSum += t.Weight
	}
	tenantOf := func(conn int) *RemoteTenant {
		w := conn * weightSum / cfg.Conns
		for i := range cfg.Tenants {
			if w < cfg.Tenants[i].Weight {
				return &cfg.Tenants[i]
			}
			w -= cfg.Tenants[i].Weight
		}
		return &cfg.Tenants[len(cfg.Tenants)-1]
	}

	fmt.Fprintf(w, "remote %s: %d conns, %v, keys %d, zipf %.2f, %d tenants\n",
		cfg.Addr, cfg.Conns, cfg.Duration, cfg.Keys, cfg.Zipf, len(cfg.Tenants))

	var (
		hist          latHist
		ops           atomic.Uint64
		transportErrs atomic.Uint64
		dialErrs      atomic.Uint64
		wg            sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	for i := 0; i < cfg.Conns; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ten := tenantOf(id)
			c, _, err := server.Dial(cfg.Addr, ten.Name)
			if err != nil {
				dialErrs.Add(1)
				return
			}
			defer c.Close()
			driveConn(c, id, &cfg, ten.Mix, deadline, &hist, &ops, &transportErrs)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	after, err := fetchStats(ctl)
	if err != nil {
		return nil, err
	}
	if n := dialErrs.Load(); n > 0 {
		return nil, fmt.Errorf("bench: %d/%d connections failed to dial (server MaxConns too low?)", n, cfg.Conns)
	}

	tenantDelta := map[string]uint64{}
	for name, n := range after.TenantQuota {
		if d := n - before.TenantQuota[name]; d > 0 {
			tenantDelta[name] = d
		}
	}
	m := &Measurement{
		Fig:       "remote",
		Workload:  "remote-kv",
		Algorithm: alg,
		Threads:   cfg.Conns,
		Mix:       Mix{InsertPct: cfg.Mix.PutPct + cfg.Mix.CASPct, DeletePct: cfg.Mix.DeletePct},
		Ops:       ops.Load(),
		Elapsed:   elapsed,
		ZipfTheta: cfg.Zipf,
		Remote: &RemoteStats{
			Conns:          cfg.Conns,
			Workers:        after.Workers,
			P50:            hist.quantile(0.50),
			P99:            hist.quantile(0.99),
			Requests:       ops.Load(),
			CommittedTxns:  after.Committed - before.Committed,
			QuotaAborts:    after.QuotaAborts - before.QuotaAborts,
			DeadlineAborts: after.DeadlineAborts - before.DeadlineAborts,
			PrivatizeOps:   after.PrivatizeOps - before.PrivatizeOps,
			TenantQuota:    tenantDelta,
			TransportErrs:  transportErrs.Load(),
		},
	}
	if elapsed > 0 {
		m.Throughput = float64(m.Ops) / elapsed.Seconds()
	}
	m.Stats.Commits = m.Remote.CommittedTxns
	fmt.Fprintf(w, "  %.0f req/s over %d conns on %d workers; p50 %v p99 %v; %d committed txns, %d quota aborts, %d privatize ops\n",
		m.Throughput, cfg.Conns, after.Workers, m.Remote.P50, m.Remote.P99,
		m.Remote.CommittedTxns, m.Remote.QuotaAborts, m.Remote.PrivatizeOps)
	if names := sortedKeys(tenantDelta); len(names) > 0 {
		for _, name := range names {
			fmt.Fprintf(w, "  tenant %-12s quota aborts %d\n", name, tenantDelta[name])
		}
	}
	return m, nil
}

func sortedKeys(m map[string]uint64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func fetchStats(c *server.Client) (server.StatsSnapshot, error) {
	raw, err := c.Stats()
	if err != nil {
		return server.StatsSnapshot{}, fmt.Errorf("bench: remote STATS: %w", err)
	}
	var ss server.StatsSnapshot
	if err := json.Unmarshal(raw, &ss); err != nil {
		return server.StatsSnapshot{}, fmt.Errorf("bench: remote STATS decode: %w", err)
	}
	return ss, nil
}

// driveConn is one connection's request loop. Every request is timed; any
// non-transport status (quota, deadline, cancelled) still counts as a
// completed request — the server aborted the transaction cleanly, which is
// the behaviour under test.
func driveConn(c *server.Client, id int, cfg *RemoteConfig, mix RemoteMix,
	deadline time.Time, hist *latHist, ops, transportErrs *atomic.Uint64) {
	r := rng.New(cfg.Seed + uint64(id)*0x9e37 + 1)
	z := rng.NewZipf(r, uint64(cfg.Keys), cfg.Zipf)
	scratch := make([]uint64, 0, 3*cfg.Batch)
	key := func() uint64 { return z.Next() }
	for n := 0; ; n++ {
		// Amortize the clock check like the local harness does.
		if n&15 == 0 && time.Now().After(deadline) {
			return
		}
		pick := r.Intn(100)
		t0 := time.Now()
		var err error
		switch {
		case pick < mix.GetPct:
			scratch = scratch[:0]
			for i := 0; i < cfg.Batch; i++ {
				scratch = append(scratch, key())
			}
			_, _, _, err = c.Get(scratch)
		case pick < mix.GetPct+mix.PutPct:
			scratch = scratch[:0]
			for i := 0; i < cfg.Batch; i++ {
				k := key()
				scratch = append(scratch, k, k*2+1)
			}
			_, err = c.Put(scratch)
		case pick < mix.GetPct+mix.PutPct+mix.CASPct:
			k := key()
			scratch = append(scratch[:0], k, k*2+1, k*2+3)
			_, _, err = c.CAS(scratch)
		case pick < mix.GetPct+mix.PutPct+mix.CASPct+mix.DeletePct:
			scratch = scratch[:0]
			for i := 0; i < cfg.Batch; i++ {
				scratch = append(scratch, key())
			}
			_, _, err = c.Delete(scratch)
		default:
			_, _, err = c.Snapshot(r.Uint64())
		}
		if err != nil {
			transportErrs.Add(1)
			return
		}
		hist.add(time.Since(t0))
		ops.Add(1)
	}
}
