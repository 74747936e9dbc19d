// stmd serves the transactional KV store over TCP (see internal/server for
// the wire protocol). It runs until SIGTERM/SIGINT, then drains gracefully:
// in-flight requests finish, the STM threads requests lease are closed
// (flushing reclaim fronts), and the final reclaim drain is asserted empty.
//
//	stmd -addr :7077 -alg pvrStore -workers 8 -maxconns 4096 \
//	     -writesetcap 0 -tenant 'noisy:ws=8,deadline=50ms'
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	stm "privstm"
	"privstm/internal/server"
)

// tenantFlags accumulates repeated -tenant specs of the form
// "name:rs=N,ws=N,deadline=DUR" (any subset of the limits).
type tenantFlags struct {
	names  []string
	quotas []server.Quota
}

func (t *tenantFlags) String() string { return strings.Join(t.names, ",") }

func (t *tenantFlags) Set(s string) error {
	name, spec, ok := strings.Cut(s, ":")
	if !ok || name == "" {
		return fmt.Errorf("want name:rs=N,ws=N,deadline=DUR, got %q", s)
	}
	var q server.Quota
	for _, part := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return fmt.Errorf("bad quota field %q", part)
		}
		switch k {
		case "rs":
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("bad rs=%q: %v", v, err)
			}
			q.ReadSetCap = n
		case "ws":
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("bad ws=%q: %v", v, err)
			}
			q.WriteSetCap = n
		case "deadline":
			d, err := time.ParseDuration(v)
			if err != nil {
				return fmt.Errorf("bad deadline=%q: %v", v, err)
			}
			q.TxnDeadline = d
		default:
			return fmt.Errorf("unknown quota field %q (want rs, ws, deadline)", k)
		}
	}
	t.names = append(t.names, name)
	t.quotas = append(t.quotas, q)
	return nil
}

func main() {
	var (
		addr        = flag.String("addr", ":7077", "listen address")
		algName     = flag.String("alg", "pvrStore", "STM algorithm (must be privatization-safe)")
		workers     = flag.Int("workers", 8, "STM threads leased per request: at most this many transactions run at once")
		maxConns    = flag.Int("maxconns", 4096, "maximum concurrent connections")
		deadline    = flag.Duration("deadline", 0, "default per-transaction deadline (0 = none)")
		readSetCap  = flag.Int("readsetcap", 0, "default read-set cap per transaction (0 = none)")
		writeSetCap = flag.Int("writesetcap", 0, "default write-set cap per transaction (0 = none)")
		buckets     = flag.Int("buckets", 1024, "hash-map buckets")
		stripes     = flag.Int("stripes", 256, "abstract-lock key stripes")
		cmName      = flag.String("cm", "backoff", "contention manager: backoff, karma, serialize")
		maxAttempts = flag.Int("maxattempts", 0, "abort budget before serialized escalation (0 = default)")
		heapWords   = flag.Int("heapwords", 1<<22, "transactional heap capacity in words")
		drainWait   = flag.Duration("drainwait", 30*time.Second, "graceful-drain budget on SIGTERM")
	)
	var tenants tenantFlags
	flag.Var(&tenants, "tenant", "per-tenant quota name:rs=N,ws=N,deadline=DUR (repeatable)")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "stmd: "+format+"\n", args...)
		os.Exit(2)
	}
	alg, err := stm.ParseAlgorithm(*algName)
	if err != nil {
		fail("%v", err)
	}
	cmPolicy, err := stm.ParseCMPolicy(*cmName)
	if err != nil {
		fail("%v", err)
	}

	opts := []server.Option{
		server.WithAlgorithm(alg),
		server.WithWorkers(*workers),
		server.WithMaxConns(*maxConns),
		server.WithTxnDeadline(*deadline),
		server.WithReadSetCap(*readSetCap),
		server.WithWriteSetCap(*writeSetCap),
		server.WithBuckets(*buckets, *stripes),
		server.WithSTMConfig(stm.Config{
			HeapWords:         *heapWords,
			ContentionManager: cmPolicy,
			MaxAttempts:       *maxAttempts,
		}),
	}
	for i, name := range tenants.names {
		opts = append(opts, server.WithTenantQuota(name, tenants.quotas[i]))
	}
	srv, err := server.New(opts...)
	if err != nil {
		fail("%v", err)
	}

	// Bind before announcing: the startup line means the port is bound, and a
	// bad -addr fails here, before anything is printed.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail("%v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "stmd: serving %s on %s (%d STM threads, %d max conns)\n",
		srv.Algorithm(), ln.Addr(), srv.Workers(), *maxConns)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "stmd: %v — draining\n", s)
	case err := <-done:
		fail("%v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "stmd: shutdown: %v\n", err)
		os.Exit(1)
	}
	if err := <-done; err != nil {
		fmt.Fprintf(os.Stderr, "stmd: serve: %v\n", err)
		os.Exit(1)
	}
	final := struct {
		Server  server.StatsSnapshot `json:"server"`
		Reclaim any                  `json:"reclaim"`
	}{srv.Stats(), srv.ReclaimStats()}
	out, _ := json.MarshalIndent(final, "", "  ")
	fmt.Println(string(out))
	if rs := srv.ReclaimStats(); rs.Limbo != 0 {
		fmt.Fprintf(os.Stderr, "stmd: %d extents still quarantined\n", rs.Limbo)
		os.Exit(1)
	}
}
