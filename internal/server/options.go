package server

import (
	"fmt"
	"time"

	stm "privstm"
)

// Quota bounds one tenant's transactions. Zero fields mean "no limit".
// Exceeding a cap cancels the transaction (Tx.Cancel), which rolls it back
// and surfaces a quota status on the wire — the connection stays healthy.
type Quota struct {
	// TxnDeadline is the wall-clock budget of a single transaction
	// attempt window, checked cooperatively at every container op.
	TxnDeadline time.Duration
	// ReadSetCap bounds the logged reads of one transaction (Tx.ReadSetLen:
	// a block read again after another block counts again).
	ReadSetCap int
	// WriteSetCap bounds the write-set words of one transaction.
	WriteSetCap int
}

type config struct {
	algorithm  stm.Algorithm
	stmConfig  stm.Config // template; Algorithm/MaxThreads are overridden
	workers    int
	maxConns   int
	buckets    int
	stripes    int
	defQuota   Quota
	tenants    map[string]Quota
	hasSTMConf bool
}

// Option configures New, quickjs-runtime style: the server is assembled
// from a functional-option surface so per-deployment limits compose.
type Option func(*config) error

// WithAlgorithm selects the STM engine. It must be privatization-safe:
// SNAPSHOT hands privatized nodes to uninstrumented walks, which the TL2
// baseline cannot make safe. Default pvrStore.
func WithAlgorithm(a stm.Algorithm) Option {
	return func(c *config) error {
		if !a.Safe() {
			return fmt.Errorf("server: algorithm %v is not privatization-safe", a)
		}
		c.algorithm = a
		return nil
	}
}

// WithWorkers sets the number of STM threads (registry slots) the server
// registers. A connection leases one for the length of each request and
// returns it before it writes the response, so n bounds the transactions in
// flight, thousands of connections cost a handful of slots, and requests
// beyond n wait their turn in arrival order. Default 8.
func WithWorkers(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("server: WithWorkers(%d): need at least 1", n)
		}
		c.workers = n
		return nil
	}
}

// WithMaxConns caps concurrently served connections; excess accepts get a
// StatusDraining frame and are closed. Default 4096.
func WithMaxConns(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("server: WithMaxConns(%d): need at least 1", n)
		}
		c.maxConns = n
		return nil
	}
}

// WithTxnDeadline sets the default per-transaction deadline for tenants
// without an explicit quota. 0 disables.
func WithTxnDeadline(d time.Duration) Option {
	return func(c *config) error {
		if d < 0 {
			return fmt.Errorf("server: WithTxnDeadline(%v): negative", d)
		}
		c.defQuota.TxnDeadline = d
		return nil
	}
}

// WithReadSetCap sets the default read-set cap, in logged reads
// (Quota.ReadSetCap). 0 disables.
func WithReadSetCap(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("server: WithReadSetCap(%d): negative", n)
		}
		c.defQuota.ReadSetCap = n
		return nil
	}
}

// WithWriteSetCap sets the default write-set cap. 0 disables.
func WithWriteSetCap(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("server: WithWriteSetCap(%d): negative", n)
		}
		c.defQuota.WriteSetCap = n
		return nil
	}
}

// WithTenantQuota overrides the default quota for one tenant (the name a
// connection announces in HELLO).
func WithTenantQuota(name string, q Quota) Option {
	return func(c *config) error {
		if name == "" {
			return fmt.Errorf("server: WithTenantQuota with empty tenant name")
		}
		if c.tenants == nil {
			c.tenants = make(map[string]Quota)
		}
		c.tenants[name] = q
		return nil
	}
}

// WithBuckets sizes the transactional hash map (buckets) and its
// abstract-lock stripe table. Defaults 1024 buckets, 256 stripes.
func WithBuckets(buckets, stripes int) Option {
	return func(c *config) error {
		if buckets < 1 || stripes < 1 {
			return fmt.Errorf("server: WithBuckets(%d, %d): need at least 1 of each", buckets, stripes)
		}
		c.buckets, c.stripes = buckets, stripes
		return nil
	}
}

// WithSTMConfig supplies the underlying stm.Config template (MaxAttempts
// escalation budget, heap size, orec count, …).
// Algorithm and MaxThreads are managed by the server: set the algorithm
// with WithAlgorithm; MaxThreads is WithWorkers.
func WithSTMConfig(cfg stm.Config) Option {
	return func(c *config) error {
		c.stmConfig = cfg
		c.hasSTMConf = true
		return nil
	}
}

func defaultConfig() config {
	return config{
		algorithm: stm.PVRStore,
		workers:   8,
		maxConns:  4096,
		buckets:   1024,
		stripes:   256,
	}
}
