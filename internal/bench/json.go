package bench

import (
	"encoding/json"
	"io"
	"math"
)

// jsonMeasurement is the stable on-disk form of one cell. It flattens
// Measurement to primitives so result files survive internal struct
// changes, and carries the run configuration that produced the cell.
type jsonMeasurement struct {
	Fig       string `json:"fig,omitempty"`
	Workload  string `json:"workload"`
	Algorithm string `json:"algorithm"`
	Threads   int    `json:"threads"`
	Mix       string `json:"mix"`
	// ZipfTheta is the key-distribution skew the cell ran with (0 = uniform,
	// the default for all figures predating -zipf).
	ZipfTheta  float64 `json:"zipf_theta,omitempty"`
	Ops        uint64  `json:"ops"`
	Seconds    float64 `json:"seconds"`
	Throughput float64 `json:"ops_per_sec"`
	// Stddev is the sample standard deviation of per-repetition
	// throughput; zero when the cell ran fewer than two repetitions.
	Stddev     float64 `json:"ops_per_sec_stddev,omitempty"`
	Runs       int     `json:"runs,omitempty"`
	Aborts     uint64  `json:"aborts"`
	Commits    uint64  `json:"commits"`
	Fenced     uint64  `json:"fenced"`
	Validation uint64  `json:"validations"`
	Extensions uint64  `json:"extensions"`
	Serialized uint64  `json:"serialized"`
	Stalls     uint64  `json:"fence_stalls"`
	// ClockTicks counts global-clock RMWs: one per writer commit, and one
	// per aborted attempt that owned orecs (released at a fresh tick).
	ClockTicks uint64 `json:"clock_ticks,omitempty"`
	// ReclaimCollects counts epoch-collection passes (0 for remote cells).
	ReclaimCollects uint64 `json:"reclaim_collects,omitempty"`
	// SandboxValidations counts validate-before-dangerous-use checkpoints.
	SandboxValidations uint64 `json:"sandbox_validations,omitempty"`
	// SemanticSkips counts commit-time validations skipped because the
	// operation commuted at the abstract level (tds counter-shaped ops).
	SemanticSkips uint64 `json:"semantic_skips,omitempty"`
	// AbstractLockConflicts counts aborts caused by abstract-lock (semantic
	// stripe) acquisition or validation failure rather than word-level orecs.
	AbstractLockConflicts uint64 `json:"abstract_lock_conflicts,omitempty"`
	// remote_* fields: present only on stmbench -remote macro cells.
	// Threads then counts client connections; RemoteWorkers is the server's
	// STM worker-pool size (the transactional footprint the connections
	// multiplex onto).
	RemoteConns          int               `json:"remote_conns,omitempty"`
	RemoteWorkers        int               `json:"remote_workers,omitempty"`
	RemoteP50Us          float64           `json:"remote_p50_us,omitempty"`
	RemoteP99Us          float64           `json:"remote_p99_us,omitempty"`
	RemoteQuotaAborts    uint64            `json:"remote_quota_aborts,omitempty"`
	RemoteTenantQuota    map[string]uint64 `json:"remote_tenant_quota_aborts,omitempty"`
	RemoteDeadlineAborts uint64            `json:"remote_deadline_aborts,omitempty"`
	RemotePrivatizeOps   uint64            `json:"remote_privatize_ops,omitempty"`
	RemoteTransportErrs  uint64            `json:"remote_transport_errs,omitempty"`
}

// jsonFile is the envelope written by WriteJSON.
type jsonFile struct {
	// Label describes the configuration that produced the file (e.g.
	// "scale=1/8 maxattempts=0").
	Label string            `json:"label,omitempty"`
	Cells []jsonMeasurement `json:"cells"`
}

// stddev returns the sample standard deviation of xs (0 for fewer than two
// samples).
func stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	ss := 0.0
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// WriteJSON writes measurements (with a configuration label) as a stable
// JSON document.
func WriteJSON(w io.Writer, label string, ms []*Measurement) error {
	f := jsonFile{Label: label}
	for _, m := range ms {
		jm := jsonMeasurement{
			Fig:                   m.Fig,
			Workload:              m.Workload,
			Algorithm:             m.Algorithm,
			Threads:               m.Threads,
			Mix:                   m.Mix.String(),
			Ops:                   m.Ops,
			Seconds:               m.Elapsed.Seconds(),
			Throughput:            m.Throughput,
			Stddev:                stddev(m.RepThroughputs),
			Runs:                  len(m.RepThroughputs),
			Aborts:                m.Stats.Aborts,
			Commits:               m.Stats.Commits,
			Fenced:                m.Stats.Fenced,
			Validation:            m.Stats.Validations,
			Extensions:            m.Stats.Extensions,
			Serialized:            m.Stats.Serialized,
			Stalls:                m.Stats.FenceStalls,
			ClockTicks:            m.Stats.ClockTicks,
			ReclaimCollects:       m.ReclaimCollects,
			SandboxValidations:    m.Stats.SandboxValidations,
			SemanticSkips:         m.Stats.SemanticSkips,
			AbstractLockConflicts: m.Stats.AbstractLockConflicts,
			ZipfTheta:             m.ZipfTheta,
		}
		if r := m.Remote; r != nil {
			jm.RemoteConns = r.Conns
			jm.RemoteWorkers = r.Workers
			jm.RemoteP50Us = float64(r.P50.Nanoseconds()) / 1e3
			jm.RemoteP99Us = float64(r.P99.Nanoseconds()) / 1e3
			jm.RemoteQuotaAborts = r.QuotaAborts
			jm.RemoteDeadlineAborts = r.DeadlineAborts
			jm.RemotePrivatizeOps = r.PrivatizeOps
			jm.RemoteTransportErrs = r.TransportErrs
			if len(r.TenantQuota) > 0 {
				jm.RemoteTenantQuota = r.TenantQuota
			}
		}
		f.Cells = append(f.Cells, jm)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}
