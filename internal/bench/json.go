package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// jsonMeasurement is the stable on-disk form of one cell. It flattens
// Measurement to primitives so baseline files survive internal struct
// changes, and carries the run configuration needed to match cells across
// files.
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
	Stddev float64 `json:"ops_per_sec_stddev,omitempty"`
	Runs   int     `json:"runs,omitempty"`
	// PairedMedianPct is the median of the per-pair throughput deltas
	// against the interleaved baseline run (RunPaired cells only).
	PairedMedianPct float64 `json:"paired_median_delta_pct,omitempty"`
	Pairs           int     `json:"pairs,omitempty"`
	Aborts          uint64  `json:"aborts"`
	Commits         uint64  `json:"commits"`
	Fenced          uint64  `json:"fenced"`
	Validation      uint64  `json:"validations"`
	Extensions      uint64  `json:"extensions"`
	Serialized      uint64  `json:"serialized"`
	Stalls          uint64  `json:"fence_stalls"`
	// ClockTicks counts commit-path global-clock RMWs (one per writer
	// commit).
	ClockTicks uint64 `json:"clock_ticks,omitempty"`
	// ReclaimCollects counts epoch-collection passes; 0 when the cell ran
	// without the reclaimer (FreePool/FreeLeak, or older baseline files).
	ReclaimCollects uint64 `json:"reclaim_collects,omitempty"`
	// SandboxValidations counts validate-before-dangerous-use checkpoints.
	SandboxValidations uint64 `json:"sandbox_validations,omitempty"`
	// SemanticSkips counts commit-time validations skipped because the
	// operation commuted at the abstract level (tds counter-shaped ops).
	SemanticSkips uint64 `json:"semantic_skips,omitempty"`
	// AbstractLockConflicts counts aborts caused by abstract-lock (semantic
	// stripe) acquisition or validation failure rather than word-level orecs.
	AbstractLockConflicts uint64 `json:"abstract_lock_conflicts,omitempty"`
	// Structs carries per-structure op/abort attribution for mixed
	// workloads (e.g. "map" and "queue" in the tds cell).
	Structs map[string]jsonStructStat `json:"structs,omitempty"`
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
	// Exhausted marks a cell that ran the heap out of address space before
	// completing its quota (leak-policy soak cells).
	Exhausted bool `json:"exhausted,omitempty"`
}

// jsonStructStat is the on-disk per-structure abort attribution.
type jsonStructStat struct {
	Ops      uint64  `json:"ops"`
	Aborts   uint64  `json:"aborts"`
	AbortPct float64 `json:"abort_pct"`
}

// jsonMicro is the on-disk form of one read-path microbenchmark result.
type jsonMicro struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// jsonFile is the envelope written by WriteJSON.
type jsonFile struct {
	// Label describes the configuration that produced the file (e.g.
	// "tracker=slot extension=on"); Compare prints it in its header.
	Label string            `json:"label,omitempty"`
	Cells []jsonMeasurement `json:"cells"`
	Micro []jsonMicro       `json:"micro,omitempty"`
}

// cellKey identifies a measurement across baseline and candidate files.
func (jm *jsonMeasurement) cellKey() string {
	k := fmt.Sprintf("%s|%s|%s|%d|%s", jm.Fig, jm.Workload, jm.Algorithm, jm.Threads, jm.Mix)
	// Key skew participates only when non-uniform (the historic default), so
	// baselines written before the field existed keep matching.
	if jm.ZipfTheta > 0 {
		k += fmt.Sprintf("|z%.2f", jm.ZipfTheta)
	}
	// Remote macro cells are keyed by connection count too (Threads already
	// carries it, but the explicit tag keeps local and remote cells from
	// ever aliasing).
	if jm.RemoteConns > 0 {
		k += fmt.Sprintf("|c%d", jm.RemoteConns)
	}
	return k
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
// JSON document for later comparison with Compare.
func WriteJSON(w io.Writer, label string, ms []*Measurement) error {
	return WriteJSONReport(w, label, ms, nil)
}

// WriteJSONReport is WriteJSON plus an optional microbenchmark section.
func WriteJSONReport(w io.Writer, label string, ms []*Measurement, micro []MicroResult) error {
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
			Exhausted:             m.Exhausted,
		}
		if len(m.Structs) > 0 {
			jm.Structs = make(map[string]jsonStructStat, len(m.Structs))
			for name, ss := range m.Structs {
				jm.Structs[name] = jsonStructStat{Ops: ss.Ops, Aborts: ss.Aborts, AbortPct: ss.AbortPct()}
			}
		}
		if len(m.PairDeltas) > 0 {
			jm.PairedMedianPct = Median(m.PairDeltas)
			jm.Pairs = len(m.PairDeltas)
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
	for _, mr := range micro {
		f.Micro = append(f.Micro, jsonMicro(mr))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

func readJSONFile(path string) (jsonFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return jsonFile{}, err
	}
	var f jsonFile
	if err := json.Unmarshal(data, &f); err != nil {
		return jsonFile{}, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return f, nil
}

// ReadJSON loads a document produced by WriteJSON.
func ReadJSON(path string) (label string, cells []jsonMeasurement, err error) {
	f, err := readJSONFile(path)
	if err != nil {
		return "", nil, err
	}
	return f.Label, f.Cells, nil
}

// Compare prints a per-cell throughput delta table between two WriteJSON
// documents, matching cells by (fig, workload, algorithm, threads, mix,
// non-uniform key skew) and microbenchmarks by name. It returns the
// worst (most negative) percentage change over all matched cells and
// micros; for micros the delta is expressed in throughput terms
// (old ns/op vs new ns/op), so slower is negative, same as cells.
func Compare(w io.Writer, oldPath, newPath string) (worstPct float64, err error) {
	oldFile, err := readJSONFile(oldPath)
	if err != nil {
		return 0, err
	}
	newFile, err := readJSONFile(newPath)
	if err != nil {
		return 0, err
	}
	oldCells, newCells := oldFile.Cells, newFile.Cells
	oldBy := make(map[string]*jsonMeasurement, len(oldCells))
	for i := range oldCells {
		oldBy[oldCells[i].cellKey()] = &oldCells[i]
	}

	fmt.Fprintf(w, "baseline:  %s (%s)\n", oldPath, orUnlabeled(oldFile.Label))
	fmt.Fprintf(w, "candidate: %s (%s)\n\n", newPath, orUnlabeled(newFile.Label))
	fmt.Fprintf(w, "%-4s %-22s %-14s %7s %9s  %12s %12s %8s\n",
		"fig", "workload", "algorithm", "threads", "mix", "old ops/s", "new ops/s", "delta")

	matched := 0
	note := func(pct float64) {
		if matched == 0 || pct < worstPct {
			worstPct = pct
		}
		matched++
	}
	var unmatchedNew []string
	sorted := append([]jsonMeasurement(nil), newCells...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].cellKey() < sorted[j].cellKey() })
	for i := range sorted {
		nc := &sorted[i]
		oc, ok := oldBy[nc.cellKey()]
		if !ok {
			unmatchedNew = append(unmatchedNew, nc.cellKey())
			continue
		}
		delete(oldBy, nc.cellKey())
		pct := 0.0
		if oc.Throughput > 0 {
			pct = 100 * (nc.Throughput - oc.Throughput) / oc.Throughput
		}
		note(pct)
		fmt.Fprintf(w, "%-4s %-22s %-14s %7d %9s  %12.0f %12.0f %+7.1f%%\n",
			nc.Fig, nc.Workload, nc.Algorithm, nc.Threads, nc.Mix,
			oc.Throughput, nc.Throughput, pct)
		if nc.SemanticSkips > 0 || oc.SemanticSkips > 0 {
			fmt.Fprintf(w, "     · semantic skips %d -> %d, abstract-lock conflicts %d -> %d\n",
				oc.SemanticSkips, nc.SemanticSkips,
				oc.AbstractLockConflicts, nc.AbstractLockConflicts)
		}
		if len(nc.Structs) > 0 || len(oc.Structs) > 0 {
			names := make([]string, 0, len(nc.Structs)+len(oc.Structs))
			seen := map[string]bool{}
			for name := range oc.Structs {
				names, seen[name] = append(names, name), true
			}
			for name := range nc.Structs {
				if !seen[name] {
					names = append(names, name)
				}
			}
			sort.Strings(names)
			for _, name := range names {
				os, ns := oc.Structs[name], nc.Structs[name]
				fmt.Fprintf(w, "     · %-8s abort rate %5.2f%% -> %5.2f%%  (%d/%d -> %d/%d aborts/ops)\n",
					name, os.AbortPct, ns.AbortPct, os.Aborts, os.Ops, ns.Aborts, ns.Ops)
			}
		}
	}

	if len(oldFile.Micro) > 0 && len(newFile.Micro) > 0 {
		oldMicro := make(map[string]jsonMicro, len(oldFile.Micro))
		for _, m := range oldFile.Micro {
			oldMicro[m.Name] = m
		}
		fmt.Fprintf(w, "\n%-28s %12s %12s %8s  %s\n",
			"microbenchmark", "old ns/op", "new ns/op", "delta", "allocs old->new")
		for _, nm := range newFile.Micro {
			om, ok := oldMicro[nm.Name]
			if !ok {
				continue
			}
			pct := 0.0
			if om.NsPerOp > 0 {
				// Throughput-style sign: fewer ns/op is positive.
				pct = 100 * (om.NsPerOp - nm.NsPerOp) / om.NsPerOp
			}
			note(pct)
			fmt.Fprintf(w, "%-28s %12.1f %12.1f %+7.1f%%  %.0f -> %.0f\n",
				nm.Name, om.NsPerOp, nm.NsPerOp, pct, om.AllocsPerOp, nm.AllocsPerOp)
		}
	}

	fmt.Fprintf(w, "\n%d entries compared; worst delta %+.1f%%\n", matched, worstPct)
	if len(unmatchedNew) > 0 {
		fmt.Fprintf(w, "only in candidate: %d cells\n", len(unmatchedNew))
	}
	if len(oldBy) > 0 {
		fmt.Fprintf(w, "only in baseline: %d cells\n", len(oldBy))
	}
	return worstPct, nil
}

func orUnlabeled(label string) string {
	if label == "" {
		return "unlabeled"
	}
	return label
}
