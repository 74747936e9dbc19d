// Flag cross-validation: stmbench grew many mode and modifier flags, and
// inconsistent combinations used to be silently ignored or half-applied
// (e.g. -remote with a local sweep, -pairs without one). crossValidate
// rejects them uniformly: exit 2 with a usage message on stderr, like the
// long-standing -zipf range check.
package main

import (
	"fmt"
	"strings"
)

// flagValues carries the parsed values crossValidate needs beyond
// mere is-this-flag-set membership.
type flagValues struct {
	remote   string // -remote addr ("" = off)
	fig      string
	compare  bool
	tdscheck bool
	list     bool
	reclaim  bool
	tdssweep bool
	micro    bool
}

// modeNames maps each exclusive top-level mode to the flag that selects it.
func (v *flagValues) modes(set map[string]bool) []string {
	var ms []string
	if v.remote != "" {
		ms = append(ms, "-remote")
	}
	if v.compare {
		ms = append(ms, "-compare")
	}
	if v.tdscheck {
		ms = append(ms, "-tdscheck")
	}
	if v.list {
		ms = append(ms, "-list")
	}
	if v.reclaim {
		ms = append(ms, "-reclaimsweep")
	}
	if v.tdssweep {
		ms = append(ms, "-tdssweep")
	}
	if set["fig"] && v.fig != "" {
		ms = append(ms, "-fig")
	}
	return ms
}

// localOnlyWithRemote lists flags that configure the in-process harness or
// engines and therefore cannot apply to a -remote run (the server was
// configured when stmd started).
var localOnlyWithRemote = []string{
	"fig", "threads", "txns", "scale", "reps", "algos", "mix", "tracker",
	"tdsthreads", "tdsgain", "noreclaim",
	"pairs", "basejson", "maxattempts", "micro", "tolerance", "csv",
}

// remoteOnly lists flags meaningful only with -remote.
var remoteOnly = []string{"conns", "remotemix", "tenants", "keys", "batch"}

// crossValidate checks flag *combinations* (each flag's own value range is
// validated at its point of use). set holds the names explicitly passed on
// the command line (flag.Visit).
func crossValidate(set map[string]bool, v flagValues) error {
	if ms := v.modes(set); len(ms) > 1 {
		return fmt.Errorf("%s select conflicting modes; pick one", strings.Join(ms, " and "))
	}

	if v.remote != "" {
		for _, name := range localOnlyWithRemote {
			if set[name] {
				return fmt.Errorf("-%s configures the local harness and cannot combine with -remote (server-side knobs are stmd flags)", name)
			}
		}
	} else {
		for _, name := range remoteOnly {
			if set[name] {
				return fmt.Errorf("-%s only applies to -remote runs", name)
			}
		}
	}

	anySweep := v.reclaim || v.tdssweep
	if set["pairs"] && !anySweep {
		return fmt.Errorf("-pairs only applies to the paired sweeps (-reclaimsweep, -tdssweep)")
	}
	if set["basejson"] && !anySweep {
		return fmt.Errorf("-basejson only applies to the paired sweeps (-reclaimsweep, -tdssweep)")
	}
	if set["mix"] && anySweep {
		return fmt.Errorf("-mix only applies to figure runs, not the paired sweeps")
	}
	if (set["tdsthreads"] || set["tdsgain"]) && !v.tdscheck {
		return fmt.Errorf("-tdsthreads/-tdsgain only apply to -tdscheck")
	}
	if set["tolerance"] && !v.compare {
		return fmt.Errorf("-tolerance only applies to -compare")
	}
	if v.micro && set["fig"] && v.fig == "" {
		return fmt.Errorf("-fig \"\" with -micro: drop the empty -fig")
	}
	return nil
}
