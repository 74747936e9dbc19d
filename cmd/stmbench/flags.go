// Flag cross-validation: stmbench has three exclusive modes (-fig, -list,
// -remote) and modifier flags that apply to only some of them. Inconsistent
// combinations used to be silently ignored or half-applied (e.g. -threads
// with -remote); crossValidate rejects them uniformly: exit 2 with a usage
// message on stderr, like the long-standing -zipf range check.
package main

import (
	"fmt"
	"strings"
)

// flagValues carries the parsed values crossValidate needs beyond
// mere is-this-flag-set membership.
type flagValues struct {
	remote string // -remote addr ("" = off)
	fig    string
	list   bool
	args   []string // positional arguments (flag.Args)
}

// modes lists each exclusive top-level mode the flags select.
func (v *flagValues) modes(set map[string]bool) []string {
	var ms []string
	if v.remote != "" {
		ms = append(ms, "-remote")
	}
	if v.list {
		ms = append(ms, "-list")
	}
	if set["fig"] && v.fig != "" {
		ms = append(ms, "-fig")
	}
	return ms
}

// localOnlyWithRemote lists flags that configure the in-process harness or
// engines and therefore cannot apply to a -remote run (the server was
// configured when stmd started). The profiles sample this process, which
// under -remote only drives the network, so they are local-only too.
var localOnlyWithRemote = []string{
	"fig", "threads", "txns", "scale", "reps", "algos", "mix", "maxattempts",
	"csv", "cpuprofile", "memprofile", "mutexprofile",
}

// remoteOnly lists flags meaningful only with -remote.
var remoteOnly = []string{"conns", "remotemix", "tenants", "keys", "batch"}

// crossValidate checks flag *combinations* (each flag's own value range is
// validated at its point of use). set holds the names explicitly passed on
// the command line (flag.Visit).
func crossValidate(set map[string]bool, v flagValues) error {
	if len(v.args) > 0 {
		return fmt.Errorf("unexpected argument %q: no mode takes positional arguments", v.args[0])
	}
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
	return nil
}
