// Command privtest stress-tests transparent privatization safety with the
// paper's Figure 1 scenario: a privatizer transactionally truncates a
// shared list and processes the nodes without instrumentation while other
// threads transactionally search and modify the same list.
//
// Safe algorithms must report zero violations; the TL2 baseline
// demonstrates the delayed-cleanup and doomed-transaction problems.
//
// Examples:
//
//	privtest                       # all algorithms, default load
//	privtest -algo TL2 -iters 2000 # hammer the unsafe baseline
package main

import (
	"flag"
	"fmt"
	"os"

	stm "privstm"
	"privstm/internal/priv"
)

func main() {
	var (
		algo    = flag.String("algo", "all", "algorithm (figure label, e.g. pvrCAS) or 'all'")
		nodes   = flag.Int("nodes", 32, "list length")
		readers = flag.Int("readers", 3, "non-privatizer threads")
		iters   = flag.Int("iters", 500, "privatization cycles")
		torn    = flag.Bool("torn", true, "widen race windows (yield between mirror accesses)")
	)
	flag.Parse()

	algos := stm.Algorithms
	if *algo != "all" {
		a, err := stm.ParseAlgorithm(*algo)
		if err != nil {
			fmt.Fprintln(os.Stderr, "privtest:", err)
			os.Exit(2)
		}
		algos = []stm.Algorithm{a}
	}

	exit := 0
	for _, a := range algos {
		res, err := priv.Run(priv.Config{
			Algorithm:  a,
			Nodes:      *nodes,
			Readers:    *readers,
			Iterations: *iters,
			TornWindow: *torn,
			// Plain private access only where the algorithm's fences make
			// it genuinely race-free; see internal/priv for the rationale.
			AtomicPrivate: a == stm.TL2 || a == stm.Ord ||
				a == stm.PVRWriterOnly || a == stm.PVRHybrid,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "privtest: %v: %v\n", a, err)
			os.Exit(1)
		}
		verdict := "SAFE"
		if !res.Clean() {
			if a.Safe() {
				verdict = "VIOLATION (BUG!)"
				exit = 1
			} else {
				verdict = "UNSAFE (expected: privatization-unsafe baseline)"
			}
		} else if !a.Safe() {
			verdict = "no violation observed this run (baseline is still unsafe by design)"
		}
		fmt.Printf("%-14s %v  -> %s\n", a, res, verdict)
	}
	os.Exit(exit)
}
