// Package serial implements an offline conflict-serializability checker
// for recorded transaction histories, used to validate every engine
// end-to-end without trusting any of the runtime's own metadata.
//
// The checker handles histories produced under the read-modify-write
// discipline: every transaction that writes an address also reads it first,
// and every written value is globally unique. Under that discipline the
// full version order of each address is recoverable from the history
// alone — each writer names its predecessor by the value it read — and
// conflict-serializability reduces to acyclicity of the precedence graph
// over committed transactions:
//
//	write-read:  the writer of the value a transaction read precedes it;
//	write-write: the writer of the value a writer overwrote precedes it;
//	read-write:  a reader of a value precedes the writer that overwrote it.
//
// A cycle is a proof of non-serializability; acyclicity is a proof of
// serializability (for RMW histories these conflict edges are exact).
package serial

import (
	"fmt"
	"sort"
)

// Op is one access within a transaction record.
type Op struct {
	Addr uint64
	Val  uint64
}

// Txn is one committed transaction: the values its final (committed)
// execution read, and the values it wrote. A transaction that wrote Addr
// must also have a read of Addr (the RMW discipline); the checker rejects
// histories that violate it.
type Txn struct {
	ID     int
	Reads  []Op
	Writes []Op
}

// History is a set of committed transactions plus the initial values of
// all addresses (anything unlisted starts at 0... explicitly: reads of
// value 0 refer to the initial state).
type History struct {
	Txns []Txn
}

// Check verifies conflict-serializability. It returns nil if the history
// is serializable, and otherwise an error describing the violation: a
// malformed history (duplicate written values, a write without a read, two
// writers claiming the same predecessor), a read of a value no transaction
// in the history wrote, or a precedence cycle, named transaction by
// transaction with each edge's address and value.
func Check(h *History) error {
	const initial = -1 // pseudo-transaction that wrote every initial value

	// writerOf maps (addr, value) -> txn index that wrote it.
	type av struct{ a, v uint64 }
	writerOf := map[av]int{}
	for i, t := range h.Txns {
		for _, w := range t.Writes {
			if w.Val == 0 {
				return fmt.Errorf("serial: txn %d wrote reserved value 0 to %d", t.ID, w.Addr)
			}
			k := av{w.Addr, w.Val}
			if prev, dup := writerOf[k]; dup {
				return fmt.Errorf("serial: value %d@%d written by txns %d and %d",
					w.Val, w.Addr, h.Txns[prev].ID, t.ID)
			}
			writerOf[k] = i
		}
	}
	// readOf maps txn index -> addr -> value read (first read).
	readVal := make([]map[uint64]uint64, len(h.Txns))
	for i, t := range h.Txns {
		readVal[i] = make(map[uint64]uint64, len(t.Reads))
		for _, r := range t.Reads {
			if _, dup := readVal[i][r.Addr]; !dup {
				readVal[i][r.Addr] = r.Val
			}
		}
	}

	// successor maps (addr, value) -> the txn that overwrote it; derived
	// from each writer's own read. Also validates the RMW discipline.
	succ := map[av]int{}
	over := map[av]uint64{} // (addr, value) -> the value that overwrote it
	for i, t := range h.Txns {
		for _, w := range t.Writes {
			rv, ok := readVal[i][w.Addr]
			if !ok {
				return fmt.Errorf("serial: txn %d wrote %d without reading it (RMW discipline)",
					t.ID, w.Addr)
			}
			k := av{w.Addr, rv}
			if prev, dup := succ[k]; dup {
				return fmt.Errorf("serial: txns %d and %d both overwrote value %d@%d (lost update)",
					h.Txns[prev].ID, t.ID, rv, w.Addr)
			}
			succ[k], over[k] = i, w.Val
		}
	}

	// Build the precedence graph. Each edge keeps the access that made it,
	// so a cycle can be reported edge by edge.
	n := len(h.Txns)
	adj := make([][]edge, n)
	addEdge := func(from int, e edge) {
		if from != e.to && from != initial {
			adj[from] = append(adj[from], e)
		}
	}
	writerOrInitial := func(a, v uint64) (int, error) {
		if v == 0 {
			return initial, nil
		}
		w, ok := writerOf[av{a, v}]
		if !ok {
			return 0, fmt.Errorf("serial: read of value %d@%d with no writer", v, a)
		}
		return w, nil
	}
	for i := range h.Txns {
		for a, v := range readVal[i] {
			w, err := writerOrInitial(a, v)
			if err != nil {
				return err
			}
			// write-read: w precedes i (also covers write-write, since a
			// writer's own read names its version predecessor).
			addEdge(w, edge{to: i, addr: a, val: v})
			// read-write (anti-dependency): i precedes whoever overwrote v —
			// unless i overwrote it itself.
			if s, ok := succ[av{a, v}]; ok && s != i {
				addEdge(i, edge{to: s, addr: a, val: v, over: over[av{a, v}]})
			}
		}
	}

	// Cycle detection (iterative three-color DFS). The stack is the grey
	// path from the root, as the edges that reached each node, so an edge
	// back to a grey node closes a cycle through the stack's tail.
	color := make([]byte, n) // 0 white, 1 grey, 2 black
	var stack []edge
	for start := 0; start < n; start++ {
		if color[start] != 0 {
			continue
		}
		stack = append(stack[:0], edge{to: start})
		for len(stack) > 0 {
			u := stack[len(stack)-1].to
			if color[u] == 0 {
				color[u] = 1
			}
			advanced := false
			for _, e := range adj[u] {
				switch color[e.to] {
				case 0:
					stack = append(stack, e)
					advanced = true
				case 1:
					k := len(stack) - 1
					for stack[k].to != e.to {
						k--
					}
					cycle := fmt.Sprintf("txn %d", h.Txns[e.to].ID)
					for _, f := range append(stack[k+1:], e) {
						cycle += fmt.Sprintf(" %v txn %d", f, h.Txns[f.to].ID)
					}
					return fmt.Errorf("serial: precedence cycle: %s", cycle)
				}
				if advanced {
					break
				}
			}
			if !advanced {
				color[u] = 2
				stack = stack[:len(stack)-1]
			}
		}
	}
	return nil
}

// edge is one precedence edge into transaction to. Either the source wrote
// val at addr and the target read it (write-read, which also covers
// write-write), or, when over is set, the source read val at addr and the
// target overwrote it with over (read-write).
type edge struct {
	to              int
	addr, val, over uint64
}

// String renders the edge as an arrow for a cycle report.
func (e edge) String() string {
	if e.over != 0 {
		return fmt.Sprintf("-[read %d@%d, overwritten with %d by]->", e.val, e.addr, e.over)
	}
	return fmt.Sprintf("-[wrote %d@%d, read by]->", e.val, e.addr)
}

// SortByID orders the history deterministically for reproducible error
// messages in tests.
func (h *History) SortByID() {
	sort.Slice(h.Txns, func(i, j int) bool { return h.Txns[i].ID < h.Txns[j].ID })
}
