package stm_test

import (
	"fmt"

	stm "privstm"
)

// The basic transaction lifecycle: allocate, mutate atomically, read back.
func Example() {
	s := stm.MustNew(stm.Config{Algorithm: stm.PVRStore, HeapWords: 1 << 10})
	th := s.MustNewThread()
	acct := s.MustAlloc(2)

	_ = th.Atomic(func(tx *stm.Tx) {
		tx.Store(acct, 100)   // balance
		tx.Store(acct+1, 925) // account id
	})
	_ = th.Atomic(func(tx *stm.Tx) {
		tx.Store(acct, tx.Load(acct)-30)
	})
	// With the thread closed, Quiescent reads the heap uninstrumented.
	_ = th.Close()
	_ = s.Quiescent(func(h stm.Private) { fmt.Println("balance:", h.Load(acct)) })
	// Output: balance: 70
}

// Privatization by pointer swap: after the transactional detach commits,
// the data is accessed with plain loads — the zero-instrumentation access
// the paper's techniques make safe.
func Example_privatization() {
	s := stm.MustNew(stm.Config{Algorithm: stm.PVRBase, HeapWords: 1 << 10})
	th := s.MustNewThread()

	slot := s.MustAlloc(1) // shared pointer cell
	data := s.MustAlloc(3)
	_ = th.Atomic(func(tx *stm.Tx) {
		for i := stm.Addr(0); i < 3; i++ {
			tx.Store(data+i, stm.Word(i)*11)
		}
		tx.StoreAddr(slot, data) // publish
	})

	mine, _ := th.Privatize(func(tx *stm.Tx) (stm.Addr, int) {
		p := tx.LoadAddr(slot)
		tx.StoreAddr(slot, stm.Nil) // privatize: the fence runs here if needed
		return p, 3
	})
	sum := stm.Word(0)
	for i := stm.Addr(0); i < 3; i++ {
		sum += mine.Load(i) // uninstrumented
	}
	fmt.Println("sum:", sum)
	// Output: sum: 33
}

// Tx.Cancel rolls the transaction back and surfaces an error instead of
// retrying.
func ExampleTx_Cancel() {
	s := stm.MustNew(stm.Config{Algorithm: stm.Ord, HeapWords: 1 << 10})
	th := s.MustNewThread()
	a := s.MustAlloc(1)

	err := th.Atomic(func(tx *stm.Tx) {
		tx.Store(a, 42)
		if tx.Load(a) > 10 {
			tx.Cancel(fmt.Errorf("limit exceeded"))
		}
	})
	fmt.Println("err:", err)
	_ = th.Close()
	_ = s.Quiescent(func(h stm.Private) { fmt.Println("value:", h.Load(a)) })
	// Output:
	// err: limit exceeded
	// value: 0
}

// Algorithms are selected by configuration; their figure labels round-trip
// through ParseAlgorithm.
func ExampleParseAlgorithm() {
	a, _ := stm.ParseAlgorithm("pvrWriterOnly")
	fmt.Println(a, a.Safe())
	b, _ := stm.ParseAlgorithm("TL2")
	fmt.Println(b, b.Safe())
	// Output:
	// pvrWriterOnly true
	// TL2 false
}

// Tracing records the events of each attempt, including retries.
func ExampleThread_EnableTrace() {
	s := stm.MustNew(stm.Config{Algorithm: stm.Val, HeapWords: 1 << 10})
	th := s.MustNewThread()
	a := s.MustAlloc(1)
	th.EnableTrace(32)
	_ = th.Atomic(func(tx *stm.Tx) { tx.Store(a, 7) })
	for _, e := range th.Trace() {
		fmt.Println(e)
	}
	// Output:
	// attempt #1
	// write 2=7
	// commit
}
