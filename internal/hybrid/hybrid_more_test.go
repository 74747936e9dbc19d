package hybrid

import (
	"testing"

	"privstm/internal/core"
	"privstm/internal/heap"
)

// TestWritePathTriggersSwitch: the mode-switch rule is monitored at writes
// too ("monitoring the global clock at each read and write", §IV).
func TestWritePathTriggersSwitch(t *testing.T) {
	rt := newRT(t)
	e := New(rt)
	th, _ := rt.NewThread()
	base := rt.Heap.MustAlloc(64)
	stride := heap.Addr(rt.Orecs.BlockWords()) // one read-set entry per block
	if err := core.Run(e, th, func() {
		rt.Clock.Tick()
		for i := heap.Addr(0); i < 20; i++ {
			_ = e.Read(th, base+i*stride)
		}
		// The reads crossed the threshold with a moved clock; by now the
		// transaction has switched. A write must find it visible.
		e.Write(th, base+60, 1)
		if !th.Visible {
			t.Error("transaction not visible after threshold + clock movement")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCancelWhileVisible(t *testing.T) {
	rt := newRT(t)
	e := New(rt)
	th, _ := rt.NewThread()
	base := rt.Heap.MustAlloc(64)
	stride := heap.Addr(rt.Orecs.BlockWords()) // one read-set entry per block
	err := core.Run(e, th, func() {
		rt.Clock.Tick()
		for i := heap.Addr(0); i < 20; i++ {
			_ = e.Read(th, base+i*stride)
		}
		if !th.Visible {
			t.Fatal("expected visible mode")
		}
		th.UserCancel(errBoom)
	})
	if err != errBoom {
		t.Fatal(err)
	}
	if rt.Active.Count() != 0 {
		t.Error("tracker not empty after visible cancel")
	}
}

type errString string

func (e errString) Error() string { return string(e) }

var errBoom = errString("boom")

// TestRedoReadYourWritesInvisibleAndVisible: read-your-writes must hold in
// both modes.
func TestRedoReadYourWritesInvisibleAndVisible(t *testing.T) {
	rt := newRT(t)
	e := New(rt)
	th, _ := rt.NewThread()
	base := rt.Heap.MustAlloc(64)
	if err := core.Run(e, th, func() {
		e.Write(th, base, 7)
		if got := e.Read(th, base); got != 7 {
			t.Errorf("invisible RYW = %d", got)
		}
		rt.Clock.Tick()
		for i := 1; i < 24; i++ {
			_ = e.Read(th, base+heap.Addr(i))
		}
		e.Write(th, base+32, 9)
		if got := e.Read(th, base); got != 7 {
			t.Errorf("visible RYW = %d", got)
		}
		if got := e.Read(th, base+32); got != 9 {
			t.Errorf("visible RYW new = %d", got)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if rt.Heap.AtomicLoad(base) != 7 || rt.Heap.AtomicLoad(base+32) != 9 {
		t.Error("write-back missing")
	}
}

// TestHybridCommitValidationFailurePassesTicket: a hybrid writer whose
// validation fails at commit must hand the ticket on and leave the tracker.
func TestHybridCommitValidationFailurePassesTicket(t *testing.T) {
	rt := newRT(t)
	e := New(rt)
	r, _ := rt.NewThread()
	w, _ := rt.NewThread()
	x := rt.Heap.MustAlloc(1)
	y := rt.Heap.MustAlloc(600)
	if rt.Orecs.For(x) == rt.Orecs.For(y+512) {
		t.Skip("orec collision")
	}
	attempts := 0
	if err := core.Run(e, r, func() {
		attempts++
		v := e.Read(r, x)
		if attempts == 1 {
			if err := core.Run(e, w, func() { e.Write(w, x, 5) }); err != nil {
				t.Fatal(err)
			}
		}
		e.Write(r, y+512, v+1)
	}); err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Errorf("attempts = %d, want 2", attempts)
	}
	// The system must still be usable (ticket passed on).
	if err := core.Run(e, w, func() { e.Write(w, x, 6) }); err != nil {
		t.Fatal(err)
	}
	if rt.Active.Count() != 0 {
		t.Error("tracker not empty")
	}
}
