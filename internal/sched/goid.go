package sched

import "runtime"

// goid returns the calling goroutine's ID, parsed from the runtime.Stack
// header ("goroutine N [running]:"). The runtime offers no public
// accessor; the explorer needs one because the failpoint global hook is
// invoked on whatever goroutine evaluated the point, and must map it back
// to a registered worker (or pass the evaluation through). Stack with
// false (current goroutine only) does not stop the world, but the small
// buffer does not shorten the call: the runtime still walks and formats
// every frame, about a microsecond each. On a 2-CPU Xeon host one call
// took 6.3 µs from a shallow stack and 34 µs from 30 frames down, and
// BenchmarkExploreSchedule's yields cost 17 µs at depth 2 against 40 µs at
// depth 30, so this lookup is most of a scheduling step. It is paid only
// while an exploration is running.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	s := buf[:n]
	const prefix = "goroutine "
	if len(s) < len(prefix) {
		return 0
	}
	s = s[len(prefix):]
	var id uint64
	for i := 0; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
		id = id*10 + uint64(s[i]-'0')
	}
	return id
}
