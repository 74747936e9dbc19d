package server

import (
	"math/bits"
	"sync"
)

const (
	// poolClasses is the number of buffer sizes the pool keeps: a power of
	// two from 2×retainBytes (8 KiB) to 128 KiB, plus classSlack. The
	// largest holds the widest request (a maxOpKeys CAS, 96 KiB) and every
	// response but a large SNAPSHOT's (a maxOpKeys GET, 64 KiB + 13 bytes,
	// fills the 64 KiB class).
	poolClasses = 5
	// classSlack is the room each class keeps above its power of two for
	// the bytes around a power-of-two count of words: at most 13, a frame
	// header, a status and a count. Without it each such payload, like the
	// 8201-byte PUT of 512 pairs, would take the next class up, twice its
	// size.
	classSlack = 16
	// poolStash is how many free buffers the pool keeps of each class.
	poolStash = 4
	// poolBound is the most the pool retains: a full stash of every class,
	// just over 992 KiB.
	poolBound = poolStash * (retainBytes<<(poolClasses+1) - retainBytes<<1 + poolClasses*classSlack)
)

// bufPool lends the request and response buffers larger than retainBytes,
// so an exchange of any size reuses memory instead of growing fresh buffers
// that a connection must drop again. A buffer is lent for one exchange and
// put back once its response is written. Free buffers wait in a stash of
// poolStash per class; a buffer put back to a full stash, and one larger
// than the largest class, is left to the collector. The mutex is held only
// to move one slice in or out of a stash.
type bufPool struct {
	mu    sync.Mutex
	lent  int // buffers out on loan; a buffer put back twice drives it below 0
	n     [poolClasses]int
	stash [poolClasses][poolStash][]byte
}

// class is the smallest class that holds n bytes (n > retainBytes), and
// classBytes that class's buffer size; a class of poolClasses or more is
// larger than the pool keeps.
func class(n int) int      { return max(0, bits.Len(uint(n-classSlack-1))-bits.Len(retainBytes)) }
func classBytes(c int) int { return retainBytes<<(c+1) + classSlack }

// get lends an empty buffer with room for n > retainBytes bytes.
func (p *bufPool) get(n int) []byte {
	c := class(n)
	p.mu.Lock()
	p.lent++
	if c < poolClasses && p.n[c] > 0 {
		p.n[c]--
		b := p.stash[c][p.n[c]]
		p.stash[c][p.n[c]] = nil
		p.mu.Unlock()
		return b[:0]
	}
	p.mu.Unlock()
	if c < poolClasses {
		n = classBytes(c)
	}
	return make([]byte, 0, n)
}

// put takes back a buffer that get lent. The caller must drop every
// reference to it: the next get may hand it to another connection.
func (p *bufPool) put(b []byte) {
	c := class(cap(b))
	p.mu.Lock()
	p.lent--
	if c < poolClasses && cap(b) == classBytes(c) && p.n[c] < poolStash {
		p.stash[c][p.n[c]] = b
		p.n[c]++
	}
	p.mu.Unlock()
}
