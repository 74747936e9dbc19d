// Wire protocol of stmd: length-prefixed binary frames over TCP.
//
// Every frame — both directions — is a 4-byte big-endian payload length
// followed by that many payload bytes. A request payload is a 1-byte opcode
// and an op-specific body; a response payload is a 1-byte status and a body.
// Multi-byte integers are big-endian uint64 ("words", matching stm.Word);
// strings are a 1-byte length followed by raw bytes. Requests on one
// connection are strictly sequential: one response per request, in order.
//
// Requests:
//
//	HELLO    tenant:string            — bind the connection to a tenant
//	GET      n:u64, n × key:u64       — transactional multi-key lookup
//	PUT      n:u64, n × (key,val)     — transactional multi-key upsert
//	CAS      n:u64, n × (key,old,new) — all-or-nothing compare-and-swap
//	DELETE   n:u64, n × key           — transactional multi-key delete
//	SNAPSHOT bucket:u64               — privatize one map bucket: detach it,
//	                                    quiesce weak readers, walk it
//	                                    uninstrumented, retire the nodes,
//	                                    return the (key,val) pairs removed
//	PUSH     n:u64, n × val           — enqueue values
//	POP      n:u64                    — dequeue up to n values
//	STATS                             — server counters as a JSON object
//
// Responses (status OK):
//
//	HELLO    algorithm:string
//	GET      n:u64, n × (found:u64, val:u64)
//	PUT      —
//	CAS      swapped:u64 (1 = all swapped, 0 = no-op)
//	DELETE   n:u64, n × existed:u64
//	SNAPSHOT n:u64, n × (key,val)
//	PUSH     —
//	POP      n:u64, n × val
//	STATS    json:bytes (rest of payload)
//
// Non-OK statuses carry no body; the status byte itself is the error
// (quota, deadline, cancel, bad request, unsupported op, server draining).
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Opcodes.
const (
	OpHello byte = iota + 1
	OpGet
	OpPut
	OpCAS
	OpDelete
	OpSnapshot
	OpPush
	OpPop
	OpStats
)

// Response status codes.
const (
	StatusOK          byte = 0
	StatusReadQuota   byte = 1 // read-set cap exceeded, transaction aborted
	StatusWriteQuota  byte = 2 // write-set cap exceeded, transaction aborted
	StatusDeadline    byte = 3 // per-tenant transaction deadline exceeded
	StatusCancelled   byte = 4 // transaction cancelled for another reason
	StatusBadRequest  byte = 5 // malformed frame or out-of-range argument
	StatusUnsupported byte = 6 // op not supported by the configured engine
	StatusDraining    byte = 7 // server is shutting down or at MaxConns
)

// MaxFrame bounds a single frame's payload; larger announcements are
// rejected before allocation (a garbage length prefix must not OOM the
// server).
const MaxFrame = 1 << 20

// frameHeader is the size of the big-endian length prefix.
const frameHeader = 4

var errFrameTooLarge = errors.New("server: frame exceeds MaxFrame")

// ReadFrame reads one length-prefixed frame payload into a fresh slice.
func ReadFrame(r io.Reader) ([]byte, error) { return readFrameInto(r, nil) }

// readFrameInto reads one frame into buf's backing array, growing it only
// when the payload does not fit, and returns the payload. The slice aliases
// buf: it is valid until the next call with the same buffer. The length
// prefix is staged in the buffer too, so a steady-state read allocates
// nothing.
func readFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < frameHeader {
		buf = make([]byte, frameHeader)
	}
	n, err := readFrameLen(r, buf)
	if err != nil {
		return nil, err
	}
	if n > cap(buf) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// readFrameLen reads a frame's length prefix, staged in the first
// frameHeader bytes of buf's backing array, and checks it against MaxFrame.
func readFrameLen(r io.Reader, buf []byte) (int, error) {
	hdr := buf[:frameHeader]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > MaxFrame {
		return 0, errFrameTooLarge
	}
	return n, nil
}

// WriteFrame writes payload as one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// AppendU64 appends v big-endian.
func AppendU64(b []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(b, v)
}

// AppendString appends a 1-byte-length-prefixed string (≤ 255 bytes).
func AppendString(b []byte, s string) ([]byte, error) {
	if len(s) > 255 {
		return nil, fmt.Errorf("server: string %q exceeds 255 bytes", s[:16]+"…")
	}
	return append(append(b, byte(len(s))), s...), nil
}

// wireReader consumes a request body field by field.
type wireReader struct {
	b []byte
}

func (r *wireReader) u64() (uint64, bool) {
	if len(r.b) < 8 {
		return 0, false
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v, true
}

func (r *wireReader) str() (string, bool) {
	if len(r.b) < 1 {
		return "", false
	}
	n := int(r.b[0])
	if len(r.b) < 1+n {
		return "", false
	}
	s := string(r.b[1 : 1+n])
	r.b = r.b[1+n:]
	return s, true
}

func (r *wireReader) empty() bool { return len(r.b) == 0 }
