package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
)

// Client is one stmd connection speaking the wire protocol. Not safe for
// concurrent use — one Client per goroutine, like rng.RNG.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
	req  []byte // request frame (length, opcode, body), reused across calls
	resp []byte // response payload, reused across calls
}

// Dial connects to an stmd instance and announces tenant (empty string
// selects the default quota). Returns the client and the server's
// algorithm label.
func Dial(addr, tenant string) (*Client, string, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	c := &Client{conn: conn, r: bufio.NewReader(conn)}
	c.opFrame(OpHello)
	c.req = append(append(c.req, byte(len(tenant))), tenant...)
	st, body, err := c.roundTrip()
	if err != nil {
		conn.Close()
		return nil, "", err
	}
	if st != StatusOK {
		conn.Close()
		return nil, "", fmt.Errorf("server: HELLO status %d", st)
	}
	r := wireReader{b: body}
	alg, _ := r.str()
	return c, alg, nil
}

// Close tears the connection down.
func (c *Client) Close() error { return c.conn.Close() }

// opFrame starts a request in c.req: room for the frame length, the opcode,
// and the words.
func (c *Client) opFrame(op byte, words ...uint64) {
	c.req = append(c.req[:0], 0, 0, 0, 0, op)
	c.words(words)
}

// words appends vals to the request.
func (c *Client) words(vals []uint64) {
	for _, v := range vals {
		c.req = AppendU64(c.req, v)
	}
}

// roundTrip sends the request in c.req with one write and returns the
// response's status and body. The body aliases c.resp: decode or copy it
// before the next call.
func (c *Client) roundTrip() (byte, []byte, error) {
	binary.BigEndian.PutUint32(c.req, uint32(len(c.req)-frameHeader))
	if _, err := c.conn.Write(c.req); err != nil {
		return 0, nil, err
	}
	resp, err := readFrameInto(c.r, c.resp)
	if err != nil {
		return 0, nil, err
	}
	c.resp = resp
	if len(resp) == 0 {
		return 0, nil, fmt.Errorf("server: empty response frame")
	}
	return resp[0], resp[1:], nil
}

// Get looks keys up in one transaction; found[i] reports presence of
// keys[i], vals[i] its value.
func (c *Client) Get(keys []uint64) (found []bool, vals []uint64, status byte, err error) {
	c.opFrame(OpGet, uint64(len(keys)))
	c.words(keys)
	st, body, err := c.roundTrip()
	if err != nil || st != StatusOK {
		return nil, nil, st, err
	}
	r := wireReader{b: body}
	n, _ := r.u64()
	found = make([]bool, 0, n)
	vals = make([]uint64, 0, n)
	for i := uint64(0); i < n; i++ {
		f, _ := r.u64()
		v, ok := r.u64()
		if !ok {
			return nil, nil, st, fmt.Errorf("server: short GET response")
		}
		found = append(found, f != 0)
		vals = append(vals, v)
	}
	return found, vals, st, nil
}

// Put upserts the pairs (k1,v1,k2,v2,…) in one transaction.
func (c *Client) Put(pairs []uint64) (byte, error) {
	if len(pairs)%2 != 0 {
		return 0, fmt.Errorf("server: Put with odd pair slice")
	}
	c.opFrame(OpPut, uint64(len(pairs)/2))
	c.words(pairs)
	st, _, err := c.roundTrip()
	return st, err
}

// CAS atomically swaps every (key, old, new) triple, all-or-nothing.
func (c *Client) CAS(triples []uint64) (swapped bool, status byte, err error) {
	if len(triples)%3 != 0 {
		return false, 0, fmt.Errorf("server: CAS with non-triple slice")
	}
	c.opFrame(OpCAS, uint64(len(triples)/3))
	c.words(triples)
	st, body, err := c.roundTrip()
	if err != nil || st != StatusOK {
		return false, st, err
	}
	r := wireReader{b: body}
	s, _ := r.u64()
	return s != 0, st, nil
}

// Delete removes keys in one transaction; existed[i] reports whether
// keys[i] was present.
func (c *Client) Delete(keys []uint64) (existed []bool, status byte, err error) {
	c.opFrame(OpDelete, uint64(len(keys)))
	c.words(keys)
	st, body, err := c.roundTrip()
	if err != nil || st != StatusOK {
		return nil, st, err
	}
	r := wireReader{b: body}
	n, _ := r.u64()
	existed = make([]bool, 0, n)
	for i := uint64(0); i < n; i++ {
		e, ok := r.u64()
		if !ok {
			return nil, st, fmt.Errorf("server: short DELETE response")
		}
		existed = append(existed, e != 0)
	}
	return existed, st, nil
}

// Snapshot privatizes map bucket b (mod the server's bucket count): the
// bucket is detached transactionally, weak readers quiesced, and its
// (key,value) pairs — removed from the map — returned.
func (c *Client) Snapshot(b uint64) (pairs []uint64, status byte, err error) {
	c.opFrame(OpSnapshot, b)
	st, body, err := c.roundTrip()
	if err != nil || st != StatusOK {
		return nil, st, err
	}
	r := wireReader{b: body}
	n, _ := r.u64()
	pairs = make([]uint64, 0, 2*n)
	for i := uint64(0); i < 2*n; i++ {
		v, ok := r.u64()
		if !ok {
			return nil, st, fmt.Errorf("server: short SNAPSHOT response")
		}
		pairs = append(pairs, v)
	}
	return pairs, st, nil
}

// Push enqueues vals in one transaction.
func (c *Client) Push(vals []uint64) (byte, error) {
	c.opFrame(OpPush, uint64(len(vals)))
	c.words(vals)
	st, _, err := c.roundTrip()
	return st, err
}

// Pop dequeues up to n values in one transaction.
func (c *Client) Pop(n uint64) (vals []uint64, status byte, err error) {
	c.opFrame(OpPop, n)
	st, body, err := c.roundTrip()
	if err != nil || st != StatusOK {
		return nil, st, err
	}
	r := wireReader{b: body}
	got, _ := r.u64()
	vals = make([]uint64, 0, got)
	for i := uint64(0); i < got; i++ {
		v, ok := r.u64()
		if !ok {
			return nil, st, fmt.Errorf("server: short POP response")
		}
		vals = append(vals, v)
	}
	return vals, st, nil
}

// Stats fetches the server's counter snapshot as raw JSON.
func (c *Client) Stats() ([]byte, error) {
	c.opFrame(OpStats)
	st, body, err := c.roundTrip()
	if err != nil {
		return nil, err
	}
	if st != StatusOK {
		return nil, fmt.Errorf("server: STATS status %d", st)
	}
	return bytes.Clone(body), nil
}
