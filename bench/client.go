package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// ackRec is the newest write to one key that one connection has had
// acknowledged: which value, when its burst was flushed and when STORED
// was read. The times order acknowledged writes of different connections
// for the post-restart check.
type ackRec struct {
	seq           uint64
	sendNs, ackNs int64
}

// client is one load connection: its socket, its op generator and the
// oracle state it checks replies against. One goroutine owns it.
type client struct {
	id  int
	d   *dataset
	gen *generator
	nc  net.Conn
	br  *bufio.Reader
	out []byte
	ops []op

	acked  []ackRec                // per key
	onRead func(key int, v []byte) // replaces checkRead when set

	attempted, failed uint64
	firstFailure      string
	casStored         uint64
	casExists         uint64
}

// newClient makes connection id's generator and oracle state without a
// socket: the traced run drives the layers below the protocol with it.
func newClient(id int, d *dataset, seed int64) *client {
	return &client{id: id, d: d, gen: newGenerator(d.w, seed, id), acked: make([]ackRec, len(d.keys))}
}

func dialClient(addr string, id int, d *dataset, seed int64) (*client, error) {
	nc, err := net.DialTimeout("tcp", addr, opTimeout)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	c := newClient(id, d, seed)
	c.nc, c.br = nc, bufio.NewReaderSize(nc, 64<<10)
	return c, nil
}

func (c *client) close() { c.nc.Close() }

func (c *client) fail(format string, args ...any) {
	c.failed++
	if c.firstFailure == "" {
		c.firstFailure = fmt.Sprintf("conn %d: ", c.id) + fmt.Sprintf(format, args...)
	}
}

// encode appends o's request bytes.
func (c *client) encode(dst []byte, o *op, noreply bool) []byte {
	switch o.kind {
	case opGet, opGets:
		if o.kind == opGet {
			dst = append(dst, "get"...)
		} else {
			dst = append(dst, "gets"...)
		}
		for i := 0; i < o.nkeys; i++ {
			dst = append(dst, ' ')
			dst = append(dst, c.d.keys[o.keys[i]]...)
		}
		return append(dst, "\r\n"...)
	case opSet:
		dst = append(dst, "set "...)
	case opCas:
		dst = append(dst, "cas "...)
	}
	dst = append(dst, c.d.keys[o.keys[0]]...)
	dst = append(dst, " 0 0 "...)
	dst = strconv.AppendInt(dst, int64(c.d.w.valueLen), 10)
	if o.kind == opCas {
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, o.token, 10)
	}
	if noreply {
		dst = append(dst, " noreply"...)
	}
	dst = append(dst, "\r\n"...)
	dst = c.d.appendValue(dst, o.keys[0], uint64(c.id), o.seq)
	return append(dst, "\r\n"...)
}

// sampleFn receives each checked reply: its latency from t0 and the time
// it was fully read.
type sampleFn func(latency time.Duration, at time.Time)

// prepare generates the next n ops and encodes them.
func (c *client) prepare(n int) {
	c.ops = c.ops[:0]
	c.out = c.out[:0]
	for i := 0; i < n; i++ {
		var o op
		c.gen.next(&o)
		c.ops = append(c.ops, o)
		c.out = c.encode(c.out, &o, false)
	}
}

// exchange sends the prepared ops in one write and reads and checks their
// replies. Latency runs from t0 when it is set (an open-loop due time),
// else from the flush. A protocol-level wrong answer fails that op and the
// burst goes on; an I/O error or a timeout fails every outstanding op and
// is returned, because the stream can no longer be trusted.
func (c *client) exchange(timeout time.Duration, t0 time.Time, sample sampleFn) error {
	n := len(c.ops)
	flush := time.Now()
	if t0.IsZero() {
		t0 = flush
	}
	c.attempted += uint64(n)
	c.nc.SetDeadline(flush.Add(timeout))
	if _, err := c.nc.Write(c.out); err != nil {
		c.failed += uint64(n)
		return fmt.Errorf("conn %d: write: %w", c.id, err)
	}
	for i := range c.ops {
		if err := c.readReply(&c.ops[i], flush.UnixNano()); err != nil {
			c.failed += uint64(n - i)
			return fmt.Errorf("conn %d: reply %d/%d: %w", c.id, i, n, err)
		}
		if sample != nil {
			now := time.Now()
			sample(now.Sub(t0), now)
		}
	}
	return nil
}

// burst is one closed- or open-loop step: n fresh ops out, n replies in.
func (c *client) burst(n int, t0 time.Time, sample sampleFn) error {
	c.prepare(n)
	return c.exchange(opTimeout, t0, sample)
}

// line reads one reply line without its CRLF; the slice is valid until
// the next read.
func (c *client) line() ([]byte, error) {
	l, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(l, "\r\n"), nil
}

var (
	replyStored = []byte("STORED")
	replyExists = []byte("EXISTS")
	replyEnd    = []byte("END")
)

// readReply consumes o's reply and checks it. Only I/O and framing errors
// are returned.
func (c *client) readReply(o *op, sendNs int64) error {
	switch o.kind {
	case opSet, opCas:
		l, err := c.line()
		if err != nil {
			return err
		}
		switch {
		case bytes.Equal(l, replyStored):
			if o.kind == opCas {
				c.casStored++
			}
			c.acked[o.keys[0]] = ackRec{seq: o.seq, sendNs: sendNs, ackNs: time.Now().UnixNano()}
		case o.kind == opCas && bytes.Equal(l, replyExists):
			c.casExists++
		default:
			c.fail("%s %s: answered %q", kindName(o.kind), c.d.keys[o.keys[0]], l)
		}
		return nil
	}
	for i := 0; ; i++ {
		l, err := c.line()
		if err != nil {
			return err
		}
		if bytes.Equal(l, replyEnd) {
			if i != o.nkeys {
				c.fail("get: %d of %d keys answered", i, o.nkeys)
			}
			return nil
		}
		// VALUE <key> <flags> <bytes> [<cas>]
		var f [5][]byte
		nf := splitFields(l, f[:])
		if nf < 4 || string(f[0]) != "VALUE" {
			return fmt.Errorf("unexpected line %q", l)
		}
		size, ok := atou(f[3])
		token, tokOK := atou(f[4])
		if !ok || size > 32<<10 || (nf == 5 && !tokOK) {
			return fmt.Errorf("bad VALUE line %q", l)
		}
		wrongKey := i >= o.nkeys || !bytes.Equal(f[1], c.d.keys[o.keys[i]])
		data, err := c.br.Peek(int(size) + 2)
		if err != nil {
			return err
		}
		switch {
		case wrongKey:
			c.fail("get: VALUE for %q out of place", f[1])
		default:
			if c.onRead != nil {
				c.onRead(o.keys[i], data[:size])
			} else {
				c.checkRead(o.keys[i], data[:size])
			}
			if o.kind == opGets {
				c.gen.gotToken(o.keys[i], token)
			}
		}
		if _, err := c.br.Discard(int(size) + 2); err != nil {
			return err
		}
	}
}

// checkRead is the read oracle: the value must be one the generator made
// for this key, and if this connection wrote it, no older than the newest
// write to the key this connection has seen acknowledged.
func (c *client) checkRead(key int, v []byte) {
	conn, seq, ok := c.d.checkValue(v, key)
	switch {
	case !ok:
		c.fail("get %s: value does not belong to the key", c.d.keys[key])
	case conn == uint64(c.id) && seq < c.acked[key].seq:
		c.fail("get %s: seq %d older than acknowledged %d", c.d.keys[key], seq, c.acked[key].seq)
	}
}

// splitFields cuts l at single spaces into f and returns how many fields
// it found; fields beyond len(f) are dropped.
func splitFields(l []byte, f [][]byte) int {
	n := 0
	for len(l) > 0 && n < len(f) {
		i := bytes.IndexByte(l, ' ')
		if i < 0 {
			i = len(l)
		}
		f[n] = l[:i]
		n++
		l = l[min(i+1, len(l)):]
	}
	return n
}

// atou parses a decimal number without allocating.
func atou(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 19 {
		return 0, false
	}
	var n uint64
	for _, ch := range b {
		if ch < '0' || ch > '9' {
			return 0, false
		}
		n = n*10 + uint64(ch-'0')
	}
	return n, true
}

func kindName(k opKind) string {
	return [...]string{"get", "gets", "set", "cas"}[k]
}

// preload sets keys[lo:hi] with noreply and then reads the last one back:
// the get passes this connection's class barrier only once every earlier
// set has committed, so on return the whole range is stored and counts as
// acknowledged at the barrier time.
func (c *client) preload(lo, hi int) error {
	if lo >= hi {
		return nil
	}
	start := time.Now().UnixNano()
	c.out = c.out[:0]
	first := c.gen.seq + 1
	for k := lo; k < hi; k++ {
		c.gen.seq++
		o := op{kind: opSet, nkeys: 1, seq: c.gen.seq}
		o.keys[0] = k
		c.out = c.encode(c.out, &o, true)
		if len(c.out) >= 256<<10 || k == hi-1 {
			c.nc.SetDeadline(time.Now().Add(setupTimeout))
			if _, err := c.nc.Write(c.out); err != nil {
				return fmt.Errorf("conn %d: preload write: %w", c.id, err)
			}
			c.out = c.out[:0]
		}
	}
	if err := c.verify(hi-1, hi); err != nil {
		return err
	}
	now := time.Now().UnixNano()
	for k := lo; k < hi; k++ {
		c.acked[k] = ackRec{seq: first + uint64(k-lo), sendNs: start, ackNs: now}
	}
	return nil
}

// verify reads keys[lo:hi] one get each, pipelined, through the read
// oracle. It waits as long as a set-up may take: the first reply comes
// only after every set queued before it has committed.
func (c *client) verify(lo, hi int) error {
	for lo < hi {
		n := min(depth, hi-lo)
		c.ops, c.out = c.ops[:0], c.out[:0]
		for k := lo; k < lo+n; k++ {
			o := op{kind: opGet, nkeys: 1}
			o.keys[0] = k
			c.ops = append(c.ops, o)
			c.out = c.encode(c.out, &o, false)
		}
		if err := c.exchange(setupTimeout, time.Time{}, nil); err != nil {
			return err
		}
		lo += n
	}
	return nil
}

// stats fetches the server's stats table.
func (c *client) stats() (map[string]float64, error) {
	c.nc.SetDeadline(time.Now().Add(opTimeout))
	if _, err := io.WriteString(c.nc, "stats\r\n"); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for {
		l, err := c.line()
		if err != nil {
			return nil, err
		}
		if bytes.Equal(l, replyEnd) {
			return out, nil
		}
		f := bytes.Fields(l)
		if len(f) != 3 || string(f[0]) != "STAT" {
			return nil, fmt.Errorf("bad stat line %q", l)
		}
		v, err := strconv.ParseFloat(string(f[2]), 64)
		if err != nil {
			return nil, errors.New("bad stat value")
		}
		out[string(f[1])] = v
	}
}
