package netfront

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
)

// Client is a minimal memcached text-protocol client with an explicit
// pipelining surface: Send* methods buffer requests, Flush pushes them,
// and Read* methods consume responses in order. The load driver keeps
// dozens of requests in flight per connection this way — which is
// exactly what gives the server's aggregation loop something to
// coalesce. The convenience methods (Get/Set/...) are one-shot
// send+flush+read.
type Client struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

// Dial connects to a netfront server (or any memcached).
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{
		nc: nc,
		br: bufio.NewReaderSize(nc, 64<<10),
		bw: bufio.NewWriterSize(nc, 64<<10),
	}, nil
}

func (c *Client) Close() error { return c.nc.Close() }

// Flush pushes all buffered requests to the server.
func (c *Client) Flush() error { return c.bw.Flush() }

// SendGet buffers "get(s) k1 k2 ...".
func (c *Client) SendGet(withCas bool, keys ...string) error {
	verb := "get"
	if withCas {
		verb = "gets"
	}
	c.bw.WriteString(verb)
	for _, k := range keys {
		c.bw.WriteByte(' ')
		c.bw.WriteString(k)
	}
	_, err := c.bw.WriteString("\r\n")
	return err
}

// SendMGet buffers a snapshot-consistent multi-get ("mget k1 k2 ...").
func (c *Client) SendMGet(keys ...string) error {
	c.bw.WriteString("mget")
	for _, k := range keys {
		c.bw.WriteByte(' ')
		c.bw.WriteString(k)
	}
	_, err := c.bw.WriteString("\r\n")
	return err
}

// SendSet buffers "set key flags 0 n [noreply]" + payload.
func (c *Client) SendSet(key string, flags uint32, value []byte, noreply bool) error {
	fmt.Fprintf(c.bw, "set %s %d 0 %d", key, flags, len(value))
	if noreply {
		c.bw.WriteString(" noreply")
	}
	c.bw.WriteString("\r\n")
	c.bw.Write(value)
	_, err := c.bw.WriteString("\r\n")
	return err
}

// SendCas buffers "cas key flags 0 n tok" + payload.
func (c *Client) SendCas(key string, flags uint32, value []byte, cas uint64) error {
	fmt.Fprintf(c.bw, "cas %s %d 0 %d %d\r\n", key, flags, len(value), cas)
	c.bw.Write(value)
	_, err := c.bw.WriteString("\r\n")
	return err
}

// SendDelete buffers "delete key [noreply]".
func (c *Client) SendDelete(key string, noreply bool) error {
	c.bw.WriteString("delete ")
	c.bw.WriteString(key)
	if noreply {
		c.bw.WriteString(" noreply")
	}
	_, err := c.bw.WriteString("\r\n")
	return err
}

// Value is one VALUE block of a get/gets/mget response.
type Value struct {
	Key   string
	Flags uint32
	Cas   uint64
	Data  []byte
}

func (c *Client) readLine() ([]byte, error) {
	line, err := c.br.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

// ReadValues consumes one get/gets/mget response (VALUE blocks through
// END). The returned data slices are owned by the caller.
func (c *Client) ReadValues() ([]Value, error) {
	var out []Value
	for {
		line, err := c.readLine()
		if err != nil {
			return nil, err
		}
		if bytes.Equal(line, []byte("END")) {
			return out, nil
		}
		f := strings.Fields(string(line))
		if len(f) < 4 || f[0] != "VALUE" {
			return nil, fmt.Errorf("netfront client: unexpected line %q", line)
		}
		flags, err1 := strconv.ParseUint(f[2], 10, 32)
		n, err2 := strconv.ParseUint(f[3], 10, 31)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("netfront client: bad VALUE line %q", line)
		}
		v := Value{Key: f[1], Flags: uint32(flags)}
		if len(f) >= 5 {
			cas, err := strconv.ParseUint(f[4], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("netfront client: bad cas in %q", line)
			}
			v.Cas = cas
		}
		v.Data = make([]byte, n+2)
		if _, err := readFullBuf(c.br, v.Data); err != nil {
			return nil, err
		}
		if !bytes.HasSuffix(v.Data, []byte("\r\n")) {
			return nil, errors.New("netfront client: bad data trailer")
		}
		v.Data = v.Data[:n]
		out = append(out, v)
	}
}

func readFullBuf(br *bufio.Reader, p []byte) (int, error) {
	n := 0
	for n < len(p) {
		m, err := br.Read(p[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// ReadReply consumes one status line (STORED, DELETED, ...).
func (c *Client) ReadReply() (string, error) {
	line, err := c.readLine()
	return string(line), err
}

// Get fetches one key (send+flush+read).
func (c *Client) Get(key string) ([]byte, bool, error) {
	if err := c.SendGet(false, key); err != nil {
		return nil, false, err
	}
	if err := c.Flush(); err != nil {
		return nil, false, err
	}
	vs, err := c.ReadValues()
	if err != nil || len(vs) == 0 {
		return nil, false, err
	}
	return vs[0].Data, true, nil
}

// Gets fetches one key with its cas token.
func (c *Client) Gets(key string) (Value, bool, error) {
	if err := c.SendGet(true, key); err != nil {
		return Value{}, false, err
	}
	if err := c.Flush(); err != nil {
		return Value{}, false, err
	}
	vs, err := c.ReadValues()
	if err != nil || len(vs) == 0 {
		return Value{}, false, err
	}
	return vs[0], true, nil
}

// Set stores one key and waits for STORED.
func (c *Client) Set(key string, value []byte) error {
	if err := c.SendSet(key, 0, value, false); err != nil {
		return err
	}
	if err := c.Flush(); err != nil {
		return err
	}
	r, err := c.ReadReply()
	if err != nil {
		return err
	}
	if r != "STORED" {
		return fmt.Errorf("netfront client: set: %s", r)
	}
	return nil
}

// Cas attempts a compare-and-swap and returns the status line
// (STORED/EXISTS/NOT_FOUND).
func (c *Client) Cas(key string, value []byte, cas uint64) (string, error) {
	if err := c.SendCas(key, 0, value, cas); err != nil {
		return "", err
	}
	if err := c.Flush(); err != nil {
		return "", err
	}
	return c.ReadReply()
}

// Delete removes one key; reports whether it existed.
func (c *Client) Delete(key string) (bool, error) {
	if err := c.SendDelete(key, false); err != nil {
		return false, err
	}
	if err := c.Flush(); err != nil {
		return false, err
	}
	r, err := c.ReadReply()
	if err != nil {
		return false, err
	}
	switch r {
	case "DELETED":
		return true, nil
	case "NOT_FOUND":
		return false, nil
	}
	return false, fmt.Errorf("netfront client: delete: %s", r)
}

// Stats fetches the stats table.
func (c *Client) Stats() (map[string]uint64, error) {
	if _, err := c.bw.WriteString("stats\r\n"); err != nil {
		return nil, err
	}
	if err := c.Flush(); err != nil {
		return nil, err
	}
	out := map[string]uint64{}
	for {
		line, err := c.readLine()
		if err != nil {
			return nil, err
		}
		if bytes.Equal(line, []byte("END")) {
			return out, nil
		}
		f := strings.Fields(string(line))
		if len(f) != 3 || f[0] != "STAT" {
			return nil, fmt.Errorf("netfront client: bad stat line %q", line)
		}
		n, err := strconv.ParseUint(f[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("netfront client: bad stat value %q", line)
		}
		out[f[1]] = n
	}
}

// Quit sends quit and closes the connection.
func (c *Client) Quit() error {
	c.bw.WriteString("quit\r\n")
	c.bw.Flush()
	return c.nc.Close()
}
