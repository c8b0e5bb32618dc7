package netfront

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kvstore"
	"repro/internal/pool"
)

// Options configure one Server. A zero field takes its DefaultOptions
// value.
type Options struct {
	// MaxBatch caps the commands one flush window aggregates.
	MaxBatch int
	// FlushWindow is how long a non-full window waits for more in-flight
	// commands before executing.
	FlushWindow time.Duration
	// PendingPerConn bounds one connection's pipelined in-flight
	// commands; the reader stalls past it (TCP backpressure).
	PendingPerConn int
	// ReadBuf/WriteBuf size each connection's bufio buffers.
	ReadBuf, WriteBuf int
}

// DefaultOptions is the served configuration.
func DefaultOptions() Options {
	return Options{
		MaxBatch:       128,
		FlushWindow:    150 * time.Microsecond,
		PendingPerConn: 256,
		ReadBuf:        16 << 10,
		WriteBuf:       16 << 10,
	}
}

// Counters is a point-in-time snapshot of the server's protocol
// counters (the memcached-shaped subset of `stats`).
type Counters struct {
	Conns, CmdGet, CmdSet, CmdDelete, CmdCas       uint64
	GetHits, GetMisses, DeleteHits, DeleteMisses   uint64
	CasStored, CasExists, CasNotFound, BadCommands uint64
	// SnapshotErrors counts read ops whose namespace's snapshot could not
	// be pinned; they answer SERVER_ERROR, never a silent all-miss END.
	SnapshotErrors uint64
	// Batches and BatchedOps describe the aggregation loop: BatchedOps /
	// Batches is the achieved ops-per-wave coalescing factor.
	Batches, BatchedOps uint64
}

type counters struct {
	conns, cmdGet, cmdSet, cmdDelete, cmdCas       atomic.Uint64
	getHits, getMisses, deleteHits, deleteMisses   atomic.Uint64
	casStored, casExists, casNotFound, badCommands atomic.Uint64
	snapshotErrors                                 atomic.Uint64
	batches, batchedOps                            atomic.Uint64
}

func (c *counters) snapshot() Counters {
	return Counters{
		Conns: c.conns.Load(), CmdGet: c.cmdGet.Load(), CmdSet: c.cmdSet.Load(),
		CmdDelete: c.cmdDelete.Load(), CmdCas: c.cmdCas.Load(),
		GetHits: c.getHits.Load(), GetMisses: c.getMisses.Load(),
		DeleteHits: c.deleteHits.Load(), DeleteMisses: c.deleteMisses.Load(),
		CasStored: c.casStored.Load(), CasExists: c.casExists.Load(),
		CasNotFound: c.casNotFound.Load(), BadCommands: c.badCommands.Load(),
		SnapshotErrors: c.snapshotErrors.Load(),
		Batches:        c.batches.Load(), BatchedOps: c.batchedOps.Load(),
	}
}

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("netfront: server closed")

// Server speaks the memcached text protocol over a kvstore.HicampServer.
type Server struct {
	store *kvstore.HicampServer
	opts  Options
	disp  *dispatcher
	c     counters

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer wraps store. The dispatcher goroutine starts immediately;
// Close stops it.
func NewServer(store *kvstore.HicampServer, opts Options) *Server {
	s := newServer(store, opts)
	go s.disp.run()
	return s
}

// newServer is NewServer without the dispatcher goroutine.
func newServer(store *kvstore.HicampServer, opts Options) *Server {
	def := DefaultOptions()
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = def.MaxBatch
	}
	if opts.FlushWindow <= 0 {
		opts.FlushWindow = def.FlushWindow
	}
	if opts.PendingPerConn <= 0 {
		opts.PendingPerConn = def.PendingPerConn
	}
	if opts.ReadBuf <= 0 {
		opts.ReadBuf = def.ReadBuf
	}
	if opts.WriteBuf <= 0 {
		opts.WriteBuf = def.WriteBuf
	}
	s := &Server{
		store: store,
		opts:  opts,
		conns: make(map[net.Conn]struct{}),
	}
	s.disp = newDispatcher(s)
	return s
}

// Store returns the wrapped kvstore server.
func (s *Server) Store() *kvstore.HicampServer { return s.store }

// Counters snapshots the protocol counters.
func (s *Server) Counters() Counters { return s.c.snapshot() }

// Addr returns the serving listener's address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections on ln until Close. It always takes
// ownership of ln.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		s.conns[nc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handleConn(nc)
	}
}

// ListenAndServe listens on a TCP addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Close stops accepting, closes every connection, waits for the handler
// goroutines, stops the dispatcher (which runs its pending reclaim
// first), and releases all pinned snapshots.
// A clean Close returns every pooled buffer: the pool leak invariant
// (hits+misses+oversize == returned) holds afterwards.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for nc := range s.conns {
		conns = append(conns, nc)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, nc := range conns {
		nc.Close()
	}
	s.wg.Wait()
	close(s.disp.ch)
	<-s.disp.done
	s.store.ReleaseTokens()
	return nil
}

// Shared pools. Package-level (the pool registry is process-global):
// request ops, key/value arenas and response buffers all ride the same
// bucketed machinery as the wave engines' scratch.
var (
	opPool  = pool.NewItems[op]("netfront.op", resetOp)
	bufPool = pool.NewSlice[byte]("netfront.buf")
)

// Command classes for per-connection ordering (see conn.submit).
const (
	classNone  uint8 = iota
	classRead        // get/gets/mget
	classWrite       // set/delete
	classCas         // cas
	classStats       // stats
)

// op is one in-flight command: the unit the dispatcher aggregates and
// the unit the connection writer orders. Request bytes are copied into
// pooled arenas (the parser's slices alias the connection read buffer,
// which moves on); responses are either static protocol literals or
// built into a pooled buffer. Ops are pooled; release returns
// everything.
type op struct {
	ready   chan struct{} // buffered(1); signaled by finish
	c       *conn         // set only for dispatcher-bound ops
	class   uint8
	verb    Op
	withCas bool // gets/mget: print cas tokens
	noreply bool
	flags   uint32
	casTok  uint64
	keys    [][]byte        // alias keybuf
	keybuf  *pool.Buf[byte] // all keys, concatenated
	val     *pool.Buf[byte] // framed set/cas payload
	respBuf *pool.Buf[byte] // backing for out when dynamic
	out     []byte          // response bytes (may be a static literal)
}

func resetOp(o *op) {
	o.c = nil
	o.class, o.verb = classNone, OpInvalid
	o.withCas, o.noreply = false, false
	o.flags, o.casTok = 0, 0
	o.keys = o.keys[:0]
	o.keybuf, o.val, o.respBuf = nil, nil, nil
	o.out = nil
}

func getOp() *op {
	o := opPool.Get()
	if o.ready == nil {
		o.ready = make(chan struct{}, 1)
	}
	return o
}

// finish publishes the op's response to the connection writer and, for
// dispatcher-bound ops, releases the connection's class barrier.
func (o *op) finish() {
	if o.c != nil {
		o.c.inflight.Done()
	}
	o.ready <- struct{}{}
}

func (o *op) release() {
	if o.keybuf != nil {
		o.keybuf.Release()
	}
	if o.val != nil {
		o.val.Release()
	}
	if o.respBuf != nil {
		o.respBuf.Release()
	}
	opPool.Put(o)
}

// grab hands the op a pooled response buffer and returns it for
// append-building; the builder assigns the result to o.out.
func (o *op) grab(sizeHint int) []byte {
	b := bufPool.GetBuf(sizeHint)
	o.respBuf = b
	return b.S[:0]
}

// Value framing: netfront persists the protocol's 32-bit flags as a
// 4-byte big-endian prefix on the stored value, so flags round-trip
// through the store without a side table. Values written through the
// in-process kvstore API have no frame and read back as flags 0.
const frameLen = 4

func unframe(v []byte) (uint32, []byte) {
	if len(v) < frameLen {
		return 0, v
	}
	return binary.BigEndian.Uint32(v), v[frameLen:]
}

// conn is one accepted connection: a reader goroutine (parse, copy,
// submit) and a writer goroutine (respond in submission order, flush
// when the pipeline drains).
type conn struct {
	s        *Server
	nc       net.Conn
	br       *bufio.Reader
	bw       *bufio.Writer
	pending  chan *op
	inflight sync.WaitGroup // dispatcher-bound ops not yet executed
}

func (s *Server) handleConn(nc net.Conn) {
	defer s.wg.Done()
	s.c.conns.Add(1)
	c := &conn{
		s:       s,
		nc:      nc,
		br:      bufio.NewReaderSize(nc, s.opts.ReadBuf),
		bw:      bufio.NewWriterSize(nc, s.opts.WriteBuf),
		pending: make(chan *op, s.opts.PendingPerConn),
	}
	s.wg.Add(1)
	go c.writeLoop()
	c.readLoop()
	close(c.pending)
}

func (c *conn) writeLoop() {
	defer c.s.wg.Done()
	for o := range c.pending {
		<-o.ready
		if !o.noreply && len(o.out) > 0 {
			c.bw.Write(o.out)
		}
		o.release()
		if len(c.pending) == 0 {
			c.bw.Flush()
		}
	}
	c.bw.Flush()
	c.nc.Close()
	// The writer is the connection's last actor: deregister only once the
	// socket is closed, so Close can still force-close a writer stuck
	// flushing, and churning connections don't grow s.conns forever.
	c.s.mu.Lock()
	delete(c.s.conns, c.nc)
	c.s.mu.Unlock()
}

var errLineTooLong = ClientError("line too long")

// readLine returns the next command line with its CRLF stripped. The
// returned slice aliases the read buffer: valid only until the next
// read.
func (c *conn) readLine() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		for err == bufio.ErrBufferFull {
			_, err = c.br.ReadSlice('\n')
		}
		if err != nil {
			return nil, err
		}
		return nil, errLineTooLong
	}
	if err != nil {
		return nil, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// immediate enqueues a pre-completed response (parse errors, version)
// in pipeline order without touching the dispatcher.
func (c *conn) immediate(build func(dst []byte) []byte, sizeHint int) {
	o := getOp()
	o.out = build(o.grab(sizeHint))
	o.ready <- struct{}{}
	c.pending <- o
}

// submit hands one parsed op to the dispatcher. Per-connection ordering
// is a class barrier: a run of same-class commands pipelines freely into
// the shared window (reads commute with reads, buffered writes commute
// with writes), but switching class waits for the previous run to
// execute — so a pipelined get issued after a set on the same connection
// always sees that set, while cross-connection order stays
// unconstrained, exactly memcached's contract.
func (c *conn) submit(o *op, last *uint8) {
	if *last != classNone && *last != o.class {
		c.inflight.Wait()
	}
	*last = o.class
	o.c = c
	c.inflight.Add(1)
	c.pending <- o
	c.s.disp.ch <- o
}

// newOp builds an op from a parsed command, copying every key into one
// pooled arena (the parse slices die with the next read).
func newOp(class uint8, cmd *Command) *op {
	o := getOp()
	o.class, o.verb, o.noreply = class, cmd.Op, cmd.Noreply
	o.flags, o.casTok = cmd.Flags, cmd.Cas
	total := 0
	for _, k := range cmd.Keys {
		total += len(k)
	}
	o.keybuf = bufPool.GetBuf(total)
	off := 0
	for _, k := range cmd.Keys {
		copy(o.keybuf.S[off:], k)
		o.keys = append(o.keys, o.keybuf.S[off:off+len(k)])
		off += len(k)
	}
	return o
}

func (c *conn) readLoop() {
	var cmd Command
	last := classNone
	for {
		line, err := c.readLine()
		if err != nil {
			var ce ClientError
			if errors.As(err, &ce) {
				c.s.c.badCommands.Add(1)
				c.immediate(func(dst []byte) []byte { return appendErrorResponse(dst, err) }, 64)
				continue
			}
			return
		}
		if len(line) == 0 {
			continue
		}
		if perr := ParseCommand(line, &cmd); perr != nil {
			// For a malformed set/cas the payload length is unknown and
			// its bytes will reparse as commands — the text protocol's
			// classic failure mode; each line answers with its own error.
			c.s.c.badCommands.Add(1)
			c.immediate(func(dst []byte) []byte { return appendErrorResponse(dst, perr) }, 64)
			continue
		}
		switch cmd.Op {
		case OpGet, OpGets, OpMGet:
			o := newOp(classRead, &cmd)
			o.withCas = cmd.Op != OpGet
			c.submit(o, &last)

		case OpSet, OpCas:
			class := uint8(classWrite)
			if cmd.Op == OpCas {
				class = classCas
			}
			o := newOp(class, &cmd) // copy the key before the payload read
			val := bufPool.GetBuf(frameLen + cmd.Bytes)
			binary.BigEndian.PutUint32(val.S, cmd.Flags)
			if _, err := io.ReadFull(c.br, val.S[frameLen:]); err != nil {
				val.Release()
				o.release()
				return
			}
			var crlf [2]byte
			if _, err := io.ReadFull(c.br, crlf[:]); err != nil {
				val.Release()
				o.release()
				return
			}
			if crlf[0] != '\r' || crlf[1] != '\n' {
				val.Release()
				o.release()
				c.s.c.badCommands.Add(1)
				c.immediate(func(dst []byte) []byte {
					return appendErrorResponse(dst, ClientError("bad data chunk"))
				}, 64)
				continue
			}
			o.val = val
			c.submit(o, &last)

		case OpDelete:
			c.submit(newOp(classWrite, &cmd), &last)

		case OpStats:
			// The dispatcher answers it (execBatch), so the counters show
			// this connection's writes on a machine with nothing left to
			// reclaim.
			c.submit(newOp(classStats, &cmd), &last)

		case OpVersion:
			c.immediate(func(dst []byte) []byte {
				return append(dst, "VERSION repro-hicamp 1.0\r\n"...)
			}, 64)

		case OpQuit:
			c.inflight.Wait()
			return
		}
	}
}

// goHeapBytes returns the bytes of live and not-yet-swept heap objects.
// runtime/metrics reads it without stopping the world.
func goHeapBytes() uint64 {
	sample := [1]metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(sample[:])
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

// appendStats renders the stats command: protocol counters, aggregation
// telemetry, core memory-system counters, host memory (bucket table and
// Go heap), segment-map conflict totals,
// per-namespace commit/conflict breakdown, and the scratch-pool leak
// ledger.
func (s *Server) appendStats(dst []byte) []byte {
	c := s.c.snapshot()
	dst = appendStat(dst, "total_connections", c.Conns)
	dst = appendStat(dst, "cmd_get", c.CmdGet)
	dst = appendStat(dst, "cmd_set", c.CmdSet)
	dst = appendStat(dst, "cmd_delete", c.CmdDelete)
	dst = appendStat(dst, "cmd_cas", c.CmdCas)
	dst = appendStat(dst, "get_hits", c.GetHits)
	dst = appendStat(dst, "get_misses", c.GetMisses)
	dst = appendStat(dst, "delete_hits", c.DeleteHits)
	dst = appendStat(dst, "delete_misses", c.DeleteMisses)
	dst = appendStat(dst, "cas_stored", c.CasStored)
	dst = appendStat(dst, "cas_exists", c.CasExists)
	dst = appendStat(dst, "cas_not_found", c.CasNotFound)
	dst = appendStat(dst, "bad_commands", c.BadCommands)
	dst = appendStat(dst, "snapshot_errors", c.SnapshotErrors)
	dst = appendStat(dst, "batches", c.Batches)
	dst = appendStat(dst, "batched_ops", c.BatchedOps)

	cs := s.store.Stats()
	dst = appendStat(dst, "hicamp_dram_accesses", cs.DRAMAccesses())
	// Its five Figure 6 terms, which sum to it.
	dst = appendStat(dst, "hicamp_dram_sig", cs.Store.SigReads+cs.Store.SigWrites)
	dst = appendStat(dst, "hicamp_dram_lookup", cs.Store.LookupReads)
	dst = appendStat(dst, "hicamp_dram_data", cs.Store.DataReads+cs.Store.DataWrites)
	dst = appendStat(dst, "hicamp_dram_rc", cs.Store.RCTraffic())
	dst = appendStat(dst, "hicamp_dram_dealloc", cs.Store.DeallocOps)
	dst = appendStat(dst, "hicamp_live_lines", s.store.Heap.M.LiveLines())
	dst = appendStat(dst, "hicamp_llc_hits", cs.Cache.Hits)
	dst = appendStat(dst, "hicamp_llc_misses", cs.Cache.Misses)
	dst = appendStat(dst, "hicamp_llc_evictions", cs.Cache.Evictions)
	dst = appendStat(dst, "hicamp_llc_dirty_evictions", cs.Cache.DirtyEvts)
	// What the process's resident set is made of: the simulated DRAM
	// (outside the Go heap where the build maps it) and the live heap.
	ts := s.store.Heap.M.TableStats()
	dst = appendStat(dst, "hicamp_table_reserved_bytes", ts.ReservedBytes)
	dst = appendStat(dst, "hicamp_table_touched_bytes", ts.TouchedBytes)
	dst = appendStat(dst, "hicamp_table_full_buckets", ts.FullBuckets)
	dst = appendStat(dst, "go_heap_bytes", goHeapBytes())

	sm := s.store.MapStats().Total
	dst = appendStat(dst, "segmap_commits", sm.Commits)
	dst = appendStat(dst, "segmap_conflicts", sm.Conflicts)

	if s.store.Durable() {
		ds := s.store.DurableStats()
		dst = appendStat(dst, "durable_appends", ds.Appends)
		dst = appendStat(dst, "durable_log_bytes", ds.LogBytes)
		dst = appendStat(dst, "durable_fsyncs", ds.Fsyncs)
		dst = appendStat(dst, "durable_group_commits", ds.GroupCommits)
		dst = appendStat(dst, "durable_checkpoints", ds.Checkpoints)
	}

	for _, ns := range s.store.NamespaceStats() {
		name := ns.Name
		if name == "" {
			name = "root"
		}
		dst = append(dst, "STAT ns_"...)
		dst = append(dst, name...)
		dst = append(dst, "_commits "...)
		dst = appendUint(dst, ns.Stats.Commits)
		dst = append(dst, respCRLF...)
		dst = append(dst, "STAT ns_"...)
		dst = append(dst, name...)
		dst = append(dst, "_conflicts "...)
		dst = appendUint(dst, ns.Stats.Conflicts)
		dst = append(dst, respCRLF...)
	}

	var ph, pm, po, pr uint64
	for _, ps := range pool.Snapshot() {
		ph += ps.Hits
		pm += ps.Misses
		po += ps.Oversize
		pr += ps.Returned
	}
	dst = appendStat(dst, "pool_hits", ph)
	dst = appendStat(dst, "pool_misses", pm)
	dst = appendStat(dst, "pool_oversize", po)
	dst = appendStat(dst, "pool_returned", pr)
	return append(dst, respEnd...)
}
