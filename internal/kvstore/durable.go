package kvstore

import (
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/hds"
	"repro/internal/segmap"
)

// Durable server wiring. A server opened with a data directory sits on
// a write-ahead persistence layer (internal/durable): every line
// allocation and root publish is journaled, map identities are durable
// label bindings, and a write acknowledgement waits for its group
// commit (DB.Sync; a memory-only server has no DB and acks at once).
//
// Labels name the server's maps across restarts: the root map is
// "kv:root" and tenant maps are "ns:<tenant>". Namespace creation
// consults the binding first, so a restarted server re-adopts a
// tenant's map the first time any key routes to it. A label no server
// asks for (such as the "blob:" maps of older data directories) stays
// an unused binding.
const (
	labelRoot = "kv:root"
	labelNS   = "ns:"
)

// ServerOptions selects persistence for a HicampServer. The zero value
// (no DataDir) is a memory-only server, identical to NewHicampServer.
type ServerOptions struct {
	// DataDir, when set, opens (or recovers) a durable store in this
	// directory.
	DataDir string
	// FlushWindow bounds how long an acknowledged write can wait for its
	// group commit; see durable.Options.FlushWindow. 0 means the durable
	// layer's default.
	FlushWindow time.Duration
	// CheckpointEvery runs background checkpoints at this interval; 0
	// disables them (checkpoints then happen only via Checkpoint).
	CheckpointEvery time.Duration
}

// NewHicampServerOpts creates a server, durable when opts.DataDir is
// set: the directory's checkpoint and log tail are recovered into the
// fresh machine, the root map is re-adopted from its label binding, and
// from then on every write is journaled and acknowledged only once its
// log records are stable.
func NewHicampServerOpts(cfg core.Config, opts ServerOptions) (*HicampServer, error) {
	if opts.DataDir == "" {
		return NewHicampServer(cfg), nil
	}
	m := core.NewMachine(cfg)
	sm := segmap.New(m)
	db, err := durable.Open(durable.Options{
		Dir:             opts.DataDir,
		FlushWindow:     opts.FlushWindow,
		CheckpointEvery: opts.CheckpointEvery,
	}, m, sm)
	if err != nil {
		return nil, err
	}
	h := &hds.Heap{M: m, SM: sm}
	s := &HicampServer{Heap: h, db: db, toks: newTokenRegistry(h, maxTokens)}
	s.kvp = s.openOrBind(labelRoot)
	return s, nil
}

// openOrBind adopts the map durably bound to label, or creates the map
// and binds it. On a memory-only server it is plain map creation.
func (s *HicampServer) openOrBind(label string) *hds.Map {
	if s.db != nil {
		if v, ok := s.db.Binding(label); ok {
			return hds.OpenMap(s.Heap, v)
		}
	}
	mp := hds.NewMap(s.Heap)
	if s.db != nil {
		// Bind fails only on a closed DB; a map on a closed server is
		// unreachable anyway.
		_ = s.db.Bind(label, mp.VSID())
	}
	return mp
}

// AckDurable blocks until every mutation issued before the call is
// stable — the write-acknowledgement gate. Memory-only servers return
// nil immediately (the simulation semantics: a commit is durable the
// moment it publishes). A write batch (Write, Window.WriteDeferred)
// waits once for all its keys. After Close the log is detached and
// Sync returns at once.
func (s *HicampServer) AckDurable() error {
	if s.db == nil {
		return nil
	}
	return s.db.Sync()
}

// Durable reports whether the server persists writes.
func (s *HicampServer) Durable() bool { return s.db != nil && s.db.Enabled() }

// DurableStats returns the persistence telemetry (zero on a
// memory-only server): log/group-commit/checkpoint counters and the
// recovery cost of the last Open.
func (s *HicampServer) DurableStats() durable.DurableStats {
	if s.db == nil {
		return durable.DurableStats{}
	}
	return s.db.Stats()
}

// Checkpoint writes a durable checkpoint now (snapshot of the segment
// map roots plus the live-line manifest) and truncates obsolete log
// segments. A no-op on a memory-only server.
func (s *HicampServer) Checkpoint() error {
	if s.db == nil {
		return nil
	}
	return s.db.Checkpoint()
}

// Close flushes and detaches the persistence layer. The in-memory
// server remains usable, but writes are no longer durable.
func (s *HicampServer) Close() error {
	if s.db == nil {
		return nil
	}
	return s.db.Close()
}
