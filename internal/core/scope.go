package core

import (
	"repro/internal/cachesim"
	"repro/internal/pool"
	"repro/internal/store"
	"repro/internal/word"
)

// Scope is a netting scope: a word.Mem over its Machine for one published
// update. Every operation runs immediately and exactly as on the Machine
// — the same PLIDs, contents, reference counts and lookup, data and
// dealloc traffic — except that reference-count events do not probe the
// LLC one by one. The scope collects them, nets them per PLID, and Close
// charges each bucket row's RC line (Figure 2 keeps one per row) once,
// in first-touch order, if any of its PLIDs changed by a nonzero net or
// was created in the scope. A row whose surviving PLIDs were all created
// in the scope is charged as a count initialization, without a fetch
// (§3.1). A retain and a release of one line inside one update — the
// ownership hand-offs of a build, a commit and its request-local
// references — therefore cost no RC-line access at all.
//
// Like an iterator register, a Scope belongs to one goroutine: its
// accounting is a function of its own update's schedule. Close returns
// it to a pool; it must not be used afterwards.
type Scope struct {
	m *Machine
	// inc and dec are s.count bound to a direction, once per pooled
	// instance: the store reports which line's count changed, and every
	// event of one store call moves counts the same way — down for a
	// release, up (or an initialization) for everything else.
	inc, dec store.RCSink
	at       pool.Index // PLID -> its entry in nets
	nets     []rcNet    // in first-touch order
	rows     pool.Index // Close scratch: RC row -> its entry in due
	due      []rcCharge // Close scratch: rows to charge, in order
}

// rcNet is one PLID's netted events.
type rcNet struct {
	p     word.PLID
	delta int  // retains minus releases
	init  bool // a count was initialized: a line was created at p
	fresh bool // the first event was that initialization
}

type rcCharge struct {
	row  uint64
	init bool // every surviving PLID in the row is fresh
}

// scopePool empties a scope's indexes by the slots their keys filled,
// so a scope grown large by one update costs every later small one
// nothing to reset. A scope grown past pool.KeepIndexKeys PLIDs drops
// its tables and buffers instead.
var scopePool = pool.NewItems[Scope]("core.scope", func(s *Scope) {
	s.at.Reset()
	s.rows.Reset()
	s.m = nil
	if len(s.nets) > pool.KeepIndexKeys {
		s.nets, s.due = nil, nil
	} else {
		s.nets, s.due = s.nets[:0], s.due[:0]
	}
})

// Scope opens a netting scope over m. Close it when the update is done.
func (m *Machine) Scope() *Scope {
	s := scopePool.Get()
	s.m = m
	if s.inc == nil {
		s.inc = func(p word.PLID, init bool) { s.count(p, init, 1) }
		s.dec = func(p word.PLID, init bool) { s.count(p, init, -1) }
	}
	return s
}

// count records one reference-count event; the host count already moved.
func (s *Scope) count(p word.PLID, init bool, dir int) {
	i, seen := s.at.Number(uint64(p))
	if !seen {
		s.nets = append(s.nets, rcNet{p: p, fresh: init})
	}
	if init {
		s.nets[i].init = true
	} else {
		s.nets[i].delta += dir
	}
}

// Close charges the netted RC-line traffic, its LLC events published
// once for all rows, and returns the scope to the pool.
func (s *Scope) Close() {
	var t cachesim.Tally
	for _, c := range s.charges() {
		s.m.touchRC(c.row, c.init, false, &t)
	}
	s.m.publish(&t)
	scopePool.Put(s)
}

// charges nets the scope's events into the RC rows to charge, in
// first-touch order.
func (s *Scope) charges() []rcCharge {
	for _, n := range s.nets {
		if n.delta == 0 && !n.init {
			continue
		}
		row := s.m.rcRow(n.p)
		j, seen := s.rows.Number(row)
		if !seen {
			s.due = append(s.due, rcCharge{row: row, init: true})
		}
		s.due[j].init = s.due[j].init && n.fresh
	}
	return s.due
}

// The word.Mem methods forward to the Machine, reporting RC events here.

func (s *Scope) LookupLine(c word.Content) word.PLID { return s.m.lookupLine(c, s.inc) }
func (s *Scope) ReadLine(p word.PLID) word.Content   { return s.m.ReadLine(p) }
func (s *Scope) Retain(p word.PLID)                  { s.m.store.RetainTo(p, s.inc) }
func (s *Scope) Release(p word.PLID)                 { s.m.release(p, s.dec) }
func (s *Scope) LineWords() int                      { return s.m.LineWords() }
func (s *Scope) PLIDBits() int                       { return s.m.PLIDBits() }

func (s *Scope) LookupLineBatchInto(cs []word.Content, out []word.PLID) {
	s.m.lookupLineBatchInto(cs, out, s.inc)
}

func (s *Scope) ReadLineBatchInto(ps []word.PLID, out []word.Content) {
	s.m.ReadLineBatchInto(ps, out)
}

func (s *Scope) RetainIfContent(p word.PLID, c word.Content) bool {
	s.m.checkRead(p)
	return s.m.store.RetainIfContentTo(p, c, s.inc)
}

var _ word.Mem = (*Scope)(nil)
