package main

import (
	"slices"

	"repro/internal/core"
	"repro/internal/word"
)

// memCall is one logged lookup or read batch, kept for the replay that
// splits core time into LLC model and bucket store. A read keeps the
// contents it returned so the replay can install those lines first.
type memCall struct {
	lookup bool
	cs     []word.Content
	ps     []word.PLID
}

// tracedMem wraps a core.Machine in the full word.BulkMem and
// word.BatchIntoMem surface, forwarding every call unchanged and timing
// it. Code under test reaches it as a plain word.Mem and probes it with
// word.Caps like any other memory system, so it takes the same batch
// paths it takes over the bare machine. A span is recorded per call as a
// child of parent, which the driver sets around each engine operation.
type tracedMem struct {
	m      *core.Machine
	tr     *tracer
	parent int
	window int

	lookupNs, readNs, rcNs        int64
	lookupLines, readLines, rcOps int64

	log      []memCall
	logLines int
	logMax   int // lines; calls past it are timed but not logged
}

func newTracedMem(m *core.Machine, tr *tracer, logMax int) *tracedMem {
	return &tracedMem{m: m, tr: tr, logMax: logMax}
}

// lookupDone closes a lookup call's span and books it; logging comes
// after the clock has stopped.
func (t *tracedMem) lookupDone(id int, t0 int64, cs []word.Content) {
	t.lookupNs += t.tr.end(id, int64(len(cs))) - t0
	t.lookupLines += int64(len(cs))
	if t.logLines < t.logMax {
		t.log = append(t.log, memCall{lookup: true, cs: slices.Clone(cs)})
		t.logLines += len(cs)
	}
}

func (t *tracedMem) readDone(id int, t0 int64, ps []word.PLID, cs []word.Content) {
	t.readNs += t.tr.end(id, int64(len(ps))) - t0
	t.readLines += int64(len(ps))
	if t.logLines < t.logMax {
		t.log = append(t.log, memCall{ps: slices.Clone(ps), cs: slices.Clone(cs)})
		t.logLines += len(ps)
	}
}

func (t *tracedMem) rcDone(id int, t0 int64) {
	t.rcNs += t.tr.end(id, 1) - t0
	t.rcOps++
}

func (t *tracedMem) LookupLine(c word.Content) word.PLID {
	id, t0 := t.tr.begin("core.lookup", t.parent, t.window)
	p := t.m.LookupLine(c)
	t.lookupDone(id, t0, []word.Content{c})
	return p
}

func (t *tracedMem) ReadLine(p word.PLID) word.Content {
	id, t0 := t.tr.begin("core.read", t.parent, t.window)
	c := t.m.ReadLine(p)
	t.readDone(id, t0, []word.PLID{p}, []word.Content{c})
	return c
}

func (t *tracedMem) LookupLineBatch(cs []word.Content) []word.PLID {
	id, t0 := t.tr.begin("core.lookup", t.parent, t.window)
	ps := t.m.LookupLineBatch(cs)
	t.lookupDone(id, t0, cs)
	return ps
}

func (t *tracedMem) LookupLineBatchInto(cs []word.Content, out []word.PLID) {
	id, t0 := t.tr.begin("core.lookup", t.parent, t.window)
	t.m.LookupLineBatchInto(cs, out)
	t.lookupDone(id, t0, cs)
}

func (t *tracedMem) ReadLineBatch(ps []word.PLID) []word.Content {
	id, t0 := t.tr.begin("core.read", t.parent, t.window)
	cs := t.m.ReadLineBatch(ps)
	t.readDone(id, t0, ps, cs)
	return cs
}

func (t *tracedMem) ReadLineBatchInto(ps []word.PLID, out []word.Content) {
	id, t0 := t.tr.begin("core.read", t.parent, t.window)
	t.m.ReadLineBatchInto(ps, out)
	t.readDone(id, t0, ps, out)
}

func (t *tracedMem) Retain(p word.PLID) {
	id, t0 := t.tr.begin("core.retain", t.parent, t.window)
	t.m.Retain(p)
	t.rcDone(id, t0)
}

func (t *tracedMem) Release(p word.PLID) {
	id, t0 := t.tr.begin("core.release", t.parent, t.window)
	t.m.Release(p)
	t.rcDone(id, t0)
}

func (t *tracedMem) RetainIfContent(p word.PLID, c word.Content) bool {
	id, t0 := t.tr.begin("core.retain", t.parent, t.window)
	ok := t.m.RetainIfContent(p, c)
	t.rcDone(id, t0)
	return ok
}

func (t *tracedMem) LineWords() int { return t.m.LineWords() }
func (t *tracedMem) PLIDBits() int  { return t.m.PLIDBits() }

var (
	_ word.BulkMem      = (*tracedMem)(nil)
	_ word.BatchIntoMem = (*tracedMem)(nil)
)
