package store

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/word"
)

// orderJournal records the journal's free records in order.
type orderJournal struct{ frees []word.PLID }

func (j *orderJournal) JournalAlloc(word.PLID, word.Content) {}
func (j *orderJournal) JournalFree(p word.PLID)              { j.frees = append(j.frees, p) }

// TestReleaseCascadeDepthFirst pins the order of the de-allocation state
// machine. Releasing the root of a multi-level DAG, with children shared
// between parents and one path-compacted edge, must fire its RC events,
// journal its F records and return its []Freed in the order of a
// depth-first walk: pop the last queued line, drop one reference, and on
// a free queue its children in word order. The simulated traffic is the
// same in any order, so the store and core goldens do not see a
// breadth-first walk; what replays a journal, or invalidates the LLC by
// freed line, does.
func TestReleaseCascadeDepthFirst(t *testing.T) {
	s := New(Config{LineBytes: 32, BucketBits: 8, DataWays: 12})
	arity := s.LineWords()
	rng := rand.New(rand.NewSource(47))
	children := make(map[word.PLID][]word.PLID)
	refs := make(map[word.PLID]int) // references the DAG's lines hold
	var level []word.PLID
	for i := 0; i < 27; i++ {
		c := word.NewContent(arity)
		for j := 0; j < arity; j++ {
			c.W[j] = rng.Uint64() | 1<<63
		}
		p, _ := s.Lookup(c)
		level = append(level, p)
	}
	for len(level) > 1 {
		var parents []word.PLID
		for lo := 0; lo < len(level); lo += 3 {
			c := word.NewContent(arity)
			var kids []word.PLID
			for j, p := range level[lo:min(lo+3, len(level))] {
				c.W[j], c.T[j] = uint64(p), word.TagPLID
				kids = append(kids, p)
			}
			if lo+3 < len(level) { // share the next group's first child
				p := level[lo+3]
				if len(level) > 3 && lo == 0 {
					w, ok := word.EncodeCompact(p, []int{0}, arity, s.PLIDBits())
					if !ok {
						t.Fatal("compact encoding does not fit")
					}
					c.W[3], c.T[3] = w, word.TagCompact
				} else {
					c.W[3], c.T[3] = uint64(p), word.TagPLID
				}
				kids = append(kids, p)
			}
			pp, existed := s.Lookup(c)
			if existed {
				t.Fatal("parents must be distinct lines")
			}
			children[pp] = kids
			for _, k := range kids {
				refs[k]++
			}
			parents = append(parents, pp)
		}
		for _, p := range level {
			s.Release(p) // the build reference; parents own the line now
		}
		level = parents
	}
	root := level[0]
	refs[root]++ // the caller's reference

	var wantEvents, wantFreed []word.PLID
	work := []word.PLID{root}
	for len(work) > 0 {
		p := work[len(work)-1]
		work = work[:len(work)-1]
		wantEvents = append(wantEvents, p)
		if refs[p]--; refs[p] == 0 {
			wantFreed = append(wantFreed, p)
			work = append(work, children[p]...)
		}
	}
	if len(wantFreed) != int(s.LiveLines()) {
		t.Fatalf("reference walk frees %d lines, %d are live", len(wantFreed), s.LiveLines())
	}

	j := &orderJournal{}
	s.SetJournal(j)
	var events []word.PLID
	freed := s.ReleaseTo(root, func(p word.PLID, init bool) { events = append(events, p) })
	var freedOrder []word.PLID
	for _, f := range freed {
		freedOrder = append(freedOrder, f.P)
	}
	for _, c := range []struct {
		what      string
		got, want []word.PLID
	}{{"RC events", events, wantEvents}, {"journal F records", j.frees, wantFreed}, {"[]Freed", freedOrder, wantFreed}} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s not in depth-first order:\n got %x\nwant %x", c.what, c.got, c.want)
		}
	}
	if live := s.LiveLines(); live != 0 {
		t.Fatalf("%d lines live after the root's release", live)
	}
}
