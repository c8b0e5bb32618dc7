package segment

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

// The tests below keep the names of the hit-rate insert policy the
// Builder's plain capped memo replaced. Each drives the corpus shape its
// namesake used and pins what the plain memo does on it: inserts never
// depend on the observed hit rate, so fresh content is always learned and
// redundant content is always served from the table.

// policyHorizon is a consultation count well past any warm-up or
// observation window a hit-rate policy would need before deciding.
const policyHorizon = 1 << 15

func distinctWords(rng *rand.Rand, n int) []uint64 {
	ws := make([]uint64, n)
	for i := range ws {
		ws[i] = rng.Uint64()
	}
	return ws
}

// memoDelta is the memo activity between two Stats snapshots.
type memoDelta struct{ lookups, hits, inserts uint64 }

func deltaOf(before, after BuilderStats) memoDelta {
	return memoDelta{
		lookups: after.MemoLookups - before.MemoLookups,
		hits:    after.MemoHits - before.MemoHits,
		inserts: after.MemoInserts - before.MemoInserts,
	}
}

func (d memoDelta) misses() uint64 { return d.lookups - d.hits }

// TestAdaptiveMemoDisablesInsertsOnLowHitRate: on a corpus with no
// cross-build redundancy the hit rate stays near zero, yet the memo keeps
// recording every miss long past the horizon, and lookups continue.
func TestAdaptiveMemoDisablesInsertsOnLowHitRate(t *testing.T) {
	m := core.NewMachine(core.TestConfig())
	b := NewBuilder(m, 1)
	defer b.Close()

	rng := rand.New(rand.NewSource(11))
	b.BuildWords(distinctWords(rng, 256), nil) // creates the table
	s0 := b.Stats()
	for b.Stats().MemoLookups-s0.MemoLookups < policyHorizon {
		b.BuildWords(distinctWords(rng, 256), nil)
	}
	st := b.Stats()
	d := deltaOf(s0, st)
	if d.hits*5 >= d.lookups {
		t.Fatalf("fresh corpus hit rate unexpectedly high: %d of %d", d.hits, d.lookups)
	}
	if d.inserts != d.misses() {
		t.Fatalf("memo inserted %d of %d misses: %+v", d.inserts, d.misses(), st)
	}

	b.BuildWords(distinctWords(rng, 256), nil)
	last := deltaOf(st, b.Stats())
	if last.lookups == 0 {
		t.Fatal("lookups stopped on a low-hit-rate corpus")
	}
	if last.misses() == 0 || last.inserts != last.misses() {
		t.Fatalf("inserts stopped past the horizon: %d of %d misses", last.inserts, last.misses())
	}
}

// TestAdaptiveMemoKeepsInsertsOnHighHitRate: a redundant corpus is served
// from the table — after the first build every consultation hits, the
// table stops growing because nothing misses, and the root is unchanged.
func TestAdaptiveMemoKeepsInsertsOnHighHitRate(t *testing.T) {
	m := core.NewMachine(core.TestConfig())
	b := NewBuilder(m, 1)
	defer b.Close()

	base := distinctWords(rand.New(rand.NewSource(12)), 512)
	first := b.BuildWords(base, nil)
	s0 := b.Stats()
	for b.Stats().MemoLookups-s0.MemoLookups < policyHorizon {
		if got := b.BuildWords(base, nil); !got.Equal(first) {
			t.Fatalf("rebuild root %#x != first %#x", got.Root, first.Root)
		}
	}
	st := b.Stats()
	d := deltaOf(s0, st)
	if d.hits != d.lookups {
		t.Fatalf("redundant corpus missed %d of %d consultations", d.misses(), d.lookups)
	}
	if d.inserts != 0 {
		t.Fatalf("memo grew by %d entries on pure hits", d.inserts)
	}
	if st.MemoHits*2 < st.MemoLookups {
		t.Fatalf("redundant corpus hit rate unexpectedly low: %+v", st)
	}
}

// TestAdaptiveMemoFlipsOffWhenRedundancyEnds: after a long redundant
// phase the first build of fresh content is learned in full — there is no
// window to wait out before the memo adapts.
func TestAdaptiveMemoFlipsOffWhenRedundancyEnds(t *testing.T) {
	m := core.NewMachine(core.TestConfig())
	b := NewBuilder(m, 1)
	defer b.Close()

	rng := rand.New(rand.NewSource(13))
	base := distinctWords(rng, 512)
	for b.Stats().MemoLookups < policyHorizon {
		b.BuildWords(base, nil)
	}
	st := b.Stats()
	if st.MemoHits*2 < st.MemoLookups {
		t.Fatalf("redundant phase hit rate unexpectedly low: %+v", st)
	}

	fresh := distinctWords(rng, 256)
	b.BuildWords(fresh, nil)
	d := deltaOf(st, b.Stats())
	if d.misses() == 0 || d.inserts != d.misses() {
		t.Fatalf("first fresh build inserted %d of %d misses", d.inserts, d.misses())
	}
	before := b.Stats()
	b.BuildWords(fresh, nil)
	if again := deltaOf(before, b.Stats()); again.hits != again.lookups {
		t.Fatalf("repeat of the fresh build missed %d of %d", again.misses(), again.lookups)
	}
}

// TestAdaptiveMemoFlipsBackOnWhenRedundancyReturns: after a long fresh
// phase a corpus that turns redundant is learned on its first build and
// served entirely from the table on its second.
func TestAdaptiveMemoFlipsBackOnWhenRedundancyReturns(t *testing.T) {
	m := core.NewMachine(core.TestConfig())
	b := NewBuilder(m, 1)
	defer b.Close()

	rng := rand.New(rand.NewSource(14))
	for b.Stats().MemoLookups < policyHorizon {
		b.BuildWords(distinctWords(rng, 256), nil)
	}
	st := b.Stats()
	if st.MemoHits*5 >= st.MemoLookups {
		t.Fatalf("fresh phase hit rate unexpectedly high: %+v", st)
	}

	base := distinctWords(rng, 512)
	first := b.BuildWords(base, nil)
	learned := deltaOf(st, b.Stats())
	if learned.misses() == 0 || learned.inserts != learned.misses() {
		t.Fatalf("first redundant build inserted %d of %d misses", learned.inserts, learned.misses())
	}
	before := b.Stats()
	if got := b.BuildWords(base, nil); !got.Equal(first) {
		t.Fatalf("rebuild root %#x != first %#x", got.Root, first.Root)
	}
	if d := deltaOf(before, b.Stats()); d.lookups == 0 || d.hits != d.lookups {
		t.Fatalf("second redundant build hit %d of %d", d.hits, d.lookups)
	}
}

// TestAdaptiveMemoDefaultsUndecidedWhenSmall: one small build, far below
// the horizon, already populates the memo, and repeating it hits on every
// consultation.
func TestAdaptiveMemoDefaultsUndecidedWhenSmall(t *testing.T) {
	m := core.NewMachine(core.TestConfig())
	b := NewBuilder(m, 1)
	defer b.Close()
	bs := []byte("one small build, far below the warmup window")
	first := b.BuildBytes(bs)
	if b.MemoSize() == 0 {
		t.Fatalf("small build left the memo empty: %+v", b.Stats())
	}
	before := b.Stats()
	if got := b.BuildBytes(bs); !got.Equal(first) {
		t.Fatalf("rebuild root %#x != first %#x", got.Root, first.Root)
	}
	if d := deltaOf(before, b.Stats()); d.lookups == 0 || d.hits != d.lookups {
		t.Fatalf("repeated small build hit %d of %d", d.hits, d.lookups)
	}
}
