package merge

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/segmap"
	"repro/internal/segment"
	"repro/internal/word"
)

// refMerge is the §3.4 word-merge rule applied to flat arrays: the
// reference model for the DAG implementation.
func refMerge(orig, mod, cur []uint64) ([]uint64, bool) {
	out := make([]uint64, len(orig))
	for i := range orig {
		switch {
		case mod[i] == orig[i]:
			out[i] = cur[i]
		case cur[i] == orig[i] || cur[i] == mod[i]:
			out[i] = mod[i]
		default:
			out[i] = cur[i] + (mod[i] - orig[i]) // raw-word delta rule
		}
	}
	return out, true
}

// TestMergeMatchesReferenceModel generates random base arrays and random
// update pairs and checks the DAG merge against the flat-array model.
func TestMergeMatchesReferenceModel(t *testing.T) {
	const space = 256
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, _ := setup()

		base := make([]uint64, space)
		for i := 0; i < 40; i++ {
			base[rng.Intn(space)] = uint64(rng.Intn(1000))
		}
		apply := func(src []uint64, n int) []uint64 {
			out := append([]uint64(nil), src...)
			for i := 0; i < n; i++ {
				out[rng.Intn(space)] = uint64(rng.Intn(1000))
			}
			return out
		}
		modA := apply(base, 1+rng.Intn(8))
		curA := apply(base, 1+rng.Intn(8))

		build := func(ws []uint64) segment.Seg {
			s := segment.BuildWords(m, ws, nil)
			if s.Height != segment.HeightFor(m.LineWords(), space) {
				// Force equal heights by building at full capacity.
				var ups []segment.Update
				for i, w := range ws {
					if w != 0 {
						ups = append(ups, segment.Update{Idx: uint64(i), W: w, T: word.TagRaw})
					}
				}
				segment.ReleaseSeg(m, s)
				return write(m, segment.NewSparse(segment.HeightFor(m.LineWords(), space)), ups...)
			}
			return s
		}
		orig := build(base)
		mod := build(modA)
		cur := build(curA)

		got, err := Merge(m, orig, mod, cur, nil)
		if err != nil {
			t.Fatalf("seed %d: raw-word merges cannot conflict: %v", seed, err)
		}
		want, _ := refMerge(base, modA, curA)
		for i := range want {
			if v, _ := segment.ReadWord(m, got, uint64(i)); v != want[i] {
				t.Fatalf("seed %d: merged[%d] = %d, want %d", seed, i, v, want[i])
			}
		}
		// Canonicality: merging must produce the same root as building
		// the merged content directly.
		direct := build(want)
		if !got.Equal(direct) {
			t.Fatalf("seed %d: merge result not canonical (%#x vs %#x)",
				seed, got.Root, direct.Root)
		}
	}
}

// TestMergeReplayEquivalence is the rebase-correctness property: on
// disjoint update sets, Merge(orig, mod, cur) is PLID-equal to replaying
// both update sets serially on orig — merging IS the rebase, including
// when one side grew the segment. Content-uniqueness makes the
// comparison a single root check.
func TestMergeReplayEquivalence(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, _ := setup()

		base := buildAt(m, 6, map[uint64]uint64{0: 1})
		cap6 := base.Capacity(m.LineWords())
		// Disjoint index pools; seeds ≥ 5 let mod overflow capacity so
		// the merge must height-align.
		space := cap6
		if seed >= 5 {
			space = cap6 * uint64(m.LineWords())
		}
		pick := func(parity uint64) []segment.Update {
			n := 1 + rng.Intn(12)
			ups := make([]segment.Update, 0, n)
			for i := 0; i < n; i++ {
				idx := rng.Uint64() % space
				idx -= idx % 2
				idx += parity
				ups = append(ups, segment.Update{Idx: idx, W: rng.Uint64()%1000 + 1, T: word.TagRaw})
			}
			return ups
		}
		modUps, curUps := pick(0), pick(1) // even vs odd indices: disjoint

		mod, _ := segment.WriteBatch(m, base, modUps)
		cur, _ := segment.WriteBatch(m, base, curUps)
		merged, err := Merge(m, base, mod, cur, nil)
		if err != nil {
			t.Fatalf("seed %d: disjoint merge conflicted: %v", seed, err)
		}
		replayed, _ := segment.WriteBatch(m, base, append(append([]segment.Update(nil), curUps...), modUps...))
		if !merged.Equal(replayed) {
			t.Fatalf("seed %d: merge %#x/%d != serial replay %#x/%d",
				seed, merged.Root, merged.Height, replayed.Root, replayed.Height)
		}
	}
}

// TestMCASConcurrentGrowthStress drives concurrent MCAS publishers whose
// disjoint writes keep growing the segment, so height-aligned rebases
// happen under real interleavings (run with -race -cpu=1,4 in CI).
func TestMCASConcurrentGrowthStress(t *testing.T) {
	m, sm := setup()
	base := buildAt(m, 2, map[uint64]uint64{0: 1})
	v := sm.Create(segmap.Entry{Seg: base, Flags: segmap.FlagMergeUpdate})
	const workers, writes = 4, 20
	done := make(chan struct{}, workers)
	for g := 0; g < workers; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < writes; i++ {
				// Stride the indices upward so successive writes force
				// capacity growth at different times per worker.
				idx := uint64(1+g) << (uint64(i) % 14) * 16
				idx += uint64(g) // disjoint across workers
				e, err := sm.Load(v)
				if err != nil {
					t.Error(err)
					return
				}
				next, _ := segment.WriteBatch(m, e.Seg,
					[]segment.Update{{Idx: idx, W: uint64(g*1000 + i + 1), T: word.TagRaw}})
				ok, err := MCAS(m, sm, v, e.Seg, next, (idx+1)*8, nil)
				segment.ReleaseSeg(m, e.Seg)
				if err != nil || !ok {
					t.Errorf("worker %d write %d: ok=%v err=%v", g, i, ok, err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < workers; g++ {
		<-done
	}
	final, _ := sm.Load(v)
	defer segment.ReleaseSeg(m, final.Seg)
	for g := 0; g < workers; g++ {
		for i := 0; i < writes; i++ {
			idx := uint64(1+g)<<(uint64(i)%14)*16 + uint64(g)
			want := uint64(g*1000 + i + 1)
			// Same worker may hit the same index twice (stride cycles);
			// the last write wins.
			for j := i + 1; j < writes; j++ {
				if uint64(1+g)<<(uint64(j)%14)*16+uint64(g) == idx {
					want = uint64(g*1000 + j + 1)
				}
			}
			if got, _ := segment.ReadWord(m, final.Seg, idx); got != want {
				t.Fatalf("worker %d write [%d] = %d, want %d", g, idx, got, want)
			}
		}
	}
}

// TestMCASRegistersMergedSize pins the size semantics of merge-update
// publication: when an MCAS rebases over an interleaved commit that
// registered a larger logical size (a grown map), the retried CAS
// registers the maximum — the merged segment never reports smaller than
// any merged-in version.
func TestMCASRegistersMergedSize(t *testing.T) {
	m, sm := setup()
	base := buildAt(m, 4, map[uint64]uint64{0: 1})
	v := sm.Create(segmap.Entry{Seg: base, Size: 8, Flags: segmap.FlagMergeUpdate})

	old, _ := sm.Load(v)
	// Interleaver commits a grown version registering a larger size.
	grown := modify(m, old.Seg, map[uint64]uint64{500: 5})
	if !sm.CAS(v, old.Seg, grown, 501*8) {
		t.Fatal("setup CAS failed")
	}
	// Our thread, still holding the stale old, publishes a small disjoint
	// update with its own (small) size; MCAS must rebase and keep the
	// interleaver's larger registered size.
	next := modify(m, old.Seg, map[uint64]uint64{1: 2})
	ok, err := MCAS(m, sm, v, old.Seg, next, 2*8, nil)
	segment.ReleaseSeg(m, old.Seg)
	if err != nil || !ok {
		t.Fatalf("mcas: ok=%v err=%v", ok, err)
	}
	final, _ := sm.Load(v)
	defer segment.ReleaseSeg(m, final.Seg)
	if final.Size != 501*8 {
		t.Fatalf("registered size = %d, want %d (merged grown map must not shrink)", final.Size, 501*8)
	}
	if got, _ := segment.ReadWord(m, final.Seg, 500); got != 5 {
		t.Fatal("interleaved grown write lost")
	}
	if got, _ := segment.ReadWord(m, final.Seg, 1); got != 2 {
		t.Fatal("rebased write lost")
	}
}

// TestMCASLinearizesRandomWorkload hammers one merge-update segment with
// random per-worker writes to disjoint regions and verifies every write
// lands, whatever the interleaving.
func TestMCASLinearizesRandomWorkload(t *testing.T) {
	m, sm := setup()
	base := buildAt(m, 12, map[uint64]uint64{0: 1})
	v := sm.Create(segmap.Entry{Seg: base, Flags: segmap.FlagMergeUpdate})
	type rec struct{ idx, val uint64 }
	results := make(chan []rec, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			rng := rand.New(rand.NewSource(int64(g)))
			var mine []rec
			for i := 0; i < 30; i++ {
				idx := uint64(g*4096 + rng.Intn(4000) + 1)
				val := rng.Uint64()%1000 + 1
				for {
					e, err := sm.Load(v)
					if err != nil {
						t.Error(err)
						return
					}
					next := write(m, e.Seg, segment.Update{Idx: idx, W: val, T: word.TagRaw})
					ok, err := MCAS(m, sm, v, e.Seg, next, 0, nil)
					segment.ReleaseSeg(m, e.Seg)
					if err != nil && !errors.Is(err, ErrConflict) {
						t.Error(err)
						return
					}
					if ok {
						break
					}
				}
				mine = append(mine, rec{idx, val})
			}
			results <- mine
		}(g)
	}
	final := map[uint64]uint64{}
	for g := 0; g < 4; g++ {
		for _, r := range <-results {
			final[r.idx] = r.val // later writes by same worker win
		}
	}
	e, _ := sm.Load(v)
	defer segment.ReleaseSeg(m, e.Seg)
	for idx, val := range final {
		if got, _ := segment.ReadWord(m, e.Seg, idx); got != val {
			t.Fatalf("write [%d]=%d lost (got %d)", idx, val, got)
		}
	}
}
