package segment_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/merge"
	"repro/internal/segment"
	"repro/internal/store"
	"repro/internal/word"
)

// Engine-transparency golden test. The segment engines reach the memory
// system only through word.Mem, so for one seeded script every PLID they
// return, every content they read back and every counter the machine
// charges are a function of the engines' memory-operation schedule alone.
// The script drives the engines the way the served path does: a fresh
// Builder per write window of at most 128 key/value pairs (as hds.Apply
// builds them), one WriteBatch per window into a map-shaped segment,
// DiffWords between successive versions, ScanWords, GatherWordsInto,
// ReadBytesBulk of stored values and merge.Merge of two disjoint forks.
// The constants were recorded on the commit before word.Mem lost its
// optional-capability probe and the Builder its adaptive memo; a change
// that moves any of them changed what the engines ask of memory.

// engineTrace folds everything the script observes into one FNV-1a digest.
type engineTrace struct{ h uint64 }

func (g *engineTrace) add(kind byte, vals ...uint64) {
	step := func(b byte) {
		g.h ^= uint64(b)
		g.h *= 1099511628211
	}
	step(kind)
	for _, v := range vals {
		for i := 0; i < 8; i++ {
			step(byte(v >> (8 * i)))
		}
	}
}

func (g *engineTrace) text(kind byte, v any) {
	for _, b := range []byte(fmt.Sprintf("%+v", v)) {
		g.add(kind, uint64(b))
	}
}

type engineGolden struct {
	digest uint64     // every PLID, word, content, engine stats and machine stats, in order
	stats  core.Stats // after the final release and flush
}

const (
	goldenKeys      = 160 // map slots, four words each
	goldenScratch   = 64  // raw words past the slots that merge forks rewrite
	goldenWindows   = 40
	goldenMaxWindow = 128 // pairs per write window, the served flush-window bound
)

// runEngineGolden drives one seeded script against a machine with a
// 64-set x 4-way LLC over a 256-bucket store, small enough that the
// engines' lookups and reads miss, evict and write back.
func runEngineGolden(t *testing.T, lineBytes int) engineGolden {
	t.Helper()
	m := core.NewMachine(core.Config{LineBytes: lineBytes, BucketBits: 8, DataWays: 12, CacheLines: 256, CacheWays: 4})
	arity := m.LineWords()
	rng := rand.New(rand.NewSource(int64(9100 + lineBytes)))
	g := &engineTrace{h: 14695981039346656037}

	// values holds what each key's slot should read back; recent feeds
	// near-duplicate values (shared prefixes, repeats) so memo hits and
	// within-level dedup happen as they do on redundant served traffic.
	values := make([][]byte, goldenKeys)
	var recent [][]byte
	value := func() []byte {
		switch r := rng.Intn(10); {
		case r < 2 && len(recent) > 0:
			return recent[rng.Intn(len(recent))]
		case r < 5 && len(recent) > 0:
			v := append([]byte(nil), recent[rng.Intn(len(recent))]...)
			v[rng.Intn(len(v))] ^= byte(1 + rng.Intn(255))
			return v
		case r < 6:
			return make([]byte, 8+rng.Intn(120)) // all-zero value
		default:
			v := make([]byte, 8+rng.Intn(300))
			rng.Read(v)
			return v
		}
	}
	slotWords := uint64(4*goldenKeys + goldenScratch)
	cur := segment.BuildWords(m, make([]uint64, slotWords), nil)
	var memoLookups, memoHits uint64

	for win := 0; win < goldenWindows; win++ {
		// Build: a fresh Builder per window, one worker (served windows
		// never reach the parallel threshold), keys and values interleaved.
		n := 1 + rng.Intn(goldenMaxWindow)
		b := segment.NewBuilder(m, 1)
		var built []segment.Seg
		var ups []segment.Update
		for i := 0; i < n; i++ {
			k := rng.Intn(goldenKeys)
			v := value()
			recent = append(recent, v)
			if len(recent) > 32 {
				recent = recent[1:]
			}
			ks := b.BuildBytes([]byte(fmt.Sprintf("key-%04d", k)))
			vs := b.BuildBytes(v)
			g.add('K', uint64(ks.Root), uint64(ks.Height))
			g.add('V', uint64(vs.Root), uint64(vs.Height))
			built = append(built, ks, vs)
			values[k] = v
			base := uint64(4 * k)
			vw, vt := uint64(vs.Root), word.TagPLID
			if vs.Root == word.Zero {
				vw, vt = 0, word.TagRaw
			}
			ups = append(ups,
				segment.Update{Idx: base, W: vw, T: vt},
				segment.Update{Idx: base + 1, W: uint64(len(v)) + 1, T: word.TagRaw},
				segment.Update{Idx: base + 2, W: uint64(ks.Root), T: word.TagPLID},
				segment.Update{Idx: base + 3, W: 8, T: word.TagRaw})
		}
		bs := b.Stats()
		memoLookups += bs.MemoLookups
		memoHits += bs.MemoHits
		g.add('M', bs.MemoLookups, bs.MemoHits, bs.MemoInserts)
		b.Close()

		// Write: one wave commit of the window, then drop the build
		// references (the map DAG holds its own).
		next, ws := segment.WriteBatch(m, cur, ups)
		g.add('W', uint64(next.Root), uint64(next.Height))
		g.text('w', ws)
		for _, s := range built {
			segment.ReleaseSeg(m, s)
		}

		// Diff the versions around the commit.
		ds := segment.DiffWords(m, cur, next, func(idx uint64, av, bv uint64, at, bt word.Tag) bool {
			g.add('D', idx, av, bv, uint64(at), uint64(bt))
			return true
		})
		g.text('d', ds)
		segment.ReleaseSeg(m, cur)
		cur = next

		// Scan from a random index, sometimes stopping early.
		stop := 1 + rng.Intn(4*goldenKeys)
		emitted := 0
		ss := segment.ScanWords(m, cur, uint64(rng.Intn(4*goldenKeys)), func(idx uint64, w uint64, t word.Tag) bool {
			g.add('S', idx, w, uint64(t))
			emitted++
			return emitted < stop
		})
		g.text('s', ss)

		// Gather the slot words of a few random keys (duplicates and an
		// out-of-capacity index included).
		idxs := make([]uint64, 1+rng.Intn(48))
		for i := range idxs {
			idxs[i] = uint64(rng.Intn(int(slotWords) + 32))
		}
		vals, tags := make([]uint64, len(idxs)), make([]word.Tag, len(idxs))
		segment.GatherWordsInto(m, cur, idxs, vals, tags)
		for i := range idxs {
			g.add('G', idxs[i], vals[i], uint64(tags[i]))
		}

		// Read back a few stored values through the map, as a get does.
		for j := 0; j < 4; j++ {
			k := rng.Intn(goldenKeys)
			if values[k] == nil {
				continue
			}
			sv, st := make([]uint64, 2), make([]word.Tag, 2)
			segment.GatherWordsInto(m, cur, []uint64{uint64(4 * k), uint64(4*k + 1)}, sv, st)
			vlen := sv[1] - 1
			vs := segment.Seg{Root: word.PLID(sv[0]), Height: segment.HeightFor(arity, (vlen+7)/8)}
			got := segment.ReadBytesBulk(m, vs, 0, vlen)
			if !bytes.Equal(got, values[k]) {
				t.Fatalf("%d B lines, window %d: key %d reads back foreign bytes", lineBytes, win, k)
			}
			g.add('R', uint64(k), uint64(len(got)))
		}

		// Merge two forks that rewrite disjoint scratch words.
		if win%3 == 2 {
			var forks [2]segment.Seg
			for f := range forks {
				fu := make([]segment.Update, 1+rng.Intn(8))
				for i := range fu {
					idx := uint64(4*goldenKeys + f*goldenScratch/2 + rng.Intn(goldenScratch/2))
					fu[i] = segment.Update{Idx: idx, W: rng.Uint64() | 1, T: word.TagRaw}
				}
				forks[f], _ = segment.WriteBatch(m, cur, fu)
			}
			var mst merge.Stats
			merged, err := merge.Merge(m, cur, forks[0], forks[1], &mst)
			if err != nil {
				t.Fatalf("%d B lines, window %d: disjoint merge: %v", lineBytes, win, err)
			}
			g.add('X', uint64(merged.Root), uint64(merged.Height))
			g.text('x', mst)
			segment.ReleaseSeg(m, forks[0])
			segment.ReleaseSeg(m, forks[1])
			segment.ReleaseSeg(m, cur)
			cur = merged
		}

		m.FlushCache()
		g.text('T', m.Stats())
	}

	segment.ReleaseSeg(m, cur)
	m.FlushCache()
	if live := m.LiveLines(); live != 0 {
		t.Fatalf("%d B lines: %d lines leaked", lineBytes, live)
	}
	if err := m.CheckConsistency(nil); err != nil {
		t.Fatalf("%d B lines: %v", lineBytes, err)
	}
	st := m.Stats()
	if memoHits == 0 || st.Cache.DirtyEvts == 0 || st.Store.LookupHits == 0 {
		t.Fatalf("%d B lines: script missed a path: memo %d/%d, %+v", lineBytes, memoHits, memoLookups, st)
	}
	return engineGolden{digest: g.h, stats: st}
}

func TestEngineTransparencyGolden(t *testing.T) {
	want := map[int]engineGolden{
		16: {digest: 0xa337d95ed40e2be6, stats: core.Stats{
			Store: store.Stats{SigReads: 0x9f04, SigWrites: 0x8987, DataReads: 0xb0ce, LookupReads: 0x1aea, DataWrites: 0x893b,
				RCReads: 0x7fef, RCWrites: 0xc9b2, DeallocOps: 0x8987, Lookups: 0x9f04, LookupHits: 0x157d, Allocs: 0x8987,
				Frees: 0x8987, FalseSig: 0x56d, Overflows: 0x2267},
			Cache:     cachesim.Stats{Hits: 0x28041, Misses: 0x217af, Inserts: 0x217af, Evictions: 0x214a1, DirtyEvts: 0x14b37},
			LookupOps: 0xa6c4, ReadOps: 0xbe18}},
		32: {digest: 0xb6988f2cb5586890, stats: core.Stats{
			Store: store.Stats{SigReads: 0x3dea, SigWrites: 0x32ab, DataReads: 0x3908, LookupReads: 0xc57, DataWrites: 0x3247,
				RCReads: 0x34b1, RCWrites: 0x54bc, DeallocOps: 0x32ab, Lookups: 0x3dea, LookupHits: 0xb3f, Allocs: 0x32ab,
				Frees: 0x32ab, FalseSig: 0x118, Overflows: 0x4e},
			Cache:     cachesim.Stats{Hits: 0x104e6, Misses: 0xc61a, Inserts: 0xc61a, Evictions: 0xc194, DirtyEvts: 0x73cb},
			LookupOps: 0x3e20, ReadOps: 0x492a}},
		64: {digest: 0x83700c08d0b0769b, stats: core.Stats{
			Store: store.Stats{SigReads: 0x2849, SigWrites: 0x1ef6, DataReads: 0x1c8c, LookupReads: 0x9ab, DataWrites: 0x1e67,
				RCReads: 0x270b, RCWrites: 0x3e9f, DeallocOps: 0x1ef6, Lookups: 0x2849, LookupHits: 0x953, Allocs: 0x1ef6,
				Frees: 0x1ef6, FalseSig: 0x58, Overflows: 0x0},
			Cache:     cachesim.Stats{Hits: 0xb83e, Misses: 0x7b1d, Inserts: 0x7b1d, Evictions: 0x76db, DirtyEvts: 0x4400},
			LookupOps: 0x2895, ReadOps: 0x2b9e}},
	}
	for _, lineBytes := range []int{16, 32, 64} {
		got := runEngineGolden(t, lineBytes)
		if got != want[lineBytes] {
			t.Errorf("%d B lines: engine output moved\n got %#v\nwant %#v", lineBytes, got, want[lineBytes])
		}
	}
}
