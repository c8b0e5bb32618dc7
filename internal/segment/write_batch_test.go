package segment

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/word"
)

// randUpdates produces an update set exercising the awkward shapes:
// exact-index duplicates (later must win), zero writes over non-zero
// words, writes beyond the base segment's capacity (growth), and PLID
// writes referencing plid when it is non-zero.
func randUpdates(rng *rand.Rand, n int, span uint64, plid word.PLID) []Update {
	ups := make([]Update, n)
	for i := range ups {
		idx := uint64(rng.Intn(int(span)))
		switch rng.Intn(6) {
		case 0: // zero write (may un-write an existing word)
			ups[i] = Update{Idx: idx}
		case 1: // duplicate of an earlier index when possible
			if i > 0 {
				idx = ups[rng.Intn(i)].Idx
			}
			ups[i] = Update{Idx: idx, W: rng.Uint64()}
		case 2: // protected reference write
			if plid != word.Zero {
				ups[i] = Update{Idx: idx, W: uint64(plid), T: word.TagPLID}
			} else {
				ups[i] = Update{Idx: idx, W: rng.Uint64()}
			}
		default:
			ups[i] = Update{Idx: idx, W: rng.Uint64()}
		}
	}
	return ups
}

// applySerial is the reference semantics: buffer every update in a Txn in
// order and commit once (the path-by-path serial commit).
func applySerial(m word.Mem, base Seg, ups []Update) Seg {
	tx := NewTxn(m, base)
	for _, u := range ups {
		tx.WriteWord(u.Idx, u.W, u.T)
	}
	return tx.Commit()
}

func TestWriteBatchMatchesTxn(t *testing.T) {
	for _, m := range machines(t) {
		rng := rand.New(rand.NewSource(51))
		for round := 0; round < 30; round++ {
			base, _ := randSeg(m, rng, 200+rng.Intn(400))
			// A helper line PLID writes can reference.
			ref := BuildWords(m, []uint64{0xFEED, 0xBEEF, 1, 2, 3, 4, 5, 6, 7, 8, 9}, nil)
			span := base.Capacity(m.LineWords())
			if round%3 == 0 {
				span *= 8 // force growth re-rooting
			}
			ups := randUpdates(rng, 1+rng.Intn(64), span, ref.Root)

			want := applySerial(m, base, ups)
			got, st := WriteBatch(m, base, ups)
			if !got.Equal(want) {
				t.Fatalf("arity %d round %d: wave root %#x/h%d != serial %#x/h%d",
					m.LineWords(), round, got.Root, got.Height, want.Root, want.Height)
			}
			if st.PathsRebuilt == 0 || st.WaveLevels == 0 {
				t.Fatalf("arity %d round %d: empty stats %+v", m.LineWords(), round, st)
			}
			if st.PathsRebuilt+st.SiblingCoalesced != st.Updates {
				t.Fatalf("arity %d round %d: updates %d != paths %d + coalesced %d",
					m.LineWords(), round, st.Updates, st.PathsRebuilt, st.SiblingCoalesced)
			}
			// Reads back like the serial result at every touched index.
			for _, u := range ups {
				gw, gt := ReadWord(m, got, u.Idx)
				ww, wt := ReadWord(m, want, u.Idx)
				if gw != ww || gt != wt {
					t.Fatalf("arity %d round %d idx %d: got (%#x,%v) want (%#x,%v)",
						m.LineWords(), round, u.Idx, gw, gt, ww, wt)
				}
			}
			ReleaseSeg(m, got)
			ReleaseSeg(m, want)
			ReleaseSeg(m, ref)
			ReleaseSeg(m, base)
		}
		if live := m.LiveLines(); live != 0 {
			t.Fatalf("arity %d: %d lines leaked", m.LineWords(), live)
		}
	}
}

// TestWriteBatchGrowthRecanonicalizesOldRoot pins growth when no update
// lands under the old root. A segment root is always a materialized
// line, but under the grown spine it becomes a child edge, which must
// take its canonical form: a single-child root compacts, an inlinable
// leaf root inlines. The result must equal the serial commit and a
// fresh build of the same words.
func TestWriteBatchGrowthRecanonicalizesOldRoot(t *testing.T) {
	for _, m := range machines(t) {
		arity := m.LineWords()
		for _, tc := range []struct {
			name string
			base []Update
			h    int
		}{
			{"single-child root", []Update{{Idx: 1, W: 1 << 40}}, 2},
			{"two-word subtree root", []Update{{Idx: 1, W: 1}, {Idx: uint64(arity) + 1, W: 7}}, 3},
			{"inlinable leaf root", []Update{{Idx: 0, W: 5}}, 0},
		} {
			base, _ := WriteBatch(m, NewSparse(tc.h), tc.base)
			far := base.Capacity(arity) * 4
			ups := []Update{{Idx: far, W: 42}}
			got, st := WriteBatch(m, base, ups)
			want := applySerial(m, base, ups)
			if !got.Equal(want) {
				t.Fatalf("arity %d %s: wave root %#x/h%d != serial %#x/h%d",
					arity, tc.name, got.Root, got.Height, want.Root, want.Height)
			}
			ws := make([]uint64, far+1)
			for _, u := range append(tc.base, ups...) {
				ws[u.Idx] = u.W
			}
			built := BuildWords(m, ws, nil)
			if !got.Equal(built) {
				t.Fatalf("arity %d %s: grown root %#x/h%d != built %#x/h%d",
					arity, tc.name, got.Root, got.Height, built.Root, built.Height)
			}
			if st.PathsRebuilt+st.SiblingCoalesced != st.Updates {
				t.Fatalf("arity %d %s: updates %d != paths %d + coalesced %d",
					arity, tc.name, st.Updates, st.PathsRebuilt, st.SiblingCoalesced)
			}
			for _, s := range []Seg{got, want, built, base} {
				ReleaseSeg(m, s)
			}
		}
		if live := m.LiveLines(); live != 0 {
			t.Fatalf("arity %d: %d lines leaked", arity, live)
		}
	}
}

func TestWriteBatchEmptyAndZeroRoot(t *testing.T) {
	for _, m := range machines(t) {
		base, _ := randSeg(m, rand.New(rand.NewSource(7)), 100)
		got, st := WriteBatch(m, base, nil)
		if !got.Equal(base) || st.Updates != 0 {
			t.Fatalf("empty update set must return the base segment")
		}
		ReleaseSeg(m, got)
		ReleaseSeg(m, base)

		// Sparse zero-root segment, including growth from it.
		sparse := NewSparse(1)
		ups := []Update{{Idx: 3, W: 42}, {Idx: sparse.Capacity(m.LineWords()) * 4, W: 7}}
		want := applySerial(m, sparse, ups)
		got, _ = WriteBatch(m, sparse, ups)
		if !got.Equal(want) {
			t.Fatalf("zero-root growth: wave %+v != serial %+v", got, want)
		}
		ReleaseSeg(m, got)
		ReleaseSeg(m, want)
		if live := m.LiveLines(); live != 0 {
			t.Fatalf("arity %d: %d lines leaked", m.LineWords(), live)
		}
	}
}

// TestWriteBatchLastWins pins the duplicate rule: the batch behaves like
// sequential WriteWord calls, so the last update to an index is the one
// that lands.
func TestWriteBatchLastWins(t *testing.T) {
	for _, m := range machines(t) {
		base := NewSparse(2)
		ups := []Update{
			{Idx: 10, W: 1}, {Idx: 10, W: 2}, {Idx: 10, W: 3},
			{Idx: 11, W: 9}, {Idx: 11, W: 0}, // ends at zero
		}
		got, st := WriteBatch(m, base, ups)
		if v, _ := ReadWord(m, got, 10); v != 3 {
			t.Fatalf("idx 10 = %d, want 3", v)
		}
		if v, _ := ReadWord(m, got, 11); v != 0 {
			t.Fatalf("idx 11 = %d, want 0", v)
		}
		if st.SiblingCoalesced != 4 { // 5 updates, 1 rebuilt leaf path
			t.Fatalf("coalesced = %d, want 4 (stats %+v)", st.SiblingCoalesced, st)
		}
		ReleaseSeg(m, got)
		if live := m.LiveLines(); live != 0 {
			t.Fatalf("arity %d: %d lines leaked", m.LineWords(), live)
		}
	}
}

// ampleMachine is a machine whose LLC comfortably holds the whole working
// set of these tests, so cache capacity never perturbs the accounting
// comparison between the two commit strategies.
func ampleMachine(lineBytes int) *core.Machine {
	return core.NewMachine(core.Config{
		LineBytes: lineBytes, BucketBits: 16, DataWays: 12,
		CacheLines: 1 << 15, CacheWays: 8,
	})
}

// dram runs fn on a machine and returns the simulated-DRAM access count
// it charged (store accesses; LLC hits are free), flushing the cache so
// deferred writebacks are included.
func dram(m *core.Machine, fn func()) uint64 {
	m.ResetStats()
	fn()
	m.FlushCache()
	return m.Stats().Store.Total()
}

// TestWriteBatchAccountingPin is the twin-machine pin: two identical
// machines replay identical preload operations, then one applies an
// update set through the serial path-by-path Txn commit and the other
// through WriteBatch. The wave commit must never charge more simulated
// DRAM, and for non-overlapping paths with distinct line contents it must
// charge exactly the same — same line reads, same lookups, same RC
// traffic, only batched.
func TestWriteBatchAccountingPin(t *testing.T) {
	for _, lineBytes := range []int{16, 32, 64} {
		ma, mb := ampleMachine(lineBytes), ampleMachine(lineBytes)
		arity := lineBytes / 8

		preload := func(m *core.Machine) Seg {
			ws := make([]uint64, 4096)
			rng := rand.New(rand.NewSource(99))
			for i := range ws {
				ws[i] = rng.Uint64()
			}
			// Line at a time: the order in which lines reach the store
			// decides which way (or overflow slot) each line gets and
			// what the row buffers see. Accounting is a pure function of
			// a serialized op schedule, so twins must be built by one.
			return BuildWordsSerial(m, ws, nil)
		}
		sa, sb := preload(ma), preload(mb)

		// Non-overlapping paths: one update per leaf line, distinct values,
		// so no two touched nodes share a line and no two fresh lines share
		// content — the exact-equality regime.
		var ups []Update
		rng := rand.New(rand.NewSource(100))
		for leaf := 0; leaf < 64; leaf++ {
			idx := uint64(leaf*37*arity) % 4096
			ups = append(ups, Update{Idx: idx, W: rng.Uint64() | 1})
		}
		seen := map[uint64]bool{}
		uniq := ups[:0]
		for _, u := range ups {
			if l := u.Idx / uint64(arity); !seen[l] {
				seen[l] = true
				uniq = append(uniq, u)
			}
		}
		ups = uniq

		// PLIDs are allocation-order-dependent, so roots cannot be compared
		// across machines (the property test pins same-machine PLID
		// identity); the twins compare logical content and accounting.
		sameWords := func(a, b Seg) bool {
			wa := readWordsBulk(ma, a, 0, a.Capacity(arity))
			wb := readWordsBulk(mb, b, 0, b.Capacity(arity))
			if len(wa) != len(wb) {
				return false
			}
			for i := range wa {
				if wa[i] != wb[i] {
					return false
				}
			}
			return true
		}

		var serialSeg, waveSeg Seg
		serial := dram(ma, func() { serialSeg = applySerial(ma, sa, ups) })
		wave := dram(mb, func() { waveSeg, _ = WriteBatch(mb, sb, ups) })
		if !sameWords(serialSeg, waveSeg) {
			t.Fatalf("arity %d: contents diverge", arity)
		}
		if wave != serial {
			t.Fatalf("arity %d: non-overlapping wave commit charged %d DRAM accesses, serial %d (must be equal)",
				arity, wave, serial)
		}

		// Overlapping, duplicated updates: the wave commit may dedup but
		// must never cost more.
		rng2 := rand.New(rand.NewSource(101))
		ups2 := randUpdates(rng2, 512, 4096, word.Zero)
		var serialSeg2, waveSeg2 Seg
		serial2 := dram(ma, func() { serialSeg2 = applySerial(ma, serialSeg, ups2) })
		wave2 := dram(mb, func() { waveSeg2, _ = WriteBatch(mb, waveSeg, ups2) })
		if !sameWords(serialSeg2, waveSeg2) {
			t.Fatalf("arity %d: overlap contents diverge", arity)
		}
		if wave2 > serial2 {
			t.Fatalf("arity %d: wave commit charged %d DRAM accesses, serial charged %d (wave must be <=)",
				arity, wave2, serial2)
		}

		for _, pair := range []struct {
			m *core.Machine
			s []Seg
		}{{ma, []Seg{sa, serialSeg, serialSeg2}}, {mb, []Seg{sb, waveSeg, waveSeg2}}} {
			for _, s := range pair.s {
				ReleaseSeg(pair.m, s)
			}
			if live := pair.m.LiveLines(); live != 0 {
				t.Fatalf("arity %d: %d lines leaked", arity, live)
			}
		}
	}
}

// BenchmarkWriteBatch times the wave-ordered bulk writer, which groups
// sibling updates per DAG level and canonicalizes each level in one
// batch lookup, on random update sets over a 65536-word segment.
func BenchmarkWriteBatch(b *testing.B) {
	const words = 65536
	mkWords := func(n int, seed uint64) []uint64 {
		ws := make([]uint64, n)
		x := seed*2654435761 + 1
		for i := range ws {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			ws[i] = x
		}
		return ws
	}
	mkUps := func(n int, seed uint64) []Update {
		rs := mkWords(2*n, seed)
		ups := make([]Update, n)
		for i := range ups {
			ups[i] = Update{Idx: rs[2*i] % words, W: rs[2*i+1] | 1}
		}
		return ups
	}
	for _, n := range []int{256, 4096} {
		b.Run(fmt.Sprintf("wave/updates%d", n), func(b *testing.B) {
			m := core.NewMachine(core.DefaultConfig(16))
			s := BuildWords(m, mkWords(words, 5), nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next, _ := WriteBatch(m, s, mkUps(n, uint64(i)+1))
				ReleaseSeg(m, s)
				s = next
			}
		})
	}
}

// applyKeepOracle is the reference semantics of Update.Keep: after the
// last-wins collapse, a leaf whose base line is present and whose
// updates all carry Keep is left out, and the serial Txn writes every
// other update in order.
func applyKeepOracle(m word.Mem, base Seg, ups []Update) Seg {
	arity := uint64(m.LineWords())
	last := map[uint64]Update{}
	for _, u := range ups {
		last[u.Idx] = u
	}
	mixed := map[uint64]bool{} // leaf index -> some final update lacks Keep
	for idx, u := range last {
		mixed[idx/arity] = mixed[idx/arity] || !u.Keep
	}
	kept := func(leaf uint64) bool {
		if mixed[leaf] {
			return false
		}
		for i := leaf * arity; i < (leaf+1)*arity; i++ {
			if w, t := ReadWord(m, base, i); w != 0 || t != word.TagRaw {
				return true
			}
		}
		return false
	}
	tx := NewTxn(m, base)
	for _, u := range ups {
		if !kept(u.Idx / arity) {
			tx.WriteWord(u.Idx, u.W, u.T)
		}
	}
	return tx.Commit()
}

// leafEdge walks s down to the edge of leaf line leaf.
func leafEdge(m word.Mem, s Seg, leaf uint64) Edge {
	arity := m.LineWords()
	e, rel := PLIDEdge(s.Root), leaf*uint64(arity)
	for lvl := s.Height; lvl > 0; lvl-- {
		sub := capacity(arity, lvl-1)
		e = Children(m, e, lvl)[rel/sub]
		rel %= sub
	}
	return e
}

// denseWords returns n random words, none of them zero or small enough
// to inline, so every leaf of their segment is its own line.
func denseWords(rng *rand.Rand, n int) []uint64 {
	ws := make([]uint64, n)
	for i := range ws {
		ws[i] = rng.Uint64() | 1<<63
	}
	return ws
}

// TestWriteBatchRewrittenSubtreeUnread pins the read skip: updates that
// overwrite every word of a subtree rebuild it without fetching any line
// at or below it, so the descent reads only the subtree's ancestors.
// One word short of full coverage, the subtree's node and the one
// partly written leaf are read again.
func TestWriteBatchRewrittenSubtreeUnread(t *testing.T) {
	for _, m := range machines(t) {
		arity := m.LineWords()
		rng := rand.New(rand.NewSource(61))
		sub := uint64(arity * arity) // the words of one level-1 subtree
		base := BuildWords(m, denseWords(rng, int(64*sub)), nil)
		full := make([]Update, sub)
		for i := range full {
			full[i] = Update{Idx: 5*sub + uint64(i), W: rng.Uint64() | 1<<63}
		}
		for _, tc := range []struct {
			name  string
			ups   []Update
			reads int
		}{
			{"full cover", full, base.Height - 1},
			{"one word short", full[1:], base.Height + 1},
		} {
			cm := &countingMem{Mem: m}
			got, st := WriteBatch(cm, base, tc.ups)
			if cm.reads != tc.reads || st.LineReads != uint64(tc.reads) {
				t.Fatalf("arity %d %s: read %d lines (stats %d), want %d", arity, tc.name, cm.reads, st.LineReads, tc.reads)
			}
			want := applySerial(m, base, tc.ups)
			if !got.Equal(want) {
				t.Fatalf("arity %d %s: wave root %#x != serial %#x", arity, tc.name, got.Root, want.Root)
			}
			ReleaseSeg(m, got)
			ReleaseSeg(m, want)
		}
		ReleaseSeg(m, base)
		if live := m.LiveLines(); live != 0 {
			t.Fatalf("arity %d: %d lines leaked", arity, live)
		}
	}
}

// TestWriteBatchKeepIfPresentLeafUntouched pins the keep-if-present
// pass-through: a present leaf whose only updates carry Keep is neither
// read nor looked up nor retained nor released, and stays in the result
// by PLID even though the Keep words differ from its own. Over an
// absent leaf the same updates are written.
func TestWriteBatchKeepIfPresentLeafUntouched(t *testing.T) {
	for _, m := range machines(t) {
		arity := uint64(m.LineWords())
		rng := rand.New(rand.NewSource(62))
		ws := denseWords(rng, int(16*arity*arity))
		const leaf, absent = 9, 12
		for i := range arity {
			ws[absent*arity+i] = 0
		}
		base := BuildWords(m, ws, nil)
		le := leafEdge(m, base, leaf)
		if le.T != word.TagPLID || le.W == 0 {
			t.Fatalf("arity %d: leaf %d is not a line: %+v", arity, leaf, le)
		}
		content := m.ReadLine(word.PLID(le.W))

		var ups []Update
		for _, l := range []uint64{leaf, absent} {
			for i := range arity {
				ups = append(ups, Update{Idx: l*arity + i, W: rng.Uint64() | 1, Keep: true})
			}
		}
		ups = append(ups, Update{Idx: (leaf ^ 1) * arity, W: 7}) // rebuilds the parent
		cm := &countingMem{Mem: m, touched: map[word.PLID]int{}}
		got, st := WriteBatch(cm, base, ups)
		if n := cm.touched[word.PLID(le.W)]; n != 0 {
			t.Fatalf("arity %d: kept leaf read, retained or released %d times", arity, n)
		}
		for _, c := range cm.looked {
			if c == content {
				t.Fatalf("arity %d: kept leaf looked up", arity)
			}
		}
		if st.Kept != arity || st.PathsRebuilt+st.SiblingCoalesced+st.Kept != st.Updates {
			t.Fatalf("arity %d: stats %+v, want %d kept", arity, st, arity)
		}
		if e := leafEdge(m, got, leaf); e != le {
			t.Fatalf("arity %d: kept leaf edge %+v, want %+v", arity, e, le)
		}
		for i := range arity {
			if w, _ := ReadWord(m, got, absent*arity+i); w != ups[arity+i].W {
				t.Fatalf("arity %d: absent leaf word %d = %#x, want the Keep write %#x", arity, i, w, ups[arity+i].W)
			}
		}
		want := applyKeepOracle(m, base, ups)
		if !got.Equal(want) {
			t.Fatalf("arity %d: wave root %#x != oracle %#x", arity, got.Root, want.Root)
		}
		for _, s := range []Seg{got, want, base} {
			ReleaseSeg(m, s)
		}
		if live := m.LiveLines(); live != 0 {
			t.Fatalf("arity %d: %d lines leaked", arity, live)
		}
	}
}

// TestWriteBatchKeepIfPresentMatchesOracle drives WriteBatch with
// random update sets that mix whole-leaf and whole-subtree covers
// (plain, and with Keep leaves inside), Keep words over absent and
// present leaves, last-wins flips of the Keep bit, leaf roots and
// growth, and requires the root the Keep oracle commits path by path.
func TestWriteBatchKeepIfPresentMatchesOracle(t *testing.T) {
	for _, m := range machines(t) {
		arity := uint64(m.LineWords())
		rng := rand.New(rand.NewSource(63))
		for round := 0; round < 40; round++ {
			leaves := 8 + rng.Intn(48)
			if round%5 == 0 {
				leaves = 1 // a leaf root, grown over in rounds 0 and 20
			}
			ws := make([]uint64, uint64(leaves)*arity)
			for l := 0; l < leaves; l++ {
				if rng.Intn(3) == 0 {
					continue // absent leaf
				}
				for i := range arity {
					if rng.Intn(4) != 0 {
						ws[uint64(l)*arity+i] = rng.Uint64() >> rng.Intn(64)
					}
				}
			}
			base := BuildWords(m, ws, nil)
			span := base.Capacity(int(arity)) / arity // leaves addressable
			if round%4 == 0 {
				span *= arity * arity // growth
			}
			var ups []Update
			put := func(idx uint64, keep bool) {
				ups = append(ups, Update{Idx: idx, W: rng.Uint64() >> rng.Intn(64), Keep: keep})
			}
			for k := 0; k < 1+rng.Intn(12); k++ {
				leaf := uint64(rng.Int63n(int64(span)))
				switch rng.Intn(6) {
				case 0: // whole leaf, unconditional
					for i := range arity {
						put(leaf*arity+i, false)
					}
				case 1: // whole leaf, Keep on some words
					for i := range arity {
						put(leaf*arity+i, rng.Intn(2) == 0)
					}
				case 2: // whole level-1 subtree, one leaf of it all Keep
					first, keepLeaf := leaf-leaf%arity, rng.Intn(int(arity)+1)
					for l := range arity {
						for i := range arity {
							put((first+l)*arity+i, int(l) == keepLeaf)
						}
					}
				case 3: // Keep-only words of one leaf
					for i := range arity {
						if rng.Intn(2) == 0 {
							put(leaf*arity+i, true)
						}
					}
				case 4: // a word written twice, the Keep bit flipped
					idx := leaf*arity + uint64(rng.Intn(int(arity)))
					keep := rng.Intn(2) == 0
					put(idx, keep)
					put(idx, !keep)
				default: // single words
					put(leaf*arity+uint64(rng.Intn(int(arity))), rng.Intn(2) == 0)
				}
			}
			want := applyKeepOracle(m, base, ups)
			got, st := WriteBatch(m, base, ups)
			if !got.Equal(want) {
				t.Fatalf("arity %d round %d: wave root %#x/h%d != oracle %#x/h%d",
					arity, round, got.Root, got.Height, want.Root, want.Height)
			}
			if st.PathsRebuilt+st.SiblingCoalesced+st.Kept != st.Updates {
				t.Fatalf("arity %d round %d: stats %+v do not add up", arity, round, st)
			}
			for _, s := range []Seg{got, want, base} {
				ReleaseSeg(m, s)
			}
		}
		if live := m.LiveLines(); live != 0 {
			t.Fatalf("arity %d: %d lines leaked", arity, live)
		}
	}
}
