package cachesim

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/word"
)

// refCache is the replacement policy as a plain model: per set, a slice
// of ways in insertion order, each stamped from a per-set clock on every
// use. The victim is the way with the smallest stamp, an invalidation
// moves the last way into the hole, and a content probe scans the ways in
// order. The Cache must match it event for event at every associativity.
type refCache struct {
	sets  [][]refWay
	ticks []uint64
	ways  int
	stats Stats
}

type refWay struct {
	key   Key
	stamp uint64
	dirty bool
	held  bool
	cont  word.Content
}

func newRefCache(sets, ways int) *refCache {
	return &refCache{sets: make([][]refWay, sets), ticks: make([]uint64, sets), ways: ways}
}

func (r *refCache) find(s int, k Key) int {
	for i, w := range r.sets[s] {
		if w.key == k {
			return i
		}
	}
	return -1
}

func (r *refCache) touch(s, i int) {
	r.ticks[s]++
	r.sets[s][i].stamp = r.ticks[s]
}

func (r *refCache) readData(s int, id uint64) (word.Content, bool) {
	i := r.find(s, dataKey(id))
	if i < 0 {
		r.stats.Misses++
		return word.Content{}, false
	}
	r.stats.Hits++
	r.touch(s, i)
	return r.sets[s][i].cont, true
}

func (r *refCache) lookupData(s int, c word.Content) (uint64, bool) {
	for i, w := range r.sets[s] {
		if w.key.Kind == KindData && w.held && w.cont == c {
			r.stats.Hits++
			r.touch(s, i)
			return w.key.ID, true
		}
	}
	r.stats.Misses++
	return 0, false
}

// insert places k with content c (none when c is nil) as most recent.
func (r *refCache) insert(s int, k Key, c *word.Content, dirty bool) (victim Key, victimDirty bool) {
	w := refWay{key: k, dirty: dirty}
	if c != nil {
		w.held, w.cont = true, *c
	}
	i := r.find(s, k)
	if i < 0 {
		r.stats.Inserts++
		if len(r.sets[s]) < r.ways {
			r.sets[s] = append(r.sets[s], refWay{})
			i = len(r.sets[s]) - 1
		} else {
			i = 0
			for j, x := range r.sets[s] {
				if x.stamp < r.sets[s][i].stamp {
					i = j
				}
			}
			v := r.sets[s][i]
			r.stats.Evictions++
			if v.dirty {
				r.stats.DirtyEvts++
			}
			victim, victimDirty = v.key, v.dirty
		}
	}
	r.sets[s][i] = w
	r.touch(s, i)
	return victim, victimDirty
}

func (r *refCache) touchRC(s int, id uint64) (bool, Key, bool) {
	k := Key{Kind: KindRC, ID: id}
	if i := r.find(s, k); i >= 0 {
		r.stats.Hits++
		r.touch(s, i)
		r.sets[s][i].dirty = true
		return true, Key{}, false
	}
	r.stats.Misses++
	v, d := r.insert(s, k, nil, true)
	return false, v, d
}

func (r *refCache) invalidate(s int, k Key) bool {
	i := r.find(s, k)
	if i < 0 {
		return false
	}
	last := len(r.sets[s]) - 1
	r.sets[s][i] = r.sets[s][last]
	r.sets[s] = r.sets[s][:last]
	return true
}

func (r *refCache) flushDirty() []Key {
	var ks []Key
	for s := range r.sets {
		for i := range r.sets[s] {
			if r.sets[s][i].dirty {
				ks = append(ks, r.sets[s][i].key)
				r.sets[s][i].dirty = false
			}
		}
	}
	return ks
}

// checkSet compares set s of c with the model: the resident ways in scan
// order with their keys, dirty bits and contents, and their recency.
func checkSet(t *testing.T, c *Cache, r *refCache, s int) {
	t.Helper()
	h := &c.heads[s]
	ways := r.sets[s]
	if int(h.n) != len(ways) {
		t.Fatalf("set %d holds %d ways, model %d", s, h.n, len(ways))
	}
	byRecency := make([]int, len(ways))
	for i := range ways {
		byRecency[i] = i
		var got word.Content
		c.loadWay(h, i, s*c.ways+i, &got)
		want := ways[i].cont
		if !ways[i].held {
			want = word.Content{}
		}
		if k := unpack(c.keys[s*c.ways+i]); k != ways[i].key || uint64(h.dirty>>i&1) != b2u(ways[i].dirty) || got != want {
			t.Fatalf("set %d way %d: key %v dirty %d content %v, model %+v", s, i, k, h.dirty>>i&1, got, ways[i])
		}
	}
	sort.Slice(byRecency, func(a, b int) bool { return ways[byRecency[a]].stamp > ways[byRecency[b]].stamp })
	for rank, i := range byRecency {
		if got := int(h.order >> (4 * rank) & 0xf); got != i {
			t.Fatalf("set %d rank %d holds way %d, model way %d", s, rank, got, i)
		}
	}
}

// collidingIDs returns n IDs whose data keys all share one signature byte.
func collidingIDs(n int, from uint64) []uint64 {
	var ids []uint64
	sig := keySig(pack(dataKey(from)))
	for id := from; len(ids) < n; id++ {
		if keySig(pack(dataKey(id))) == sig {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestPolicyMatchesStampLRUReference runs seeded mixes of every probe,
// fill, invalidation and flush against refCache at each associativity
// from 1 to MaxWays, over a few sets so ways fill, evict and empty again.
// Half the IDs share a key signature byte and half the contents share a
// content signature byte, some contents are held by two IDs at once and
// RC entries carry none, so both signature comparisons' false positives
// and the first-match order of content probes are exercised.
func TestPolicyMatchesStampLRUReference(t *testing.T) {
	const sets, ops = 4, 6000
	for ways := 1; ways <= MaxWays; ways++ {
		width := []int{2, 4, 8}[ways%3]
		c, r := New(sets, ways), newRefCache(sets, ways)
		rng := rand.New(rand.NewSource(int64(4900 + ways)))
		domain := 3 * sets * ways
		ids := collidingIDs(domain/2, uint64(ways)<<20)
		for len(ids) < domain {
			ids = append(ids, rng.Uint64()>>8)
		}
		// contents[j] is the line ids[j] holds; pairs share one, and half
		// are searched out to share a content signature.
		contents := make([]word.Content, domain)
		var csig uint8
		for j := range contents {
			if j%5 == 4 {
				contents[j] = contents[j-1]
				continue
			}
			cont := seqContent(ids[j], width)
			for j%2 == 0 && j > 0 && contentSig(&cont, width, packTags(&cont)) != csig {
				cont.W[width-1]++
			}
			if j == 0 {
				csig = contentSig(&cont, width, packTags(&cont))
			}
			contents[j] = cont
		}
		var tl Tally
		for op := 0; op < ops; op++ {
			j := rng.Intn(domain)
			id, cont := ids[j], contents[j]
			s := int(id % sets)
			if rng.Intn(8) == 0 {
				s = rng.Intn(sets)
			}
			switch k := rng.Intn(200); {
			case k < 60:
				var got word.Content
				hit := c.ReadData(s, id, &got, &tl)
				want, wantHit := r.readData(s, id)
				if hit != wantHit || hit && got != want {
					t.Fatalf("%d ways op %d: ReadData(%d, %d) = %v %v, model %v %v", ways, op, s, id, hit, got, wantHit, want)
				}
			case k < 100:
				got, hit := c.LookupData(s, &cont, &tl)
				want, wantHit := r.lookupData(s, cont)
				if hit != wantHit || got != want {
					t.Fatalf("%d ways op %d: LookupData = %d %v, model %d %v", ways, op, got, hit, want, wantHit)
				}
			case k < 130:
				hit, v, d := c.TouchRC(s, id, &tl)
				wHit, wv, wd := r.touchRC(s, id)
				if hit != wHit || v != wv || d != wd {
					t.Fatalf("%d ways op %d: TouchRC = %v %v %v, model %v %v %v", ways, op, hit, v, d, wHit, wv, wd)
				}
			case k < 180:
				dirty := rng.Intn(2) == 0
				v, d := c.InsertData(s, id, &cont, dirty, &tl)
				wv, wd := r.insert(s, dataKey(id), &cont, dirty)
				if v != wv || d != wd {
					t.Fatalf("%d ways op %d: InsertData victim %v %v, model %v %v", ways, op, v, d, wv, wd)
				}
			case k < 190:
				// The Entry API can cache an RC key with content and a
				// data key without, which the content probe must skip.
				e := Entry{Key: dataKey(id), Dirty: rng.Intn(2) == 0}
				var wc *word.Content
				if rng.Intn(2) == 0 {
					e.Key.Kind = KindRC
				}
				if e.Key.Kind == KindRC || rng.Intn(3) == 0 {
					e.Content, wc = cont, &cont
				}
				v, ok := c.Insert(s, e)
				wv, wd := r.insert(s, e.Key, wc, e.Dirty)
				if ok && (v.Key != wv || v.Dirty != wd) || !ok && (wv != Key{} || wd) {
					t.Fatalf("%d ways op %d: Insert victim %v %v, model %v %v", ways, op, v, ok, wv, wd)
				}
			case k < 199:
				key := dataKey(id)
				if rng.Intn(3) == 0 {
					key.Kind = KindRC
				}
				if got, want := c.Invalidate(s, key), r.invalidate(s, key); got != want {
					t.Fatalf("%d ways op %d: Invalidate(%v) = %v, model %v", ways, op, key, got, want)
				}
			default:
				var got []Key
				c.FlushDirty(func(k Key) { got = append(got, k) })
				want := r.flushDirty()
				if len(got) != len(want) {
					t.Fatalf("%d ways op %d: FlushDirty wrote %d keys, model %d", ways, op, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%d ways op %d: FlushDirty key %d = %v, model %v", ways, op, i, got[i], want[i])
					}
				}
			}
			c.Publish(&tl)
			checkSet(t, c, r, s)
		}
		for s := 0; s < sets; s++ {
			checkSet(t, c, r, s)
		}
		if st := c.StatsSnapshot(); st != r.stats {
			t.Errorf("%d ways: stats %+v, model %+v", ways, st, r.stats)
		}
		if r.stats.Evictions == 0 || r.stats.DirtyEvts == 0 || r.stats.Hits == 0 {
			t.Errorf("%d ways: mix missed a path: %+v", ways, r.stats)
		}
	}
}

// TestSignatureMatch pins the SWAR helpers against byte-by-byte loops.
func TestSignatureMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(4902))
	for trial := 0; trial < 2000; trial++ {
		var sig [MaxWays]uint8
		for i := range sig {
			sig[i] = uint8(rng.Intn(4)) // few values: many matches
		}
		b, n := uint8(rng.Intn(4)), rng.Intn(MaxWays+1)
		var want uint32
		for i := 0; i < n; i++ {
			if sig[i] == b {
				want |= 1 << i
			}
		}
		if got := sigMatch(&sig, b, n); got != want {
			t.Fatalf("sigMatch(%v, %d, %d) = %#x, want %#x", sig, b, n, got, want)
		}
		perm := rng.Perm(MaxWays)
		var o uint64
		for rank, w := range perm {
			o |= uint64(w) << (4 * rank)
		}
		for rank, w := range perm {
			if got := rankOf(o, w); got != rank {
				t.Fatalf("rankOf(%#x, %d) = %d, want %d", o, w, got, rank)
			}
			moved := append([]int{w}, append(append([]int{}, perm[:rank]...), perm[rank+1:]...)...)
			var want uint64
			for r2, w2 := range moved {
				want |= uint64(w2) << (4 * r2)
			}
			if got := toFront(o, rank); got != want {
				t.Fatalf("toFront(%#x, %d) = %#x, want %#x", o, rank, got, want)
			}
		}
	}
}
