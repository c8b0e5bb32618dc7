package segment

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/word"
)

// The run gather's wave sequence against refWaves, a per-word
// level-order gather kept here, and the inputs the run gather's oracle
// tests (read_bulk_test.go) share with it.

// gatherSegs builds segments whose DAGs hold every edge kind the gather
// resolves without a fetch — zero subtrees, inline leaves, compacted
// spines — next to ordinary PLID edges, and checks that they do.
func gatherSegs(t *testing.T, m word.Mem, rng *rand.Rand) []Seg {
	t.Helper()
	mixed, _ := randSeg(m, rng, 700)
	sparse := make([]uint64, 900) // lone words far apart: compacted spines
	for _, i := range []int{3, 260, 261, 777} {
		sparse[i] = rng.Uint64() | 1<<63
	}
	small := make([]uint64, 300) // narrow words: inline leaves
	for i := range small {
		small[i] = uint64(i % 5)
	}
	segs := []Seg{mixed, BuildWords(m, sparse, nil), BuildWords(m, small, nil)}
	kinds := map[word.Tag]bool{}
	zero := false
	for _, s := range segs {
		var walk func(e Edge, lvl int)
		walk = func(e Edge, lvl int) {
			kinds[e.T] = kinds[e.T] || !e.IsZero()
			zero = zero || e.IsZero()
			if e.IsZero() || lvl == 0 {
				return
			}
			for _, c := range ChildrenInto(m, e, lvl, nil) {
				walk(c, lvl-1)
			}
		}
		walk(PLIDEdge(s.Root), s.Height)
	}
	if !zero || !kinds[word.TagInline] || !kinds[word.TagCompact] {
		t.Fatalf("arity %d: the segments lack an edge kind (zero %v, kinds %v)", m.LineWords(), zero, kinds)
	}
	return segs
}

// gatherRangeCases are GatherRanges cases: unaligned offsets spanning
// many children, ranges running past capacity or starting beyond it,
// empty ranges, a zero segment, and the same segment twice.
func gatherRangeCases(m word.Mem, rng *rand.Rand, segs []Seg) []Range {
	var rs []Range
	for _, s := range segs {
		rs = append(rs,
			Range{Seg: s, Off: uint64(1 + rng.Intn(7)), N: uint64(40 + rng.Intn(200))},
			Range{Seg: s, Off: s.Capacity(m.LineWords()) - 3, N: 50},
			Range{Seg: s, Off: 1 << 40, N: 4},
			Range{Seg: s, Off: 5, N: 0},
		)
	}
	return append(rs, Range{Seg: Seg{}, N: 6}, rs[0], Range{Seg: segs[0], Off: 2, N: 300})
}

// recordingMem logs every ReadLineBatchInto argument list.
type recordingMem struct {
	word.Mem
	waves [][]word.PLID
}

func (r *recordingMem) ReadLineBatchInto(ps []word.PLID, out []word.Content) {
	r.waves = append(r.waves, slices.Clone(ps))
	r.Mem.ReadLineBatchInto(ps, out)
}

// refNode is a per-word reference wave entry: one index per request.
type refNode struct {
	e    Edge
	lvl  int
	idxs []uint64
}

// refWaves is the level-order gather with one request per word: each
// wave fetches its nodes' distinct PLIDs in node order, first appearance
// first, and a node's children with requests join the next wave in
// ascending order. It returns each wave's fetch list.
func refWaves(m word.Mem, nodes []refNode) [][]word.PLID {
	arity := m.LineWords()
	var waves [][]word.PLID
	for len(nodes) > 0 {
		var fetch []refNode
		for _, nd := range nodes {
			switch {
			case nd.e.IsZero(), nd.e.T == word.TagInline:
			case nd.e.T == word.TagCompact:
				p, path := word.DecodeCompact(nd.e.W, arity, m.PLIDBits())
				for _, step := range path {
					sub := capacity(arity, nd.lvl-1)
					var kept []uint64
					for _, idx := range nd.idxs {
						if int(idx/sub) == step {
							kept = append(kept, idx%sub)
						}
					}
					nd.idxs = kept
					nd.lvl--
				}
				if len(nd.idxs) > 0 {
					fetch = append(fetch, refNode{e: PLIDEdge(p), lvl: nd.lvl, idxs: nd.idxs})
				}
			default:
				fetch = append(fetch, nd)
			}
		}
		if len(fetch) == 0 {
			break
		}
		var plids []word.PLID
		for _, nd := range fetch {
			if p := word.PLID(nd.e.W); !slices.Contains(plids, p) {
				plids = append(plids, p)
			}
		}
		waves = append(waves, plids)
		var next []refNode
		for _, nd := range fetch {
			if nd.lvl == 0 {
				continue
			}
			sub := capacity(arity, nd.lvl-1)
			c := m.ReadLine(word.PLID(nd.e.W))
			kids := make([][]uint64, arity)
			for _, idx := range nd.idxs {
				kids[idx/sub] = append(kids[idx/sub], idx%sub)
			}
			for ch, idxs := range kids {
				if e := (Edge{W: c.W[ch], T: c.T[ch]}); len(idxs) > 0 && !e.IsZero() {
					next = append(next, refNode{e: e, lvl: nd.lvl - 1, idxs: idxs})
				}
			}
		}
		nodes = next
	}
	return waves
}

// refRoot is s's root node requesting idxs, less those past capacity.
func refRoot(m word.Mem, s Seg, idxs []uint64) []refNode {
	var in []uint64
	for _, idx := range idxs {
		if idx < s.Capacity(m.LineWords()) {
			in = append(in, idx)
		}
	}
	if s.Root == word.Zero || len(in) == 0 {
		return nil
	}
	return []refNode{{e: PLIDEdge(s.Root), lvl: s.Height, idxs: in}}
}

// TestGatherWaveSequenceMatchesPerWordReference pins the invariant that
// keeps every simulated count of a read where it was: whatever runs the
// words travel in, each wave's fetch list — and so every
// ReadLineBatchInto call — is the one a per-word gather makes.
func TestGatherWaveSequenceMatchesPerWordReference(t *testing.T) {
	for _, m := range machines(t) {
		rng := rand.New(rand.NewSource(49))
		segs := gatherSegs(t, m, rng)
		check := func(label string, run func(rm *recordingMem), want [][]word.PLID) {
			t.Helper()
			rm := &recordingMem{Mem: m}
			run(rm)
			if fmt.Sprint(rm.waves) != fmt.Sprint(want) {
				t.Fatalf("arity %d: %s: waves\n%v\nwant\n%v", m.LineWords(), label, rm.waves, want)
			}
		}
		for si, s := range segs {
			idxs := make([]uint64, 300)
			for i := range idxs {
				idxs[i] = uint64(rng.Intn(1000))
			}
			idxs = append(idxs, 7, 8, 9, 10, 500, 501)
			check(fmt.Sprintf("seg %d gather", si), func(rm *recordingMem) {
				GatherWordsInto(rm, s, idxs, make([]uint64, len(idxs)), make([]word.Tag, len(idxs)))
			}, refWaves(m, refRoot(m, s, idxs)))
			check(fmt.Sprintf("seg %d bulk", si), func(rm *recordingMem) {
				ReadWordsBulkInto(rm, s, 5, make([]uint64, 600))
			}, refWaves(m, refRoot(m, s, seqIdx(5, 600))))
		}
		rs := gatherRangeCases(m, rng, segs)
		var roots []refNode
		for _, r := range rs {
			roots = append(roots, refRoot(m, r.Seg, seqIdx(r.Off, int(r.N)))...)
		}
		check("ranges", func(rm *recordingMem) { gatherRanges(rm, rs) }, refWaves(m, roots))
	}
}
