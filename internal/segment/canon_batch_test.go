package segment

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/word"
)

// batchLogMem records whether any LookupLineBatchInto call was handed the
// same content twice.
type batchLogMem struct {
	word.Mem
	batches, lines int
	dupBatches     int
}

func (r *batchLogMem) LookupLineBatchInto(cs []word.Content, out []word.PLID) {
	r.batches++
	r.lines += len(cs)
	seen := make(map[word.Content]bool, len(cs))
	for _, c := range cs {
		if seen[c] {
			r.dupBatches++
			break
		}
		seen[c] = true
	}
	r.Mem.LookupLineBatchInto(cs, out)
}

// TestResolveNeverBatchesDuplicateContents pins what makes batched
// lookups safe to use although LookupLineBatchInto is not serial-exact
// for a content that appears twice in one batch (it probes every content
// before filling any, so the second copy misses the LLC where a serial
// lookup would hit the first's fill): CanonBatch.Resolve deduplicates by
// full content, so no engine ever hands the memory system a duplicate.
// The builds below repeat leaves and whole subtrees within levels.
func TestResolveNeverBatchesDuplicateContents(t *testing.T) {
	m := &batchLogMem{Mem: core.NewMachine(core.TestConfig())}
	rng := rand.New(rand.NewSource(4903))
	pairs := [4][2]uint64{{rng.Uint64(), rng.Uint64()}, {rng.Uint64(), 7 << 60}, {1 << 62, rng.Uint64()}, {3, 5 << 58}}
	ws := make([]uint64, 4096)
	for i := 0; i < len(ws); i += 2 {
		if rng.Intn(3) == 0 {
			ws[i], ws[i+1] = rng.Uint64(), rng.Uint64()
		} else {
			p := pairs[rng.Intn(len(pairs))]
			ws[i], ws[i+1] = p[0], p[1]
		}
	}
	s := BuildWords(m, ws, nil)
	ReleaseSeg(m, s)
	before := m.lines
	rows := CanonLeaves(m, ws)
	if leaves := m.lines - before; leaves >= len(ws)/4 {
		t.Fatalf("CanonLeaves looked up %d of %d leaves: nothing was deduplicated", leaves, len(ws)/2)
	}
	edges := CanonNodes(m, rows)
	releaseAll(m, rows)
	releaseAll(m, edges)
	if m.dupBatches != 0 {
		t.Fatalf("%d of %d LookupLineBatchInto calls were handed a content twice", m.dupBatches, m.batches)
	}
	if live := m.Mem.(*core.Machine).LiveLines(); live != 0 {
		t.Fatalf("%d lines leaked", live)
	}
}
