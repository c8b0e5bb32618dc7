package segment

import (
	"testing"

	"repro/internal/core"
	"repro/internal/word"
)

// Escape-regression test for the scratch-pooling ownership contract:
// every result a wave engine returns is plain heap memory the caller
// owns outright, never a view into pooled scratch. The test scribbles
// over each returned buffer, runs every engine again (recycling the same
// pools), and checks the fresh results against per-word ReadWord ground
// truth — aliasing between a result and pooled scratch would surface as
// corruption in either direction.

func TestEscapeResultsDontAliasPooledScratch(t *testing.T) {
	m := core.NewMachine(core.TestConfig())
	ws := make([]uint64, 300)
	for i := range ws {
		if i%4 != 3 {
			ws[i] = uint64(i)*0x9E3779B9 + 7
		}
	}
	seg := BuildWords(m, ws, nil)
	idxs := []uint64{0, 7, 8, 31, 64, 65, 128, 255, 299}

	expect := func(label string, got []uint64, at []uint64) {
		t.Helper()
		for j, idx := range at {
			want, _ := ReadWord(m, seg, idx)
			if got[j] != want {
				t.Fatalf("%s[%d] (idx %d) = %#x, want %#x", label, j, idx, got[j], want)
			}
		}
	}

	runAll := func(round string) ([]uint64, []word.Tag, []uint64, [][]uint64) {
		vals, tags := GatherWords(m, seg, idxs)
		expect(round+" gather", vals, idxs)
		bulk := readWordsBulk(m, seg, 5, 40)
		at := make([]uint64, 40)
		for i := range at {
			at[i] = uint64(5 + i)
		}
		expect(round+" bulk", bulk, at)
		// GatherRanges writes into the caller's buffer: stale contents
		// must not show through, and the buffer must not be kept.
		flat := make([]uint64, 16+32)
		for i := range flat {
			flat[i] = 0xFEEDFACE
		}
		GatherRanges(m, []Range{
			{Seg: seg, Off: 0, N: 16},
			{Seg: seg, Off: 100, N: 32},
		}, flat)
		ranges := [][]uint64{flat[:16], flat[16:]}
		expect(round+" range0", ranges[0], seqIdx(0, 16))
		expect(round+" range1", ranges[1], seqIdx(100, 32))
		return vals, tags, bulk, ranges
	}

	vals, tags, bulk, ranges := runAll("first")

	// Scribble over every returned buffer. If any of them aliased pooled
	// scratch, the poison would flow into the next round's wave state.
	for i := range vals {
		vals[i] = ^uint64(0)
		tags[i] = word.TagPLID
	}
	for i := range bulk {
		bulk[i] = 0xDEADBEEF
	}
	for _, r := range ranges {
		for i := range r {
			r[i] = 0xABAD1DEA
		}
	}

	// Interleave a scan and a write so the scanner pool and wnode pool
	// recycle between the scribble and the re-run.
	ScanWords(m, seg, 0, func(uint64, uint64, word.Tag) bool { return true })
	s2, _ := WriteBatch(m, seg, []Update{{Idx: 3, W: ws[3], T: word.TagRaw}})
	ReleaseSeg(m, s2)

	runAll("second")
}

func seqIdx(off uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = off + uint64(i)
	}
	return out
}
