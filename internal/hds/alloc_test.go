package hds

import (
	"math/rand/v2"
	"testing"

	"repro/internal/pool"
	"repro/internal/segment"
)

// TestReadWindowSteadyStateAllocs pins the read window's host cost
// shape: once the pools are warm, GetBytesAtInto of 256 keys bound to
// 256 B values — the key builds, the slot gather, the value gather and
// the values' materialization, all in one netting scope — allocates
// nothing. (Same regime as the segment wave pins: no -race, not
// parallel.)
func TestReadWindowSteadyStateAllocs(t *testing.T) {
	if pool.RaceEnabled {
		t.Skip("allocation pins are meaningless under -race")
	}
	const keys, window = 2000, 256
	h := NewHeap(hicampdConfig)
	mp, names, _ := windowMap(t, h, keys)
	seg, _, err := mp.SnapshotEntry()
	if err != nil {
		t.Fatal(err)
	}
	defer segment.ReleaseSeg(h.M, seg)
	rng := rand.New(rand.NewPCG(50, 1))
	batch := make([][]byte, window)
	var r ReadBuf
	read := func() {
		for i := range batch {
			batch[i] = names[rng.IntN(keys)]
		}
		mp.GetBytesAtInto(seg, batch, &r)
	}
	for range 3 { // warm the pools and r
		read()
	}
	if avg := testing.AllocsPerRun(20, read); avg != 0 {
		t.Errorf("steady-state GetBytesAtInto of %d keys allocates %.1f times per run, want 0", window, avg)
	}
	for i, ok := range r.Found {
		if !ok || len(r.Vals[i]) != 256 {
			t.Fatalf("key %q: found %v, %d bytes", batch[i], ok, len(r.Vals[i]))
		}
	}
}
