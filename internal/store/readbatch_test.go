package store

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/word"
)

// populate fills the store with n distinct lines (deterministic contents,
// so two stores populated identically assign identical PLIDs) and returns
// their PLIDs.
func populate(s *Store, n int) []word.PLID {
	ps := make([]word.PLID, n)
	for i := range ps {
		ps[i], _ = s.Lookup(leaf(s, []byte(fmt.Sprintf("line %06d padd", i))))
	}
	return ps
}

// TestReadBatchChargesLikeSerialRead pins the satellite requirement:
// ReadBatchInto must report exactly the same DRAM-access and row-buffer
// counters as N serial Reads — the batch saves lock round trips, never
// simulated memory traffic.
func TestReadBatchChargesLikeSerialRead(t *testing.T) {
	// Small buckets so some lines land in the overflow area and the
	// batch exercises the overflow shard too.
	cfg := Config{LineBytes: 16, BucketBits: 4, DataWays: 4}
	serial, batch := New(cfg), New(cfg)
	ps := populate(serial, 200)
	pb := populate(batch, 200)
	for i := range ps {
		if ps[i] != pb[i] {
			t.Fatalf("stores diverged at line %d: %#x vs %#x", i, ps[i], pb[i])
		}
	}
	if serial.StatsSnapshot().Overflows == 0 {
		t.Fatal("test config produced no overflow lines; shrink buckets")
	}
	sb, bb := serial.StatsSnapshot(), batch.StatsSnapshot()
	srb, brb := serial.RowStats(), batch.RowStats()

	// A shuffled request order with duplicates and zero PLIDs mixed in.
	rng := rand.New(rand.NewSource(7))
	var req []word.PLID
	for i := 0; i < 1000; i++ {
		switch rng.Intn(10) {
		case 0:
			req = append(req, word.Zero)
		default:
			req = append(req, ps[rng.Intn(len(ps))])
		}
	}

	wantC := make([]word.Content, len(req))
	for i, p := range req {
		wantC[i] = serial.Read(p)
	}
	gotC := make([]word.Content, len(req))
	batch.ReadBatchInto(req, gotC)
	for i := range req {
		if gotC[i] != wantC[i] {
			t.Fatalf("content mismatch at %d (PLID %#x)", i, uint64(req[i]))
		}
	}

	ds := diffStats(sb, serial.StatsSnapshot())
	db := diffStats(bb, batch.StatsSnapshot())
	if ds != db {
		t.Fatalf("stats diverged:\nserial %+v\nbatch  %+v", ds, db)
	}
	drs := diffRows(srb, serial.RowStats())
	drb := diffRows(brb, batch.RowStats())
	if drs != drb {
		t.Fatalf("row stats diverged:\nserial %+v\nbatch  %+v", drs, drb)
	}
}

func diffStats(before, after Stats) Stats {
	return Stats{
		SigReads:    after.SigReads - before.SigReads,
		SigWrites:   after.SigWrites - before.SigWrites,
		DataReads:   after.DataReads - before.DataReads,
		LookupReads: after.LookupReads - before.LookupReads,
		DataWrites:  after.DataWrites - before.DataWrites,
		RCReads:     after.RCReads - before.RCReads,
		RCWrites:    after.RCWrites - before.RCWrites,
		DeallocOps:  after.DeallocOps - before.DeallocOps,
		Lookups:     after.Lookups - before.Lookups,
		LookupHits:  after.LookupHits - before.LookupHits,
		Allocs:      after.Allocs - before.Allocs,
		Frees:       after.Frees - before.Frees,
		FalseSig:    after.FalseSig - before.FalseSig,
		Overflows:   after.Overflows - before.Overflows,
	}
}

func diffRows(before, after RowStats) RowStats {
	return RowStats{
		Activations: after.Activations - before.Activations,
		RowHits:     after.RowHits - before.RowHits,
	}
}

func TestReadBatchZeroAndEmpty(t *testing.T) {
	s := New(testConfig())
	s.ReadBatchInto(nil, nil) // an empty batch is a no-op
	// Stale content in the buffer must be overwritten with zero lines.
	stale := word.Content{W: [word.MaxWords]uint64{1, 2}, N: 2}
	out := []word.Content{stale, stale}
	s.ReadBatchInto([]word.PLID{word.Zero, word.Zero}, out)
	for _, c := range out {
		if !c.IsZero() {
			t.Fatal("zero PLID must read as zero content")
		}
	}
	if s.StatsSnapshot().DataReads != 0 {
		t.Fatal("zero-PLID batch touched DRAM")
	}
}

func TestReadBatchFreedPanics(t *testing.T) {
	s := New(testConfig())
	p, _ := s.Lookup(leaf(s, []byte("short-lived line")))
	s.Release(p)
	defer func() {
		if recover() == nil {
			t.Fatal("ReadBatchInto of a freed PLID must panic")
		}
	}()
	s.ReadBatchInto([]word.PLID{p}, make([]word.Content, 1))
}
