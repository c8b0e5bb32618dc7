package durable

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hds"
	"repro/internal/segmap"
	"repro/internal/word"
)

// benchDB opens a DB over a fresh heap for benchmarking.
func benchDB(b *testing.B, opts Options) (*hds.Heap, *DB) {
	b.Helper()
	h := hds.NewHeap(core.TestConfig())
	db, err := Open(opts, h.M, h.SM)
	if err != nil {
		b.Fatal(err)
	}
	return h, db
}

// BenchmarkDurableGroupCommit measures the headline group-commit claim:
// concurrent writers each appending one publish record and waiting for
// durability, with the bounded flush window letting one fsync absorb the
// whole window's records. Compare against BenchmarkDurablePerWriteFsync.
func BenchmarkDurableGroupCommit(b *testing.B) {
	for _, par := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("writers=%d", par), func(b *testing.B) {
			_, db := benchDB(b, Options{Dir: b.TempDir(), FlushWindow: 500 * time.Microsecond})
			defer db.Close()
			e := segmap.Entry{Size: 64}
			b.SetParallelism(par)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					db.JournalPublish(word.VSID(3), e)
					if err := db.Sync(); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			st := db.Stats()
			if st.Appends > 0 {
				b.ReportMetric(float64(st.Fsyncs)/float64(st.Appends), "fsyncs/op")
				b.ReportMetric(float64(st.MaxGroupSize), "max-group")
			}
		})
	}
}

// BenchmarkDurablePerWriteFsync is the baseline the group commit is
// judged against: one writer, zero aggregation window — every committed
// record pays its own fsync, the classic write-ahead-log lower bound.
func BenchmarkDurablePerWriteFsync(b *testing.B) {
	_, db := benchDB(b, Options{Dir: b.TempDir(), FlushWindow: 1})
	defer db.Close()
	e := segmap.Entry{Size: 64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.JournalPublish(word.VSID(3), e)
		if err := db.Sync(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := db.Stats()
	if st.Appends > 0 {
		b.ReportMetric(float64(st.Fsyncs)/float64(st.Appends), "fsyncs/op")
	}
}

// BenchmarkDurableIngest measures the end-to-end overhead durability
// adds to the map write path (journal encode per line commit + publish,
// sync per batch).
func BenchmarkDurableIngest(b *testing.B) {
	h, db := benchDB(b, Options{Dir: b.TempDir(), FlushWindow: 500 * time.Microsecond})
	defer db.Close()
	mp := hds.NewMap(h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ks := hds.NewString(h, []byte(fmt.Sprintf("key-%04d", i%512)))
		vs := hds.NewString(h, []byte(fmt.Sprintf("value-%d-%d", i, i*7)))
		if err := mp.Set(ks, vs); err != nil {
			b.Fatal(err)
		}
		ks.Release(h)
		vs.Release(h)
		if err := db.Sync(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecoveryCold measures a cold restart: checkpoint + log tail
// into a fresh machine, the metric behind the checkpoint-placement rows
// of hicampbench -exp durability. The replay is read-only, so one
// on-disk state serves every iteration.
func BenchmarkRecoveryCold(b *testing.B) {
	for _, keys := range []int{256, 2048} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			dir := b.TempDir()
			h, db := benchDB(b, Options{Dir: dir, FlushWindow: 1})
			mp := hds.NewMap(h)
			db.Bind("kv:bench", mp.VSID())
			for i := 0; i < keys; i++ {
				ks := hds.NewString(h, []byte(fmt.Sprintf("key-%06d", i)))
				vs := hds.NewString(h, []byte(fmt.Sprintf("value-%06d-%d", i, i*13)))
				if err := mp.Set(ks, vs); err != nil {
					b.Fatal(err)
				}
				ks.Release(h)
				vs.Release(h)
			}
			if err := db.Sync(); err != nil {
				b.Fatal(err)
			}
			// Half the state behind a checkpoint, half in the log tail —
			// the steady-state shape between checkpoint intervals.
			if err := db.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < keys/2; i++ {
				ks := hds.NewString(h, []byte(fmt.Sprintf("key-%06d", i)))
				vs := hds.NewString(h, []byte(fmt.Sprintf("tail-%06d", i)))
				if err := mp.Set(ks, vs); err != nil {
					b.Fatal(err)
				}
				ks.Release(h)
				vs.Release(h)
			}
			db.Sync()
			db.Close()
			lines := h.M.LiveLines()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := core.NewMachine(core.TestConfig())
				sm := segmap.New(m)
				if _, err := recoverState(dir, m, sm); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(lines), "lines")
		})
	}
}
