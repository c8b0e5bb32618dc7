package kvstore

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
)

func TestHicampReadMatchesGet(t *testing.T) {
	srv := NewHicampServer(core.TestConfig())
	var wb Batch
	keys := make([]string, 40)
	for i := range keys {
		keys[i] = fmt.Sprintf("mk-%03d", i)
		wb = wb.Set([]byte(keys[i]), bytes.Repeat([]byte(fmt.Sprintf("value %03d ", i)), 1+i%5))
	}
	if err := srv.Write(wb); err != nil {
		t.Fatal(err)
	}
	rb := Batch{}.
		Get([]byte(keys[3])).
		Get([]byte("absent")).
		Get([]byte(keys[17])).
		Get([]byte(keys[3])). // duplicate in one batch
		Get([]byte(keys[39]))
	srv.Read(rb)
	// The reference is the per-key iterator-register path.
	reader, err := srv.OpenReader()
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	for i := range rb {
		want, wantOK, err := srv.GetVia(reader, rb[i].Key)
		if err != nil {
			t.Fatal(err)
		}
		if rb[i].Found != wantOK {
			t.Fatalf("key %q: found=%v, want %v", rb[i].Key, rb[i].Found, wantOK)
		}
		if !bytes.Equal(rb[i].Value, want) {
			t.Fatalf("key %q: value %q, want %q", rb[i].Key, rb[i].Value, want)
		}
	}
	if rb[1].Found {
		t.Fatal("absent key reported found")
	}
}

// BenchmarkBulkMultiGet times one batched Read of a 512-key power-law
// GET batch, the memcached multi-key get shape.
func BenchmarkBulkMultiGet(b *testing.B) {
	const items, batchKeys = 256, 512
	c := datagen.HTMLCorpus("bench-bulk-mget", items, 512, 21)
	trace := datagen.RequestTrace(items, 3*batchKeys, 10, 33)
	keys := make([][]byte, 0, batchKeys)
	for _, r := range trace {
		if r.Get {
			keys = append(keys, []byte(c.Keys[r.Key]))
			if len(keys) == batchKeys {
				break
			}
		}
	}
	b.Run("bulk", func(b *testing.B) {
		srv := NewHicampServer(core.TestConfig())
		if err := srv.Write(corpusBatch(c)); err != nil {
			b.Fatal(err)
		}
		rd := make(Batch, len(keys))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range keys {
				rd[j] = KV{Key: keys[j]}
			}
			srv.Read(rd)
		}
	})
}
