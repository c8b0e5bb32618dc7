package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datagen"
)

// TestServerModelEquivalence replays a long random command stream against
// the HICAMP server and a plain Go map, verifying every get byte-for-byte
// — the end-to-end correctness check behind the Figure 6 traffic numbers.
func TestServerModelEquivalence(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		srv := NewHicampServer(testCfg())
		model := map[string][]byte{}
		corpus := datagen.HTMLCorpus("model", 30, 800, seed)
		reader, err := srv.OpenReader()
		if err != nil {
			t.Fatal(err)
		}
		for op := 0; op < 400; op++ {
			k := fmt.Sprintf("k%02d", rng.Intn(40))
			switch rng.Intn(10) {
			case 0: // delete
				del(srv, []byte(k))
				delete(model, k)
			case 1, 2, 3: // set (occasionally a duplicate body)
				val := corpus.Items[rng.Intn(len(corpus.Items))]
				if rng.Intn(5) == 0 {
					val = []byte{} // empty value
				}
				if err := srv.Set([]byte(k), val); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
				model[k] = val
			default: // get, alternating both read paths
				var got []byte
				var ok bool
				if op%2 == 0 {
					got, ok = get(srv, []byte(k))
				} else {
					got, ok = srv.GetVia(reader, []byte(k))
				}
				want, wantOK := model[k]
				if ok != wantOK {
					t.Fatalf("seed %d op %d: presence %v want %v", seed, op, ok, wantOK)
				}
				if ok && !bytes.Equal(got, want) {
					t.Fatalf("seed %d op %d: value mismatch (%d vs %d bytes)",
						seed, op, len(got), len(want))
				}
			}
		}
		reader.Close()
		if got, want := srv.Map().Len(), uint64(len(model)); got != want {
			t.Fatalf("seed %d: map len %d, model %d", seed, got, want)
		}
	}
}

// TestDedupAcrossKeysBoundsFootprint stores the same large value under
// many keys: the footprint must grow by key/metadata cost only — the
// §5.1.3 "eliminates duplication of data between processes" property.
func TestDedupAcrossKeysBoundsFootprint(t *testing.T) {
	srv := NewHicampServer(testCfg())
	val := bytes.Repeat([]byte("shared page content 64 bytes long, aligned to line size....... "), 64) // 4 KB
	srv.Set([]byte("key-000"), val)
	oneCopy := srv.Heap.M.FootprintBytes()
	for i := 1; i < 50; i++ {
		srv.Set([]byte(fmt.Sprintf("key-%03d", i)), val)
	}
	total := srv.Heap.M.FootprintBytes()
	perExtraKey := float64(total-oneCopy) / 49
	if perExtraKey > float64(oneCopy)/4 {
		t.Fatalf("each duplicate key costs %.0f bytes (first copy %d): dedup not shared",
			perExtraKey, oneCopy)
	}
}

// TestConvAndHicampSeeSameWorkload guards the comparison's fairness: the
// driver must issue identical request streams to both architectures.
func TestConvAndHicampSeeSameWorkload(t *testing.T) {
	w := NewWorkload(50, 100, 600, 5)
	gets, sets := 0, 0
	for _, r := range w.Trace {
		if r.Get {
			gets++
		} else {
			sets++
		}
	}
	if gets+sets != 100 {
		t.Fatal("trace length wrong")
	}
	// Both runners consume w.Trace directly; this asserts the workload
	// object is immutable across runs.
	r1, err := RunFig6(16, w)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunFig6(16, w)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("same workload, different results:\n%+v\n%+v", r1, r2)
	}
}
