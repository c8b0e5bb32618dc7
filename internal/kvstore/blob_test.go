package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// blobDoc generates a text-like value with realistic entropy: repeated
// markup mixed with varying ids, so the rolling hash finds content-
// defined cutpoints. (Near-periodic content would force-cut every chunk
// at MaxSize and chunk identity would not survive shifts — the known
// CDC degenerate case, not what this layer is measured on.)
func blobDoc(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"chunked", "value", "content", "defined", "dedup", "shifted", "tenant", "index"}
	var b bytes.Buffer
	for b.Len() < n {
		fmt.Fprintf(&b, "<li id=%x>%s %s %s</li>\n", rng.Uint32(),
			words[rng.Intn(len(words))], words[rng.Intn(len(words))], words[rng.Intn(len(words))])
	}
	return b.Bytes()[:n]
}

func TestBlobRoundTrip(t *testing.T) {
	s := NewHicampServer(core.TestConfig())
	for _, n := range []int{0, 1, 100, 5000, 100000} {
		key := []byte{'b', byte(n), byte(n >> 8), byte(n >> 16)}
		data := blobDoc(int64(n)+1, n)
		if err := blobPut(s, key, data); err != nil {
			t.Fatalf("n=%d: put: %v", n, err)
		}
		got, ok := blobGet(s, key)
		if !ok || !bytes.Equal(got, data) {
			t.Fatalf("n=%d: get round trip failed (ok=%v, %d bytes)", n, ok, len(got))
		}
		st, ok := s.BlobStat(key)
		if !ok || st.Len != uint64(n) {
			t.Fatalf("n=%d: stat %+v ok=%v", n, st, ok)
		}
	}
	if _, ok := blobGet(s, []byte("missing")); ok {
		t.Fatal("missing key found")
	}
}

func TestBlobOverwriteAndDelete(t *testing.T) {
	s := NewHicampServer(core.TestConfig())
	key := []byte("doc")
	v1, v2 := blobDoc(1, 40000), blobDoc(2, 30000)
	if err := blobPut(s, key, v1); err != nil {
		t.Fatal(err)
	}
	if err := blobPut(s, key, v2); err != nil {
		t.Fatal(err)
	}
	got, ok := blobGet(s, key)
	if !ok || !bytes.Equal(got, v2) {
		t.Fatal("overwrite did not take")
	}
	if err := blobDel(s, key); err != nil {
		t.Fatal(err)
	}
	if _, ok := blobGet(s, key); ok {
		t.Fatal("deleted key still found")
	}
	// Delete is idempotent.
	if err := blobDel(s, key); err != nil {
		t.Fatal(err)
	}
	// Re-put after delete: the ingest memo's entries for freed chunks
	// must revalidate-fail and rebuild, not resurrect dangling PLIDs.
	if err := blobPut(s, key, v1); err != nil {
		t.Fatal(err)
	}
	got, ok = blobGet(s, key)
	if !ok || !bytes.Equal(got, v1) {
		t.Fatal("re-put after delete does not round-trip")
	}
}

// Blob keys and string keys live in different maps: the same key can
// carry both a Set value and a BlobWrite value without collision.
func TestBlobStringKeysDisjoint(t *testing.T) {
	s := NewHicampServer(core.TestConfig())
	key := []byte("shared-key")
	if err := s.Set(key, []byte("string value")); err != nil {
		t.Fatal(err)
	}
	if err := blobPut(s, key, blobDoc(3, 20000)); err != nil {
		t.Fatal(err)
	}
	sv, ok := get(s, key)
	if !ok || string(sv) != "string value" {
		t.Fatal("string value clobbered by blob put")
	}
	if err := blobDel(s, key); err != nil {
		t.Fatal(err)
	}
	if _, ok := get(s, key); !ok {
		t.Fatal("blob delete removed the string binding")
	}
}

func TestBlobNamespaces(t *testing.T) {
	s := NewHicampServer(core.TestConfig())
	a, b := blobDoc(4, 15000), blobDoc(5, 15000)
	if err := blobPut(s, []byte("tenantA/doc"), a); err != nil {
		t.Fatal(err)
	}
	if err := blobPut(s, []byte("tenantB/doc"), b); err != nil {
		t.Fatal(err)
	}
	if err := blobPut(s, []byte("doc"), a); err != nil { // root map
		t.Fatal(err)
	}
	for _, tc := range []struct {
		key  string
		want []byte
	}{{"tenantA/doc", a}, {"tenantB/doc", b}, {"doc", a}} {
		got, ok := blobGet(s, []byte(tc.key))
		if !ok || !bytes.Equal(got, tc.want) {
			t.Fatalf("%s: wrong value back (ok=%v)", tc.key, ok)
		}
	}
	if got := s.BlobNamespaces(); len(got) != 2 || got[0] != "tenantA" || got[1] != "tenantB" {
		t.Fatalf("BlobNamespaces = %v", got)
	}
	// Tenant deletes are isolated.
	if err := blobDel(s, []byte("tenantA/doc")); err != nil {
		t.Fatal(err)
	}
	if _, ok := blobGet(s, []byte("tenantA/doc")); ok {
		t.Fatal("tenantA/doc survived delete")
	}
	if _, ok := blobGet(s, []byte("tenantB/doc")); !ok {
		t.Fatal("tenantB/doc lost to tenantA delete")
	}
}

// TestBlobNearDuplicateMemo pins the layer's perf purpose: putting a
// shifted near-duplicate under another key rides the warm chunk memo
// instead of rebuilding the whole value.
func TestBlobNearDuplicateMemo(t *testing.T) {
	s := NewHicampServer(core.TestConfig())
	doc := blobDoc(6, 200000)
	edited := append(append(append([]byte{}, doc[:900]...), []byte("inserted clause ")...), doc[900:]...)
	if err := blobPut(s, []byte("orig"), doc); err != nil {
		t.Fatal(err)
	}
	pre := s.BlobIngestStats()
	if err := blobPut(s, []byte("edited"), edited); err != nil {
		t.Fatal(err)
	}
	st := s.BlobIngestStats()
	hits, builds := st.MemoHits-pre.MemoHits, st.ChunkBuilds-pre.ChunkBuilds
	if hits == 0 || builds*4 > hits {
		t.Fatalf("near-duplicate put: %d memo hits, %d rebuilds — expected hit-dominated", hits, builds)
	}
	got, ok := blobGet(s, []byte("edited"))
	if !ok || !bytes.Equal(got, edited) {
		t.Fatal("edited blob does not round-trip")
	}
	t.Logf("near-duplicate put: %d memo hits, %d chunk rebuilds", hits, builds)
}

func TestBlobConcurrentPut(t *testing.T) {
	s := NewHicampServer(core.TestConfig())
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			var err error
			for i := 0; i < 20 && err == nil; i++ {
				key := []byte{byte('a' + g), byte(i)}
				err = blobPut(s, key, blobDoc(int64(g*100+i), 8000))
			}
			done <- err
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for g := 0; g < 8; g++ {
		for i := 0; i < 20; i++ {
			key := []byte{byte('a' + g), byte(i)}
			got, ok := blobGet(s, key)
			if !ok || !bytes.Equal(got, blobDoc(int64(g*100+i), 8000)) {
				t.Fatalf("goroutine %d blob %d corrupt (ok=%v)", g, i, ok)
			}
		}
	}
}
