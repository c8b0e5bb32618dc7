package kvstore

import (
	"fmt"
	"sort"
	"testing"
)

func TestBatchDeleteWavePath(t *testing.T) {
	s := NewHicampServer(testCfg())
	var wb Batch
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("dm-key-%d", i)
		wb = wb.Set([]byte(keys[i]), []byte(fmt.Sprintf("dm-val-%d", i)))
	}
	if err := s.Write(wb); err != nil {
		t.Fatal(err)
	}

	// One batch mixing present keys and absent keys: present ones unbind,
	// absent ones are no-ops.
	db := Batch{}.Del([]byte("dm-key-1")).Del([]byte("dm-key-3")).Del([]byte("never-set"))
	if err := s.Write(db); err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		_, ok := get(s, []byte(keys[i]))
		want := i != 1 && i != 3
		if ok != want {
			t.Fatalf("after batch delete, Get(%s) = %v, want %v", keys[i], ok, want)
		}
	}
	if err := s.Write(nil); err != nil {
		t.Fatalf("empty Write: %v", err)
	}
}

func TestNamespaceRoutingAndIsolation(t *testing.T) {
	s := NewHicampServer(testCfg())

	// Same suffix under two tenants and bare: three independent bindings.
	if err := s.Set([]byte("acme/k"), []byte("va")); err != nil {
		t.Fatal(err)
	}
	if err := s.Set([]byte("beta/k"), []byte("vb")); err != nil {
		t.Fatal(err)
	}
	if err := s.Set([]byte("k"), []byte("vr")); err != nil {
		t.Fatal(err)
	}

	for key, want := range map[string]string{"acme/k": "va", "beta/k": "vb", "k": "vr"} {
		got, ok := get(s, []byte(key))
		if !ok || string(got) != want {
			t.Fatalf("Get(%s) = %q,%v want %q", key, got, ok, want)
		}
	}

	// Tenants are distinct maps on distinct VSIDs; bare keys are the root.
	acme, beta := s.Namespace("acme"), s.Namespace("beta")
	if acme == beta || acme == s.Map() || beta == s.Map() {
		t.Fatal("tenant maps must be distinct from each other and the root")
	}
	if acme.VSID() == beta.VSID() {
		t.Fatal("tenant maps share a VSID")
	}
	if s.NamespaceFor([]byte("acme/k")) != acme {
		t.Fatal("NamespaceFor did not route to the tenant map")
	}
	if s.NamespaceFor([]byte("k")) != s.Map() {
		t.Fatal("bare key did not route to the root map")
	}
	// A leading separator is not a tenant prefix.
	if s.NamespaceFor([]byte("/odd")) != s.Map() {
		t.Fatal("leading-separator key did not route to the root map")
	}

	// Deleting a tenant's key leaves the other tenants' bindings alone.
	if err := del(s, []byte("acme/k")); err != nil {
		t.Fatal(err)
	}
	if _, ok := get(s, []byte("acme/k")); ok {
		t.Fatal("acme/k survived delete")
	}
	if _, ok := get(s, []byte("beta/k")); !ok {
		t.Fatal("beta/k lost to acme delete")
	}
	if _, ok := get(s, []byte("k")); !ok {
		t.Fatal("bare k lost to acme delete")
	}
}

func TestNamespaceBatchesSpanTenants(t *testing.T) {
	s := NewHicampServer(testCfg())
	keys := []string{"acme/a", "k0", "beta/b", "acme/c", "k1"}
	var wb Batch
	for i := range keys {
		wb = wb.Set([]byte(keys[i]), []byte("v-"+keys[i]))
	}
	if err := s.Write(wb); err != nil {
		t.Fatal(err)
	}

	// Positional multi-get across three namespaces, with a miss mixed in.
	rb := Batch{}.
		Get([]byte("beta/b")).
		Get([]byte("k1")).
		Get([]byte("acme/missing")).
		Get([]byte("acme/a"))
	s.Read(rb)
	wantFound := []bool{true, true, false, true}
	for i := range rb {
		if rb[i].Found != wantFound[i] {
			t.Fatalf("found[%d] = %v, want %v", i, rb[i].Found, wantFound[i])
		}
		if rb[i].Found && string(rb[i].Value) != "v-"+string(rb[i].Key) {
			t.Fatalf("Read[%d] = %q, want %q", i, rb[i].Value, "v-"+string(rb[i].Key))
		}
	}

	// Cross-tenant delete batch.
	if err := s.Write(Batch{}.Del([]byte("acme/a")).Del([]byte("k0"))); err != nil {
		t.Fatal(err)
	}
	if _, ok := get(s, []byte("acme/a")); ok {
		t.Fatal("acme/a survived the cross-tenant delete batch")
	}
	if _, ok := get(s, []byte("k0")); ok {
		t.Fatal("k0 survived the cross-tenant delete batch")
	}
	if _, ok := get(s, []byte("acme/c")); !ok {
		t.Fatal("acme/c lost")
	}

	// Walking every namespace's map covers the whole store, full keys
	// included.
	want := []string{"acme/c", "beta/b", "k1"}
	var scanned []string
	for _, ns := range []string{"", "acme", "beta"} {
		mp := s.Namespace(ns)
		if err := mp.BytesScan(func(k, v []byte) bool {
			scanned = append(scanned, string(k))
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(scanned)
	if fmt.Sprint(scanned) != fmt.Sprint(want) {
		t.Fatalf("BytesScan = %v, want %v", scanned, want)
	}
}

func TestNamespaceBoundFallsBackToRoot(t *testing.T) {
	s := NewHicampServer(testCfg())
	s.SetMaxNamespaces(2)
	a := s.Namespace("t1")
	b := s.Namespace("t2")
	over := s.Namespace("t3") // beyond the bound: shares the root map
	if a == s.Map() || b == s.Map() {
		t.Fatal("in-bound tenants must get their own maps")
	}
	if over != s.Map() {
		t.Fatal("over-bound tenant must fall back to the root map")
	}
	// Still correct through the fallback: full key stored, so no aliasing.
	if err := s.Set([]byte("t3/k"), []byte("v3")); err != nil {
		t.Fatal(err)
	}
	if got, ok := get(s, []byte("t3/k")); !ok || string(got) != "v3" {
		t.Fatalf("fallback Get = %q,%v", got, ok)
	}

	// Telemetry lists root plus the two real tenants, name-ordered.
	infos := s.NamespaceStats()
	if len(infos) != 3 {
		t.Fatalf("NamespaceStats len = %d, want 3", len(infos))
	}
	if infos[0].Name != "" || infos[1].Name != "t1" || infos[2].Name != "t2" {
		t.Fatalf("NamespaceStats order = %q,%q,%q", infos[0].Name, infos[1].Name, infos[2].Name)
	}
	if infos[1].VSID == infos[2].VSID || infos[1].VSID == infos[0].VSID {
		t.Fatal("NamespaceStats VSIDs must be distinct")
	}
}

// TestGetViaReadsTenantKeys pins GetVia on tenant-prefixed keys: the
// register is bound to the root map, so a tenant key must route to its
// namespace rather than read as absent from the root map.
func TestGetViaReadsTenantKeys(t *testing.T) {
	s := NewHicampServer(testCfg())
	for _, kv := range [][2]string{{"t/k", "hello"}, {"k", "bare"}} {
		if err := s.Set([]byte(kv[0]), []byte(kv[1])); err != nil {
			t.Fatal(err)
		}
	}
	reader, err := s.OpenReader()
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	for _, tc := range []struct {
		key, want string
		found     bool
	}{{"t/k", "hello", true}, {"k", "bare", true}, {"t/absent", "", false}, {"u/k", "", false}} {
		got, ok := s.GetVia(reader, []byte(tc.key))
		if ok != tc.found || string(got) != tc.want {
			t.Fatalf("GetVia(%q) = %q,%v, want %q,%v", tc.key, got, ok, tc.want, tc.found)
		}
	}
}
