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

// A tombstone's Found is whether its key was bound before it: in the
// published version, or by an earlier entry of the same batch, in any
// namespace.
func TestWriteTombstoneFound(t *testing.T) {
	s := NewHicampServer(testCfg())
	if err := s.Write(Batch{}.Set([]byte("a"), []byte("1")).Set([]byte("t/a"), []byte("1"))); err != nil {
		t.Fatal(err)
	}
	b := Batch{}.
		Del([]byte("a")). // bound
		Del([]byte("a")). // unbound by the tombstone before it
		Set([]byte("b"), []byte("2")).
		Del([]byte("b")).   // bound by the set before it
		Del([]byte("c")).   // never bound
		Del([]byte("t/a")). // bound, in a tenant
		Set([]byte("t/a"), []byte("3")).
		Del([]byte("t/a")) // bound again by the set before it
	if err := s.Write(b); err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, false, true, false, true, false, true}
	for i := range b {
		if b[i].Found != want[i] || b[i].Err != nil {
			t.Errorf("entry %d (%q, delete %v): found=%v err=%v, want found=%v", i, b[i].Key, b[i].Delete, b[i].Found, b[i].Err, want[i])
		}
	}
	for _, k := range []string{"a", "b", "t/a"} {
		if _, ok := get(s, []byte(k)); ok {
			t.Errorf("%s survived its tombstone", k)
		}
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
		got, ok, err := s.GetVia(reader, []byte(tc.key))
		if err != nil {
			t.Fatalf("GetVia(%q): %v", tc.key, err)
		}
		if ok != tc.found || string(got) != tc.want {
			t.Fatalf("GetVia(%q) = %q,%v, want %q,%v", tc.key, got, ok, tc.want, tc.found)
		}
	}
}

// A namespace whose snapshot cannot be pinned is an error, never a miss:
// after a tenant's map is released, Read sets Err on that tenant's keys
// (and still answers the root map's), and GetVia's tenant branch, a
// one-key Read, returns the error.
func TestFailedPinIsAnError(t *testing.T) {
	s := NewHicampServer(testCfg())
	for _, k := range []string{"gone/k", "k"} {
		if err := s.Set([]byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Namespace("gone").Release(); err != nil {
		t.Fatal(err)
	}
	b := Batch{}.Get([]byte("gone/k")).Get([]byte("k"))
	s.Read(b)
	if b[0].Err == nil {
		t.Fatalf("Read of a released tenant: found=%v with no error", b[0].Found)
	}
	if b[1].Err != nil || !b[1].Found {
		t.Fatalf("root key beside it: found=%v err=%v", b[1].Found, b[1].Err)
	}
	reader, err := s.OpenReader()
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	if _, ok, err := s.GetVia(reader, []byte("gone/k")); err == nil {
		t.Fatalf("GetVia of a released tenant: found=%v with no error", ok)
	}
}
