package netfront

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/kvstore"
)

// The dispatcher is a socket caller of kvstore's window executor: a
// sequence of windows it serves and the same sequence run through
// kvstore.Read and kvstore.Write on a twin server leave the same
// machine. Every map's root PLID and every core.Stats count match, and
// each served reply is the one the twin's batch results format to. The
// windows mix gets, sets and deletes over the root map and two tenants,
// with deletes of keys set earlier in the same window. The test drives
// the executor itself; no dispatcher goroutine runs.
func TestServedWindowMatchesBatch(t *testing.T) {
	served := newServer(kvstore.NewHicampServer(testCfg()), DefaultOptions())
	d := served.disp
	twin := kvstore.NewHicampServer(testCfg())

	rng := rand.New(rand.NewSource(51))
	keys := make([][]byte, 24)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("%sk%02d", [...]string{"", "t1/", "t2/"}[i%3], i))
	}
	framedVal := func(win, i int) []byte {
		v := bytes.Repeat([]byte(fmt.Sprintf("v-%d-%d|", win, i)), 1+rng.Intn(12))
		return append(make([]byte, frameLen), v...)
	}

	for win := 0; win < 40; win++ {
		var ops []*op
		var rb, wb kvstore.Batch
		var cmd Command
		for i, n := 0, 1+rng.Intn(12); i < n; i++ {
			cmd.Reset()
			switch rng.Intn(3) {
			case 0:
				cmd.Op = OpGet
				for k, nk := 0, 1+rng.Intn(3); k < nk; k++ {
					cmd.Keys = append(cmd.Keys, keys[rng.Intn(len(keys))])
				}
				ops = append(ops, newOp(classRead, &cmd))
				for _, key := range cmd.Keys {
					rb = rb.Get(key)
				}
			case 1:
				cmd.Op = OpSet
				cmd.Keys = append(cmd.Keys, keys[rng.Intn(len(keys))])
				v := framedVal(win, i)
				o := newOp(classWrite, &cmd)
				o.val = bufPool.GetBuf(len(v))
				copy(o.val.S, v)
				ops = append(ops, o)
				wb = wb.Set(cmd.Keys[0], v)
			default:
				cmd.Op = OpDelete
				key := keys[rng.Intn(len(keys))]
				if len(wb) > 0 && rng.Intn(2) == 0 {
					key = wb[rng.Intn(len(wb))].Key // often set earlier in this window
				}
				cmd.Keys = append(cmd.Keys, key)
				ops = append(ops, newOp(classWrite, &cmd))
				wb = append(wb, kvstore.KV{Key: key, Delete: true})
			}
		}

		d.execBatch(ops)
		twin.Read(rb)
		if err := twin.Write(wb); err != nil {
			t.Fatal(err)
		}

		var want []byte
		for _, o := range ops {
			<-o.ready
			want = want[:0]
			switch o.verb {
			case OpGet:
				for _, key := range o.keys {
					kv := rb[0]
					rb = rb[1:]
					if kv.Found {
						want = AppendValue(want, key, binary.BigEndian.Uint32(kv.Value), kv.Value[frameLen:], 0, false)
					}
				}
				want = append(want, respEnd...)
			case OpSet:
				want = append(want, respStored...)
				wb = wb[1:]
			default:
				if wb[0].Found {
					want = append(want, respDeleted...)
				} else {
					want = append(want, respNotFound...)
				}
				wb = wb[1:]
			}
			if !bytes.Equal(o.out, want) {
				t.Fatalf("window %d: op %v %q answered %q, batch gives %q", win, o.verb, o.keys, o.out, want)
			}
			o.release()
		}
	}
	d.reclaim()

	roots := func(s *kvstore.HicampServer) map[uint64]uint64 {
		out := map[uint64]uint64{}
		for _, de := range s.Heap.SM.Dump() {
			out[uint64(de.V)] = uint64(de.E.Seg.Root)
		}
		return out
	}
	if got, want := roots(served.Store()), roots(twin); !reflect.DeepEqual(got, want) {
		t.Fatalf("map roots: served %v, batch %v", got, want)
	}
	if len(twin.NamespaceStats()) != 3 {
		t.Fatalf("%d namespaces, want the root map and two tenants", len(twin.NamespaceStats()))
	}
	if got, want := served.Store().Stats(), twin.Stats(); got != want {
		t.Fatalf("core.Stats: served %+v, batch %+v", got, want)
	}
}
