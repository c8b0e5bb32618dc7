// The §4.4 scenario in its purest form: memcached as direct shared
// memory. Concurrent client goroutines read a shared key-value map
// under snapshot isolation while writers commit with merge-update — no
// locks, no lost updates, and hardware-enforced isolation (a reader
// holds a read-only capability and physically cannot corrupt the map).
//
// This is the in-process baseline: clients touch the store through
// plain function calls, so what it measures is the data structure
// itself. The real server — the memcached text protocol over TCP, with
// every connection's in-flight requests aggregated into shared gather
// and commit waves — is cmd/hicampd on internal/netfront; run
// `hicampd -addr :11211` and point any memcached client (or nc) at it.
package main

import (
	"fmt"
	"log"
	"sync"

	"repro/internal/core"
	"repro/internal/kvstore"
)

func main() {
	srv := kvstore.NewHicampServer(core.DefaultConfig(16))

	// Preload a working set through the bulk path: one wave commit
	// instead of 200 per-key commits.
	keys := make([]string, 200)
	vals := make([][]byte, 200)
	for i := range keys {
		keys[i] = fmt.Sprintf("page:%04d", i)
		vals[i] = []byte(fmt.Sprintf("<html><body>cached page %d</body></html>", i))
	}
	batch := make(kvstore.Batch, len(keys))
	for i := range keys {
		batch[i] = kvstore.KV{Key: []byte(keys[i]), Value: vals[i]}
	}
	if err := srv.Write(batch); err != nil {
		log.Fatal(err)
	}

	var wg sync.WaitGroup
	var gets, hits, sets int64
	var mu sync.Mutex

	// Eight "client threads": six readers with their own iterator
	// registers, two writers updating overlapping keys concurrently.
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			reader, err := srv.OpenReader()
			if err != nil {
				log.Fatal(err)
			}
			defer reader.Close()
			localHits := 0
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("page:%04d", (g*97+i*31)%220) // some misses
				_, ok, err := srv.GetVia(reader, []byte(key))
				if err != nil {
					log.Fatal(err)
				}
				if ok {
					localHits++
				}
			}
			mu.Lock()
			gets += 500
			hits += int64(localHits)
			mu.Unlock()
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("page:%04d", (g*50+i)%220)
				val := fmt.Sprintf("<html><body>page %s rewritten by writer %d round %d</body></html>", key, g, i)
				if err := srv.Set([]byte(key), []byte(val)); err != nil {
					log.Fatal(err)
				}
				mu.Lock()
				sets++
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	st := srv.Stats()
	fmt.Printf("processed %d gets (%d hits) and %d sets concurrently\n", gets, hits, sets)
	fmt.Printf("map entries: %d, live lines: %d (%.1f KB deduplicated)\n",
		srv.Map().Len(), srv.Heap.M.LiveLines(), float64(srv.Heap.M.FootprintBytes())/1024)
	fmt.Printf("DRAM accesses: %d total (reads %d, writes %d, lookups %d, dealloc %d, RC %d)\n",
		st.Store.Total(), st.Store.DataReads, st.Store.DataWrites,
		st.Store.LookupTraffic(), st.Store.DeallocOps, st.Store.RCTraffic())

	// Fault isolation: a client that dies mid-update leaves no trace —
	// buffered writes are discarded on Close without ever allocating, and
	// the map's root never moved.
	crasher, _ := srv.OpenReader()
	crasher.Store(12345, 0xDEAD, 0)
	crasher.Close() // "process killed": abort, nothing published
	fmt.Println("a crashed writer left the shared state untouched:",
		srv.Map().Len(), "entries")
}
