// The paper's introduction example (§2.2): auditing every account balance
// at a consistent point in time while customer transactions keep
// committing. The auditor snapshots the account segment's root PLID —
// that single register copy *is* the consistent read — and iterates at
// leisure; concurrent transfers keep committing and are never stalled by
// it. A database needs block copying and undo to do this; HICAMP's
// immutable DAG gives it away for free.
//
// A transfer is a delta on two balances read from one snapshot, so it
// publishes with a plain CAS and re-reads on a lost race. Merge-update
// would absorb the second of two equal debits made from one snapshot as
// already merged (DESIGN.md, the absorption caveat).
package main

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/hds"
	"repro/internal/iterreg"
	"repro/internal/segmap"
	"repro/internal/segment"
	"repro/internal/word"
)

const (
	accounts       = 2000
	initialBalance = 1000
	transfers      = 400
	tellers        = 6
)

func main() {
	h := hds.NewHeap(core.DefaultConfig(16))

	// The ledger: one segment, one word per account. Opening balances
	// go through a detached iterator register: its stores buffer, and
	// one wave commit converts them to lines.
	open := iterreg.NewSegmentIterator(h.M, segment.NewSparse(0))
	for a := 0; a < accounts; a++ {
		open.Store(uint64(a), initialBalance, word.TagRaw)
	}
	ledger := h.SM.Create(segmap.Entry{
		Seg: open.CommitSegment(), Size: accounts * 8,
	})

	var committed int64
	var wg sync.WaitGroup

	// Tellers move money between accounts, concurrently.
	for t := 0; t < tellers; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			for i := 0; i < transfers; i++ {
				from := uint64((t*transfers + i) % accounts)
				to := uint64((t*transfers + i*7 + 13) % accounts)
				if from == to {
					continue
				}
				for {
					it, err := iterreg.Open(h.M, h.SM, ledger)
					if err != nil {
						log.Fatal(err)
					}
					fb, _ := it.Load(from)
					tb, _ := it.Load(to)
					if fb < 10 {
						it.Close()
						break
					}
					it.Store(from, fb-10, word.TagRaw)
					it.Store(to, tb+10, word.TagRaw)
					ok, err := it.TryCommit(accounts * 8)
					it.Close()
					if err != nil {
						log.Fatal(err)
					}
					if ok {
						atomic.AddInt64(&committed, 1)
						break
					}
					// Another teller committed first: re-read and retry.
				}
			}
		}(t)
	}

	// The auditor: snapshot once, sum all balances with an iterator
	// register while the tellers keep committing underneath.
	wg.Add(1)
	var auditTotal uint64
	go func() {
		defer wg.Done()
		snap, err := iterreg.Open(h.M, h.SM, segmap.ReadOnlyRef(ledger))
		if err != nil {
			log.Fatal(err)
		}
		defer snap.Close()
		for a := uint64(0); a < accounts; a++ {
			v, _ := snap.Load(a)
			auditTotal += v
		}
	}()
	wg.Wait()

	// Conservation law: the audit saw a consistent cut, and the final
	// state conserves money exactly.
	want := uint64(accounts * initialBalance)
	if auditTotal != want {
		log.Fatalf("audit saw a torn state: %d != %d", auditTotal, want)
	}
	final, _ := iterreg.Open(h.M, h.SM, segmap.ReadOnlyRef(ledger))
	defer final.Close()
	var finalTotal uint64
	for a := uint64(0); a < accounts; a++ {
		v, _ := final.Load(a)
		finalTotal += v
	}
	fmt.Printf("%d transfers committed by %d tellers during the audit\n", committed, tellers)
	fmt.Printf("audit total:  %d (consistent snapshot: money conserved)\n", auditTotal)
	fmt.Printf("final total:  %d (still conserved after all commits)\n", finalTotal)
	if finalTotal != want {
		log.Fatal("money not conserved")
	}
	ok, fail := h.SM.CASStats()
	fmt.Printf("segment-map commits: %d succeeded, %d lost the race and retried\n", ok, fail)
}
