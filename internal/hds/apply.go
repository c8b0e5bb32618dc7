package hds

import (
	"errors"

	"repro/internal/iterreg"
	"repro/internal/merge"
	"repro/internal/segment"
	"repro/internal/word"
)

// ErrDuplicateKey reports that a batch bound the same key more than once
// under ApplyOptions.ErrorOnDup.
var ErrDuplicateKey = errors.New("hds: duplicate key in batch")

// ErrStale reports that a CompareApply with NoMerge lost to an
// interleaved commit: the pinned snapshot is no longer the current
// version and the batch was not published.
var ErrStale = errors.New("hds: snapshot is stale")

// ApplyOptions configures one bulk mutation. The zero value is the
// default behavior: later duplicates win and the commit publishes with
// merge-update, so concurrent batches touching disjoint keys never
// retry.
type ApplyOptions struct {
	// ErrorOnDup rejects the whole batch with ErrDuplicateKey when two
	// entries bind the same key (same slot), instead of letting the later
	// one win.
	ErrorOnDup bool

	// NoMerge publishes with a plain CAS instead of merge-update: any
	// concurrent commit — even to unrelated keys — forces this batch to
	// rebuild and retry. Use it when the batch's writes must not be
	// interleaved with a concurrent version via three-way merge.
	NoMerge bool

	// Stats, when non-nil, accumulates the wave-commit counters of every
	// attempt (including retries), exposing how many sibling updates
	// coalesced and how many DAG levels one commit swept.
	Stats *segment.WriteStats
}

// Apply binds every pair in one committed update — the single bulk
// mutation entry point. All key and value
// strings are built through one shared bulk builder (one batch-lookup
// pipeline, memoized across pairs), every slot is buffered in one
// iterator register, and the whole batch canonicalizes in a single
// bottom-up wave commit (segment.WriteBatch) published according to
// opts. The whole update, retries included, runs in one netting scope
// (core.Scope), as CompareApply, Set and Delete do.
func (mp *Map) Apply(pairs []Pair, opts ApplyOptions) error {
	if len(pairs) == 0 {
		return nil
	}
	sc := mp.h.M.Scope()
	defer sc.Close()
	keys, vals, release := mp.buildPairs(sc, pairs)
	if opts.ErrorOnDup {
		seen := make(map[uint64]struct{}, len(pairs))
		for i := range keys {
			s := slotFor(keys[i])
			if _, dup := seen[s]; dup {
				release()
				return ErrDuplicateKey
			}
			seen[s] = struct{}{}
		}
	}
	err := retryCAS(func() (bool, error) {
		it, err := iterreg.Open(sc, mp.h.SM, mp.vsid)
		if err != nil {
			return false, err
		}
		mp.storePairs(it, pairs, keys, vals)
		ok, err := commitApply(it, opts)
		it.Close()
		if err == merge.ErrConflict {
			return false, nil
		}
		return ok, err
	})
	release()
	return err
}

// buildPairs constructs every pair's key and value string over m through
// one shared bulk builder (tombstones build only the key) and returns the
// release closure dropping the builder's references once the committed
// map DAG holds its own.
func (mp *Map) buildPairs(m word.Mem, pairs []Pair) (keys, vals []String, release func()) {
	keys = make([]String, len(pairs))
	vals = make([]String, len(pairs))
	b := segment.NewBuilder(m, 0)
	for i, p := range pairs {
		keys[i] = String{Seg: b.BuildBytes(p.Key), Len: uint64(len(p.Key))}
		if !p.Delete {
			vals[i] = String{Seg: b.BuildBytes(p.Value), Len: uint64(len(p.Value))}
		}
	}
	b.Close()
	return keys, vals, func() {
		for i := range pairs {
			segment.ReleaseSeg(m, keys[i].Seg)
			if !pairs[i].Delete {
				segment.ReleaseSeg(m, vals[i].Seg)
			}
		}
	}
}

// storePairs buffers every pair's slot words into the iterator register.
// A tombstone zeroes its slot; unbinding a key that is absent in the
// snapshot AND untouched earlier in the batch is skipped outright, so a
// batch of misses stays a no-op commit instead of growing the map DAG
// with zero spines.
func (mp *Map) storePairs(it *iterreg.Iterator, pairs []Pair, keys, vals []String) {
	arity := mp.h.M.LineWords()
	capacity := it.Seg().Capacity(arity)
	var touched map[uint64]struct{}
	for i := range pairs {
		key := keys[i]
		slot := slotFor(key)
		if pairs[i].Delete {
			if slot+slotWords > capacity {
				if _, ok := touched[slot]; !ok {
					continue // absent: deleting nothing
				}
			}
			for w := uint64(0); w < slotWords; w++ {
				it.Store(slot+w, 0, word.TagRaw)
			}
			continue
		}
		if slot+slotWords > capacity {
			// Track slots written beyond the snapshot's capacity so a later
			// tombstone for the same key still wins over this binding.
			if touched == nil {
				touched = make(map[uint64]struct{})
			}
			touched[slot] = struct{}{}
		}
		value := vals[i]
		if value.Seg.Root != word.Zero {
			it.Store(slot+slotValue, uint64(value.Seg.Root), word.TagPLID)
		} else {
			it.Store(slot+slotValue, 0, word.TagRaw)
		}
		it.Store(slot+slotValLen, value.Len+1, word.TagRaw)
		if key.Seg.Root != word.Zero {
			it.Store(slot+slotKey, uint64(key.Seg.Root), word.TagPLID)
		}
		it.Store(slot+slotKeyLen, key.Len, word.TagRaw)
	}
}

// CompareApply binds every pair in one wave commit built against orig —
// a snapshot the caller pinned earlier (SnapshotEntry) — and publishes
// it conditionally: the memcached-style compare-and-swap, mapped onto
// merge-update instead of failure. By default a stale orig does not fail
// the publish; the batch is rebased through the three-way merge
// (merge.MCAS), so commits that interleaved since the snapshot survive
// unless they touched one of this batch's slots — only that true
// conflict returns merge.ErrConflict. With opts.NoMerge the publish is
// one plain CAS against orig and any interleaved commit fails it with
// ErrStale.
//
// The caller keeps its reference on orig (release it when the pinned
// snapshot is no longer needed).
func (mp *Map) CompareApply(orig segment.Seg, size uint64, pairs []Pair, opts ApplyOptions) error {
	if len(pairs) == 0 {
		return nil
	}
	sc := mp.h.M.Scope()
	defer sc.Close()
	keys, vals, release := mp.buildPairs(sc, pairs)
	defer release()
	if opts.ErrorOnDup {
		seen := make(map[uint64]struct{}, len(pairs))
		for i := range keys {
			s := slotFor(keys[i])
			if _, dup := seen[s]; dup {
				return ErrDuplicateKey
			}
			seen[s] = struct{}{}
		}
	}
	// A detached register buffers the slot stores against the pinned
	// snapshot (last write to a slot wins, as in Apply) and converts them
	// in one wave commit; ownership of the resulting root passes to the
	// publish below.
	it := iterreg.NewSegmentIterator(sc, orig)
	mp.storePairs(it, pairs, keys, vals)
	next := it.CommitSegment()
	if opts.Stats != nil {
		opts.Stats.Add(it.Stats.Wave)
	}
	if opts.NoMerge {
		if !mp.h.SM.CAS(mp.vsid, orig, next, size) {
			segment.ReleaseSeg(sc, next)
			return ErrStale
		}
		return nil
	}
	_, err := merge.MCAS(sc, mp.h.SM, mp.vsid, orig, next, size, nil)
	return err
}

// commitApply publishes one buffered batch according to opts and feeds
// the attempt's wave counters into opts.Stats.
func commitApply(it *iterreg.Iterator, opts ApplyOptions) (bool, error) {
	var ok bool
	var err error
	if opts.NoMerge {
		ok, err = it.TryCommit(it.Size())
	} else {
		ok, err = it.CommitMerge(it.Size())
	}
	if opts.Stats != nil {
		opts.Stats.Add(it.Stats.Wave)
	}
	return ok, err
}
