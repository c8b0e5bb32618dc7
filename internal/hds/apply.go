package hds

import (
	"errors"

	"repro/internal/core"
	"repro/internal/merge"
	"repro/internal/pool"
	"repro/internal/segmap"
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
// mutation entry point. Every key and value string is built in build
// waves (one batched lookup per DAG level for many strings), every pair
// lowers to its slot words, and the whole batch
// canonicalizes in a single bottom-up wave commit (segment.WriteBatch)
// published according to opts. The whole update, retries included, runs
// in one netting scope (core.Scope), as CompareApply, Set and Delete do.
// Apply is ApplyDeferred with its Reclaim run before it returns.
func (mp *Map) Apply(pairs []Pair, opts ApplyOptions) error {
	r, err := mp.ApplyDeferred(pairs, opts)
	r.Run()
	return err
}

// Reclaim is Apply's last three steps, which ApplyDeferred hands back:
// release the replaced version's root (freeing every line only it held,
// §3.1's recursive de-allocation), then the build references, then
// close the netting scope. The zero Reclaim owes nothing.
type Reclaim struct {
	sc       *core.Scope
	replaced segment.Seg
	strs     []String
}

// Run pays the Reclaim. It must run on the goroutine that called
// ApplyDeferred (a Scope belongs to one goroutine), and at most once.
func (r Reclaim) Run() {
	if r.sc == nil {
		return
	}
	segment.ReleaseSeg(r.sc, r.replaced)
	for _, s := range r.strs {
		segment.ReleaseSeg(r.sc, s.Seg)
	}
	r.sc.Close()
}

// ApplyDeferred publishes exactly as Apply does and returns its Reclaim
// unrun, error or not. Run it before this goroutine next touches the
// machine, and the machine sees Apply's order.
func (mp *Map) ApplyDeferred(pairs []Pair, opts ApplyOptions) (r Reclaim, err error) {
	if len(pairs) == 0 {
		return r, nil
	}
	r.sc = mp.h.M.Scope()
	keys, vals, strs := mp.buildPairs(r.sc, pairs)
	r.strs = strs
	if opts.ErrorOnDup && dupSlot(keys) {
		return r, ErrDuplicateKey
	}
	r.replaced, err = mp.applyBuilt(r.sc, pairs, keys, vals, opts)
	return r, err
}

// applyBuilt publishes the slot words of pairs, whose strings are built,
// against the map's current version, re-executing on a same-slot race.
// Lost attempts release their snapshot; the final one's is returned.
func (mp *Map) applyBuilt(m word.Mem, pairs []Pair, keys, vals []String, opts ApplyOptions) (replaced segment.Seg, err error) {
	var ups []segment.Update
	err = retryCAS(func() (bool, error) {
		e, err := mp.h.SM.Load(mp.vsid)
		if err != nil {
			return false, err
		}
		ups = mp.pairUpdates(ups[:0], e.Seg, pairs, keys, vals)
		ok := len(ups) == 0 // nothing to publish
		if !ok {
			if ok, err = mp.publish(m, e, ups, opts); err == merge.ErrConflict {
				ok, err = false, nil // same-slot race: re-execute (paper §3.4 "rare")
			}
		}
		if ok && err == nil {
			replaced = e.Seg
		} else {
			segment.ReleaseSeg(m, e.Seg)
		}
		return ok, err
	})
	return replaced, err
}

// dupSlot reports whether two of keys bind the same slot.
func dupSlot(keys []String) bool {
	seen := make(map[uint64]struct{}, len(keys))
	for _, k := range keys {
		s := slotFor(k)
		if _, dup := seen[s]; dup {
			return true
		}
		seen[s] = struct{}{}
	}
	return false
}

// buildPairs constructs every pair's key and value string over m in
// build waves (segment.BuildBytesMany; a tombstone's value is the empty
// string, which costs nothing) and returns them with strs, the build
// references to release once the committed map DAG holds its own.
func (mp *Map) buildPairs(m word.Mem, pairs []Pair) (keys, vals, strs []String) {
	n := len(pairs)
	var sc pool.Scratch
	defer sc.Release()
	bss := poolBytes.Get(&sc, 2*n)
	for i, p := range pairs {
		bss[2*i], bss[2*i+1] = p.Key, nil
		if !p.Delete {
			bss[2*i+1] = p.Value
		}
	}
	strs = newStringsInto(m, bss, make([]String, 0, 2*n))
	keys, vals = make([]String, n), make([]String, n)
	for i := range pairs {
		keys[i], vals[i] = strs[2*i], strs[2*i+1]
	}
	return keys, vals, strs
}

// pairUpdates appends every pair's slot words, in pair order, to ups
// (the wave commit's last-wins collapse keeps a slot's final binding).
// A tombstone zeroes its slot; unbinding a key that is absent in base
// AND untouched earlier in the batch is skipped outright, so a batch of
// misses stays a no-op commit instead of growing the map DAG with zero
// spines.
func (mp *Map) pairUpdates(ups []segment.Update, base segment.Seg, pairs []Pair, keys, vals []String) []segment.Update {
	capacity := base.Capacity(mp.h.M.LineWords())
	var touched map[uint64]struct{}
	for i := range pairs {
		slot := slotFor(keys[i])
		if pairs[i].Delete {
			if slot+slotWords > capacity {
				if _, ok := touched[slot]; !ok {
					continue // absent: deleting nothing
				}
			}
			for w := uint64(0); w < slotWords; w++ {
				ups = append(ups, segment.Update{Idx: slot + w})
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
		ups = bindUpdates(ups, keys[i], vals[i])
	}
	return ups
}

// bindUpdates appends the four slot words binding key to value. The key
// half is written keep-if-present (segment.Update.Keep): the slot index
// is the key's root PLID and the map pins that root, so a present leaf
// of the key half already holds this key, and an overwrite leaves it
// standing without reading it, looking it up or touching its count.
func bindUpdates(ups []segment.Update, key, value String) []segment.Update {
	slot := slotFor(key)
	vw, vt := uint64(value.Seg.Root), word.TagPLID
	if value.Seg.Root == word.Zero {
		vw, vt = 0, word.TagRaw // empty/all-zero value
	}
	ups = append(ups,
		segment.Update{Idx: slot + slotValue, W: vw, T: vt},
		segment.Update{Idx: slot + slotValLen, W: value.Len + 1})
	if key.Seg.Root != word.Zero {
		ups = append(ups, segment.Update{Idx: slot + slotKey, W: uint64(key.Seg.Root), T: word.TagPLID, Keep: true})
	}
	return append(ups, segment.Update{Idx: slot + slotKeyLen, W: key.Len, Keep: true})
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
	keys, vals, strs := mp.buildPairs(sc, pairs)
	defer Reclaim{sc: sc, strs: strs}.Run()
	if opts.ErrorOnDup && dupSlot(keys) {
		return ErrDuplicateKey
	}
	// The batch commits against the pinned snapshot in one wave;
	// ownership of the resulting root passes to the publish, which is
	// one try: a lost CAS or a true merge conflict is the caller's.
	ok, err := mp.publish(sc, segmap.Entry{Seg: orig, Size: size},
		mp.pairUpdates(nil, orig, pairs, keys, vals), opts)
	if err == nil && !ok {
		err = ErrStale
	}
	return err
}

// publish commits ups against the snapshot e in one wave commit and
// publishes the result over e — with merge-update, or one plain CAS
// under opts.NoMerge — feeding the wave's counters into opts.Stats.
func (mp *Map) publish(m word.Mem, e segmap.Entry, ups []segment.Update, opts ApplyOptions) (bool, error) {
	next, st := segment.WriteBatch(m, e.Seg, ups)
	if opts.Stats != nil {
		opts.Stats.Add(st)
	}
	if opts.NoMerge {
		if !mp.h.SM.CAS(mp.vsid, e.Seg, next, e.Size) {
			segment.ReleaseSeg(m, next)
			return false, nil
		}
		return true, nil
	}
	return merge.MCAS(m, mp.h.SM, mp.vsid, e.Seg, next, e.Size, nil)
}
