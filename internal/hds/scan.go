package hds

import (
	"repro/internal/segmap"
	"repro/internal/segment"
	"repro/internal/word"
)

// bytesScanBatch is how many bindings BytesScan materializes per gather;
// larger batches dedup more shared value lines per wave, at the cost of
// latency to the first callback.
const bytesScanBatch = 4096

// BytesScan streams every binding of one snapshot as materialized bytes,
// in ascending slot (key-PLID) order. No request path walks a whole map:
// it is the walk that tests use to check a map holds exactly some
// bindings. The slot words stream through the segment scanner
// (segment.ScanWords) under one pinned snapshot, and the key and value
// contents of each batch resolve through one shared gather
// (BytesManyInto), so lines shared across values are fetched once per
// wave. fn owns the byte slices; returning false stops the walk.
func (mp *Map) BytesScan(fn func(key, val []byte) bool) error {
	seg, _, err := mp.SnapshotEntry()
	if err != nil {
		return err
	}
	defer segment.ReleaseSeg(mp.h.M, seg)
	var batch []String // pinned by seg
	var out [][]byte
	flush := func() bool {
		out, _ = BytesManyInto(mp.h, batch, nil, out)
		batch = batch[:0]
		for i := 0; i < len(out); i += 2 {
			if !fn(out[i], out[i+1]) {
				return false
			}
		}
		return true
	}
	// The scan emits a slot's non-zero words in index order; take moves
	// the slot reassembled in ws into the batch when it binds a key.
	var ws [slotWords]uint64
	cur, have := uint64(0), false
	take := func() {
		if lenPlus := ws[slotValLen]; have && lenPlus != 0 {
			batch = append(batch,
				String{Seg: segment.Seg{Root: word.PLID(ws[slotKey]), Height: heightForBytes(mp.h, ws[slotKeyLen])}, Len: ws[slotKeyLen]},
				String{Seg: segment.Seg{Root: word.PLID(ws[slotValue]), Height: heightForBytes(mp.h, lenPlus-1)}, Len: lenPlus - 1})
		}
		ws, have = [slotWords]uint64{}, false
	}
	stopped := false
	segment.ScanWords(mp.h.M, seg, 0, func(idx uint64, w uint64, _ word.Tag) bool {
		if have && idx/slotWords != cur {
			take()
			if len(batch) >= 2*bytesScanBatch && !flush() {
				stopped = true
				return false
			}
		}
		cur, have = idx/slotWords, true
		ws[idx%slotWords] = w
		return true
	})
	if !stopped {
		take()
		flush()
	}
	return nil
}

// SnapshotEntry returns a stable point-in-time view of the map segment
// plus the version's registered logical size — the pair CompareApply
// needs to publish against the pinned version. The caller owns the
// returned root (release it with segment.ReleaseSeg).
func (mp *Map) SnapshotEntry() (segment.Seg, uint64, error) {
	e, err := mp.h.SM.Load(segmap.ReadOnlyRef(mp.vsid))
	if err != nil {
		return segment.Seg{}, 0, err
	}
	return e.Seg, e.Size, nil
}
