package durable

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/segmap"
	"repro/internal/segment"
	"repro/internal/word"
)

// Recovery: rebuild the machine and segment map from the newest
// checkpoint plus the log tail. The whole pass is read-only on disk —
// nothing is written until the recovered log writer opens its first
// fresh segment — so a crash during recovery changes nothing and the
// next recovery replays identically (idempotency, pinned by test).
//
// Reference counts are not replayed from the log: lines are immutable
// and content-addressed, so every count is derivable — and the derived
// answer is the only correct one, because transient references held by
// operations in flight at crash time must not survive the restart. For
// each line reachable from a published root, the recovered count is its
// DAG in-degree (PLID- and compact-tagged words in reachable lines
// naming it) plus one per segment-map entry holding it as root — exactly
// the invariant store.CheckConsistency verifies. Logged-but-unreachable
// lines (in-flight garbage whose publish never happened) are dropped,
// which also reclaims their slots.
//
// PLIDs are positional — hds map slots are indexed by key-root PLIDs —
// so recovery reinstalls every line at its exact original PLID via
// store.InstallLine and refuses a machine whose geometry differs from
// the one that produced the data.

// recovered carries what Open needs to resume after a replay.
type recovered struct {
	nextLSN  uint64
	nextSeq  uint64
	gen      uint64
	bindings map[string]word.VSID
	lines    uint64 // live lines installed
	roots    uint64 // segment-map entries restored
	replayed uint64 // log records applied
}

// recoverState replays dir into m and sm (both must be empty).
func recoverState(dir string, m *core.Machine, sm *segmap.Map) (*recovered, error) {
	ck, err := latestCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	geo := machineGeometry(m)
	lines := make(map[word.PLID]word.Content)
	roots := make(map[word.VSID]segmap.Entry)
	bindings := make(map[string]word.VSID)
	var startLSN uint64 = 1
	var gen uint64
	if ck != nil {
		if ck.geo != geo {
			return nil, fmt.Errorf("durable: checkpoint geometry %+v, machine %+v — the PLID space is positional, reopen with the original configuration", ck.geo, geo)
		}
		lines, roots, bindings = ck.lines, ck.roots, ck.bindings
		startLSN = ck.startLSN
		gen = ck.gen
	}

	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	rec := &recovered{
		nextLSN:  startLSN,
		nextSeq:  1,
		gen:      gen,
		bindings: bindings,
	}
	prevLSN := uint64(0)
	for si, seg := range segs {
		rec.nextSeq = seg.seq + 1
		b, err := os.ReadFile(seg.path)
		if err != nil {
			return nil, err
		}
		if len(b) < walHeaderLen {
			// A segment created by a roll that crashed before its header
			// fsync completed; only valid as the final segment.
			if si != len(segs)-1 {
				return nil, fmt.Errorf("durable: truncated header in non-final segment %s", seg.path)
			}
			break
		}
		p := b[walHeaderLen:]
		first := true
		torn := false
		// A segment written over a spare file holds stale records past
		// its own: a non-final segment ends where its successor starts,
		// and in the final one a record older than the header's start
		// LSN is stale (spare.go).
		end := ^uint64(0)
		if si+1 < len(segs) {
			end = segs[si+1].startLSN
		}
		for next := seg.startLSN; len(p) > 0 && next < end; {
			f, n, intact, err := parseFrame(p)
			if err != nil {
				return nil, err
			}
			if !intact {
				// Torn tail: only the final segment may end mid-frame — an
				// earlier segment was fully fsynced before its successor was
				// created, so a torn frame there is real corruption.
				if si != len(segs)-1 {
					return nil, fmt.Errorf("durable: torn frame in non-final segment %s", seg.path)
				}
				torn = true
				break
			}
			if f.lsn < seg.startLSN && si == len(segs)-1 {
				break // the stale tail of a reused spare file
			}
			if first {
				if f.lsn != seg.startLSN {
					return nil, fmt.Errorf("durable: segment %s starts at lsn %d, header says %d", seg.path, f.lsn, seg.startLSN)
				}
				first = false
			}
			if prevLSN != 0 && f.lsn != prevLSN+1 {
				return nil, fmt.Errorf("durable: lsn gap %d -> %d in %s", prevLSN, f.lsn, seg.path)
			}
			prevLSN = f.lsn
			next = f.lsn + 1
			p = p[n:]
			if f.lsn < startLSN {
				continue // covered by the checkpoint
			}
			rec.replayed++
			switch f.kind {
			case recAlloc:
				lines[f.plid] = f.content // last-wins: slots are recycled
			case recFree:
				delete(lines, f.plid)
			case recPublish:
				roots[f.vsid] = segmap.Entry{
					Seg:   segment.Seg{Root: f.root, Height: int(f.height)},
					Flags: segmap.Flags(f.flags),
					Size:  f.size,
				}
			case recDelete:
				delete(roots, f.vsid)
			case recBind:
				bindings[f.label] = f.vsid
			}
		}
		if prevLSN >= rec.nextLSN {
			rec.nextLSN = prevLSN + 1
		}
		if torn {
			break
		}
	}

	if err := installState(m, sm, lines, roots, rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// installState rebuilds the store (exact PLIDs, derived counts) and the
// segment map from the replayed logical state.
func installState(m *core.Machine, sm *segmap.Map, lines map[word.PLID]word.Content, roots map[word.VSID]segmap.Entry, rec *recovered) error {
	plidBits := m.PLIDBits()
	indeg := make(map[word.PLID]uint64, len(lines))
	external := make(map[word.PLID]uint64, len(roots))
	reach := make(map[word.PLID]struct{}, len(lines))
	var stack []word.PLID
	for v, e := range roots {
		if e.Seg.Root == word.Zero {
			continue
		}
		if _, live := lines[e.Seg.Root]; !live {
			return fmt.Errorf("durable: root %#x of VSID %#x missing from the recovered line set", uint64(e.Seg.Root), uint64(v))
		}
		external[e.Seg.Root]++
		stack = append(stack, e.Seg.Root)
	}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if _, seen := reach[p]; seen {
			continue
		}
		reach[p] = struct{}{}
		c, live := lines[p]
		if !live {
			return fmt.Errorf("durable: reachable line %#x missing from the recovered line set", uint64(p))
		}
		for i := 0; i < int(c.N); i++ {
			var child word.PLID
			switch c.T[i] {
			case word.TagPLID:
				child = word.PLID(c.W[i])
			case word.TagCompact:
				child = word.CompactPLID(c.W[i], plidBits)
			default:
				continue
			}
			if child == word.Zero {
				continue
			}
			indeg[child]++
			if _, seen := reach[child]; !seen {
				stack = append(stack, child)
			}
		}
	}
	for p := range reach {
		rc := indeg[p] + external[p]
		if err := m.InstallLine(p, lines[p], rc); err != nil {
			return err
		}
	}
	m.FinishRestore()
	entries := make([]segmap.DumpEntry, 0, len(roots))
	for v, e := range roots {
		entries = append(entries, segmap.DumpEntry{V: v, E: e})
	}
	if err := sm.Restore(entries); err != nil {
		return err
	}
	rec.lines = uint64(len(reach))
	rec.roots = uint64(len(roots))
	return nil
}

func machineGeometry(m *core.Machine) geometry {
	cfg := m.Config()
	return geometry{
		lineBytes:  uint32(cfg.LineBytes),
		bucketBits: uint32(cfg.BucketBits),
		dataWays:   uint32(cfg.DataWays),
		plidBits:   uint32(m.PLIDBits()),
	}
}
