package durable

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/segmap"
	"repro/internal/segment"
	"repro/internal/word"
)

// Checkpoints. A checkpoint is one self-contained file —
// checkpoint-<gen>.ckpt — holding the store geometry, the label
// bindings, the segment map roots, and a manifest of every live line's
// content, anchored at a log position (startLSN): recovery loads the
// newest checkpoint and replays only the log tail at or after its
// anchor. Once a checkpoint lands, every log segment whose records all
// predate the anchor is dead weight and is truncated, along with older
// checkpoint generations.
//
// The snapshot is fuzzy: the log is rolled first (fixing startLSN),
// then the segment map and the store are iterated stripe by stripe
// under shared locks while traffic continues. Consistency argument: a
// journal append happens inside the critical section of the mutation it
// records and LSNs are assigned under the log mutex, so any mutation
// whose LSN is below startLSN completed its append before the roll —
// which means its critical section began before the roll and is
// therefore fully visible to an iteration that acquires the same lock
// afterwards. Mutations the iteration missed all have LSN >= startLSN
// and replay idempotently on top (alloc and publish are last-wins; free
// and delete remove).
//
// The file is written to a temp name (a fresh .tmp file, or a spare
// file overwritten in place), fsynced, renamed into place, and the
// directory fsynced — a crashed checkpoint leaves only a .tmp or spare
// file that recovery ignores. Truncation runs strictly after the rename.
//
// Layout (little-endian):
//
//	magic u64, gen u64, startLSN u64
//	lineBytes u32, bucketBits u32, dataWays u32, plidBits u32
//	nBind u32 × { vsid u64, len u16, label }
//	nRoots u32 × { vsid u64, root u64, height u32, flags u8, size u64 }
//	lines: { 1 u8, plid u64, n u8, n × (tag u8, word u64) }…, 0 u8
//	crc u32 (IEEE over everything above), endMagic u32
//	(stale bytes of a reused spare file may follow; they are ignored)
const (
	ckptMagic    uint64 = 0x31504B43504D4348 // "HCMPCKP1"
	ckptEndMagic uint32 = 0x4B504331
)

func ckptName(gen uint64) string { return fmt.Sprintf("checkpoint-%016d.ckpt", gen) }

func parseCkptName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "checkpoint-") || !strings.HasSuffix(name, ".ckpt") {
		return 0, false
	}
	gen, err := strconv.ParseUint(name[11:len(name)-5], 10, 64)
	return gen, err == nil
}

// crcWriter wraps a bufio.Writer, accumulating the running CRC.
type crcWriter struct {
	w   *bufio.Writer
	crc uint32
	err error
}

func (cw *crcWriter) write(b []byte) {
	if cw.err != nil {
		return
	}
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, b)
	_, cw.err = cw.w.Write(b)
}

func (cw *crcWriter) u8(v uint8)   { cw.write([]byte{v}) }
func (cw *crcWriter) u16(v uint16) { cw.write(appendU16(nil, v)) }
func (cw *crcWriter) u32(v uint32) { cw.write(appendU32(nil, v)) }
func (cw *crcWriter) u64(v uint64) { cw.write(appendU64(nil, v)) }

// geometry pins the store shape a checkpoint (and its PLID space) was
// produced under; recovery refuses a mismatched machine.
type geometry struct {
	lineBytes  uint32
	bucketBits uint32
	dataWays   uint32
	plidBits   uint32
}

// writeCheckpoint dumps bindings + roots + the live-line manifest
// anchored at startLSN into checkpoint-<gen>.ckpt (atomically).
func (d *DB) writeCheckpoint(gen, startLSN uint64) (lines uint64, err error) {
	faultPoint()
	// Written over a spare file when there is one (the bytes past the end
	// marker are stale); otherwise into a fresh temp file.
	f, tmp := takeSpare(d.dir, ".ckpt")
	fresh := f == nil
	if fresh {
		tmp = filepath.Join(d.dir, ckptName(gen)+".tmp")
		if f, err = os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644); err != nil {
			return 0, err
		}
	}
	defer func() {
		if f != nil {
			f.Close()
			if fresh {
				os.Remove(tmp)
			}
		}
	}()
	cw := &crcWriter{w: bufio.NewWriterSize(f, 1<<20)}
	cw.u64(ckptMagic)
	cw.u64(gen)
	cw.u64(startLSN)
	cw.u32(d.geo.lineBytes)
	cw.u32(d.geo.bucketBits)
	cw.u32(d.geo.dataWays)
	cw.u32(d.geo.plidBits)

	d.mu.Lock()
	labels := make([]string, 0, len(d.bindings))
	for l := range d.bindings {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	binds := make([]word.VSID, len(labels))
	for i, l := range labels {
		binds[i] = d.bindings[l]
	}
	d.mu.Unlock()
	cw.u32(uint32(len(labels)))
	for i, l := range labels {
		cw.u64(uint64(binds[i]))
		cw.u16(uint16(len(l)))
		cw.write([]byte(l))
	}

	roots := d.sm.Dump()
	cw.u32(uint32(len(roots)))
	for _, de := range roots {
		cw.u64(uint64(de.V))
		cw.u64(uint64(de.E.Seg.Root))
		cw.u32(uint32(de.E.Seg.Height))
		cw.u8(uint8(de.E.Flags))
		cw.u64(de.E.Size)
	}

	faultPoint()
	var rec []byte
	d.m.ForEachLiveLine(func(p word.PLID, c word.Content, _ uint64) bool {
		lines++
		rec = rec[:0]
		rec = append(rec, 1)
		rec = appendU64(rec, uint64(p))
		rec = append(rec, c.N)
		for i := 0; i < int(c.N); i++ {
			rec = append(rec, byte(c.T[i]))
			rec = appendU64(rec, c.W[i])
		}
		cw.write(rec)
		return cw.err == nil
	})
	cw.u8(0)
	crc := cw.crc
	cw.u32(crc)
	cw.u32(ckptEndMagic)
	if cw.err != nil {
		return 0, cw.err
	}
	if err := cw.w.Flush(); err != nil {
		return 0, err
	}
	faultPoint()
	if err := f.Sync(); err != nil {
		return 0, err
	}
	if err := f.Close(); err != nil {
		f = nil
		return 0, err
	}
	f = nil
	faultPoint()
	if err := os.Rename(tmp, filepath.Join(d.dir, ckptName(gen))); err != nil {
		if fresh {
			os.Remove(tmp)
		}
		return 0, err
	}
	faultPoint()
	if err := syncDir(d.dir); err != nil {
		return 0, err
	}
	return lines, nil
}

// checkpoint is a parsed checkpoint file.
type checkpoint struct {
	gen      uint64
	startLSN uint64
	geo      geometry
	bindings map[string]word.VSID
	roots    map[word.VSID]segmap.Entry
	lines    map[word.PLID]word.Content
}

// loadCheckpoint parses and validates one checkpoint file.
func loadCheckpoint(path string) (*checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	bad := func(why string) (*checkpoint, error) {
		return nil, fmt.Errorf("durable: checkpoint %s: %s", path, why)
	}
	if len(b) < 8+8+8+16+4+1+8 {
		return bad("truncated")
	}
	if getU64(b) != ckptMagic {
		return bad("bad magic")
	}
	ck := &checkpoint{
		gen:      getU64(b[8:]),
		startLSN: getU64(b[16:]),
		geo: geometry{
			lineBytes:  getU32(b[24:]),
			bucketBits: getU32(b[28:]),
			dataWays:   getU32(b[32:]),
			plidBits:   getU32(b[36:]),
		},
		bindings: make(map[string]word.VSID),
		roots:    make(map[word.VSID]segmap.Entry),
		lines:    make(map[word.PLID]word.Content),
	}
	// The body is parsed before its CRC is checked: the parse finds where
	// the body ends, and a spare file reused for this checkpoint holds
	// stale bytes past the trailer.
	p := b[40:]
	need := func(n int) bool {
		return len(p) >= n
	}
	if !need(4) {
		return bad("truncated bindings")
	}
	nBind := int(getU32(p))
	p = p[4:]
	for i := 0; i < nBind; i++ {
		if !need(10) {
			return bad("truncated binding")
		}
		v := word.VSID(getU64(p))
		l := int(getU16(p[8:]))
		p = p[10:]
		if !need(l) {
			return bad("truncated binding label")
		}
		ck.bindings[string(p[:l])] = v
		p = p[l:]
	}
	if !need(4) {
		return bad("truncated roots")
	}
	nRoots := int(getU32(p))
	p = p[4:]
	for i := 0; i < nRoots; i++ {
		if !need(29) {
			return bad("truncated root entry")
		}
		v := word.VSID(getU64(p))
		e := segmap.Entry{
			Seg:   segment.Seg{Root: word.PLID(getU64(p[8:])), Height: int(getU32(p[16:]))},
			Flags: segmap.Flags(p[20]),
			Size:  getU64(p[21:]),
		}
		ck.roots[v] = e
		p = p[29:]
	}
	for {
		if !need(1) {
			return bad("truncated manifest")
		}
		marker := p[0]
		p = p[1:]
		if marker == 0 {
			break
		}
		if marker != 1 || !need(9) {
			return bad("malformed manifest record")
		}
		plid := word.PLID(getU64(p))
		n := int(p[8])
		p = p[9:]
		if n > word.MaxWords || !need(n*9) {
			return bad("malformed manifest content")
		}
		var c word.Content
		c.N = uint8(n)
		for i := 0; i < n; i++ {
			c.T[i] = word.Tag(p[0])
			c.W[i] = getU64(p[1:])
			p = p[9:]
		}
		ck.lines[plid] = c
	}
	body := b[:len(b)-len(p)]
	if len(p) < 8 || getU32(p[4:]) != ckptEndMagic {
		return bad("missing end marker")
	}
	if crc32.ChecksumIEEE(body) != getU32(p) {
		return bad("CRC mismatch")
	}
	return ck, nil
}

// latestCheckpoint finds the newest valid checkpoint in dir (nil if
// none). Invalid or torn checkpoint files are skipped — only a rename
// makes a checkpoint real, so a bad one is a crashed write, not data
// loss — but an older valid generation behind it is still used.
func latestCheckpoint(dir string) (*checkpoint, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var gens []uint64
	for _, e := range ents {
		if gen, ok := parseCkptName(e.Name()); ok {
			gens = append(gens, gen)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
	for _, gen := range gens {
		ck, err := loadCheckpoint(filepath.Join(dir, ckptName(gen)))
		if err == nil {
			return ck, nil
		}
	}
	return nil, nil
}

// truncateObsolete retires log segments whose records all predate
// startLSN and checkpoint generations older than gen: they become spare
// files for later segments and checkpoints to overwrite (spare.go).
// Failures are ignored: truncation is an optimization and a
// half-finished pass just leaves extra files for the next checkpoint.
func truncateObsolete(dir string, gen, startLSN uint64) {
	segs, err := listSegments(dir)
	if err != nil {
		return
	}
	var obsolete []string
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].startLSN <= startLSN {
			obsolete = append(obsolete, filepath.Base(segs[i].path))
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if g, ok := parseCkptName(e.Name()); ok && g < gen {
			obsolete = append(obsolete, e.Name())
		}
		if strings.HasSuffix(e.Name(), ".tmp") {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	recycleObsolete(dir, obsolete)
}
