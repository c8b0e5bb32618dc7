package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"repro/internal/datagen"
)

// Load shape. A run measures for --seconds; the phases take fixed shares
// of it, so a shorter run shortens the slices and never drops a phase.
const (
	warmShare   = 0.10 // closed loop, discarded
	closedShare = 0.60 // closed loop, nSlices measured slices
	fixedShare  = 0.30 // open loop at the workload's rateFixed, nSlices slices
	nSlices     = 5

	loadConns  = 2  // client connections, one goroutine each; never above nproc
	depth      = 32 // closed-loop pipeline depth per connection
	fixedBurst = 16 // open-loop requests due together on one connection

	opTimeout    = 2 * time.Second  // a reply later than this fails its burst
	setupTimeout = 30 * time.Second // for a preload write and the read-back behind it
	lateAfter    = time.Millisecond // a fixed-rate burst sent later than this past its due time is late
	setupRepeats = 3                // setup_s is the median of this many fresh preloads

	lineBytes   = 16  // hicampd's default -line-bytes
	valueBytes  = 256 // every value, header included
	headerBytes = 24  // fnv64(key) | conn | seq, little endian
	corpusPages = 256
	corpusMean  = 4096
	corpusSeed  = 1 // the corpus is one fixed text; --seed picks the slices

	// The traced run replays this many ops per window, in up to
	// traceWindows windows per chain level (fewer when the time runs out).
	traceWindowOps = 64
	traceWindows   = 2000
)

// workload is one traffic mix. rateFixed and sloUs are literals measured
// once on the seed commit (rateFixed is about half its closed-loop
// capacity, sloUs four times its lat_fixed_p50_us); they are never derived
// from the run, so the fixed-rate phase offers the same load to every
// commit.
type workload struct {
	name      string
	why       string
	keys      int
	valueLen  int
	zipf      float64 // 0 = uniform key choice
	getKeys   int     // keys per get
	getFrac   float64 // share of 1-request gets
	setFrac   float64 // share of sets; the rest alternate gets -> cas
	durable   bool
	rateFixed int     // requests per second over both connections
	sloUs     float64 // latency limit of the fixed-rate phase
}

var workloads = []workload{
	{
		name: "mget_read", keys: 30000, valueLen: valueBytes, zipf: 1.01, getKeys: 4, getFrac: 1,
		rateFixed: 4000, sloUs: 14000,
		why: "4-key gets over 30000 keys, far above the simulated LLC: the read path does all the work; bypass workload for write-side changes",
	},
	{
		name: "set_write", keys: 20000, valueLen: valueBytes, getKeys: 1, setFrac: 1,
		rateFixed: 2000, sloUs: 21000,
		why: "sets of fresh 256 B values over 20000 uniform keys: write waves, lookup-by-content, alloc/free and RC reclaim do all the work",
	},
	{
		name: "mixed_cas", keys: 1000, valueLen: 64, getKeys: 1, getFrac: 0.70, setFrac: 0.20,
		rateFixed: 1500, sloUs: 28000,
		why: "70/20/10 get/set/gets-cas on 1000 hot keys that fit the LLC: class barriers shrink windows, snapshot tokens and merge rebase run",
	},
	{
		name: "durable_set", keys: 20000, valueLen: valueBytes, getKeys: 1, setFrac: 1, durable: true,
		rateFixed: 1500, sloUs: 31000,
		why: "set_write with -data-dir: journal append, group-commit fsync, checkpoints and recovery after SIGKILL; absent from the other three",
	},
}

// dataset is what one (workload, seed) pair fixes before any traffic: the
// key table and the corpus values are cut from. It is read-only once
// built, so connections share it.
type dataset struct {
	w       *workload
	keys    [][]byte
	keyHash []uint64
	corpus  []byte
	starts  uint64 // number of 16-byte aligned body positions in corpus
}

func newDataset(w *workload, seed int64) *dataset {
	d := &dataset{w: w, keys: make([][]byte, w.keys), keyHash: make([]uint64, w.keys)}
	for i := range d.keys {
		d.keys[i] = []byte(fmt.Sprintf("k:%s:%07d", w.name, i))
		h := fnv.New64a()
		h.Write(d.keys[i])
		d.keyHash[i] = h.Sum64()
	}
	// Pages are padded to 64 bytes so shared fragments stay line-aligned
	// across the whole pool, as they are inside one page.
	for _, page := range datagen.HTMLCorpus("bench", corpusPages, corpusMean, corpusSeed).Items {
		d.corpus = append(d.corpus, page...)
		for len(d.corpus)%64 != 0 {
			d.corpus = append(d.corpus, ' ')
		}
	}
	d.starts = uint64(len(d.corpus)-valueBytes)/16 - 1
	return d
}

// bodyStart places a value's body in the corpus as a pure function of its
// header, so a reader can check every byte of a value it has never seen.
// The server stores a 4-byte flags frame before the value; starting the
// body at 12 mod 16 puts stored byte 32 on a corpus line boundary, which
// is what lets 16-byte lines of shared fragments deduplicate.
func (d *dataset) bodyStart(keyHash, conn, seq uint64) int {
	h := keyHash ^ (conn+1)*0x9E3779B97F4A7C15 ^ (seq+1)*0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return int(h%d.starts)*16 + 12
}

// appendValue appends the value (key, conn, seq) names.
func (d *dataset) appendValue(dst []byte, key int, conn, seq uint64) []byte {
	var hdr [headerBytes]byte
	binary.LittleEndian.PutUint64(hdr[0:], d.keyHash[key])
	binary.LittleEndian.PutUint64(hdr[8:], conn)
	binary.LittleEndian.PutUint64(hdr[16:], seq)
	dst = append(dst, hdr[:]...)
	start := d.bodyStart(d.keyHash[key], conn, seq)
	return append(dst, d.corpus[start:start+d.w.valueLen-headerBytes]...)
}

// checkValue verifies that v is a value this generator made for key and
// returns who wrote it.
func (d *dataset) checkValue(v []byte, key int) (conn, seq uint64, ok bool) {
	if len(v) != d.w.valueLen || binary.LittleEndian.Uint64(v) != d.keyHash[key] {
		return 0, 0, false
	}
	conn = binary.LittleEndian.Uint64(v[8:])
	seq = binary.LittleEndian.Uint64(v[16:])
	start := d.bodyStart(d.keyHash[key], conn, seq)
	return conn, seq, string(v[headerBytes:]) == string(d.corpus[start:start+len(v)-headerBytes])
}

// userBytes is the key plus value bytes a client holds in the store once
// every key is set.
func (d *dataset) userBytes() float64 {
	n := 0
	for _, k := range d.keys {
		n += len(k) + d.w.valueLen
	}
	return float64(n)
}

type opKind uint8

const (
	opGet opKind = iota
	opGets
	opSet
	opCas
)

// op is one request. A get carries nkeys keys; the others one.
type op struct {
	kind  opKind
	nkeys int
	keys  [4]int
	seq   uint64 // set/cas: the value's sequence number on this connection
	token uint64 // cas
}

type casToken struct {
	key   int
	token uint64
}

// generator is one connection's op stream, a pure function of (workload,
// seed, connection) and — on mixed_cas only — of the tokens the server
// answered its gets with.
type generator struct {
	w      *workload
	conn   uint64
	rng    *rand.Rand
	zipf   *rand.Zipf
	seq    uint64
	tokens []casToken // answered gets not yet spent on a cas, oldest first
}

func newGenerator(w *workload, seed int64, conn int) *generator {
	g := &generator{w: w, conn: uint64(conn), rng: rand.New(rand.NewSource(seed*1000003 + int64(conn)*7919 + 1))}
	if w.zipf > 0 {
		g.zipf = rand.NewZipf(g.rng, w.zipf, 1, uint64(w.keys-1))
	}
	return g
}

func (g *generator) key() int {
	if g.zipf != nil {
		return int(g.zipf.Uint64())
	}
	return g.rng.Intn(g.w.keys)
}

func (g *generator) next(o *op) {
	*o = op{nkeys: 1}
	switch r := g.rng.Float64(); {
	case r < g.w.getFrac:
		o.kind, o.nkeys = opGet, g.w.getKeys
		for i := 0; i < o.nkeys; i++ {
			o.keys[i] = g.key()
		}
	case r < g.w.getFrac+g.w.setFrac:
		g.seq++
		o.kind, o.keys[0], o.seq = opSet, g.key(), g.seq
	case len(g.tokens) > 0:
		g.seq++
		o.kind, o.keys[0], o.seq, o.token = opCas, g.tokens[0].key, g.seq, g.tokens[0].token
		g.tokens = g.tokens[1:]
	default:
		o.kind, o.keys[0] = opGets, g.key()
	}
}

// gotToken records the cas token a gets reply carried.
func (g *generator) gotToken(key int, token uint64) {
	g.tokens = append(g.tokens, casToken{key, token})
}
