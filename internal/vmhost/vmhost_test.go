package vmhost

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/segment"
)

func TestHicampAlwaysBeatsPageSharing(t *testing.T) {
	// Figures 9-10 shape: HICAMP line dedup consumes no more than ideal
	// page sharing at every point (line dedup subsumes page dedup).
	for _, c := range Classes() {
		for _, p := range ScaleVMs(c, 6) {
			if p.Hicamp > p.PageShared {
				t.Fatalf("%s at %d VMs: HICAMP %d > page sharing %d",
					c.Name, p.N, p.Hicamp, p.PageShared)
			}
			if p.PageShared > p.Allocated {
				t.Fatalf("%s: page sharing exceeds allocation", c.Name)
			}
		}
	}
}

func TestGapWidensWithVMCount(t *testing.T) {
	// Adding same-class VMs adds mostly shared content: both compaction
	// factors must grow with N, with HICAMP growing at least as fast.
	c, _ := ClassByName("database")
	pts := ScaleVMs(c, 10)
	first, last := pts[0], pts[len(pts)-1]
	if last.CompactionHicamp() <= first.CompactionHicamp() {
		t.Fatalf("HICAMP compaction flat: %.2f -> %.2f",
			first.CompactionHicamp(), last.CompactionHicamp())
	}
	if last.CompactionHicamp() <= last.CompactionPageShare() {
		t.Fatalf("at 10 VMs HICAMP %.2fx <= page sharing %.2fx",
			last.CompactionHicamp(), last.CompactionPageShare())
	}
}

func TestVMCompactionRangesMatchPaper(t *testing.T) {
	// Paper: at 10 VMs HICAMP compacts 1.86x-10.87x, ideal page sharing
	// 1.44x-5.21x. Assert each class lands inside a tolerant envelope.
	for _, c := range Classes() {
		pts := ScaleVMs(c, 10)
		last := pts[len(pts)-1]
		hc, pc := last.CompactionHicamp(), last.CompactionPageShare()
		if hc < 1.5 || hc > 14 {
			t.Errorf("%s: HICAMP compaction %.2fx outside [1.5, 14]", c.Name, hc)
		}
		if pc < 1.2 || pc > 7 {
			t.Errorf("%s: page-share compaction %.2fx outside [1.2, 7]", c.Name, pc)
		}
	}
}

func TestStandbyCompactsMost(t *testing.T) {
	// An idle VM is mostly OS + zero pages: the best case in Figure 9.
	var standby, database float64
	for _, c := range Classes() {
		pts := ScaleVMs(c, 10)
		f := pts[len(pts)-1].CompactionHicamp()
		switch c.Name {
		case "standby":
			standby = f
		case "database":
			database = f
		}
	}
	if standby <= database {
		t.Fatalf("standby %.2fx <= database %.2fx", standby, database)
	}
}

func TestTilesMatchPaperShape(t *testing.T) {
	// Figure 10: tiles compact >3.55x under HICAMP but only ~1.8x under
	// ideal page sharing.
	pts := ScaleTiles(10)
	last := pts[len(pts)-1]
	if hc := last.CompactionHicamp(); hc < 2.5 {
		t.Fatalf("tile HICAMP compaction %.2fx, want > 2.5", hc)
	}
	if pc := last.CompactionPageShare(); pc < 1.3 || pc > 3.5 {
		t.Fatalf("tile page-share compaction %.2fx, want ~1.8", pc)
	}
	if last.CompactionHicamp() < 1.5*last.CompactionPageShare() {
		t.Fatalf("HICAMP %.2fx not well above page sharing %.2fx",
			last.CompactionHicamp(), last.CompactionPageShare())
	}
}

func TestMonotoneAllocation(t *testing.T) {
	pts := ScaleTiles(5)
	for i := 1; i < len(pts); i++ {
		if pts[i].Allocated <= pts[i-1].Allocated ||
			pts[i].Hicamp < pts[i-1].Hicamp ||
			pts[i].PageShared < pts[i-1].PageShared {
			t.Fatalf("non-monotone consumption at tile %d", pts[i].N)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := ScaleTiles(3)
	b := ScaleTiles(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("tile scaling not deterministic")
		}
	}
}

func TestDeltaPagesDefeatPageSharingOnly(t *testing.T) {
	// A class of pure deltified pages: page sharing saves nothing across
	// instances (every page differs) while HICAMP shares most lines.
	c := Class{Name: "deltaonly", Pages: 64, Delta: 1.0, OS: 1, DeltaLines: 4}
	mt := NewMeter()
	mt.AddVM(c, 0)
	mt.AddVM(c, 1)
	if got := mt.PageSharedBytes(); got != mt.AllocatedBytes() {
		t.Fatalf("page sharing shared deltified pages: %d of %d", got, mt.AllocatedBytes())
	}
	if float64(mt.HicampBytes()) > 0.7*float64(mt.AllocatedBytes()) {
		t.Fatalf("HICAMP shared only %d of %d deltified bytes",
			mt.AllocatedBytes()-mt.HicampBytes(), mt.AllocatedBytes())
	}
}

func TestClassByName(t *testing.T) {
	if _, ok := ClassByName("database"); !ok {
		t.Fatal("database class missing")
	}
	if _, ok := ClassByName("nope"); ok {
		t.Fatal("unknown class found")
	}
}

// The tests below build synthesized images in a real deduplicating
// memory system: the sharing the Meter counts by hashing must show up as
// lines the store actually shares.

func ingestMachine() *core.Machine {
	return core.NewMachine(core.Config{
		LineBytes: 64, BucketBits: 16, DataWays: 12, CacheLines: 2048, CacheWays: 8,
	})
}

// ingest synthesizes one VM image and builds it as one segment.
func ingest(m *core.Machine, c Class, instance int) segment.Seg {
	image := make([]byte, 0, c.Pages*PageBytes)
	SynthesizeVM(c, instance, func(page []byte) { image = append(image, page...) })
	return segment.BuildBytes(m, image)
}

func TestIngestIdenticalVMsShareEverything(t *testing.T) {
	m := ingestMachine()
	c, _ := ClassByName("file")

	a := ingest(m, c, 0)
	lines := m.LiveLines()
	b := ingest(m, c, 0) // same class, same instance: identical image
	if !a.Equal(b) {
		t.Fatalf("identical VM images got roots %#x vs %#x", a.Root, b.Root)
	}
	if added := m.LiveLines() - lines; added != 0 {
		t.Fatalf("re-ingesting an identical VM allocated %d new lines", added)
	}
	segment.ReleaseSeg(m, a)
	segment.ReleaseSeg(m, b)
	if live := m.LiveLines(); live != 0 {
		t.Fatalf("%d lines leaked after release", live)
	}
}

func TestIngestSameClassSharesMostLines(t *testing.T) {
	// A second instance of the same class shares OS, app and delta-ancestor
	// content: it must allocate well under half of what the first did.
	m := ingestMachine()
	c, _ := ClassByName("web")

	ingest(m, c, 0)
	first := m.LiveLines()
	ingest(m, c, 1)
	added := m.LiveLines() - first
	if added*2 >= first {
		t.Fatalf("second instance allocated %d of %d lines; cross-VM sharing missing", added, first)
	}
}

func TestIngestMatchesSynthesis(t *testing.T) {
	// The segment must hold exactly the synthesized image bytes.
	m := ingestMachine()
	c, _ := ClassByName("standby")

	var want []byte
	SynthesizeVM(c, 3, func(page []byte) { want = append(want, page...) })
	seg := ingest(m, c, 3)
	got := segment.ReadBytes(m, seg, 0, uint64(len(want)))
	if !bytes.Equal(got, want) {
		t.Fatalf("ingested image does not match synthesis (%d vs %d bytes)", len(got), len(want))
	}
}
