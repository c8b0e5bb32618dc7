package repro

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Source guards: greppable invariants that would otherwise erode one call
// site at a time. Each row reports every line its pattern matches, either
// in a fixed file set or in every .go file of the tree minus one exempt
// directory. This file quotes the patterns, so no walk reads it.
//
//   - The wave engines' scratch discipline (DESIGN.md "Scratch pooling"):
//     the wave-engine files use only the allocation-free forms of the
//     compact/inline decoders (DecodeCompactInto / UnpackInlineInto) and
//     of slice sorting (slices.SortFunc; sort.Slice's reflection header
//     allocates per call), and take recurring buffers from internal/pool.
//   - The wave engines number the lines and indexes of a wave with
//     pool.Index, never a per-wave Go map: a map's hashing, growth and
//     rehash cost as much as the walk itself (DESIGN.md "Bulk reads").
//   - sync.Pool appears nowhere outside internal/pool: a private pool
//     would bypass the bucketed stats (hits/misses/oversize) the bench
//     and server surfaces report, and sync.Pool's GC draining breaks the
//     deterministic accounting the pinning tests rely on. (The
//     internal/pool freelists deliberately do not use sync.Pool.)
//   - Segments are built through one path, the package-level
//     segment.BuildWords/BuildBytes/CanonLeaves/CanonNodes: no file
//     outside bench/ names segment.Builder, the shim the bench module
//     still calls, so no producer brings back a second build path.
//
// The last row, NoCodeOnlyTestsReach, is not a pattern: it walks the
// call graph from the binaries (reach_test.go).
var sourceGuards = []struct {
	name   string
	re     *regexp.Regexp
	files  []string // nil: every .go file in the tree
	exempt string   // directory the tree walk skips
	fix    string
}{
	{
		name:  "NoAdHocScratchInWaveEngines",
		re:    regexp.MustCompile(`word\.(DecodeCompact|UnpackInline)\(|sort\.Slice\(|sync\.Pool`),
		files: waveEngineFiles,
		fix:   "allocating form in wave engine — use the Into variant / slices.SortFunc / internal/pool",
	},
	{
		name:  "NoGoMapDedupInWaveEngines",
		re:    regexp.MustCompile(`pool\.NewMap|pool\.ResetMap|map\[word\.PLID\]`),
		files: waveEngineFiles,
		fix:   "Go map dedup in wave engine — number keys with a pool.Index",
	},
	{
		name:   "NoSyncPoolOutsidePoolPackage",
		re:     regexp.MustCompile(`sync\.Pool`),
		exempt: filepath.Join("internal", "pool"),
		fix:    "sync.Pool outside internal/pool — use the bucketed pools so stats stay observable",
	},
	{
		name:   "NoBuilderOutsideBench",
		re:     regexp.MustCompile(`segment\.(NewBuilder|Builder)\b`),
		exempt: "bench",
		fix:    "segment.Builder outside bench/ — build with segment.BuildWords/BuildBytes/CanonLeaves/CanonNodes",
	},
}

// waveEngineFiles are the wave engines' source files.
var waveEngineFiles = []string{
	filepath.Join("internal", "segment", "build.go"),
	filepath.Join("internal", "segment", "read_bulk.go"),
	filepath.Join("internal", "segment", "scan.go"),
	filepath.Join("internal", "segment", "write_batch.go"),
	filepath.Join("internal", "segment", "canon_batch.go"),
	filepath.Join("internal", "merge", "merge.go"),
	filepath.Join("internal", "iterreg", "iterreg.go"),
}

func TestSourceGuards(t *testing.T) {
	for _, g := range sourceGuards {
		t.Run(g.name, func(t *testing.T) {
			files := g.files
			if files == nil {
				files = goFilesOutside(t, g.exempt)
			}
			for _, path := range files {
				src, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("read %s: %v", path, err)
				}
				for i, line := range strings.Split(string(src), "\n") {
					if g.re.MatchString(line) {
						t.Errorf("%s:%d: %s: %q", path, i+1, g.fix, strings.TrimSpace(line))
					}
				}
			}
		})
	}
	t.Run("NoCodeOnlyTestsReach", checkReachability)
}

// goFilesOutside lists the tree's .go files, skipping .git, the exempt
// directory and this file.
func goFilesOutside(t *testing.T, exempt string) []string {
	var files []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || path == exempt {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && path != "guard_test.go" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walk: %v", err)
	}
	return files
}
