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
//   - sync.Pool appears nowhere outside internal/pool: a private pool
//     would bypass the bucketed stats (hits/misses/oversize) the bench
//     and server surfaces report, and sync.Pool's GC draining breaks the
//     deterministic accounting the pinning tests rely on. (The
//     internal/pool freelists deliberately do not use sync.Pool.)
var sourceGuards = []struct {
	name   string
	re     *regexp.Regexp
	files  []string // nil: every .go file in the tree
	exempt string   // directory the tree walk skips
	fix    string
}{
	{
		name: "NoAdHocScratchInWaveEngines",
		re:   regexp.MustCompile(`word\.(DecodeCompact|UnpackInline)\(|sort\.Slice\(|sync\.Pool`),
		files: []string{
			filepath.Join("internal", "segment", "builder.go"),
			filepath.Join("internal", "segment", "read_bulk.go"),
			filepath.Join("internal", "segment", "scan.go"),
			filepath.Join("internal", "segment", "write_batch.go"),
			filepath.Join("internal", "segment", "canon_batch.go"),
			filepath.Join("internal", "merge", "merge.go"),
			filepath.Join("internal", "iterreg", "iterreg.go"),
		},
		fix: "allocating form in wave engine — use the Into variant / slices.SortFunc / internal/pool",
	},
	{
		name:   "NoSyncPoolOutsidePoolPackage",
		re:     regexp.MustCompile(`sync\.Pool`),
		exempt: filepath.Join("internal", "pool"),
		fix:    "sync.Pool outside internal/pool — use the bucketed pools so stats stay observable",
	},
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
