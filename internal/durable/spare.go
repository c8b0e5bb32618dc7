package durable

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Spare files. Truncation never frees disk blocks in steady state: on a
// filesystem that discards freed blocks at journal commit (ext4 mounted
// with -o discard), unlinking a multi-megabyte segment or checkpoint
// holds up the commit that every concurrent log fsync waits on, and the
// group-commit path stalls for hundreds of milliseconds; a shrinking
// truncate stalls it too. So an obsolete segment or checkpoint is
// renamed to spare-<name>, and the next segment or checkpoint is written
// over a spare in place. A reused file keeps its old bytes past the end
// of the new contents: recovery stops a segment at its last record (the
// next segment's start LSN, or the first record older than its header's
// start LSN in the final one; see recover.go) and loadCheckpoint stops
// at the end marker. Spare names match neither wal-*.log nor
// checkpoint-*.ckpt, so recovery never reads them. At most maxSpares
// files of each kind are kept; truncation deletes the rest.

const (
	sparePrefix = "spare-"
	maxSpares   = 2
)

// recycleObsolete renames each obsolete file in names (base names in
// dir) to its spare name while fewer than maxSpares spares with its
// suffix exist, and deletes the rest.
func recycleObsolete(dir string, names []string) {
	have := make(map[string]int)
	for _, s := range listSpares(dir) {
		have[filepath.Ext(s)]++
	}
	for _, name := range names {
		faultPoint()
		path := filepath.Join(dir, name)
		if ext := filepath.Ext(name); have[ext] < maxSpares {
			if os.Rename(path, filepath.Join(dir, sparePrefix+name)) == nil {
				have[ext]++
				continue
			}
		}
		os.Remove(path)
	}
}

// listSpares returns the spare file names in dir, sorted.
func listSpares(dir string) []string {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), sparePrefix) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

// takeSpare opens a spare whose name ends in ext for overwriting from
// offset 0 and returns it with its path, or (nil, "") when there is none.
// The directory is synced first: the rename that made the file a spare
// must be durable before new contents go into it, or a crash could leave
// a live name over a rewritten file.
func takeSpare(dir, ext string) (*os.File, string) {
	for _, name := range listSpares(dir) {
		if filepath.Ext(name) != ext {
			continue
		}
		if syncDir(dir) != nil {
			return nil, ""
		}
		path := filepath.Join(dir, name)
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err == nil {
			return f, path
		}
	}
	return nil, ""
}
