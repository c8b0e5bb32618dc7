package store

import (
	"repro/internal/word"
)

// Lookup is LookupTo reporting to the store's own RC sink.
func (s *Store) Lookup(c word.Content) (word.PLID, bool) { return s.LookupTo(c, s.OnRCTouch) }

// BucketIndex returns the bucket a content hashes to.
func (s *Store) BucketIndex(c word.Content) uint64 {
	return c.Hash() & s.bucketMask
}
