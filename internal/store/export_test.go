package store

import (
	"repro/internal/word"
)

// Lookup is LookupTo reporting to the store's own RC sink.
func (s *Store) Lookup(c word.Content) (word.PLID, bool) { return s.LookupTo(c, s.OnRCTouch) }

// Retain is RetainTo reporting to the store's own RC sink.
func (s *Store) Retain(p word.PLID) { s.RetainTo(p, s.OnRCTouch) }

// RetainIfContent is RetainIfContentTo reporting to the store's own RC
// sink.
func (s *Store) RetainIfContent(p word.PLID, c word.Content) bool {
	return s.RetainIfContentTo(p, c, s.OnRCTouch)
}

// BucketIndex returns the bucket a content hashes to.
func (s *Store) BucketIndex(c word.Content) uint64 {
	return c.Hash() & s.bucketMask
}
