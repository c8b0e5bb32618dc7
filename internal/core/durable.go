package core

import (
	"repro/internal/store"
	"repro/internal/word"
)

// Durability wiring. The machine itself stays persistence-agnostic: the
// write-ahead layer (internal/durable) attaches a line journal to the
// store and observes segment-map publishes directly; the machine only
// exposes the restore surface. Write acknowledgements wait on the
// durable layer itself, which its owner (kvstore) holds.

// SetLineJournal attaches the store's line liveness journal.
func (m *Machine) SetLineJournal(j store.Journal) { m.store.SetJournal(j) }

// ForEachLiveLine iterates live lines for checkpointing; see
// store.ForEachLive for the fuzzy-snapshot contract.
func (m *Machine) ForEachLiveLine(fn func(p word.PLID, c word.Content, rc uint64) bool) {
	m.store.ForEachLive(fn)
}

// InstallLine places content at an exact PLID with an exact reference
// count — the recovery path; see store.InstallLine. No cache fill and no
// DRAM accounting: restore is not simulated memory activity.
func (m *Machine) InstallLine(p word.PLID, c word.Content, rc uint64) error {
	return m.store.InstallLine(p, c, rc)
}

// FinishRestore completes a sequence of InstallLine calls.
func (m *Machine) FinishRestore() { m.store.FinishRestore() }
