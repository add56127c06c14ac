package uarch

import "repro/internal/castore"

// SetPersistentStore is a no-op that returns nil: a cache directory holds
// only finished measurements (core.SetPersistentStore), never charge
// histories. It stays only because the perfbench module calls it.
func SetPersistentStore(*castore.Store) (prev *castore.Store) { return nil }

// PersistentStore returns nil; see SetPersistentStore.
func PersistentStore() *castore.Store { return nil }
