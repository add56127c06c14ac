package uarch

import "repro/internal/castore"

// SetPersistentStore is a no-op that returns nil: a cache directory holds
// only finished measurements (core.SetPersistentStore), never charge
// histories. It stays only because the perfbench module calls it.
func SetPersistentStore(*castore.Store) (prev *castore.Store) { return nil }

// PersistentStore returns nil; see SetPersistentStore.
func PersistentStore() *castore.Store { return nil }

// CacheStats is what TraceCacheStats reports: always zeros, since there is
// no process-wide trace cache. Charge histories are reused only through an
// explicit Trace (see PrimeTrace).
type CacheStats struct {
	Hits, Misses uint64
}

// TraceCacheStats returns zeros; see CacheStats. It stays only because the
// perfbench module calls it.
func TraceCacheStats() CacheStats { return CacheStats{} }

// SetTraceCacheEnabled is a no-op that returns false; see CacheStats. It
// stays only because the perfbench module calls it.
func SetTraceCacheEnabled(bool) (prev bool) { return false }

// ResetTraceCache is a no-op; see CacheStats. It stays only because the
// perfbench module calls it.
func ResetTraceCache() {}
