package core

// Disk tier under the bench's measurement memo. A memoized entry is one
// finished EM measurement (peak dBm, dominant Hz, sweep-to-sweep stdev), but
// a disk hit for one skips the entire pipeline: simulator, PDN, FFT, antenna
// fold and analyzer sweeps. A repeat campaign from a cold process (the
// warm-start benchmark) therefore pays hash lookups where the first run
// paid measurements.
//
// Both tiers key a measurement on one 64-bit identity, measDiskKey of its
// batchMemoKey, which folds the analyzer's content hash (model, span, RBW,
// noise parameters and the unexported noise seed — measured values embed
// seeded instrument noise, so two analyzers differing only in seed must
// never share readings). Its value names every file in existing cache
// directories, so it must not drift.

import (
	"sync/atomic"

	"repro/internal/castore"
	"repro/internal/detrand"
	"repro/internal/instrument"
)

// measNS is the store namespace for finished EM measurements.
const measNS = "meas"

// measCodecVersion is bumped whenever the payload layout or any producer
// of the measured values changes meaning; stale entries read as misses.
const measCodecVersion = 2

var measPersist atomic.Pointer[castore.Store]

// SetPersistentStore installs (nil removes) the disk-backed tier under the
// measurement memo and returns the previous store.
func SetPersistentStore(s *castore.Store) (prev *castore.Store) {
	return measPersist.Swap(s)
}

// PersistentStore returns the installed disk tier, or nil.
func PersistentStore() *castore.Store { return measPersist.Load() }

// measDiskKey is a measurement's identity in the memo and the disk tier.
func measDiskKey(k batchMemoKey) uint64 {
	h := detrand.NewHash()
	h.Uint64(k.spec)
	h.Uint64(k.ana)
	h.Uint64(k.load)
	h.Uint64(k.em)
	h.Int(k.powered)
	h.Float64(k.clock)
	h.Float64(k.supply)
	h.Float64(k.dt)
	h.Int(k.n)
	h.Int(k.samples)
	h.Float64(k.bandLo)
	h.Float64(k.bandHi)
	return h.Sum()
}

// encodeMeas flattens one measurement with its full identity echoed first
// for verification on decode. The sample count is part of the identity, so
// the record carries only the three measured values after it.
func encodeMeas(k batchMemoKey, m instrument.Measurement) []byte {
	enc := castore.NewEnc(15 * 8)
	enc.Uint64(k.spec)
	enc.Uint64(k.ana)
	enc.Uint64(k.load)
	enc.Uint64(k.em)
	enc.Int(k.powered)
	enc.Float64(k.clock)
	enc.Float64(k.supply)
	enc.Float64(k.dt)
	enc.Int(k.n)
	enc.Int(k.samples)
	enc.Float64(k.bandLo)
	enc.Float64(k.bandHi)
	enc.Float64(m.PeakDBm)
	enc.Float64(m.PeakHz)
	enc.Float64(m.StdevDBm)
	return enc.Bytes()
}

// decodeMeas parses a stored measurement, returning ok=false on any
// truncation or identity mismatch (a cross-bench key collision).
func decodeMeas(payload []byte, k batchMemoKey) (instrument.Measurement, bool) {
	dec := castore.NewDec(payload)
	sh := dec.Uint64()
	ah := dec.Uint64()
	load := dec.Uint64()
	em := dec.Uint64()
	powered := dec.Int()
	clock := dec.Float64()
	supply := dec.Float64()
	dt := dec.Float64()
	n := dec.Int()
	samples := dec.Int()
	bandLo := dec.Float64()
	bandHi := dec.Float64()
	m := instrument.Measurement{
		PeakDBm:  dec.Float64(),
		PeakHz:   dec.Float64(),
		Samples:  k.samples,
		StdevDBm: dec.Float64(),
	}
	if dec.Finish() != nil {
		return instrument.Measurement{}, false
	}
	if sh != k.spec || ah != k.ana || load != k.load || em != k.em ||
		powered != k.powered || clock != k.clock || supply != k.supply ||
		dt != k.dt || n != k.n || samples != k.samples ||
		bandLo != k.bandLo || bandHi != k.bandHi {
		return instrument.Measurement{}, false
	}
	return m, true
}

// measGet reads the measurement under identity id (measDiskKey(k)) from
// store s; a nil store misses.
func measGet(s *castore.Store, id uint64, k batchMemoKey) (instrument.Measurement, bool) {
	if s == nil {
		return instrument.Measurement{}, false
	}
	payload, found := s.Get(measNS, measCodecVersion, id)
	if !found {
		return instrument.Measurement{}, false
	}
	return decodeMeas(payload, k)
}

// measPut persists a measurement under identity id; a nil store drops it.
func measPut(s *castore.Store, id uint64, k batchMemoKey, m instrument.Measurement) {
	if s == nil {
		return
	}
	_ = s.Put(measNS, measCodecVersion, id, encodeMeas(k, m))
}
