package platform

// Disk tier for spectra. The spectraKey is scoped to one Domain, so it
// omits the domain itself; the disk store is shared across domains and
// processes, so the disk key additionally folds a content hash of the full
// domain Spec — two boards with different PDNs, core models or EM paths can
// share one cache directory without ever reading each other's spectra.
//
// Unlike the trace tier, the spectra pipeline has no per-key simulation
// lock, so the store's singleflight (castore.Do) is what keeps a cold
// sweep's parallel workers from each paying resample + FFT for the same
// operating point.

import (
	"encoding/json"
	"sync/atomic"

	"repro/internal/castore"
	"repro/internal/detrand"
	"repro/internal/uarch"
)

// spectraNS is the store namespace for persisted spectra.
const spectraNS = "spectra"

// spectraCodecVersion is bumped whenever the payload layout or the meaning
// of any persisted field changes; stale entries read as plain misses.
const spectraCodecVersion = 1

var spectraPersist atomic.Pointer[castore.Store]

// SetPersistentStore installs (nil removes) the disk-backed spectra tier of
// every domain and returns the previous store.
func SetPersistentStore(s *castore.Store) (prev *castore.Store) {
	return spectraPersist.Swap(s)
}

// PersistentStore returns the installed disk tier, or nil.
func PersistentStore() *castore.Store { return spectraPersist.Load() }

// SpecContentHash returns a content hash of the domain's full static Spec
// (PDN, core model, EM path, failure model, clocking — every field that
// shapes an electrical result). Computed once per domain from the canonical
// JSON encoding of the Spec, which covers every exported field without a
// hand-maintained fold that could silently fall behind a Spec change.
func (d *Domain) SpecContentHash() uint64 {
	d.specHashOnce.Do(func() {
		buf, err := json.Marshal(d.Spec)
		if err != nil {
			// Marshal of a pure-value Spec cannot fail; if it ever does,
			// a zero hash would alias unrelated domains, so poison the
			// bucket with the error text instead.
			buf = []byte("unmarshalable spec: " + err.Error())
		}
		h := detrand.NewHash()
		h.String(string(buf))
		d.specHashV = h.Sum()
	})
	return d.specHashV
}

// spectraDiskKey folds the domain identity into the spectra key.
func (d *Domain) spectraDiskKey(k spectraKey) uint64 {
	h := detrand.NewHash()
	h.Uint64(d.SpecContentHash())
	h.Uint64(k.load)
	h.Int(k.powered)
	h.Float64(k.clock)
	h.Float64(k.supply)
	h.Float64(k.dt)
	h.Int(k.n)
	return h.Sum()
}

// encodeSpectraEntry flattens one entry: the identifying fields first
// (echoed back for verification on decode), then the three spectra rows and
// the full simulation Result — everything Spectra hands out, so a disk-warm
// result is indistinguishable from a computed one.
func encodeSpectraEntry(d *Domain, k spectraKey, ent *spectraEntry) []byte {
	enc := castore.NewEnc(64 + 8*(3*len(ent.freqs)+len(ent.res.Charge)) + 256)
	enc.Uint64(d.SpecContentHash())
	enc.Uint64(k.load)
	enc.Int(k.powered)
	enc.Float64(k.clock)
	enc.Float64(k.supply)
	enc.Float64(k.dt)
	enc.Int(k.n)
	enc.Floats(ent.freqs)
	enc.Floats(ent.vAmp)
	enc.Floats(ent.iAmp)
	uarch.AppendResult(enc, ent.res)
	return enc.Bytes()
}

// decodeSpectraEntry parses a stored payload, returning nil (a miss) on any
// truncation or identity mismatch.
func decodeSpectraEntry(payload []byte, d *Domain, k spectraKey) *spectraEntry {
	dec := castore.NewDec(payload)
	specHash := dec.Uint64()
	load := dec.Uint64()
	powered := dec.Int()
	clock := dec.Float64()
	supply := dec.Float64()
	dt := dec.Float64()
	n := dec.Int()
	ent := &spectraEntry{}
	ent.freqs = dec.Floats()
	ent.vAmp = dec.Floats()
	ent.iAmp = dec.Floats()
	ent.res = uarch.ReadResult(dec)
	if dec.Finish() != nil {
		return nil
	}
	if specHash != d.SpecContentHash() || load != k.load || powered != k.powered ||
		clock != k.clock || supply != k.supply || dt != k.dt || n != k.n {
		return nil
	}
	if len(ent.freqs) != len(ent.vAmp) || len(ent.freqs) != len(ent.iAmp) {
		return nil
	}
	return ent
}

// spectraComputeOrDisk serves one spectra evaluation: straight computation
// when no store is installed, otherwise through the store's singleflight
// with write-through. A payload that fails verification (a cross-domain
// key collision) falls back to computing uncached rather than fighting
// over the slot.
func (d *Domain) spectraComputeOrDisk(k spectraKey, compute func() (*spectraEntry, error)) (*spectraEntry, error) {
	s := spectraPersist.Load()
	if s == nil {
		return compute()
	}
	var computed *spectraEntry
	payload, err := s.Do(spectraNS, spectraCodecVersion, d.spectraDiskKey(k), func() ([]byte, error) {
		ent, err := compute()
		if err != nil {
			return nil, err
		}
		computed = ent
		return encodeSpectraEntry(d, k, ent), nil
	})
	if err != nil {
		return nil, err
	}
	if computed != nil {
		return computed, nil
	}
	if ent := decodeSpectraEntry(payload, d, k); ent != nil {
		return ent, nil
	}
	return compute()
}
