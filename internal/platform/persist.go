package platform

import (
	"encoding/json"

	"repro/internal/castore"
	"repro/internal/detrand"
)

// SetPersistentStore is a no-op that returns nil: a cache directory holds
// only finished measurements (core.SetPersistentStore), never spectra.
// It stays only because the perfbench module calls it.
func SetPersistentStore(*castore.Store) (prev *castore.Store) { return nil }

// PersistentStore returns nil; see SetPersistentStore.
func PersistentStore() *castore.Store { return nil }

// SpecContentHash returns a content hash of the domain's full static Spec
// (PDN, core model, EM path, failure model, clocking — every field that
// shapes an electrical result), shared by every powered-core view of the
// domain. Computed once per domain from the canonical
// JSON encoding of the Spec, which covers every exported field without a
// hand-maintained fold that could silently fall behind a Spec change.
func (d *Domain) SpecContentHash() uint64 {
	sh := d.shared
	sh.specHashOnce.Do(func() {
		buf, err := json.Marshal(d.Spec)
		if err != nil {
			// Marshal of a pure-value Spec cannot fail; if it ever does,
			// a zero hash would alias unrelated domains, so poison the
			// bucket with the error text instead.
			buf = []byte("unmarshalable spec: " + err.Error())
		}
		h := detrand.NewHash()
		h.String(string(buf))
		sh.specHashV = h.Sum()
	})
	return sh.specHashV
}
