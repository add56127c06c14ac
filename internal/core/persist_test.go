package core

import (
	"bytes"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/castore"
	"repro/internal/instrument"
	"repro/internal/platform"
)

// withMeasStore installs s as the measurement tier for the test's duration.
func withMeasStore(t *testing.T, s *castore.Store) {
	t.Helper()
	prev := SetPersistentStore(s)
	t.Cleanup(func() { SetPersistentStore(prev) })
}

func openStore(t *testing.T, dir string) *castore.Store {
	t.Helper()
	s, err := castore.Open(dir, castore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// measKeys lists the keys of the measurement records under a store root.
func measKeys(t *testing.T, dir string) []uint64 {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, measNS, "*", "*.e"))
	if err != nil {
		t.Fatal(err)
	}
	var keys []uint64
	for _, p := range paths {
		k, err := strconv.ParseUint(strings.TrimSuffix(filepath.Base(p), ".e"), 16, 64)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	return keys
}

func sameMeasurement(t *testing.T, label string, got, want *instrument.Measurement) {
	t.Helper()
	if math.Float64bits(got.PeakDBm) != math.Float64bits(want.PeakDBm) ||
		math.Float64bits(got.PeakHz) != math.Float64bits(want.PeakHz) ||
		math.Float64bits(got.StdevDBm) != math.Float64bits(want.StdevDBm) ||
		got.Samples != want.Samples {
		t.Fatalf("%s: %+v, want %+v", label, got, want)
	}
}

// TestMeasTierKeepsStdev: a second bench on a second handle to the same
// store directory reads the first bench's measurement back through the
// meas tier, with every field — the sweep-to-sweep stdev included — intact.
func TestMeasTierKeepsStdev(t *testing.T) {
	dir := t.TempDir()
	withMeasStore(t, openStore(t, dir))
	b1, p1 := testBench(t)
	d1 := dom(t, p1, platform.DomainA72)
	want, err := b1.EMMeasureN(d1, buildLoad(t, d1, "probe", 2), 4)
	if err != nil {
		t.Fatal(err)
	}
	if want.StdevDBm == 0 {
		t.Fatal("measurement has no stdev; the check below would be vacuous")
	}

	s2 := openStore(t, dir)
	withMeasStore(t, s2)
	b2, p2 := testBench(t)
	d2 := dom(t, p2, platform.DomainA72)
	got, err := b2.EMMeasureN(d2, buildLoad(t, d2, "probe", 2), 4)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Stats().Hits == 0 {
		t.Fatal("second bench never read the meas tier")
	}
	if bs := b2.BatchStats(); bs.Measured != 0 || bs.MemoHits != 1 {
		t.Fatalf("disk-served measurement counted as %+v", bs)
	}
	sameMeasurement(t, "disk-served", got, want)
}

// TestMeasV1RecordIsMiss: a record in the codec-1 layout (peak dBm and
// dominant Hz, no stdev) left by an older process reads as a miss, and the
// bench recomputes the same measurement.
func TestMeasV1RecordIsMiss(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	withMeasStore(t, s)
	b1, p1 := testBench(t)
	d1 := dom(t, p1, platform.DomainA72)
	want, err := b1.EMMeasureN(d1, buildLoad(t, d1, "probe", 2), 4)
	if err != nil {
		t.Fatal(err)
	}
	keys := measKeys(t, dir)
	if len(keys) != 1 {
		t.Fatalf("%d meas records after one measurement", len(keys))
	}
	v2, ok := s.Get(measNS, measCodecVersion, keys[0])
	if !ok {
		t.Fatal("fresh record unreadable")
	}
	// Codec 1 wrote the same identity words followed by the two values.
	v1 := v2[:len(v2)-8]
	if err := s.Put(measNS, 1, keys[0], v1); err != nil {
		t.Fatal(err)
	}

	b2, p2 := testBench(t)
	d2 := dom(t, p2, platform.DomainA72)
	hits := s.Stats().Hits
	got, err := b2.EMMeasureN(d2, buildLoad(t, d2, "probe", 2), 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().Hits != hits {
		t.Fatal("a codec-1 record was served as a hit")
	}
	if bs := b2.BatchStats(); bs.Measured != 1 {
		t.Fatalf("codec-1 record not recomputed: %+v", bs)
	}
	sameMeasurement(t, "recomputed", got, want)
}

var fuzzMeasKey = batchMemoKey{load: 0x9e3779b97f4a7c15, spec: 0xfeedface, em: 0xc0ffee, powered: 2,
	clock: 1.2e9, supply: 0.9, dt: 0.25e-9, n: 8192, samples: 30, bandLo: 50e6, bandHi: 200e6}

const fuzzMeasAnalyzer uint64 = 0x5eed

// TestDecodeMeasRejectsV1Layout: a codec-1 payload (the identity words,
// peak dBm and dominant Hz) is one word short of the current layout and
// must not decode, even under its own key.
func TestDecodeMeasRejectsV1Layout(t *testing.T) {
	cur := encodeMeas(fuzzMeasKey, fuzzMeasAnalyzer, instrument.Measurement{PeakDBm: -40, PeakHz: 70e6, StdevDBm: 0.5})
	if _, ok := decodeMeas(cur, fuzzMeasKey, fuzzMeasAnalyzer); !ok {
		t.Fatal("current layout rejected")
	}
	if _, ok := decodeMeas(cur[:len(cur)-8], fuzzMeasKey, fuzzMeasAnalyzer); ok {
		t.Fatal("codec-1 layout decoded as a current record")
	}
}

// FuzzDecodeMeas: decoding arbitrary bytes never panics, accepts a payload
// only when it echoes every identity field of the key, and an encoded
// measurement decodes back bit for bit.
func FuzzDecodeMeas(f *testing.F) {
	key, ana := fuzzMeasKey, fuzzMeasAnalyzer
	good := encodeMeas(key, ana, instrument.Measurement{PeakDBm: -41.25, PeakHz: 68.5e6, StdevDBm: 0.375})
	f.Add(good, -41.25, 68.5e6, 0.375)
	f.Add(good[:len(good)-8], 0.0, 0.0, 0.0) // codec-1 layout
	f.Add(append(append([]byte(nil), good...), 0), math.NaN(), math.Inf(1), math.Copysign(0, -1))
	f.Add([]byte{}, 1.0, 2.0, 3.0)
	f.Fuzz(func(t *testing.T, payload []byte, dbm, hz, sd float64) {
		if m, ok := decodeMeas(payload, key, ana); ok {
			// Accepted: the payload must be exactly the key's identity
			// followed by the three values it decoded to.
			if m.Samples != key.samples {
				t.Fatalf("samples %d, key holds %d", m.Samples, key.samples)
			}
			if re := encodeMeas(key, ana, m); !bytes.Equal(re, payload) {
				t.Fatalf("accepted a payload that is not the key's encoding:\n% x\n% x", payload, re)
			}
		}

		want := instrument.Measurement{PeakDBm: dbm, PeakHz: hz, Samples: key.samples, StdevDBm: sd}
		enc := encodeMeas(key, ana, want)
		got, ok := decodeMeas(enc, key, ana)
		if !ok {
			t.Fatal("round trip rejected")
		}
		if math.Float64bits(got.PeakDBm) != math.Float64bits(dbm) ||
			math.Float64bits(got.PeakHz) != math.Float64bits(hz) ||
			math.Float64bits(got.StdevDBm) != math.Float64bits(sd) || got.Samples != key.samples {
			t.Fatalf("round trip %+v, want %+v", got, want)
		}
		other := key
		other.supply = math.Nextafter(key.supply, 2)
		if _, ok := decodeMeas(enc, other, ana); ok {
			t.Fatal("payload accepted under a key with another supply")
		}
		if _, ok := decodeMeas(enc, key, ana+1); ok {
			t.Fatal("payload accepted under another analyzer")
		}
	})
}
