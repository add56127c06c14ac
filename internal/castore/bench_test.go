package castore

import "testing"

// BenchmarkStoreGetHit times one warm-start hit: a measurement-sized
// payload (the meas tier's 120-byte record) read back whole from a
// freshly written entry, so no LRU touch is due.
func BenchmarkStoreGetHit(b *testing.B) {
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 120)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := s.Put("meas", 2, 0x9e3779b97f4a7c15, payload); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get("meas", 2, 0x9e3779b97f4a7c15); !ok {
			b.Fatal("miss")
		}
	}
}
