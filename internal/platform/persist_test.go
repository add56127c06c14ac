package platform

import "testing"

// TestSpecContentHashSeparatesDomains: the measurement memo and the
// persistent `meas` key fold SpecContentHash, so two different boards
// must hash apart while one board built twice hashes the same.
func TestSpecContentHashSeparatesDomains(t *testing.T) {
	dJuno := domain(t, juno(t), DomainA72)
	dAMD := domain(t, amd(t), DomainAthlon)
	if dJuno.SpecContentHash() == dAMD.SpecContentHash() {
		t.Fatal("distinct specs share a content hash")
	}

	// Same board built twice: hashes agree, so separate processes share.
	if got := domain(t, juno(t), DomainA72).SpecContentHash(); got != dJuno.SpecContentHash() {
		t.Fatal("same spec hashes differently across instances")
	}
}
