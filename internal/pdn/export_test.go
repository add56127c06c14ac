package pdn

import "repro/internal/circuit"

// Netlist returns the quiet analysis netlist, for the external reference
// tests that cross-check their replica of it.
func (m *Model) Netlist() *circuit.Circuit { return m.build(circuit.DC(0)) }

// RSeries returns the total DC series resistance of the network as seen by
// the die: at DC the die-voltage transfer is -R_series.
func (ts *TransferSet) RSeries() float64 { return -real(ts.HV[0]) }

// TransfersOn is Transfers on at most workers goroutines.
func (m *Model) TransfersOn(n int, dt float64, workers int) (*TransferSet, error) {
	return m.transfers(n, dt, workers)
}

// Bins returns the per-bin tables SpectraInto reads.
func (ts *TransferSet) Bins() (freqs, absHI []float64) { return ts.freqs, ts.absHI }
