package pdn

import "repro/internal/circuit"

// Netlist returns the quiet analysis netlist, for the external reference
// tests that cross-check their replica of it.
func (m *Model) Netlist() *circuit.Circuit { return m.build(circuit.DC(0)) }
