package circuit

// The named accessors and one-shot AC helpers below serve the tests only:
// production code reads a DC operating point through RunTransient and an
// AC sweep through ACSolver probes.

// Voltage returns the DC voltage of the named node.
func (op *OP) Voltage(node string) (float64, error) {
	idx, err := op.circuit.nodeIndex(node)
	if err != nil || idx < 0 {
		return 0, err // ground reads 0
	}
	return op.x[idx], nil
}

// Current returns the DC branch current of the named inductor or voltage
// source.
func (op *OP) Current(name string) (float64, error) {
	idx, err := op.circuit.branchIndex(name)
	if err != nil {
		return 0, err
	}
	return op.x[idx], nil
}

// solveAC solves the phasor system at frequency f: a one-frequency
// ACSolver.
func solveAC(c *Circuit, f float64, stim ACStimulus) (*ACResult, error) {
	s, err := c.NewACSolver(stim)
	if err != nil {
		return nil, err
	}
	return s.Solve(f)
}

// acVoltage returns the named node's phasor at f under stim.
func acVoltage(c *Circuit, f float64, stim ACStimulus, node string) (complex128, error) {
	s, err := c.NewACSolver(stim)
	if err != nil {
		return 0, err
	}
	p, err := s.VoltageProbe(node)
	if err != nil {
		return 0, err
	}
	res, err := s.Solve(f)
	if err != nil {
		return 0, err
	}
	return res.At(p), nil
}

// impedance returns the driving-point impedance seen from node to ground
// at f through a unit AC current drawn by the named current source: the
// source pulls current out of the node, so Z = -V/I with I = 1.
func impedance(c *Circuit, f float64, isrc, node string) (complex128, error) {
	v, err := acVoltage(c, f, ACStimulus{isrc: 1}, node)
	return -v, err
}
