package circuit

import (
	"fmt"
	"io"
)

// WriteSpice emits the netlist in SPICE format so a PDN model built here
// can be cross-checked in ngspice/HSPICE (the paper validates its Figure 1
// model with HSPICE). Time-varying current sources are emitted as DC
// sources at their t=0 value with a comment, since arbitrary Go waveforms
// have no SPICE equivalent.
func (c *Circuit) WriteSpice(w io.Writer, title string) error {
	if title == "" {
		title = "netlist"
	}
	pr := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format+"\n", args...)
		return err
	}
	if err := pr("* %s", title); err != nil {
		return err
	}
	node := func(idx int) string {
		if idx < 0 {
			return "0"
		}
		return c.nodeName[idx]
	}
	for _, r := range c.rs {
		if err := pr("R%s %s %s %g", r.name, node(r.a), node(r.b), r.ohms); err != nil {
			return err
		}
	}
	for _, cp := range c.cs {
		if err := pr("C%s %s %s %g", cp.name, node(cp.a), node(cp.b), cp.farads); err != nil {
			return err
		}
	}
	for _, l := range c.ls {
		if err := pr("L%s %s %s %g", l.name, node(l.a), node(l.b), l.henrys); err != nil {
			return err
		}
	}
	for _, v := range c.vs {
		if err := pr("V%s %s %s DC %g", v.name, node(v.a), node(v.b), v.volts); err != nil {
			return err
		}
	}
	for _, s := range c.is {
		if err := pr("* I%s carries a program-defined waveform; emitted at its t=0 value", s.name); err != nil {
			return err
		}
		if err := pr("I%s %s %s DC %g", s.name, node(s.a), node(s.b), s.wave(0)); err != nil {
			return err
		}
	}
	return pr(".end")
}
