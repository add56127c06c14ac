// Command specgen is the workbench for platform spec files: it lists the
// spec registry, dumps any registered platform as a versioned spec file (a
// template for describing custom hardware), and verifies spec files.
//
//	specgen -list
//	specgen -platform juno > myboard.json        # whole platform, schema v2
//	specgen -platform juno -domain cortex-a72 > mychip.json  # one domain, schema v1
//	# edit the file: PDN values, core model, EM path...
//	specgen -check myboard.json                  # strict parse + round trip
//	specgen -check-builtin                       # verify every embedded spec
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"reflect"

	"repro/internal/platform"
)

func main() {
	var (
		list         = flag.Bool("list", false, "list the spec registry and exit")
		plat         = flag.String("platform", "", "registry platform to dump (name or alias)")
		domName      = flag.String("domain", "", "dump one domain as a single-domain v1 spec instead of the whole platform")
		check        = flag.String("check", "", "verify a spec file: strict parse, build, save/load round trip")
		checkBuiltin = flag.Bool("check-builtin", false, "verify every embedded spec the same way -check does")
	)
	flag.Parse()

	switch {
	case *list:
		reg := platform.Builtin()
		for _, name := range reg.Names() {
			p, err := reg.Build(name)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%-16s", name)
			for i, d := range p.Domains() {
				if i > 0 {
					fmt.Print(",")
				}
				fmt.Printf(" %s (%s, %d cores)", d.Spec.Name, d.Spec.ISA, d.Spec.TotalCores)
			}
			fmt.Println()
		}
	case *check != "":
		src, err := os.ReadFile(*check)
		if err != nil {
			fatal(err)
		}
		if err := verifySpec(src); err != nil {
			fatal(fmt.Errorf("%s: %w", *check, err))
		}
		fmt.Printf("%s: ok\n", *check)
	case *checkBuiltin:
		reg := platform.Builtin()
		for _, name := range reg.Names() {
			src, err := reg.Source(name)
			if err != nil {
				fatal(err)
			}
			if err := verifySpec(src); err != nil {
				fatal(fmt.Errorf("embedded spec %s: %w", name, err))
			}
			fmt.Printf("embedded spec %s: ok\n", name)
		}
	case *plat != "":
		p, err := platform.Build(*plat)
		if err != nil {
			fatal(err)
		}
		if *domName == "" {
			if err := platform.SavePlatformSpecJSON(os.Stdout, p); err != nil {
				fatal(err)
			}
			return
		}
		d, err := p.Domain(*domName)
		if err != nil {
			fatal(err)
		}
		if err := platform.SaveSpecJSON(os.Stdout, d.Spec); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// verifySpec runs the full spec hygiene pass: strict parse, platform
// build, save → re-parse round trip, and stability of every domain's
// persistent-cache identity across the trip.
func verifySpec(src []byte) error {
	f, err := platform.ParsePlatformSpec(src)
	if err != nil {
		return err
	}
	p, err := f.Build()
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	var buf bytes.Buffer
	if err := platform.SavePlatformSpecJSON(&buf, p); err != nil {
		return fmt.Errorf("save: %w", err)
	}
	f2, err := platform.ParsePlatformSpec(buf.Bytes())
	if err != nil {
		return fmt.Errorf("round trip: %w", err)
	}
	if !reflect.DeepEqual(f.Specs, f2.Specs) {
		return fmt.Errorf("round trip: specs not a fixed point of save/load")
	}
	if !reflect.DeepEqual(f.Antenna, f2.Antenna) {
		return fmt.Errorf("round trip: antenna not a fixed point of save/load")
	}
	p2, err := f2.Build()
	if err != nil {
		return fmt.Errorf("round trip build: %w", err)
	}
	d1, d2 := p.Domains(), p2.Domains()
	for i := range d1 {
		h1, h2 := d1[i].SpecContentHash(), d2[i].SpecContentHash()
		if h1 != h2 {
			return fmt.Errorf("domain %s: content hash unstable across round trip (%#x != %#x); persistent cache keys would move", d1[i].Spec.Name, h1, h2)
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "specgen:", err)
	os.Exit(1)
}
