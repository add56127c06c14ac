package platform

// Validation tests for the versioned spec decoder: every rejectable defect
// class gets a table entry proving it is an error (not a silent zero) and
// that the error names the offending field or section.

import (
	"strings"
	"testing"
)

// v2Valid is a minimal correct v2 platform spec; the defect cases below
// are single-token mutations of it, so each test isolates one defect.
const v2Valid = `{
  "spec_version": 2,
  "name": "testboard",
  "antenna": {"self_resonance_hz": 2.95e9, "q": 8, "feed_ohms": 30, "system_ohms": 50},
  "domains": [
    {
      "name": "dom0",
      "board": "test board",
      "isa": "arm64",
      "pdn": {"name": "rail0", "v_nominal": 1.0, "c_die_core": 1e-8, "c_die_uncore": 1e-8, "r_die": 0.01, "l_pkg": 1e-10, "r_pkg_trace": 4e-4, "c_pkg": 1e-6, "esr_pkg": 0.015, "esl_pkg": 5e-11, "l_pcb": 2e-9, "r_pcb_trace": 0.001, "c_pcb": 3e-4, "esr_pcb": 0.002, "esl_pcb": 1e-9, "l_vrm": 2e-8, "r_vrm": 5e-4},
      "core": {"name": "core0", "out_of_order": false, "issue_width": 2, "window_size": 8, "units": {"alu": 2, "muldiv": 1, "fp": 1, "simd": 1, "ls": 1, "branch": 1}, "charge_scale": 0.5, "base_charge": 5e-11, "idle_slot_charge": 6e-12, "current_slew_tau": 1.5e-9},
      "total_cores": 2,
      "max_clock_hz": 1e9,
      "clock_step_hz": 2.5e7,
      "voltage_visibility": "none",
      "em_path": {"distance_m": 0.07, "coupling_k": 1e-5, "ref_hz": 1e8, "ref_distance_m": 0.07},
      "failure": {"v_crit_at_max": 0.7, "slack_per_hz": 1e-10, "sdc_band": 0.01},
      "tech_node_nm": 16,
      "os": "test"
    }
  ]
}`

// mutate replaces one unique token of the valid spec, failing the test if
// the token is absent (which would silently test nothing).
func mutate(t *testing.T, old, new string) string {
	t.Helper()
	if !strings.Contains(v2Valid, old) {
		t.Fatalf("mutation token %q not in template", old)
	}
	return strings.Replace(v2Valid, old, new, 1)
}

func TestParsePlatformSpecValid(t *testing.T) {
	f, err := ParsePlatformSpec([]byte(v2Valid))
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if f.Name != "testboard" || len(f.Specs) != 1 {
		t.Fatalf("parsed %q with %d domains", f.Name, len(f.Specs))
	}
	if _, err := f.Build(); err != nil {
		t.Fatalf("valid spec does not build: %v", err)
	}
}

func TestParsePlatformSpecDefects(t *testing.T) {
	dupDomain := strings.Replace(v2Valid, `"domains": [
    {`, `"domains": [
    {
      "name": "dom0",
      "board": "test board",
      "isa": "arm64",
      "pdn": {"name": "rail0", "v_nominal": 1.0, "c_die_core": 1e-8, "c_die_uncore": 1e-8, "r_die": 0.01, "l_pkg": 1e-10, "r_pkg_trace": 4e-4, "c_pkg": 1e-6, "esr_pkg": 0.015, "esl_pkg": 5e-11, "l_pcb": 2e-9, "r_pcb_trace": 0.001, "c_pcb": 3e-4, "esr_pcb": 0.002, "esl_pcb": 1e-9, "l_vrm": 2e-8, "r_vrm": 5e-4},
      "core": {"name": "core0", "out_of_order": false, "issue_width": 2, "window_size": 8, "units": {"alu": 2, "muldiv": 1, "fp": 1, "simd": 1, "ls": 1, "branch": 1}, "charge_scale": 0.5, "base_charge": 5e-11, "idle_slot_charge": 6e-12, "current_slew_tau": 1.5e-9},
      "total_cores": 2,
      "max_clock_hz": 1e9,
      "clock_step_hz": 2.5e7,
      "voltage_visibility": "none",
      "em_path": {"distance_m": 0.07, "coupling_k": 1e-5, "ref_hz": 1e8, "ref_distance_m": 0.07},
      "failure": {"v_crit_at_max": 0.7, "slack_per_hz": 1e-10, "sdc_band": 0.01},
      "tech_node_nm": 16,
      "os": "test"
    },
    {`, 1)

	cases := []struct {
		name    string
		src     string
		wantSub string // must appear in the error
	}{
		{"unknown top-level field", mutate(t, `"name": "testboard"`, `"name": "testboard", "colour": "red"`), "colour"},
		{"misspelled domain field", mutate(t, `"total_cores"`, `"total_coers"`), "total_coers"},
		{"bad isa name", mutate(t, `"isa": "arm64"`, `"isa": "mips"`), "mips"},
		{"unit name typo", mutate(t, `"simd": 1,`, `"sind": 1,`), "sind"},
		{"missing unit", mutate(t, `"alu": 2, `, ``), "alu"},
		{"zero issue width", mutate(t, `"issue_width": 2`, `"issue_width": 0`), "issue width"},
		{"negative pdn value", mutate(t, `"c_die_core": 1e-8`, `"c_die_core": -1e-8`), "CDieCore"},
		{"zero clock step", mutate(t, `"clock_step_hz": 2.5e7`, `"clock_step_hz": 0`), "clocking"},
		{"zero cores", mutate(t, `"total_cores": 2`, `"total_cores": 0`), "cores"},
		{"bad antenna", mutate(t, `"q": 8`, `"q": 0`), "antenna"},
		{"empty platform name", mutate(t, `"name": "testboard"`, `"name": ""`), "name"},
		{"unsupported version", mutate(t, `"spec_version": 2`, `"spec_version": 3`), "spec_version 3"},
		{"duplicate domain", dupDomain, "duplicate domain"},
		{"missing pdn", mutate(t, `"pdn": {"name": "rail0",`, `"unused_pdn": {"name": "rail0",`), "pdn"},
		{"dangling pdn_ref", mutate(t, `"isa": "arm64",`, `"isa": "arm64", "pdn_ref": "nope",`), "pdn"},
		{"negative instruction charge",
			mutate(t, `"name": "testboard",`,
				`"name": "testboard", "archs": {"toyisa": {"int_regs": 8, "vec_regs": 8, "mem_slots": 4, "instructions": [{"mnemonic": "add", "class": "int-short", "unit": "alu", "latency": 1, "charge": -1e-10, "nsrc": 2}]}},`),
			"add"},
		{"bad regfile in arch",
			mutate(t, `"name": "testboard",`,
				`"name": "testboard", "archs": {"toyisa": {"int_regs": 8, "vec_regs": 8, "mem_slots": 4, "instructions": [{"mnemonic": "add", "class": "int-short", "unit": "alu", "latency": 1, "charge": 1e-10, "regfile": "float80", "nsrc": 2}]}},`),
			"float80"},
		{"invalid arch name",
			mutate(t, `"name": "testboard",`,
				`"name": "testboard", "archs": {"Toy ISA": {"int_regs": 8, "vec_regs": 8, "mem_slots": 4, "instructions": []}},`),
			"Toy ISA"},
		{"trailing garbage", v2Valid + "{}", "after top-level value"},
		{"not json", "{nope", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParsePlatformSpec([]byte(tc.src))
			if err == nil {
				t.Fatalf("defect accepted")
			}
			if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not name %q", err, tc.wantSub)
			}
		})
	}
}

// TestParsePlatformSpecBothPDNForms: pdn and pdn_ref together is
// ambiguous and rejected even when both resolve.
func TestParsePlatformSpecBothPDNForms(t *testing.T) {
	src := mutate(t, `"isa": "arm64",`, `"isa": "arm64", "pdn_ref": "shared",`)
	src = strings.Replace(src, `"name": "testboard",`,
		`"name": "testboard", "pdns": {"shared": {"name": "shared", "v_nominal": 1.0, "c_die_core": 1e-8, "c_die_uncore": 1e-8, "r_die": 0.01, "l_pkg": 1e-10, "r_pkg_trace": 4e-4, "c_pkg": 1e-6, "esr_pkg": 0.015, "esl_pkg": 5e-11, "l_pcb": 2e-9, "r_pcb_trace": 0.001, "c_pcb": 3e-4, "esr_pcb": 0.002, "esl_pcb": 1e-9, "l_vrm": 2e-8, "r_vrm": 5e-4}},`, 1)
	_, err := ParsePlatformSpec([]byte(src))
	if err == nil {
		t.Fatal("pdn+pdn_ref accepted")
	}
	if !strings.Contains(err.Error(), "pick one") {
		t.Errorf("error %q does not explain the conflict", err)
	}
}

// TestLoadSpecJSONUnknownField: the v1 decoder names a misspelled key
// instead of silently zeroing the field it was meant to set.
func TestLoadSpecJSONUnknownField(t *testing.T) {
	var buf strings.Builder
	p, err := Build("amd-desktop")
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveSpecJSON(&buf, p.Domains()[0].Spec); err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(buf.String(), `"max_clock_hz"`, `"max_clock_mhz"`, 1)
	_, err = loadSpecV1([]byte(bad))
	if err == nil {
		t.Fatal("misspelled field accepted")
	}
	if !strings.Contains(err.Error(), "max_clock_mhz") {
		t.Errorf("error %q does not name the offending key", err)
	}
}

// FuzzParsePlatformSpec: the strict decoder must never panic and must
// never hand back a platform that fails to build — whatever the input.
func FuzzParsePlatformSpec(f *testing.F) {
	f.Add([]byte(v2Valid))
	f.Add([]byte(`{"spec_version": 2}`))
	f.Add([]byte(`{"name": "x", "isa": "arm64"}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Add([]byte(`{"spec_version": 9e99}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParsePlatformSpec(data)
		if err != nil {
			return
		}
		if _, err := spec.Build(); err != nil {
			t.Fatalf("parsed spec does not build: %v", err)
		}
	})
}
