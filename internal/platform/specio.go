package platform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/em"
	"repro/internal/isa"
	"repro/internal/pdn"
	"repro/internal/uarch"
)

// JSON persistence for domain specs, so custom platforms can be described
// in a file and handed to the CLI tools instead of being compiled in.
// The wire format names architectures and functional units symbolically.
//
// Two schema versions exist. A v1 file (no "spec_version" key) is one
// domain spec — today's format, kept readable forever. A v2 file groups a
// whole platform: antenna, optional data-defined architectures, optional
// named PDNs shared by several domains, and the domain list (see
// specv2.go). Decoding is strict at every version: unknown or misspelled
// fields, unknown ISA/unit names and out-of-range electrical values are
// errors carrying a field path, never silent zeroes.

type specJSON struct {
	Name              string      `json:"name"`
	Board             string      `json:"board"`
	ISA               string      `json:"isa"`
	PDN               jsonPDN     `json:"pdn"`
	Core              coreJSON    `json:"core"`
	TotalCores        int         `json:"total_cores"`
	MaxClockHz        float64     `json:"max_clock_hz"`
	ClockStepHz       float64     `json:"clock_step_hz"`
	VoltageVisibility string      `json:"voltage_visibility"`
	EMPath            jsonEMPath  `json:"em_path"`
	Failure           jsonFailure `json:"failure"`
	TechNode          int         `json:"tech_node_nm"`
	OS                string      `json:"os"`
}

// The electrical structs already have exported SI-unit fields and marshal
// directly.
type (
	jsonPDN     = pdn.Params
	jsonEMPath  = em.Path
	jsonFailure = FailureParams
)

type coreJSON struct {
	Name           string         `json:"name"`
	OutOfOrder     bool           `json:"out_of_order"`
	IssueWidth     int            `json:"issue_width"`
	WindowSize     int            `json:"window_size"`
	Units          map[string]int `json:"units"`
	ChargeScale    float64        `json:"charge_scale"`
	BaseCharge     float64        `json:"base_charge"`
	IdleSlotCharge float64        `json:"idle_slot_charge"`
	CurrentSlewTau float64        `json:"current_slew_tau"`
}

// decodeStrict unmarshals data into v, rejecting unknown fields and
// trailing garbage; errors are prefixed with the field path so a typo in
// a nested section is reported as "domains[1].core: ..." rather than as
// an anonymous decoding failure.
func decodeStrict(data []byte, v any, path string) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("platform: %s: %w", path, err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return fmt.Errorf("platform: %s: trailing data after JSON value", path)
	}
	return nil
}

// coreToJSON converts a core config to its wire form (units by name).
func coreToJSON(c uarch.Config) coreJSON {
	units := make(map[string]int, isa.NumUnits)
	for u, n := range c.Units {
		units[isa.Unit(u).String()] = n
	}
	return coreJSON{
		Name:           c.Name,
		OutOfOrder:     c.OutOfOrder,
		IssueWidth:     c.IssueWidth,
		WindowSize:     c.WindowSize,
		Units:          units,
		ChargeScale:    c.ChargeScale,
		BaseCharge:     c.BaseCharge,
		IdleSlotCharge: c.IdleSlotCharge,
		CurrentSlewTau: c.CurrentSlewTau,
	}
}

// coreFromJSON converts the wire form back, rejecting unit-name typos
// with the offending key in the error.
func coreFromJSON(in coreJSON, path string) (uarch.Config, error) {
	var units [isa.NumUnits]int
	// Deterministic iteration so a file with two bad unit names always
	// reports the same one.
	names := make([]string, 0, len(in.Units))
	for name := range in.Units {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		u, err := isa.ParseUnit(name)
		if err != nil {
			return uarch.Config{}, fmt.Errorf("platform: %s.units: %w", path, err)
		}
		units[u] = in.Units[name]
	}
	return uarch.Config{
		Name:           in.Name,
		OutOfOrder:     in.OutOfOrder,
		IssueWidth:     in.IssueWidth,
		WindowSize:     in.WindowSize,
		Units:          units,
		ChargeScale:    in.ChargeScale,
		BaseCharge:     in.BaseCharge,
		IdleSlotCharge: in.IdleSlotCharge,
		CurrentSlewTau: in.CurrentSlewTau,
	}, nil
}

// specToJSON converts a domain Spec to its wire form.
func specToJSON(s Spec) specJSON {
	return specJSON{
		Name:              s.Name,
		Board:             s.Board,
		ISA:               s.ISA.String(),
		PDN:               s.PDN,
		Core:              coreToJSON(s.Core),
		TotalCores:        s.TotalCores,
		MaxClockHz:        s.MaxClockHz,
		ClockStepHz:       s.ClockStepHz,
		VoltageVisibility: s.VoltageVisibility,
		EMPath:            s.EMPath,
		Failure:           s.Failure,
		TechNode:          s.TechNode,
		OS:                s.OS,
	}
}

// specFromJSON converts the wire form back and validates it by
// constructing a throwaway domain, so out-of-range electrical values are
// rejected at load time with the domain's field path.
func specFromJSON(in specJSON, path string) (Spec, error) {
	arch, err := isa.ParseArch(in.ISA)
	if err != nil {
		return Spec{}, fmt.Errorf("platform: %s.isa: %w", path, err)
	}
	core, err := coreFromJSON(in.Core, path+".core")
	if err != nil {
		return Spec{}, err
	}
	s := Spec{
		Name:              in.Name,
		Board:             in.Board,
		ISA:               arch,
		PDN:               in.PDN,
		Core:              core,
		TotalCores:        in.TotalCores,
		MaxClockHz:        in.MaxClockHz,
		ClockStepHz:       in.ClockStepHz,
		VoltageVisibility: in.VoltageVisibility,
		EMPath:            in.EMPath,
		Failure:           in.Failure,
		TechNode:          in.TechNode,
		OS:                in.OS,
	}
	if _, err := NewDomain(s); err != nil {
		return Spec{}, fmt.Errorf("platform: %s: invalid spec: %w", path, err)
	}
	return s, nil
}

// SaveSpecJSON writes the spec as indented v1 JSON.
func SaveSpecJSON(w io.Writer, s Spec) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(specToJSON(s)); err != nil {
		return fmt.Errorf("platform: encoding spec: %w", err)
	}
	return nil
}

// loadSpecV1 parses a v1 spec written by SaveSpecJSON (or by hand).
// Unknown or misspelled fields are errors naming the offending key, and
// the spec is validated by constructing a throwaway domain.
func loadSpecV1(data []byte) (Spec, error) {
	var in specJSON
	if err := decodeStrict(data, &in, "spec"); err != nil {
		return Spec{}, err
	}
	return specFromJSON(in, "spec")
}
