// Package session records characterization results as versioned JSON
// documents — the artifact a margining campaign actually ships: which
// board, which domain, how many cores powered, what the resonance was,
// which virus was evolved (as assembly, re-runnable anywhere), and the
// V_MIN table it produced.
package session

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/isa"
	"repro/internal/platform"
	"repro/internal/vmin"
)

// Version is the current report schema version.
const Version = 1

// Report is one characterization session.
type Report struct {
	Version   int    `json:"version"`
	CreatedAt string `json:"created_at"` // RFC 3339
	Platform  string `json:"platform"`
	Domain    string `json:"domain"`

	// PoweredCores is the domain's live setting at capture time; the
	// platform and domain determine the clock and supply.
	PoweredCores int `json:"powered_cores"`

	Resonance *ResonanceRecord `json:"resonance,omitempty"`
	Virus     *VirusRecord     `json:"virus,omitempty"`
	Vmin      []VminRecord     `json:"vmin,omitempty"`
	Notes     string           `json:"notes,omitempty"`
}

// ResonanceRecord stores a fast-sweep outcome.
type ResonanceRecord struct {
	Method      string       `json:"method"` // "em-fast-sweep", "scl", "ga"
	ResonanceHz float64      `json:"resonance_hz"`
	PeakDBm     float64      `json:"peak_dbm"`
	Points      []SweepPoint `json:"points,omitempty"`
}

// SweepPoint is one sweep sample.
type SweepPoint struct {
	ClockHz float64 `json:"clock_hz"`
	LoopHz  float64 `json:"loop_hz"`
	PeakDBm float64 `json:"peak_dbm"`
}

// VirusRecord stores an evolved stress test: the program itself travels as
// assembly text so any tool (or the lab daemon) can re-run it.
type VirusRecord struct {
	Program     string             `json:"program"`
	FitnessDBm  float64            `json:"fitness_dbm"`
	DominantHz  float64            `json:"dominant_hz"`
	Generations int                `json:"generations"`
	Mix         map[string]float64 `json:"mix,omitempty"`
}

// VminRecord is one row of a V_MIN campaign.
type VminRecord struct {
	Workload string  `json:"workload"`
	VminV    float64 `json:"vmin_v"`
	MarginV  float64 `json:"margin_v"`
	DroopV   float64 `json:"droop_v"`
	Outcome  string  `json:"outcome"`
}

// New starts a report for a domain's current state as observed through a
// backend — local bench or remote lab alike, and with identical bytes:
// the identity and powered-core fields all round-trip the wire
// losslessly.
func New(be backend.Backend, domain string, now time.Time) (*Report, error) {
	st, err := be.State(domain)
	if err != nil {
		return nil, err
	}
	return &Report{
		Version:      Version,
		CreatedAt:    now.UTC().Format(time.RFC3339),
		Platform:     be.PlatformName(),
		Domain:       domain,
		PoweredCores: st.PoweredCores,
	}, nil
}

// NewLocal starts a report directly from an in-process platform/domain
// pair; it is New over a Local backend without needing one constructed.
func NewLocal(p *platform.Platform, d *platform.Domain, now time.Time) *Report {
	return &Report{
		Version:      Version,
		CreatedAt:    now.UTC().Format(time.RFC3339),
		Platform:     p.Name,
		Domain:       d.Spec.Name,
		PoweredCores: d.PoweredCores(),
	}
}

// SetSweep records a fast-sweep result.
func (r *Report) SetSweep(res *core.SweepResult) {
	rec := &ResonanceRecord{
		Method:      "em-fast-sweep",
		ResonanceHz: res.ResonanceHz,
		PeakDBm:     res.PeakDBm,
	}
	for _, pt := range res.Points {
		rec.Points = append(rec.Points, SweepPoint{
			ClockHz: pt.ClockHz, LoopHz: pt.LoopHz, PeakDBm: pt.PeakDBm,
		})
	}
	r.Resonance = rec
}

// SetVirus records a GA result, serializing the winning loop as assembly.
func (r *Report) SetVirus(pool *isa.Pool, res *ga.Result) {
	mix := make(map[string]float64)
	for class, frac := range isa.MixBreakdown(res.Best.Seq) {
		mix[class.String()] = frac
	}
	r.Virus = &VirusRecord{
		Program:     isa.FormatProgram(pool, res.Best.Seq),
		FitnessDBm:  res.Best.Fitness,
		DominantHz:  res.Best.DominantHz,
		Generations: len(res.History),
		Mix:         mix,
	}
}

// AddVmin appends one V_MIN campaign row.
func (r *Report) AddVmin(workload string, res *vmin.Result) {
	r.Vmin = append(r.Vmin, VminRecord{
		Workload: workload,
		VminV:    res.VminV,
		MarginV:  res.MarginV,
		DroopV:   res.DroopNominalV,
		Outcome:  res.Outcome.String(),
	})
}

// Save writes the report as indented JSON.
func (r *Report) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("session: encoding report: %w", err)
	}
	return nil
}

// Load parses a report and checks its schema version. Fields the schema
// no longer carries are ignored, so reports that still record clock_hz
// and supply_v load.
func Load(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("session: decoding report: %w", err)
	}
	if r.Version != Version {
		return nil, fmt.Errorf("session: unsupported report version %d (want %d)", r.Version, Version)
	}
	if r.Platform == "" || r.Domain == "" {
		return nil, fmt.Errorf("session: report missing platform/domain identity")
	}
	return &r, nil
}
