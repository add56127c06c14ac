package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke tests hold the
// driver to: the metric names each kind of run must report.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// shortRun runs one workload for one nominal second and returns its result
// and printed output.
func shortRun(t *testing.T, name string, traced bool) (result, string) {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	var out, errOut bytes.Buffer
	res, err := runWorkload(w, runConfig{seed: 3, seconds: 1, scratch: t.TempDir()}, traced, &out, &errOut)
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, errOut.String())
	}
	if !res.correct || res.failed != 0 || res.attempted < 1 {
		t.Fatalf("%s: correct=%v, %d of %d ops failed\n%s", name, res.correct, res.failed, res.attempted, errOut.String())
	}
	return res, out.String()
}

// requireMetrics checks that res reports exactly the named metrics with
// their units, and that the printed table shows each with a sample count.
func requireMetrics(t *testing.T, res result, out string, want []struct{ Name, Unit string }) {
	t.Helper()
	got := map[string]string{}
	for _, m := range res.metrics {
		got[m.name] = m.unit
	}
	for _, w := range want {
		unit, ok := got[w.Name]
		if !ok {
			t.Errorf("metric %s missing", w.Name)
			continue
		}
		if unit != w.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", w.Name, unit, w.Unit)
		}
		if !regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(w.Name) + `\s+\S+\s+\S+\s+n=\d+$`).MatchString(out) {
			t.Errorf("metric %s not printed with unit and sample count", w.Name)
		}
		delete(got, w.Name)
	}
	for name := range got {
		t.Errorf("metric %s is not in BENCHMARK.json", name)
	}
}

func TestEveryWorkloadReportsEndToEndMetrics(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the driver %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, out := shortRun(t, w.Name, false)
			requireMetrics(t, res, out, spec.EndToEnd)
			for _, m := range res.metrics {
				if !(m.value > 0) {
					t.Errorf("%s = %v, want > 0", m.name, m.value)
				}
			}
			if !strings.Contains(out, "fail_ratio") || !strings.Contains(out, `"gomaxprocs"`) {
				t.Errorf("output lacks fail_ratio or the host line:\n%s", out)
			}
		})
	}
}

func TestTracedRunReportsEveryLayer(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, out := shortRun(t, w.Name, true)
			requireMetrics(t, res, out, spec.PerLayer)
			if w.Name != "ga-search" {
				return
			}
			// The replayed stages must account for the pipeline they
			// were cut from.
			var shares float64
			for _, m := range res.metrics {
				if strings.HasSuffix(m.name, ".share") {
					shares += m.value
				}
			}
			if shares < 0.9 || shares > 1.1 {
				t.Errorf("ga-search stage shares sum to %.3f, want 0.9..1.1", shares)
			}
		})
	}
}

// TestLocalAndRemoteDigestsAgree is the local/remote bit-identity contract
// seen from outside: both workloads print one digest of every generation.
func TestLocalAndRemoteDigestsAgree(t *testing.T) {
	digests := map[string]string{}
	for _, name := range []string{"ga-search", "remote-lab"} {
		_, out := shortRun(t, name, false)
		m := regexp.MustCompile(`(?m)^digest ` + name + ` ([0-9a-f]{16})$`).FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("%s printed no digest:\n%s", name, out)
		}
		digests[name] = m[1]
	}
	if digests["ga-search"] != digests["remote-lab"] {
		t.Fatalf("digests differ: %v", digests)
	}
}

func TestResultLineIsTheContractObject(t *testing.T) {
	line, err := result{correct: true, attempted: 3, metrics: []metric{{"op_ms_p50", "ms", 1.5, 3}}}.json()
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(line, &obj); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
		t.Fatalf("result keys %v", keys)
	}
	if !strings.Contains(string(obj["metrics"]), `"op_ms_p50":{"value":1.5,"unit":"ms"}`) {
		t.Fatalf("metrics %s", obj["metrics"])
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "ga-search", "--seconds", "0"},
		{"--workload", "ga-search", "--trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

func TestWorkListIsAPureFunctionOfTheSeed(t *testing.T) {
	cfg := runConfig{seed: 9, seconds: 2}
	a, err := openOpCampaign(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := openOpCampaign(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	oa, ob := a.(*opCampaign), b.(*opCampaign)
	if len(oa.order) != a.ops() || !reflect.DeepEqual(oa.order, ob.order) {
		t.Fatalf("op orders differ: %v vs %v", oa.order, ob.order)
	}
	if cols := shmooColumns([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}); !reflect.DeepEqual(cols, []float64{1, 4, 7}) {
		t.Fatalf("shmoo columns %v", cols)
	}
}
