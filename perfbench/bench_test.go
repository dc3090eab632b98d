package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// tinyOptions runs a workload at the self-test scale.
func tinyOptions(t *testing.T, name string, traced bool) options {
	return options{
		workload: name,
		seed:     3,
		duration: 400 * time.Millisecond,
		traced:   traced,
		traceOut: filepath.Join(t.TempDir(), "spans.json"),
		scale:    tinyScale,
	}
}

// resultLine is the final line of a run's standard output.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// emitted runs opt and parses what emit prints.
func emitted(t *testing.T, opt options) (*outcome, resultLine) {
	t.Helper()
	res, err := execute(context.Background(), opt)
	if err != nil {
		t.Fatalf("%s: %v", opt.workload, err)
	}
	var buf bytes.Buffer
	if err := emit(&buf, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%s: want a report line and a result line, got %q", opt.workload, buf.String())
	}
	var report map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &report); err != nil {
		t.Fatalf("%s: report line: %v", opt.workload, err)
	}
	for _, key := range []string{"env", "seed", "ops"} {
		if _, ok := report[key]; !ok {
			t.Errorf("%s: report lacks %q", opt.workload, key)
		}
	}
	dec := json.NewDecoder(strings.NewReader(lines[1]))
	dec.DisallowUnknownFields()
	var line resultLine
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("%s: result line: %v", opt.workload, err)
	}
	return res, line
}

// assertMetrics checks the result carries exactly the catalog, each
// metric with a value and the catalog's unit.
func assertMetrics(t *testing.T, name string, line resultLine, catalog []metricDef) {
	t.Helper()
	if len(line.Metrics) != len(catalog) {
		t.Errorf("%s: %d metrics, catalog has %d", name, len(line.Metrics), len(catalog))
	}
	for _, d := range catalog {
		m, ok := line.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s: missing metric %s", name, d.name)
		case m.Value == nil:
			t.Errorf("%s: metric %s has no value", name, d.name)
		case m.Unit != d.unit:
			t.Errorf("%s: metric %s has unit %q, want %q", name, d.name, m.Unit, d.unit)
		}
	}
}

func TestEveryWorkloadEmitsEveryEndToEndMetric(t *testing.T) {
	for _, name := range workloadNames() {
		_, line := emitted(t, tinyOptions(t, name, false))
		if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", name, line.Correct, line.Attempted, line.Failed)
		}
		assertMetrics(t, name, line, endToEnd)
		for _, d := range endToEnd {
			if v := *line.Metrics[d.name].Value; v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, v)
			}
		}
	}
}

func TestTracedRunEmitsEveryPerLayerMetric(t *testing.T) {
	for _, name := range workloadNames() {
		opt := tinyOptions(t, name, true)
		res, line := emitted(t, opt)
		if !line.Correct || line.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d", name, line.Correct, line.Failed)
		}
		assertMetrics(t, name, line, perLayer)

		n := res.metrics["kernel.probe_n"]
		if want := (n - 1) * n * (n + 1) / 6; n < 2 || res.metrics["kernel.candidates"] != want {
			t.Errorf("%s: kernel.candidates = %v at n=%v, want (n-1)n(n+1)/6 = %v",
				name, res.metrics["kernel.candidates"], n, want)
		}
		if res.metrics["engine.t1_ms"] <= 0 || res.metrics["trace.spans"] < 1 {
			t.Errorf("%s: engine.t1_ms = %v, trace.spans = %v", name, res.metrics["engine.t1_ms"], res.metrics["trace.spans"])
		}
		blob, err := os.ReadFile(opt.traceOut)
		if err != nil {
			t.Fatalf("%s: span dump: %v", name, err)
		}
		var spans []span
		if err := json.Unmarshal(blob, &spans); err != nil || float64(len(spans)) != res.metrics["trace.spans"] {
			t.Errorf("%s: span dump holds %d spans (err %v), metric says %v", name, len(spans), err, res.metrics["trace.spans"])
		}
	}
}

func TestMidsizeRoutesNonConvexKindsToBanded(t *testing.T) {
	res, _ := emitted(t, tinyOptions(t, "serve-midsize-miss", true))
	reqs := midList(tinyScale, 3)
	// The traced half sends the list from its head; every kind but obst
	// is not declared convex.
	sent := int(res.metrics["root.route.hlv-banded"] + res.metrics["root.route.blocked-ky"])
	nonConvex := 0
	for _, r := range reqs[:sent] {
		if r.wire.Kind != "obst" {
			nonConvex++
		}
	}
	if sent == 0 || int(res.metrics["root.route.hlv-banded"]) != nonConvex {
		t.Errorf("root.route.hlv-banded = %v of %d sent, want %d", res.metrics["root.route.hlv-banded"], sent, nonConvex)
	}
}

// flipDigest corrupts the first table digest character in a response
// body, or the first character of a bare digest.
func flipDigest(b []byte) []byte {
	b = append([]byte(nil), b...)
	i := bytes.Index(b, []byte(`"table_digest":"`))
	if i < 0 {
		i = 0
	} else {
		i += len(`"table_digest":"`)
	}
	if b[i] == '0' {
		b[i] = '1'
	} else {
		b[i] = '0'
	}
	return b
}

func TestCorruptedDigestIsAFailure(t *testing.T) {
	for _, name := range workloadNames() {
		opt := tinyOptions(t, name, false)
		opt.corrupt = func(op int, body []byte) []byte {
			if op == 0 {
				return flipDigest(body)
			}
			return body
		}
		res, line := emitted(t, opt)
		if line.Correct || res.wrong != 1 || line.Failed != 1 {
			t.Errorf("%s: corrupted op 0 gave correct=%v wrong=%d failed=%d, want false 1 1",
				name, line.Correct, res.wrong, line.Failed)
		}
		if v := *line.Metrics["correct_share"].Value; v >= 1 {
			t.Errorf("%s: correct_share = %v with a wrong answer", name, v)
		}
	}
}

func TestCommandLine(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(context.Background(), []string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
	if code := run(context.Background(), []string{"--workload", "solve-large", "--trace", "2"}, &out, &errOut); code == 0 {
		t.Errorf("--trace 2: exit %d", code)
	}
}

// TestBenchmarkJSONMatchesCatalog pins BENCHMARK.json (at the module
// root, one directory up) to the workloads and metric catalogs here.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if def, ok := workloads[w.Name]; !ok || def.why != w.Why {
			t.Errorf("workload %s: why %q, program says %q", w.Name, w.Why, def.why)
		}
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	check := func(kind string, got []metric, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, catalog has %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d] = %s/%s, catalog %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
			if (got[i].Bound != nil) != bounded || (bounded && (*got[i].Bound <= 0 || *got[i].Bound > 0.25)) {
				t.Errorf("%s %s: bound %v", kind, got[i].Name, got[i].Bound)
			}
		}
	}
	toMetrics := func(defs []metricDef) []metric {
		ms := make([]metric, len(defs))
		for i, d := range defs {
			ms[i] = metric{Name: d.name, Unit: d.unit}
		}
		return ms
	}
	check("end_to_end", spec.EndToEnd, toMetrics(endToEnd), true)
	check("per_layer", spec.PerLayer, toMetrics(perLayer), false)
	if len(spec.Paths) != 1 || spec.Paths[0] != "perfbench" || spec.RunSeconds < 1 {
		t.Errorf("paths %v run_seconds %d", spec.Paths, spec.RunSeconds)
	}
}
