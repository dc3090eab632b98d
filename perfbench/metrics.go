package main

import (
	"bufio"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one metric and its unit. The catalogs below are the
// benchmark's whole metric surface; BENCHMARK.json lists exactly these
// (the self-test pins the two against each other).
type metricDef struct{ name, unit string }

// endToEnd is printed by every untraced run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"correct_share", "ratio"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// routedEngines are the engines auto can resolve to, interval then
// chain; chain engine names carry a "chain-" prefix because both
// registries have a "sequential".
var routedEngines = []string{
	"sequential", "hlv-banded", "blocked-pipe", "blocked-ky",
	"chain-sequential", "chain-llp",
}

// perLayer is printed by every traced run, on every workload. A layer a
// workload does not reach reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"loadgen.gap_p99_ms", "ms"},
		{"loadgen.samples", "count"},
		{"wire.decode_us", "us"},
		{"wire.encode_us", "us"},
		{"wire.response_bytes", "bytes"},
		{"wire.samples", "count"},
		{"cache.key_us", "us"},
		{"cache.hit_ratio", "ratio"},
		{"cache.coalesced_ratio", "ratio"},
		{"cache.hits", "count"},
		{"cache.coalesced", "count"},
		{"cache.solved", "count"},
		{"cache.lookups", "count"},
		{"serve.handle_p50_ms", "ms"},
		{"serve.self_p50_ms", "ms"},
		{"serve.batch_size_mean", "count"},
		{"serve.batches", "count"},
		{"serve.batch_instances", "count"},
		{"serve.shed", "count"},
		{"serve.timeouts", "count"},
	}
	for _, e := range routedEngines {
		defs = append(defs, metricDef{"root.route." + e, "count"})
	}
	defs = append(defs,
		metricDef{"root.route.other", "count"},
		metricDef{"root.reconstruct_us", "us"},
	)
	for _, e := range routedEngines {
		defs = append(defs, metricDef{"engine.solve_ms." + e, "ms"})
	}
	return append(defs,
		metricDef{"engine.share", "ratio"},
		metricDef{"engine.busy_ms", "ms"},
		metricDef{"engine.handle_ms", "ms"},
		metricDef{"engine.t1_ms", "ms"},
		metricDef{"engine.tp_ms", "ms"},
		metricDef{"engine.probe_n", "count"},
		metricDef{"problems.fgen_ns_per_cand", "ns"},
		metricDef{"problems.fgen_ns", "ns"},
		metricDef{"algebra.fold_ns_per_cand", "ns"},
		metricDef{"algebra.fold_ns", "ns"},
		metricDef{"kernel.fgen_share", "ratio"},
		metricDef{"kernel.candidates", "count"},
		metricDef{"kernel.probe_n", "count"},
		metricDef{"kernel.tile", "count"},
		metricDef{"kernel.fgen_reps", "count"},
		metricDef{"kernel.fold_reps", "count"},
		metricDef{"parutil.tasks", "count"},
		metricDef{"parutil.barriers", "count"},
		metricDef{"parutil.steals", "count"},
		metricDef{"parutil.solves", "count"},
		metricDef{"parutil.idle_share", "ratio"},
		metricDef{"parutil.idle_ns", "ns"},
		metricDef{"parutil.p_tp_ns", "ns"},
		metricDef{"parutil.efficiency", "ratio"},
		metricDef{"parutil.procs", "count"},
		metricDef{"runtime.allocs_per_op", "count"},
		metricDef{"runtime.alloc_bytes_per_op", "bytes"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.ops", "count"},
		metricDef{"trace.overhead.latency_p50_ms", "ms"},
		metricDef{"trace.overhead.throughput_rps", "1/s"},
		metricDef{"trace.overhead.cpu_ms_per_op", "ms"},
		metricDef{"trace.spans", "count"},
	)
}()

// unitOf looks a metric up in both catalogs.
func unitOf(name string) (string, bool) {
	for _, cat := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range cat {
			if d.name == name {
				return d.unit, true
			}
		}
	}
	return "", false
}

// failedLatencyMs stands in for the latency of a failed op when a
// percentile lands on one: a failed request misses every latency limit,
// and JSON has no infinity.
const failedLatencyMs = 1e9

// finite maps an infinite or undefined value to failedLatencyMs.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return failedLatencyMs
	}
	return v
}

// percentile returns the q-quantile (0 <= q <= 1) of xs, interpolating
// linearly between the two nearest ranks, and 0 for an empty sample. It
// sorts xs in place. An infinite sample (a failed op) propagates.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) || xs[i] == xs[i+1] {
		return xs[i]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// tailLatency is the report's latency_p99_ms: the p99 when the run has
// at least 1000 ops, so ten samples lie beyond it, and otherwise the
// highest percentile with ten samples beyond it; q says which.
func tailLatency(lat []float64) (v, q float64) {
	q = 0.99
	if n := len(lat); n < 1000 {
		q = max(0.5, 1-10/float64(n))
	}
	return percentile(append([]float64(nil), lat...), q), q
}

// median is percentile(xs, 0.5) on a copy.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 0.5)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// memDelta is the allocation and GC activity between two MemStats reads.
type memDelta struct {
	mallocs, bytes uint64
	gcs            uint32
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func diffMem(a, b runtime.MemStats) memDelta {
	return memDelta{mallocs: b.Mallocs - a.Mallocs, bytes: b.TotalAlloc - a.TotalAlloc, gcs: b.NumGC - a.NumGC}
}

// environment describes the machine a result was measured on.
func environment() map[string]any {
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu_model":  cpuModel(),
	}
	for _, level := range []string{"2", "3"} {
		if size := cacheSize(level); size != "" {
			env["l"+level] = size
		}
	}
	return env
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSize reads cpu0's unified cache size at the given level from
// sysfs ("" when unavailable).
func cacheSize(level string) string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		lv, err := os.ReadFile(filepath.Join(d, "level"))
		if err != nil || strings.TrimSpace(string(lv)) != level {
			continue
		}
		if ty, err := os.ReadFile(filepath.Join(d, "type")); err != nil || strings.TrimSpace(string(ty)) == "Instruction" {
			continue
		}
		if size, err := os.ReadFile(filepath.Join(d, "size")); err == nil {
			return strings.TrimSpace(string(size))
		}
	}
	return ""
}
