package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// metrics maps a metric's name to its value. A per-layer metric the
// workload's round never fills is absent, not 0: print marks it n/a.
type metrics map[string]float64

// setMedian and setP90 store a percentile together with the number of
// samples behind it (under name#n, which only print reads). A
// percentile without the samples for it stays absent.
func (m metrics) setMedian(name string, xs []float64) {
	if len(xs) > 0 {
		m[name], m[name+"#n"] = median(xs), float64(len(xs))
	}
}

func (m metrics) setP90(name string, xs []float64) {
	if v, ok := p90(xs); ok {
		m[name], m[name+"#n"] = v, float64(len(xs))
	}
}

// metricDef is one row of BENCHMARK.json. bound (end-to-end only) is
// the share of the parent's median by which the metric may get worse.
type metricDef struct {
	name, unit, better string
	bound              float64
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the system would see, reported for
// every workload with tracing off. A bound is three times the widest
// ten-seed spread (IQR/median) seen on the shared 2-CPU sandbox this was
// written on, capped at the 0.25 the driver allows: the two times spread
// up to 0.12 and 0.15 there, the memory metrics 0.019 and 0.015
// (README.md has the measurements). jobs_per_s and cpu_ms_per_round
// could not repeat within a tenth and are bench.* layer metrics.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"round_ms_p50", "ms", lower, 0.25},
	{"alloc_mb_per_round", "MB", lower, 0.06},
	{"live_heap_mb", "MB", lower, 0.10},
}

// The apps and jobs whose names end per-job metrics.
var (
	simApps    = []string{"cg", "colloc", "nbody", "jacobi", "scatter", "search"}
	meshJobs   = []string{"cg", "jacobi", "colloc", "nbody", "search", "add-sparse", "write-dense", "phase-latency"}
	servedJobs = []string{"cg", "jacobi", "scatter", "jacobi-sim"}
	mpiApps    = []string{"cg", "colloc", "nbody"}
)

// perLayer are the single-layer metrics of the traced run, named
// layer.metric after this repository's modules on the job path.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(layer, unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{name: layer + "." + n, unit: unit, better: better})
		}
	}
	each := func(prefix string, suffixes []string) []string {
		var names []string
		for _, s := range suffixes {
			names = append(names, prefix+"."+s)
		}
		return names
	}

	add("server", "ms", lower, "submit_ms_p50", "first_phase_ms_p50", "phase_span_ms_p50", "tail_ms_p50")
	add("server", "ms", lower, each("job_ms_p50", servedJobs)...)
	add("server", "ms", lower, "job_ms_p90", "cached_ms_p50", "result_get_ms_p50")
	add("server", "count", lower, "fleets_spawned", "jobs_retried", "refused")
	add("server", "count", higher, "fleets_reused", "cache_hits")
	add("server", "ratio", higher, "warm_plan_hit_ratio")

	add("jobspec", "us", lower, "hash_us", "from_merged_us", "result_encode_us", "noderesult_decode_us")
	add("jobspec", "KB", lower, "result_kb", "noderesult_kb")

	add("dist", "ms", lower, "connect_ms_p50", "close_ms_p50", "launch_ms_p50", "launch_overhead_ms")
	add("dist", "count", lower, "fetch_calls", "commit_calls", "recv_calls", "read_serve_calls")
	add("dist", "KB", lower, "fetch_kb", "commit_kb_out", "wire_kb")
	add("dist", "us", lower, "fetch_rtt_us_p50", "fetch_rtt_us_p90", "commit_us_p50", "commit_us_p90")
	add("dist", "ms", lower, "fetch_wait_ms", "commit_wait_ms", "recv_wait_ms", "read_serve_ms")
	add("dist", "count", lower, "frames_out", "flushes", "forced_flushes", "read_reqs_sent")
	add("dist", "count", higher, "reads_coalesced")
	add("dist", "ratio", higher, "frames_per_flush")

	add("wire", "ns/KB", lower, "frame_append_ns_per_kb", "frame_read_ns_per_kb", "delta_encode_ns_per_kb", "delta_decode_ns_per_kb")
	add("wire", "ns", lower, "commit_parse_ns_per_run")
	add("wire", "ratio", higher, "delta_ratio")
	add("wire", "KB", lower, "commit_kb_raw", "commit_kb_enc")

	add("core", "ms", lower, "self_ms", "phase_ms_p50", "phase_ms_p90")
	add("core", "ms", lower, each("job_ms_cold", meshJobs)...)
	add("core", "ms", lower, each("job_ms_warm", meshJobs)...)
	add("core", "count", higher, "plan_hits")
	add("core", "count", lower, "plan_misses", "plan_invalidations", "allocs_per_round")
	add("core", "ratio", higher, "plan_hit_ratio", "sim_parallel_ratio")
	add("core", "ms", lower, each("sim_ms", simApps)...)
	add("core", "ns", lower, "sim_ns_per_access")
	add("core", "count", lower, "global_phases", "shared_reads", "shared_writes",
		"remote_read_elems", "remote_write_elems", "bundles_out")
	add("core", "KB", lower, "model_kb_out")

	add("cluster", "count", lower, "events")
	add("cluster", "ns", lower, "ns_per_event")
	add("cluster", "ms", lower, each("model_makespan_ms", simApps)...)
	add("cluster", "ratio", higher, "model_scaling_eff.cg")

	add("mp", "ratio", lower, each("ppm_over_mpi", mpiApps)...)

	add("bench", "ratio", lower, "trace_overhead_share", "spread_round_ms", "fail_share")
	add("bench", "count", higher, "rounds")
	add("bench", "s", lower, "build_s")
	add("bench", "ms", lower, "model_makespan_ms", "cpu_ms_per_round")
	add("bench", "1/s", higher, "jobs_per_s")
	return out
}

// workloadWhy records why each workload was chosen. The names are
// permanent: later changes are measured against them.
var workloadWhy = []struct{ name, why string }{
	{"sim-figures", "the paper's own surface on the simulator: cluster and core do all the work, dist, wire and server none; block reads (cg) and scalar remote reads (search) both show"},
	{"mesh-reads", "figure apps on 2 co-hosted ranks, each plan-cold then plan-warm: commit streams are empty, so dist.Fetch round trips dominate"},
	{"mesh-commits", "sparse adds, dense writes and 64 near-empty phases on 3 co-hosted ranks: the only non-empty remote commit streams, so wire and CommitExchange dominate"},
	{"served-mix", "a real ppm-server with forked fleets over HTTP: the only workload crossing processes and the queue, pool, cache and JSON paths"},
}

// runSeconds is how long the driver has one run measure.
const runSeconds = 25

// describe writes BENCHMARK.json.
func describe(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "benchmark", "."},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, x := range workloadWhy {
		doc.Workloads = append(doc.Workloads, wl{x.name, x.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, d.better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// report is what one run of one workload found.
type report struct {
	workload  string
	defs      []metricDef
	m         metrics
	attempted int
	failed    int
	err       error // first failure, nil on a correct run
}

// print writes every metric as "name value unit" (n/a where the
// workload's round never fills it or a percentile lacks the samples),
// then the run's result as one JSON object on the last line. The
// driver wants every metric of the table in that object, so there, and
// only there, an absent metric reads 0.
func (r *report) print(w io.Writer) {
	for _, d := range r.defs {
		value := "n/a"
		if v, ok := r.m[d.name]; ok {
			value = fmt.Sprintf("%.6g", v)
		}
		line := fmt.Sprintf("%-12s %-36s %14s %-6s", r.workload, d.name, value, d.unit)
		if n, ok := r.m[d.name+"#n"]; ok {
			line += fmt.Sprintf(" n=%g", n)
		}
		if d.bound > 0 {
			line += fmt.Sprintf(" bound=%g", d.bound)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	if r.err != nil {
		fmt.Fprintf(w, "%-12s FAILED: %v\n", r.workload, r.err)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.err == nil && r.failed == 0, r.attempted, r.failed, make(map[string]val)}
	for _, d := range r.defs {
		out.Metrics[d.name] = val{r.m[d.name], d.unit}
	}
	line, _ := json.Marshal(out)
	fmt.Fprintln(w, string(line))
}
