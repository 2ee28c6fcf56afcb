package main

// Workload names, as passed to --workload.
const (
	wPaper  = "paper-run"
	wStream = "stream-scale"
	wServe  = "serve-mixed"
)

// workloadSpec records what a workload runs and why it was chosen; the
// why lines are copied into BENCHMARK.json.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadSpec{
	{wPaper, "The paper's 2,892-domain study, records retained, aipan-all exports: every pipeline layer once per domain; annotate and the chatbot simulator carry the CPU."},
	{wStream, "A lazily generated 6,000-domain universe streamed into binary:16 with events: store append/export, the stream window and lazy webgen beyond the render cache."},
	{wServe, "The paper dataset behind /v1 under an open-loop Zipf route mix with revalidation, cursor walks, cold filters and a refreshing writer: the server view and response cache."},
}

// e2eSpec is one end-to-end metric: what a user of the system sees.
type e2eSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Every workload reports every end-to-end metric: each one builds a
// dataset with the pipeline and then serves it, so each metric is
// measured, never filled in. The workloads differ in which phase they
// load.
var endToEnd = []e2eSpec{
	{"domains_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_domain", "ms", "lower", 0.25},
	{"allocs_per_domain", "count", "lower", 0.05},
	{"alloc_bytes_per_domain", "B", "lower", 0.05},
	{"llm_calls_per_domain", "count", "lower", 0.05},
	{"prompt_tokens_per_domain", "count", "lower", 0.05},
	{"completion_tokens_per_domain", "count", "lower", 0.05},
	{"peak_rss_mib", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"serve_p50_ms", "ms", "lower", 0.25},
	{"refresh_ms", "ms", "lower", 0.25},
}

// layerSpec is one per-layer metric of the traced run. Kind separates
// the system's own cost from the simulators that stand in for the web
// and the LLM ("simulator"), and from the benchmark's own bookkeeping
// ("bench"). Moves names the end-to-end metrics a change to the layer
// should move, and On the workloads where it should show.
type layerSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Kind   string   `json:"kind"`
	Moves  []string `json:"moves,omitempty"`
	On     []string `json:"on,omitempty"`
}

// chatbotTasks are the eight prompt kinds of chatbot.Task*.
var chatbotTasks = []string{
	"heading-labels", "segment-text",
	"extract-types", "normalize-types",
	"extract-purposes", "normalize-purposes",
	"handling-labels", "rights-labels",
}

// serveRoutes are the /v1 route classes the load generator sends.
var serveRoutes = []string{
	"summary", "table", "domains_filter", "domains_page", "domain",
	"label", "ask", "provenance", "events", "risk",
}

var (
	batch    = []string{wPaper, wStream}
	paperOn  = []string{wPaper}
	streamOn = []string{wStream}
	serveOn  = []string{wServe}
	allOn    = []string{wPaper, wStream, wServe}
)

func perLayer() []layerSpec {
	sys := func(name, unit, better string, moves []string, on []string) layerSpec {
		return layerSpec{name, unit, better, "system", moves, on}
	}
	sim := func(name, unit, better string, on []string) layerSpec {
		return layerSpec{name, unit, better, "simulator", nil, on}
	}
	tput := []string{"domains_per_s"}
	cpu := []string{"domains_per_s", "cpu_ms_per_domain"}
	cpuAlloc := []string{"cpu_ms_per_domain", "allocs_per_domain"}
	segMoves := []string{"cpu_ms_per_domain", "llm_calls_per_domain"}
	annMoves := []string{"domains_per_s", "allocs_per_domain", "prompt_tokens_per_domain"}
	llm := []string{"llm_calls_per_domain", "prompt_tokens_per_domain"}
	storeMoves := []string{"domains_per_s", "peak_rss_mib"}
	rt := []string{"allocs_per_domain", "cpu_ms_per_domain", "peak_rss_mib"}
	srv := []string{"serve_p50_ms"}

	out := []layerSpec{
		sys("engine.queue_wait_s", "s", "lower", tput, []string{wStream, wPaper}),
		sys("engine.park_s", "s", "lower", tput, []string{wStream, wPaper}),
		sys("crawler.calls", "count", "lower", cpu, batch),
		sys("crawler.busy_s", "s", "lower", cpu, batch),
		sys("crawler.self_s", "s", "lower", cpu, batch),
		sys("crawler.pages", "count", "lower", cpu, batch),
		sys("crawler.ok_ratio", "ratio", "higher", cpu, batch),
		sim("virtualweb.requests", "count", "lower", streamOn),
		sim("virtualweb.busy_s", "s", "lower", streamOn),
		sim("virtualweb.bytes", "B", "lower", streamOn),
		sys("htmlx.parse_calls", "count", "lower", cpuAlloc, paperOn),
		sys("htmlx.parse_busy_s", "s", "lower", cpuAlloc, paperOn),
		sys("htmlx.bytes", "B", "lower", cpuAlloc, paperOn),
		sys("textify.calls", "count", "lower", cpuAlloc, paperOn),
		sys("textify.busy_s", "s", "lower", cpuAlloc, paperOn),
		sys("textify.lines", "count", "lower", cpuAlloc, paperOn),
		sys("segment.calls", "count", "lower", segMoves, paperOn),
		sys("segment.busy_s", "s", "lower", segMoves, paperOn),
		sys("segment.self_s", "s", "lower", segMoves, paperOn),
		sys("segment.ok_ratio", "ratio", "higher", segMoves, paperOn),
		sys("segment.text_fallback_ratio", "ratio", "lower", segMoves, paperOn),
		sys("annotate.calls", "count", "lower", annMoves, paperOn),
		sys("annotate.busy_s", "s", "lower", annMoves, paperOn),
		sys("annotate.self_s", "s", "lower", annMoves, paperOn),
		sys("annotate.kept", "count", "higher", annMoves, paperOn),
		sys("annotate.dropped", "count", "lower", annMoves, paperOn),
		sys("annotate.fallback_ratio", "ratio", "lower", annMoves, paperOn),
	}
	for _, t := range chatbotTasks {
		out = append(out, sys("chatbot.calls."+t, "count", "lower", llm, paperOn))
	}
	for _, t := range chatbotTasks {
		out = append(out, sys("chatbot.prompt_tokens."+t, "count", "lower", llm, paperOn))
	}
	out = append(out,
		sys("chatbot.completion_tokens", "count", "lower", []string{"completion_tokens_per_domain"}, paperOn),
		sys("chatbot.wait_s", "s", "lower", tput, paperOn),
		sys("chatbot.failed", "count", "lower", tput, paperOn),
		sim("chatbot.sim_busy_s", "s", "lower", paperOn),
		sys("store.appends", "count", "lower", storeMoves, streamOn),
		sys("store.append_busy_s", "s", "lower", storeMoves, streamOn),
		sys("store.bytes", "B", "lower", storeMoves, streamOn),
		sys("store.export_s", "s", "lower", storeMoves, streamOn),
		sys("store.export_bytes", "B", "lower", storeMoves, streamOn),
		sys("store.event_appends", "count", "lower", storeMoves, streamOn),
		sys("store.event_append_busy_s", "s", "lower", storeMoves, streamOn),
		sys("report.busy_s", "s", "lower", tput, paperOn),
		sys("runtime.gc_cycles", "count", "lower", rt, allOn),
		sys("runtime.gc_cpu_frac", "ratio", "lower", rt, allOn),
		sys("runtime.heap_peak_mib", "MiB", "lower", rt, allOn),
	)
	out = append(out,
		sys("server.p99_ms", "ms", "lower", srv, serveOn),
		sys("server.max_rps", "1/s", "higher", srv, serveOn))
	for _, r := range serveRoutes {
		out = append(out,
			sys("server."+r+".p50_ms", "ms", "lower", srv, serveOn),
			sys("server."+r+".p99_ms", "ms", "lower", srv, serveOn),
			sys("server."+r+".handler_p50_us", "us", "lower", srv, serveOn))
	}
	out = append(out,
		sys("server.cache_hit_ratio", "ratio", "higher", srv, serveOn),
		sys("server.not_modified_ratio", "ratio", "higher", srv, serveOn),
		sys("server.shed", "count", "lower", srv, serveOn),
		sys("server.refresh_busy_s", "s", "lower", []string{"refresh_ms"}, serveOn),
		// The serve writer's appends: the write path beside Refresh,
		// which no end-to-end metric times.
		sys("store.writer_appends", "count", "lower", nil, serveOn),
		sys("store.writer_append_busy_s", "s", "lower", nil, serveOn),
		layerSpec{"loadgen.sent", "count", "higher", "bench", srv, serveOn},
		layerSpec{"loadgen.late_p99_ms", "ms", "lower", "bench", srv, serveOn},
		layerSpec{"bench.untraced_wall_s", "s", "lower", "bench", nil, batch},
		layerSpec{"bench.traced_wall_s", "s", "lower", "bench", nil, batch},
	)
	return out
}

func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range perLayer() {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}
