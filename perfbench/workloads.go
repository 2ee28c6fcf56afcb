package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"aipan"
	"aipan/internal/core"
	"aipan/internal/russell"
	"aipan/internal/store"
)

// Workload sizes and pins.
const (
	paperWorkers = 8 // core.Config's default
	// streamUniverse is about twice the paper's 2,892 domains, the size
	// of the repository's scale smoke: more sites than the synthetic
	// web's 4,096-host render cache holds and far more records than the
	// stream window does.
	streamUniverse = 6000
	setupRepeats   = 9 // pipeline set-ups timed per run
	serveSetups    = 5 // server set-ups timed per serve-mixed run
	// closedS is the traced serve-mixed closed loop's measured length:
	// ten 0.5 s windows, after a second of warm-up.
	closedS = 5
	// runSeconds is BENCHMARK.json's run_seconds: the measurement
	// budget --seconds defaults to.
	runSeconds = 6
)

func funnelOf(f core.Funnel) [5]int {
	return [5]int{f.Companies, f.Domains, f.CrawlOK, f.ExtractOK, f.Annotated}
}

// batchServePlan is the serve phase the two pipeline workloads end
// with: the dataset they built, served briefly. serve-mixed runs the
// same phase longer, with more server set-ups; its traced run adds the
// closed loop that measures server.max_rps.
func batchServePlan() servePlan {
	return servePlan{RefRate: refRate, RefS: 3, RefreshS: refreshS, Setups: 1}
}

func serveMixedPlan(seconds int, traced bool) servePlan {
	p := servePlan{RefRate: refRate, RefS: float64(seconds), RefreshS: refreshS, Setups: serveSetups}
	if traced {
		p.ClosedS, p.LimitMs = closedS, serveLimitMs
	}
	return p
}

// refRate is the reference read rate, in requests per second: about a
// twentieth of the server's capacity on the dataset sizes here, where the
// two connections rarely queue, so p99 reflects the server rather than
// the box's momentary load.
const refRate = 400

// refreshS is every serve phase's refresh phase length: about 15
// Refresh calls on the paper dataset and 6 on stream-scale's, whose
// median is refresh_ms.
const refreshS = 11

// serveLimitMs is the latency within which a closed-loop answer counts
// toward server.max_rps: above the garbage-collection stalls a large
// dataset view brings, below the queueing delay of a saturated server.
const serveLimitMs = 100.0

// setPipelineMetrics reports the per-domain cost of a pass.
func setPipelineMetrics(rep *report, p *passOut) {
	d := float64(p.domains)
	rep.set("domains_per_s", d/p.cost.wall.Seconds())
	rep.set("cpu_ms_per_domain", float64(p.cost.cpu)/float64(time.Millisecond)/d)
	rep.set("allocs_per_domain", float64(p.cost.allocs)/d)
	rep.set("alloc_bytes_per_domain", float64(p.cost.allocBytes)/d)
	rep.set("llm_calls_per_domain", p.llmCalls/d)
	rep.set("prompt_tokens_per_domain", p.prompt/d)
	rep.set("completion_tokens_per_domain", p.complete/d)
	rep.note("pipeline: one pass of %d domains in %.2f s; LLM cost: %.0f calls, %.0f prompt / %.0f completion tokens",
		p.domains, p.cost.wall.Seconds(), p.llmCalls, p.prompt, p.complete)
}

func setServeMetrics(rep *report, so *serveOut) {
	rep.ops(so.Attempted, so.Failed, so.Failures)
	rep.set("serve_p50_ms", so.Ref.P50Ms)
	rep.set("refresh_ms", median(so.RefreshMs))
	rep.note("serve reference: %.0f req/s, %d sent, %d ok (%d not modified), %d failed; p50 %.3f ms and p99 %.3f ms over all %d; generator late p99 %.3f ms",
		so.Ref.Rate, so.Ref.Sent, so.Ref.OK, so.Ref.NotModified, so.Ref.Failed, so.Ref.P50Ms, so.Ref.P99Ms, so.Ref.Sent, so.Ref.LateP99Ms)
	rep.note("refresh: median of %d back-to-back Refresh calls while reads run at %.0f req/s (%d sent, %d failed), samples %s ms; %d held-back records appended; server set-up median of %d",
		len(so.RefreshMs), so.RefreshPhase.Rate, so.RefreshPhase.Sent, so.RefreshPhase.Failed, fmtMs(so.RefreshMs), so.Appended, len(so.SetupS))
}

// fmtMs lists timings in milliseconds, one decimal each.
func fmtMs(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 1, 64)
	}
	return strings.Join(parts, " ")
}

func checkPipeline(rep *report, p *passOut, want int) {
	rep.ops(p.domains, int(p.appendEr), nil)
	rep.check(p.domains == want, "pass processed %d domains, want %d", p.domains, want)
	rep.check(p.lines == want, "dataset export has %d lines, want %d", p.lines, want)
}

func runPaper(ctx context.Context, o options, rep *report, work string) error {
	if o.trace {
		return tracePaper(ctx, o, rep, work)
	}
	setup, err := setupSamples(o.seed, 0, setupRepeats)
	if err != nil {
		return err
	}
	rep.set("setup_s", median(setup))
	p, err := runPaperPass(ctx, aipan.PipelineConfig{Seed: o.seed, Workers: paperWorkers}, filepath.Join(work, "pass"))
	if err != nil {
		return err
	}
	p.records = nil // the serve phase reads the pass's export
	checkPipeline(rep, p, russell.NumDomains)
	setPipelineMetrics(rep, p)
	if err := checkLLMRepeat(rep, o, p); err != nil {
		return err
	}
	if err := checkPaperOutput(ctx, o, rep, work, p); err != nil {
		return err
	}
	if err := setRSS(rep); err != nil {
		return err
	}
	so, err := serveChild(ctx, serveSpec{
		Dir: filepath.Join(work, "serve"), Seed: o.seed, Source: "jsonl",
		Path: filepath.Join(p.dir, exportNames[0]), Plan: batchServePlan(),
	})
	if err != nil {
		return err
	}
	setServeMetrics(rep, so)
	return nil
}

// checkPaperOutput checks seed 3000 against its committed output (the
// paper's funnel and the known dataset digest); any other seed is
// compared with a Workers: 1 run of the same seed, which is also the
// single-threaded baseline. The reference's funnel and digests are kept
// per seed in the checkout's state, so a seed seen before is not run
// single-threaded again.
func checkPaperOutput(ctx context.Context, o options, rep *report, work string, p *passOut) error {
	if o.seed == pinnedSeed {
		checkExpected(rep, "seed 3000", expected.Paper, funnelOf(p.funnel), p)
		return nil
	}
	key := fmt.Sprintf("%s-seed%d-workers1", wPaper, o.seed)
	var ref map[string]string
	found, err := loadState(key, &ref)
	if err != nil {
		return err
	}
	if !found {
		rp, err := runPaperPass(ctx, aipan.PipelineConfig{Seed: o.seed, Workers: 1}, filepath.Join(work, "reference"))
		if err != nil {
			return err
		}
		ref = map[string]string{"funnel": fmt.Sprint(funnelOf(rp.funnel))}
		for k, v := range rp.digests {
			ref[k] = v
		}
		rep.note("single-threaded baseline (Workers: 1): %.1f domains/s over %d domains",
			float64(rp.domains)/rp.cost.wall.Seconds(), rp.domains)
		if err := saveState(key, ref); err != nil {
			return err
		}
	}
	rep.check(ref["funnel"] == fmt.Sprint(funnelOf(p.funnel)), "funnel %v differs from the Workers: 1 reference %s",
		funnelOf(p.funnel), ref["funnel"])
	for _, k := range exportNames {
		rep.check(p.digests[k] == ref[k], "%s differs from the Workers: 1 reference", k)
	}
	return nil
}

func setRSS(rep *report) error {
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	rep.set("peak_rss_mib", rss)
	return nil
}

func runStream(ctx context.Context, o options, rep *report, work string) error {
	if o.trace {
		return traceStream(ctx, o, rep, work)
	}
	setup, err := setupSamples(o.seed, streamUniverse, setupRepeats)
	if err != nil {
		return err
	}
	rep.set("setup_s", median(setup))
	dir := filepath.Join(work, "pass")
	p, ss, err := runStreamPass(ctx, o.seed, streamUniverse, 0, dir)
	if err != nil {
		return err
	}
	err = checkStream(rep, o, p, ss.st)
	if cerr := ss.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	setPipelineMetrics(rep, p)
	if err := setRSS(rep); err != nil {
		return err
	}
	so, err := serveChild(ctx, serveSpec{
		Dir: filepath.Join(work, "serve"), Seed: o.seed, Source: "binary:16",
		Path: filepath.Join(dir, "store"), Events: filepath.Join(dir, "events"), Plan: batchServePlan(),
	})
	if err != nil {
		return err
	}
	setServeMetrics(rep, so)
	return nil
}

// checkStream checks a streaming pass: every universe domain stored and
// exported once, seed 3000 equal to its committed output, and the
// export digests equal to the first run of this seed in this checkout.
func checkStream(rep *report, o options, p *passOut, st store.Store) error {
	checkPipeline(rep, p, streamUniverse)
	if err := checkLLMRepeat(rep, o, p); err != nil {
		return err
	}
	n, err := st.Len()
	rep.check(err == nil && n == streamUniverse, "store holds %d records (err %v), want %d", n, err, streamUniverse)
	rep.check(p.funnel.Domains == streamUniverse, "funnel counts %d domains, want %d", p.funnel.Domains, streamUniverse)
	if o.seed == pinnedSeed {
		checkExpected(rep, "seed 3000", expected.Stream, funnelOf(p.funnel), p)
	}
	digests := map[string]string{}
	for k, v := range p.digests {
		digests["export:"+k] = v
	}
	return checkRepeat(rep, fmt.Sprintf("%s-seed%d-exports", wStream, o.seed), digests)
}

func runServe(ctx context.Context, o options, rep *report, work string) error {
	dir := filepath.Join(work, "dataset")
	var built builtDataset
	if err := runSelf(ctx, &built, "build-dataset", "--seed", strconv.FormatInt(o.seed, 10), "--dir", dir); err != nil {
		return err
	}
	p := built.pass()
	checkPipeline(rep, p, russell.NumDomains)
	if o.seed == pinnedSeed {
		checkExpected(rep, "seed 3000", expected.Paper, built.Funnel, p)
	}
	if err := checkLLMRepeat(rep, o, p); err != nil {
		return err
	}
	so, err := serveChild(ctx, serveSpec{
		Dir: filepath.Join(work, "serve"), Seed: o.seed, Source: "jsonl",
		Path: filepath.Join(dir, exportNames[0]), Events: filepath.Join(dir, "events"),
		Plan: serveMixedPlan(o.seconds, o.trace), Trace: o.trace,
	})
	if err != nil {
		return err
	}
	if o.trace {
		rep.ops(so.Attempted, so.Failed, so.Failures)
		setServeLayers(rep, so)
		return nil
	}
	setPipelineMetrics(rep, p)
	setServeMetrics(rep, so)
	rep.set("setup_s", median(so.SetupS))
	rep.set("peak_rss_mib", so.PeakRSSMiB)
	return nil
}

// builtDataset is what the build-dataset child reports: its pass cost
// and outputs, measured in its own process so that the server's peak
// RSS is the server's alone.
type builtDataset struct {
	Domains    int               `json:"domains"`
	WallS      float64           `json:"wall_s"`
	CPUS       float64           `json:"cpu_s"`
	Allocs     uint64            `json:"allocs"`
	AllocBytes uint64            `json:"alloc_bytes"`
	LLMCalls   float64           `json:"llm_calls"`
	Prompt     float64           `json:"prompt_tokens"`
	Complete   float64           `json:"completion_tokens"`
	AppendErrs float64           `json:"append_errors"`
	Lines      int               `json:"lines"`
	Funnel     [5]int            `json:"funnel"`
	Digests    map[string]string `json:"digests"`
}

func (b *builtDataset) pass() *passOut {
	return &passOut{
		domains: b.Domains, lines: b.Lines, digests: b.Digests, llmCalls: b.LLMCalls,
		prompt: b.Prompt, complete: b.Complete, appendEr: b.AppendErrs,
		cost: procDelta{
			wall: time.Duration(b.WallS * float64(time.Second)), cpu: time.Duration(b.CPUS * float64(time.Second)),
			allocs: b.Allocs, allocBytes: b.AllocBytes,
		},
	}
}

func buildDatasetMain(args []string) int {
	fs := flag.NewFlagSet("build-dataset", flag.ContinueOnError)
	seed := fs.Int64("seed", pinnedSeed, "workload seed")
	dir := fs.String("dir", "", "output directory")
	if err := fs.Parse(args); err != nil || *dir == "" {
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "build-dataset:", err)
		return 1
	}
	ev, err := store.OpenEventLog(filepath.Join(*dir, "events"), 4)
	if err != nil {
		fmt.Fprintln(os.Stderr, "build-dataset:", err)
		return 1
	}
	p, err := runPaperPass(context.Background(), aipan.PipelineConfig{Seed: *seed, Workers: paperWorkers, Events: ev}, *dir)
	if cerr := ev.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing events: %w", cerr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "build-dataset:", err)
		return 1
	}
	b := builtDataset{
		Domains: p.domains, WallS: p.cost.wall.Seconds(), CPUS: p.cost.cpu.Seconds(),
		Allocs: p.cost.allocs, AllocBytes: p.cost.allocBytes, LLMCalls: p.llmCalls,
		Prompt: p.prompt, Complete: p.complete, AppendErrs: p.appendEr, Lines: p.lines,
		Funnel: funnelOf(p.funnel), Digests: p.digests,
	}
	if err := json.NewEncoder(os.Stdout).Encode(b); err != nil {
		fmt.Fprintln(os.Stderr, "build-dataset:", err)
		return 1
	}
	return 0
}

// tracePaper runs the untraced pipeline once, then the traced driver on
// the same seed: the driver's funnel and exports must equal the
// pipeline's, and its exact counters must equal both the pipeline's and
// those of the first traced run of this seed.
func tracePaper(ctx context.Context, o options, rep *report, work string) error {
	p, err := runPaperPass(ctx, aipan.PipelineConfig{Seed: o.seed, Workers: paperWorkers}, filepath.Join(work, "untraced"))
	if err != nil {
		return err
	}
	checkPipeline(rep, p, russell.NumDomains)
	p.records = nil
	if err := checkLLMRepeat(rep, o, p); err != nil {
		return err
	}
	tr := newTracer()
	runtime.GC()
	before, err := readProc()
	if err != nil {
		return err
	}
	stopHeap := heapSampler(ctx)
	d, err := runDriver(ctx, tr, o.seed, 0, paperWorkers, true, nil, nil)
	if err != nil {
		stopHeap()
		return err
	}
	tp := &passOut{funnel: d.funnel, domains: len(d.records)}
	dir := filepath.Join(work, "traced")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		stopHeap()
		return fmt.Errorf("traced exports: %w", err)
	}
	err = writeRecordExports(dir, d.records, d.gen, tp)
	heapPeak := stopHeap()
	if err != nil {
		return err
	}
	after, err := readProc()
	if err != nil {
		return err
	}
	if err := finishDigests(dir, tp); err != nil {
		return err
	}
	compareTraced(rep, p, tp, d)
	setPipelineLayers(rep, tr, d, tp)
	setRuntimeLayers(rep, deltaOf(before, after), heapPeak)
	rep.set("bench.untraced_wall_s", p.cost.wall.Seconds())
	rep.set("bench.traced_wall_s", after.wall.Sub(before.wall).Seconds())
	return exactCounters(rep, o, tr, p)
}

// compareTraced fails the run when the traced driver drifted from the
// pipeline: different funnel or different export bytes.
func compareTraced(rep *report, p, tp *passOut, d *driverOut) {
	rep.check(d.funnel == p.funnel, "traced driver funnel %+v differs from the pipeline's %+v", d.funnel, p.funnel)
	for k, v := range p.digests {
		rep.check(tp.digests[k] == v, "traced driver export %s differs from the pipeline's", k)
	}
}

func traceStream(ctx context.Context, o options, rep *report, work string) error {
	p, ss, err := runStreamPass(ctx, o.seed, streamUniverse, 0, filepath.Join(work, "untraced"))
	if err != nil {
		return err
	}
	if err := checkStream(rep, o, p, ss.st); err != nil {
		return errAndClose(err, ss)
	}
	if err := ss.close(); err != nil {
		return err
	}
	dir := filepath.Join(work, "traced")
	ts, err := openStreamStores(dir)
	if err != nil {
		return err
	}
	defer func() { rep.check(ts.close() == nil, "closing the traced stores failed") }()
	tr := newTracer()
	runtime.GC()
	before, err := readProc()
	if err != nil {
		return err
	}
	stopHeap := heapSampler(ctx)
	d, err := runDriver(ctx, tr, o.seed, streamUniverse, paperWorkers, false,
		&tracedStore{Store: ts.st, t: tr}, &tracedEvents{next: ts.events, t: tr})
	if err != nil {
		stopHeap()
		return err
	}
	tp := &passOut{funnel: d.funnel, domains: d.funnel.Domains}
	err = writeStoreExports(dir, ts.st, tp)
	heapPeak := stopHeap()
	if err != nil {
		return err
	}
	after, err := readProc()
	if err != nil {
		return err
	}
	if err := finishDigests(dir, tp); err != nil {
		return err
	}
	compareTraced(rep, p, tp, d)
	setPipelineLayers(rep, tr, d, tp)
	setRuntimeLayers(rep, deltaOf(before, after), heapPeak)
	storeBytes, err := dirBytes(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	rep.set("store.bytes", float64(storeBytes))
	rep.set("bench.untraced_wall_s", p.cost.wall.Seconds())
	rep.set("bench.traced_wall_s", after.wall.Sub(before.wall).Seconds())
	return exactCounters(rep, o, tr, p)
}
