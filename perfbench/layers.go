package main

import (
	"context"
	"fmt"
	"runtime/metrics"
	"time"

	"aipan/internal/engine"
)

// setPipelineLayers reports the traced driver's per-layer figures.
func setPipelineLayers(rep *report, tr *tracer, d *driverOut, tp *passOut) {
	secs := func(x time.Duration) float64 { return x.Seconds() }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	rep.set("engine.queue_wait_s", secs(d.queueWait))
	rep.set("engine.park_s", secs(d.park))

	cr := tr.layer("crawler")
	rep.set("crawler.calls", float64(cr.calls))
	rep.set("crawler.busy_s", secs(cr.busy))
	rep.set("crawler.self_s", secs(cr.self))
	rep.set("crawler.pages", tr.count("crawler.pages"))
	rep.set("crawler.ok_ratio", ratio(tr.count("crawler.ok"), float64(cr.calls)))

	vw := tr.layer("virtualweb")
	rep.set("virtualweb.requests", float64(vw.calls))
	rep.set("virtualweb.busy_s", secs(vw.busy))
	rep.set("virtualweb.bytes", tr.count("virtualweb.bytes"))

	hx := tr.layer("htmlx")
	rep.set("htmlx.parse_calls", float64(hx.calls))
	rep.set("htmlx.parse_busy_s", secs(hx.busy))
	rep.set("htmlx.bytes", tr.count("htmlx.bytes"))

	tx := tr.layer("textify")
	rep.set("textify.calls", float64(tx.calls))
	rep.set("textify.busy_s", secs(tx.busy))
	rep.set("textify.lines", tr.count("textify.lines"))

	sg := tr.layer("segment")
	rep.set("segment.calls", float64(sg.calls))
	rep.set("segment.busy_s", secs(sg.busy))
	rep.set("segment.self_s", secs(sg.self))
	rep.set("segment.ok_ratio", ratio(tr.count("segment.ok"), float64(sg.calls)))
	rep.set("segment.text_fallback_ratio", ratio(tr.count("segment.text_fallback"), tr.count("segment.ok")))

	an := tr.layer("annotate")
	rep.set("annotate.calls", float64(an.calls))
	rep.set("annotate.busy_s", secs(an.busy))
	rep.set("annotate.self_s", secs(an.self))
	rep.set("annotate.kept", tr.count("annotate.kept"))
	rep.set("annotate.dropped", tr.count("annotate.dropped"))
	rep.set("annotate.fallback_ratio", ratio(tr.count("annotate.fallback"), float64(an.calls)))

	for _, t := range chatbotTasks {
		rep.set("chatbot.calls."+t, tr.count("chatbot.calls."+t))
		rep.set("chatbot.prompt_tokens."+t, tr.count("chatbot.prompt_tokens."+t))
	}
	cb, sim := tr.layer("chatbot"), tr.layer("chatbot.sim")
	rep.set("chatbot.completion_tokens", tr.count("chatbot.completion_tokens"))
	rep.set("chatbot.wait_s", secs(cb.busy-sim.busy))
	rep.set("chatbot.failed", tr.count("chatbot.failed"))
	rep.set("chatbot.sim_busy_s", secs(sim.busy))

	sa, ea := tr.layer("store.append"), tr.layer("store.event_append")
	rep.set("store.appends", float64(sa.calls))
	rep.set("store.append_busy_s", secs(sa.busy))
	rep.set("store.export_s", tp.exportS)
	rep.set("store.export_bytes", float64(tp.exportB))
	rep.set("store.event_appends", float64(ea.calls))
	rep.set("store.event_append_busy_s", secs(ea.busy))
	rep.set("report.busy_s", tp.reportS)
	rep.note("traced driver: %d domains in %.2fs; chatbot %d calls (%.2fs in the client, %.2fs in the simulator)",
		tp.domains, d.wall.Seconds(), cb.calls, cb.busy.Seconds(), sim.busy.Seconds())
}

func setRuntimeLayers(rep *report, d procDelta, heapPeakMiB float64) {
	rep.set("runtime.gc_cycles", float64(d.gcCycles))
	rep.set("runtime.gc_cpu_frac", d.gcCPUFrac)
	rep.set("runtime.heap_peak_mib", heapPeakMiB)
}

// setServeLayers reports per-route latency (client-observed, reference
// phase), handler time, cache behaviour, the serving process's runtime,
// and the load generator's own health.
func setServeLayers(rep *report, so *serveOut) {
	rep.set("server.p99_ms", so.Ref.P99Ms)
	rep.set("server.max_rps", so.Closed.Goodput)
	rep.note("serve closed loop: %d connections for %.1f s after %v warm-up, %d sent, %d ok, %d failed, %.0f answered within %.0f ms per second",
		so.Closed.Conns, so.Closed.Seconds, closedWarmup, so.Closed.Sent, so.Closed.OK, so.Closed.Failed, so.Closed.Goodput, serveLimitMs)
	for _, r := range serveRoutes {
		rep.set("server."+r+".p50_ms", so.Ref.RouteP50Ms[r])
		rep.set("server."+r+".p99_ms", so.Ref.RouteP99Ms[r])
		rep.set("server."+r+".handler_p50_us", so.HandlerP50Us[r])
	}
	rep.set("server.cache_hit_ratio", so.CacheHit)
	rep.set("server.not_modified_ratio", so.NotModified)
	rep.set("server.shed", so.Shed)
	// Per Refresh: the refresh phase has a fixed length, so the total
	// would stay put when Refresh got faster.
	rep.set("server.refresh_busy_s", so.RefreshBusyS/float64(max(1, len(so.RefreshMs))))
	rep.set("loadgen.sent", float64(so.Ref.Sent+so.Closed.Sent+so.RefreshPhase.Sent))
	rep.set("loadgen.late_p99_ms", so.Ref.LateP99Ms)
	rep.set("store.writer_appends", float64(so.Appended))
	rep.set("store.writer_append_busy_s", so.WriterAppendBusyS)
	rep.set("runtime.gc_cycles", float64(so.GCCycles))
	rep.set("runtime.gc_cpu_frac", so.GCCPUFrac)
	rep.set("runtime.heap_peak_mib", so.HeapPeakMiB)
}

// exactCounters checks the seed-deterministic counters of a traced run:
// they must equal the untraced pipeline's (same seed, same process) and
// the first traced run of this seed in this checkout, bit for bit.
func exactCounters(rep *report, o options, tr *tracer, p *passOut) error {
	var calls, prompt float64
	got := map[string]string{}
	for _, t := range chatbotTasks {
		c, pt := tr.count("chatbot.calls."+t), tr.count("chatbot.prompt_tokens."+t)
		calls += c
		prompt += pt
		got["chatbot.calls."+t] = fmt.Sprintf("%.0f", c)
		got["chatbot.prompt_tokens."+t] = fmt.Sprintf("%.0f", pt)
	}
	complete := tr.count("chatbot.completion_tokens")
	rep.check(calls == p.llmCalls, "traced chatbot calls %.0f, pipeline registry %.0f", calls, p.llmCalls)
	rep.check(prompt == p.prompt, "traced prompt tokens %.0f, pipeline registry %.0f", prompt, p.prompt)
	rep.check(complete == p.complete, "traced completion tokens %.0f, pipeline registry %.0f", complete, p.complete)
	got["chatbot.completion_tokens"] = fmt.Sprintf("%.0f", complete)
	got["annotate.dropped"] = fmt.Sprintf("%.0f", tr.count("annotate.dropped"))
	got["crawler.pages"] = fmt.Sprintf("%.0f", tr.count("crawler.pages"))
	got["store.appends"] = fmt.Sprintf("%d", tr.layer("store.append").calls)
	return checkRepeat(rep, fmt.Sprintf("%s-seed%d-traced", o.workload, o.seed), got)
}

// checkLLMRepeat checks that an untraced pass's LLM cost equals the
// first run of this seed in this checkout.
func checkLLMRepeat(rep *report, o options, p *passOut) error {
	return checkRepeat(rep, fmt.Sprintf("%s-seed%d-llm", o.workload, o.seed), map[string]string{
		"llm_calls":         fmt.Sprintf("%.0f", p.llmCalls),
		"prompt_tokens":     fmt.Sprintf("%.0f", p.prompt),
		"completion_tokens": fmt.Sprintf("%.0f", p.complete),
	})
}

// heapSampler records the largest live heap seen every 10ms until
// stopped; stop returns the peak in MiB.
func heapSampler(ctx context.Context) (stop func() float64) {
	ctx, cancel := context.WithCancel(ctx)
	g, _ := engine.NewGroup(ctx)
	var peak uint64
	g.Go(func(ctx context.Context) error {
		ms := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		for {
			metrics.Read(ms)
			if v := ms[0].Value.Uint64(); v > peak {
				peak = v
			}
			if !engine.Sleep(ctx, 10*time.Millisecond) {
				return nil
			}
		}
	})
	return func() float64 {
		cancel()
		if err := g.Wait(); err != nil {
			return 0
		}
		return float64(peak) / (1 << 20)
	}
}
