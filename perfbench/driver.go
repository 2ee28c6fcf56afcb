package main

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"aipan"
	"aipan/internal/annotate"
	"aipan/internal/chatbot"
	"aipan/internal/core"
	"aipan/internal/crawler"
	"aipan/internal/engine"
	"aipan/internal/htmlx"
	"aipan/internal/obs"
	"aipan/internal/risk"
	"aipan/internal/russell"
	"aipan/internal/segment"
	"aipan/internal/store"
	"aipan/internal/textify"
	"aipan/internal/virtualweb"
)

// The traced driver runs the pipeline's per-domain work itself, in the
// pipeline's order and on engine stages with its worker count, so every
// layer boundary is a call the benchmark can time: crawl (fetches below
// it), parse, render, segment and annotate (chatbot calls below both),
// merge, store append and event append. Its funnel and exports must
// equal the untraced pipeline's, which catches the driver drifting from
// core.

type driver struct {
	t         *tracer
	runID     string
	crawler   *crawler.Crawler
	bot       chatbot.Chatbot
	annotator *annotate.Annotator
	riskW     risk.Weights
	pages     *engine.Stage[*crawler.Page, pageResult]
}

type driverOut struct {
	gen       *aipan.Generator
	funnel    core.Funnel
	records   []store.Record
	wall      time.Duration
	queueWait time.Duration
	park      time.Duration
}

type domainItem struct {
	i int
	d russell.DomainInfo
}

type pageResult struct {
	segOK        bool
	usedFallback bool
	pageWords    int
	segSections  int
	segLines     int
	annOK        bool
	anns         []annotate.Annotation
	annFallbacks map[string]bool
	aspects      []annotate.AspectStats
}

// runDriver processes the study of (seed, universe) with workers
// domain workers. Records are kept when retain is set; st and ev, when
// non-nil, receive every record and event in study order.
func runDriver(ctx context.Context, t *tracer, seed int64, universe, workers int,
	retain bool, st store.Store, ev store.EventSink) (*driverOut, error) {
	reg := obs.NewRegistry()
	p, err := aipan.NewPipeline(aipan.PipelineConfig{Seed: seed, UniverseDomains: universe, Registry: reg})
	if err != nil {
		return nil, fmt.Errorf("driver: %w", err)
	}
	study := core.StudyFor(seed, universe, 0)
	domains := p.Domains()

	client := &http.Client{Transport: &tracedTransport{next: virtualweb.NewTransport(p.Generator()), t: t}}
	cr, err := crawler.New(crawler.Config{Client: client, Registry: reg})
	if err != nil {
		return nil, fmt.Errorf("driver: %w", err)
	}
	sim := &tracedBot{next: chatbot.NewSim(chatbot.GPT4Profile()), t: t, layer: "chatbot.sim"}
	cl := chatbot.NewClient(sim, chatbot.WithConcurrency(4*workers), chatbot.WithCache(false),
		chatbot.WithRegistry(reg))
	bot := &tracedBot{next: cl, t: t, layer: "chatbot"}
	dr := &driver{
		t: t, runID: p.RunID(), crawler: cr, bot: bot,
		annotator: annotate.New(bot, annotate.WithRegistry(reg)),
		riskW:     risk.DefaultWeights(),
	}
	dr.pages = engine.NewStage(reg, "page", engine.Policy{Workers: engine.Unbounded}, dr.processPage)

	n := len(domains)
	window := 4 * workers
	cells := make([]core.FunnelCell, n)
	out := &driverOut{gen: p.Generator()}
	if retain {
		out.records = make([]store.Record, n)
	}
	finished := make([]time.Time, n)
	delivered := make([]time.Time, n)
	var waitMu sync.Mutex
	var appendErr error

	proc := engine.NewStage(reg, "process", engine.Policy{Workers: workers},
		func(ctx context.Context, it domainItem) (domainOutcomeT, error) {
			now := time.Now()
			eligible := eligibleAt(delivered, it.i, window)
			waitMu.Lock()
			if d := now.Sub(eligible); d > 0 {
				out.queueWait += d
			}
			waitMu.Unlock()
			rec, e := dr.domainWork(ctx, it.d)
			finished[it.i] = time.Now()
			return domainOutcomeT{rec: rec, ev: e}, nil
		})
	deliver := func(i int, o domainOutcomeT, _ error) {
		now := time.Now()
		delivered[i] = now
		out.park += now.Sub(finished[i])
		cells[i] = core.CellOf(&o.rec)
		if retain {
			out.records[i] = o.rec
		}
		if st != nil {
			if err := st.Append(&o.rec); err != nil && appendErr == nil {
				appendErr = err
			}
		}
		if ev != nil {
			o.ev.Seq = i
			if err := ev.Append(&o.ev); err != nil && appendErr == nil {
				appendErr = err
			}
		}
	}
	start := time.Now()
	for i := 0; i < n && i < window; i++ {
		delivered[i] = start // items inside the first window are eligible at once
	}
	err = proc.StreamDeliver(ctx, n, window,
		func(i int) domainItem { return domainItem{i: i, d: domains[i]} }, deliver)
	out.wall = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("driver: %w", err)
	}
	if appendErr != nil {
		return nil, fmt.Errorf("driver: append: %w", appendErr)
	}
	out.funnel = core.FoldFunnel(study.Companies, study.Corrected, cells)
	return out, nil
}

// eligibleAt is the moment item i became claimable: when the item a
// window ahead of it was delivered (the first window is seeded with the
// start). The engine's lock orders that delivery before this claim.
func eligibleAt(delivered []time.Time, i, window int) time.Time {
	if i < window {
		return delivered[i]
	}
	return delivered[i-window]
}

type domainOutcomeT struct {
	rec store.Record
	ev  store.Event
}

// domainWork is the pipeline's per-domain step: crawl, then every
// privacy page through parse → render → segment → annotate on the page
// stage, folded in page order, merged, and scored.
func (dr *driver) domainWork(ctx context.Context, d russell.DomainInfo) (store.Record, store.Event) {
	rec := store.Record{
		Domain:       d.Domain,
		Company:      d.Companies[0].Name,
		Sector:       d.Sector,
		SectorAbbrev: russell.Abbrev(d.Sector),
	}
	for _, c := range d.Companies {
		rec.Tickers = append(rec.Tickers, c.Ticker)
	}
	sort.Strings(rec.Tickers)
	ev := store.Event{RunID: dr.runID, Domain: d.Domain, Sector: d.Sector}

	cctx, cs := dr.t.start(ctx, "crawler")
	cres := dr.crawler.CrawlDomain(cctx, d.Domain)
	cs.end()
	dr.t.add("crawler.pages", float64(cres.PagesFetched()))
	if cres.Success {
		dr.t.add("crawler.ok", 1)
	}
	rec.Crawl = store.CrawlInfo{
		Success:          cres.Success,
		PagesFetched:     cres.PagesFetched(),
		PrivacyPages:     len(cres.PrivacyPages),
		Duplicates:       cres.DuplicateCount,
		NonEnglish:       cres.NonEnglish,
		PDFs:             cres.PDFCount,
		WellKnownPolicy:  cres.WellKnownPolicyOK,
		WellKnownPrivacy: cres.WellKnownPrivacyOK,
		Error:            cres.HomeErr,
	}
	ev.FetchStatus = cres.HomeStatus()
	ev.FetchClass = cres.HomeClass()
	ev.PagesFetched = cres.PagesFetched()
	ev.PolicyPages = len(cres.PrivacyPages)
	if cres.HomeErr != "" {
		ev.Errors = append(ev.Errors, "crawl: "+cres.HomeErr)
	}
	switch {
	case len(cres.PrivacyPages) > 0:
		ev.Language = "en"
	case cres.NonEnglish > 0:
		ev.Language = "non-english"
	}
	if !cres.Success || len(cres.PrivacyPages) == 0 {
		ev.Outcome = store.OutcomeNoPolicy
		if !cres.Success {
			ev.Outcome = store.OutcomeCrawlFailed
		}
		return rec, ev
	}

	pages := make([]*crawler.Page, len(cres.PrivacyPages))
	for i := range cres.PrivacyPages {
		pages[i] = &cres.PrivacyPages[i]
	}
	results, _ := dr.pages.Map(ctx, pages) // page work folds failures into its result

	var pageAnns [][]annotate.Annotation
	fallbacks := map[string]bool{}
	coreWords, mainWords := 0, -1
	anySuccess, anyFallbackSeg := false, false
	for i := range results {
		r := &results[i]
		if !r.segOK {
			continue
		}
		anySuccess = true
		anyFallbackSeg = anyFallbackSeg || r.usedFallback
		coreWords += r.pageWords
		ev.Segments += r.segSections
		ev.Clauses += r.segLines
		if !r.annOK {
			continue
		}
		pageAnns = append(pageAnns, r.anns)
		if r.pageWords > mainWords {
			mainWords = r.pageWords
			fallbacks = map[string]bool{}
			for a := range r.annFallbacks {
				fallbacks[a] = true
			}
			ev.Aspects = aspectOutcomes(r.aspects)
		}
	}
	rec.Extraction = store.ExtractionInfo{Success: anySuccess, UsedFallback: anyFallbackSeg, CoreWords: coreWords}
	ev.Words = coreWords
	if !anySuccess {
		ev.Outcome = store.OutcomeExtractFailed
		ev.Errors = append(ev.Errors, "extract: no privacy page segmented")
		return rec, ev
	}
	_, ms := dr.t.start(ctx, "annotate.merge")
	rec.Annotations = annotate.Merge(pageAnns...)
	ms.end()
	for a := range fallbacks {
		rec.AnnotationFallback = append(rec.AnnotationFallback, a)
	}
	sort.Strings(rec.AnnotationFallback)
	ev.Annotations = len(rec.Annotations)
	for i := range rec.Annotations {
		if !rec.Annotations[i].Novel {
			ev.TaxonomyHits++
		}
	}
	if len(rec.Annotations) == 0 {
		ev.Outcome = store.OutcomeAnnotateFailed
		ev.Errors = append(ev.Errors, "annotate: no annotations kept")
		return rec, ev
	}
	ev.Outcome = store.OutcomeAnnotated
	ev.RiskScore = risk.ScoreRecord(&rec, dr.riskW).Total
	return rec, ev
}

func aspectOutcomes(in []annotate.AspectStats) []store.AspectOutcome {
	if len(in) == 0 {
		return nil
	}
	out := make([]store.AspectOutcome, len(in))
	for i, a := range in {
		out[i] = store.AspectOutcome{Aspect: a.Aspect, Annotations: a.Annotations, Dropped: a.Dropped, Fallback: a.Fallback}
	}
	return out
}

// processPage is one privacy page: parse, render, segment, annotate.
func (dr *driver) processPage(ctx context.Context, page *crawler.Page) (pageResult, error) {
	var out pageResult
	_, ps := dr.t.start(ctx, "htmlx")
	root := htmlx.Parse(page.Body)
	ps.end()
	dr.t.add("htmlx.bytes", float64(len(page.Body)))
	_, ts := dr.t.start(ctx, "textify")
	doc := textify.Render(root)
	ts.end()
	dr.t.add("textify.lines", float64(len(doc.Lines)))

	sctx, ss := dr.t.start(ctx, "segment")
	seg, err := segment.Segment(sctx, dr.bot, doc)
	ss.end()
	if err != nil || !seg.Success() {
		return out, nil
	}
	dr.t.add("segment.ok", 1)
	if seg.UsedFallback {
		dr.t.add("segment.text_fallback", 1)
	}
	out.segOK = true
	out.usedFallback = seg.UsedFallback
	out.pageWords = seg.CoreWordCount()
	out.segSections = seg.SectionCount()
	out.segLines = seg.LineCount()

	actx, as := dr.t.start(ctx, "annotate")
	ares, err := dr.annotator.Annotate(actx, doc, seg)
	as.end()
	if err != nil {
		return out, nil
	}
	dr.t.add("annotate.kept", float64(len(ares.Annotations)))
	dr.t.add("annotate.dropped", float64(ares.Dropped))
	if len(ares.FallbackUsed) > 0 {
		dr.t.add("annotate.fallback", 1)
	}
	out.annOK = true
	out.anns = ares.Annotations
	out.annFallbacks = ares.FallbackUsed
	out.aspects = ares.Aspects
	return out, nil
}
