// Package annotate turns a segmented privacy policy into structured
// annotations (§3.2.2): collected data types and collection purposes are
// extracted verbatim and then normalized against the taxonomy (two chatbot
// tasks each, with zero-shot descriptors for out-of-glossary terms);
// retention/protection practices and user choices/access are extracted and
// labeled in one task each. Each aspect is annotated from its own section
// first, falling back to the whole text when the section yields nothing,
// and every chatbot-generated mention is programmatically verified to be
// present in the policy text (the hallucination filter).
package annotate

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"aipan/internal/chatbot"
	"aipan/internal/engine"
	"aipan/internal/nlp"
	"aipan/internal/obs"
	"aipan/internal/segment"
	"aipan/internal/taxonomy"
	"aipan/internal/textify"
)

// Annotation is one structured, normalized annotation — the unit of the
// AIPAN dataset.
type Annotation struct {
	// Aspect is "types", "purposes", "handling", or "rights".
	Aspect string `json:"aspect"`
	// Meta is the meta-category (types/purposes) or label group
	// (handling/rights), e.g. "Physical profile" or "Data retention".
	Meta string `json:"meta"`
	// Category is the category (types/purposes) or practice label
	// (handling/rights), e.g. "Contact info" or "Stated".
	Category string `json:"category"`
	// Descriptor is the normalized descriptor for types/purposes (e.g.
	// "postal address"); for handling/rights it is empty except for stated
	// retention periods, where it carries the extracted duration.
	Descriptor string `json:"descriptor,omitempty"`
	// Text is the verbatim mention from the policy.
	Text string `json:"text"`
	// Line is the source line number in the rendered policy.
	Line int `json:"line"`
	// Context is the sentence containing the mention (Table 6's context
	// column).
	Context string `json:"context,omitempty"`
	// Novel marks zero-shot descriptors not present in the glossary.
	Novel bool `json:"novel,omitempty"`
	// RetentionDays is the parsed duration for "Stated" retention.
	RetentionDays int `json:"retention_days,omitempty"`
	// Scope qualifies the annotation; for "Indefinitely" retention it is
	// set to "anonymized" when the mention concerns anonymized/aggregated
	// data — the paper's §6 refinement ("mentions of unlimited retention
	// periods often concern anonymized or aggregated data, which is less
	// concerning than personally identifiable information").
	Scope string `json:"scope,omitempty"`
}

// Key is the repetition-dedup identity: the paper counts unique
// annotations "after eliminating repetitive mentions of the same term for
// each privacy policy".
func (a Annotation) Key() string {
	return a.Aspect + "|" + a.Meta + "|" + a.Category + "|" + a.Descriptor
}

// Result is the annotation outcome for one policy document.
type Result struct {
	Annotations []Annotation
	// FallbackUsed records which aspects fell back to whole-text
	// annotation (§3.2.2 footnote: at least one fallback for 708/2545
	// policies).
	FallbackUsed map[string]bool
	// Dropped counts mentions removed by the hallucination filter.
	Dropped int
	// Aspects breaks the outcome down per aspect in pipeline call order
	// (types, purposes, handling, rights) — the flight recorder persists
	// it so provenance queries can see which aspect dropped or fell back.
	Aspects []AspectStats
}

// AspectStats is one aspect's share of a Result.
type AspectStats struct {
	// Aspect is the aspect name ("types", "purposes", ...).
	Aspect string
	// Annotations kept for this aspect after filtering.
	Annotations int
	// Dropped counts this aspect's hallucination-filter removals.
	Dropped int
	// Fallback is true when the aspect annotated from the whole text.
	Fallback bool
}

// Option configures an Annotator.
type Option func(*Annotator)

// WithGlossarySize controls how many descriptors per category ship in the
// prompts: 0 = the full glossary (default), n>0 = truncated, -1 = no
// glossary at all (the ablation in DESIGN.md §4).
func WithGlossarySize(n int) Option {
	return func(a *Annotator) { a.glossarySize = n }
}

// WithHallucinationFilter toggles the programmatic verbatim-presence check
// (default on; the off switch exists for the ablation bench).
func WithHallucinationFilter(on bool) Option {
	return func(a *Annotator) { a.verify = on }
}

// WithSectionFirst toggles section-first annotation (default on). When
// off, every aspect is annotated from the whole text — the paper's
// token-hungry alternative.
func WithSectionFirst(on bool) Option {
	return func(a *Annotator) { a.sectionFirst = on }
}

// WithRegistry routes the annotator's metrics to reg instead of the
// process-wide default registry.
func WithRegistry(reg *obs.Registry) Option {
	return func(a *Annotator) { a.reg = reg; a.met = newAnnMetrics(reg) }
}

// WithClock replaces the annotator's time source for its latency metrics
// (default obs.SystemClock). Annotation content never reads the clock —
// that is the determinism contract aipanvet enforces.
func WithClock(clock obs.Clock) Option {
	return func(a *Annotator) { a.clock = clock }
}

// Annotator runs the §3.2.2 annotation tasks through a chatbot.
type Annotator struct {
	bot          chatbot.Chatbot
	glossarySize int
	verify       bool
	sectionFirst bool
	reg          *obs.Registry
	met          *annMetrics
	clock        obs.Clock
	aspects      *engine.Stage[aspectCall, Result]
}

// annMetrics instruments the per-aspect annotation chains.
type annMetrics struct {
	aspectDur *obs.HistogramVec // by aspect
	dropped   *obs.Counter
	fallbacks *obs.CounterVec // by aspect
}

func newAnnMetrics(reg *obs.Registry) *annMetrics {
	if reg == nil {
		reg = obs.Default()
	}
	return &annMetrics{
		aspectDur: reg.HistogramVec("aipan_annotate_aspect_duration_seconds",
			"Wall time of one aspect's annotation chain (extract, filter, normalize).", nil, "aspect"),
		dropped: reg.Counter("aipan_annotate_hallucination_dropped_total",
			"Mentions removed by the verbatim-presence hallucination filter."),
		fallbacks: reg.CounterVec("aipan_annotate_fallbacks_total",
			"Aspect annotations that fell back to whole-text extraction.", "aspect"),
	}
}

// New builds an Annotator around a chatbot backend.
func New(bot chatbot.Chatbot, opts ...Option) *Annotator {
	a := &Annotator{bot: bot, glossarySize: 0, verify: true, sectionFirst: true, clock: obs.SystemClock}
	for _, o := range opts {
		o(a)
	}
	if a.met == nil {
		a.met = newAnnMetrics(nil)
	}
	a.aspects = engine.NewStage(a.reg, "annotate", engine.Policy{Workers: engine.Unbounded},
		func(ctx context.Context, call aspectCall) (Result, error) {
			partial := Result{FallbackUsed: map[string]bool{}}
			actx, span := obs.StartSpan(ctx, "annotate."+call.name)
			start := a.clock()
			err := call.fn(actx, call.dc, &partial)
			a.met.aspectDur.With(call.name).Observe(a.clock().Sub(start).Seconds())
			span.End()
			return partial, err
		})
	return a
}

// aspectCall is one aspect's unit of work on the annotate engine stage.
type aspectCall struct {
	name string
	dc   *docContext
	fn   func(context.Context, *docContext, *Result) error
}

// docContext bundles the per-document state shared by the four aspect
// annotations: the document's segmentation, its numbered whole-text prompt
// rendering (built once instead of once per fallback), and the lazily
// filled token index behind the hallucination filter and the context
// column.
type docContext struct {
	seg      *segment.Result
	numbered string
	ix       *docIndex
}

// Annotate produces all annotations for one rendered, segmented policy.
//
// The four aspects (types, purposes, handling, rights) are annotated
// concurrently on the engine's annotate stage — each is an independent
// chain of chatbot calls, so a shared concurrency-bounded chatbot.Client
// sees up to four in-flight requests per policy instead of one. Each
// aspect accumulates into its own partial Result; the partials are merged
// in fixed aspect order, so the output is byte-identical to a sequential
// run.
func (an *Annotator) Annotate(ctx context.Context, doc *textify.Document, seg *segment.Result) (*Result, error) {
	dc := &docContext{seg: seg, numbered: doc.NumberedText(), ix: newDocIndex(doc)}
	calls := []aspectCall{
		{"types", dc, an.annotateTypes},
		{"purposes", dc, an.annotatePurposes},
		{"handling", dc, an.annotateHandling},
		{"rights", dc, an.annotateRights},
	}
	partials, err := an.aspects.Map(ctx, calls)
	if err != nil {
		return nil, err
	}

	res := &Result{FallbackUsed: map[string]bool{}, Aspects: make([]AspectStats, 0, len(partials))}
	for i := range partials {
		res.Annotations = append(res.Annotations, partials[i].Annotations...)
		res.Dropped += partials[i].Dropped
		for a := range partials[i].FallbackUsed {
			res.FallbackUsed[a] = true
		}
		res.Aspects = append(res.Aspects, AspectStats{
			Aspect:      calls[i].name,
			Annotations: len(partials[i].Annotations),
			Dropped:     partials[i].Dropped,
			Fallback:    partials[i].FallbackUsed[calls[i].name],
		})
	}
	res.recordMetrics(an.met)
	return res, nil
}

// recordMetrics folds one document's outcome into the annotator's
// instruments after the partials are merged (single-threaded, so counter
// totals equal the summed Result fields exactly).
func (r *Result) recordMetrics(met *annMetrics) {
	met.dropped.Add(float64(r.Dropped))
	for aspect := range r.FallbackUsed {
		met.fallbacks.With(aspect).Inc()
	}
}

// sectionOrFallback returns the aspect's numbered text, and whether the
// whole document was used instead.
func (an *Annotator) sectionOrFallback(dc *docContext, a taxonomy.Aspect) (string, bool) {
	if an.sectionFirst {
		if text := dc.seg.NumberedText(a); strings.TrimSpace(text) != "" {
			return text, false
		}
	}
	return dc.numbered, true
}

// verifyMention implements the hallucination check: the extracted words
// (stemmed, pw) must be present (possibly discontinuously) on the
// referenced line, or anywhere in the policy as a lenient second chance.
func (an *Annotator) verifyMention(dc *docContext, line int, pw []string) bool {
	if !an.verify {
		return true
	}
	return dc.ix.lineContains(line-1, pw) || dc.ix.anywhere(pw)
}

// contextOf recovers the sentence of the referenced line containing the
// stemmed mention pw, for Table 6.
func contextOf(dc *docContext, line int, pw []string) string {
	return dc.ix.sentenceOf(line-1, pw)
}

// ------------------------------------------------------- types & purposes

func (an *Annotator) annotateTypes(ctx context.Context, dc *docContext, res *Result) error {
	return an.annotateNormalized(ctx, dc, res, taxonomy.AspectTypes,
		func(text string) chatbot.Request { return chatbot.ExtractTypesRequest(text, an.glossarySize) },
		func(mentions []string) chatbot.Request {
			return chatbot.NormalizeTypesRequest(mentions, an.glossarySize)
		},
		taxonomy.NewTypeIndex())
}

func (an *Annotator) annotatePurposes(ctx context.Context, dc *docContext, res *Result) error {
	return an.annotateNormalized(ctx, dc, res, taxonomy.AspectPurposes,
		func(text string) chatbot.Request { return chatbot.ExtractPurposesRequest(text, an.glossarySize) },
		func(mentions []string) chatbot.Request {
			return chatbot.NormalizePurposesRequest(mentions, an.glossarySize)
		},
		taxonomy.NewPurposeIndex())
}

// annotateNormalized runs the two-task extract→normalize flow shared by
// types and purposes.
func (an *Annotator) annotateNormalized(
	ctx context.Context,
	dc *docContext,
	res *Result,
	aspect taxonomy.Aspect,
	extractReq func(string) chatbot.Request,
	normalizeReq func([]string) chatbot.Request,
	ix *taxonomy.Index,
) error {
	text, usedFallback := an.sectionOrFallback(dc, aspect)
	if strings.TrimSpace(text) == "" {
		return nil
	}
	extractions, err := an.extract(ctx, extractReq(text))
	if err != nil {
		return fmt.Errorf("annotate: extracting %s: %w", aspect, err)
	}
	// §3.2.2: fall back to the entire text if the section produced no
	// annotations.
	if len(extractions) == 0 && !usedFallback && an.sectionFirst {
		usedFallback = true
		extractions, err = an.extract(ctx, extractReq(dc.numbered))
		if err != nil {
			return fmt.Errorf("annotate: extracting %s (fallback): %w", aspect, err)
		}
	}
	if usedFallback {
		res.FallbackUsed[string(aspect)] = true
	}

	// Hallucination filter, then collect unique surfaces for normalization.
	// Each mention is stemmed once, for the filter and the context lookup.
	type keptMention struct {
		chatbot.Extraction
		pw []string
	}
	var kept []keptMention
	surfaceSet := map[string]bool{}
	var surfaces []string
	for _, e := range extractions {
		if e.Text == "" {
			continue
		}
		pw := nlp.StemmedWords(e.Text)
		if !an.verifyMention(dc, e.Line, pw) {
			res.Dropped++
			continue
		}
		kept = append(kept, keptMention{e, pw})
		key := nlp.NormalizeStemmed(e.Text)
		if !surfaceSet[key] {
			surfaceSet[key] = true
			surfaces = append(surfaces, e.Text)
		}
	}
	if len(kept) == 0 {
		return nil
	}

	resp, err := an.bot.Complete(ctx, normalizeReq(surfaces))
	if err != nil {
		return fmt.Errorf("annotate: normalizing %s: %w", aspect, err)
	}
	norms, err := chatbot.ParseNormalizations(resp.Content)
	if err != nil {
		return fmt.Errorf("annotate: %s: %w", aspect, err)
	}
	normOf := map[string]chatbot.Normalization{}
	for _, n := range norms {
		normOf[nlp.NormalizeStemmed(n.Surface)] = n
	}

	known := ix.KnownDescriptors()

	for _, e := range kept {
		n, ok := normOf[nlp.NormalizeStemmed(e.Text)]
		if !ok || n.Category == "" || n.Meta == "" {
			continue // unplaceable mention: discarded like the paper's junk rows
		}
		res.Annotations = append(res.Annotations, Annotation{
			Aspect:     string(aspect),
			Meta:       n.Meta,
			Category:   n.Category,
			Descriptor: n.Descriptor,
			Text:       e.Text,
			Line:       e.Line,
			Context:    contextOf(dc, e.Line, e.pw),
			Novel:      !known[nlp.NormalizeStemmed(n.Descriptor)],
		})
	}
	return nil
}

func (an *Annotator) extract(ctx context.Context, req chatbot.Request) ([]chatbot.Extraction, error) {
	resp, err := an.bot.Complete(ctx, req)
	if err != nil {
		return nil, err
	}
	return chatbot.ParseExtractions(resp.Content)
}

// ------------------------------------------------------ handling & rights

func (an *Annotator) annotateHandling(ctx context.Context, dc *docContext, res *Result) error {
	return an.annotateLabeled(ctx, dc, res, taxonomy.AspectHandling, chatbot.HandlingLabelsRequest)
}

func (an *Annotator) annotateRights(ctx context.Context, dc *docContext, res *Result) error {
	return an.annotateLabeled(ctx, dc, res, taxonomy.AspectRights, chatbot.RightsLabelsRequest)
}

func (an *Annotator) annotateLabeled(
	ctx context.Context,
	dc *docContext,
	res *Result,
	aspect taxonomy.Aspect,
	buildReq func(string) chatbot.Request,
) error {
	text, usedFallback := an.sectionOrFallback(dc, aspect)
	if strings.TrimSpace(text) == "" {
		return nil
	}
	mentions, err := an.labeled(ctx, buildReq(text))
	if err != nil {
		return fmt.Errorf("annotate: labeling %s: %w", aspect, err)
	}
	if len(mentions) == 0 && !usedFallback && an.sectionFirst {
		usedFallback = true
		mentions, err = an.labeled(ctx, buildReq(dc.numbered))
		if err != nil {
			return fmt.Errorf("annotate: labeling %s (fallback): %w", aspect, err)
		}
	}
	if usedFallback {
		res.FallbackUsed[string(aspect)] = true
	}

	valid := validLabels(aspect)
	for _, m := range mentions {
		if m.Text == "" || !valid[m.Group+"|"+m.Label] {
			res.Dropped++
			continue
		}
		pw := nlp.StemmedWords(m.Text)
		if !an.verifyMention(dc, m.Line, pw) {
			res.Dropped++
			continue
		}
		a := Annotation{
			Aspect:   string(aspect),
			Meta:     m.Group,
			Category: m.Label,
			Text:     m.Text,
			Line:     m.Line,
			Context:  contextOf(dc, m.Line, pw),
		}
		if m.Group == taxonomy.GroupRetention && m.Label == taxonomy.RetentionStated {
			if p, ok := nlp.ParseRetention(m.Text); ok {
				a.RetentionDays = p.Days
				a.Descriptor = m.Text
			}
		}
		if m.Group == taxonomy.GroupRetention && m.Label == taxonomy.RetentionIndefinitely &&
			anonymizedScope(a.Context) {
			a.Scope = ScopeAnonymized
		}
		res.Annotations = append(res.Annotations, a)
	}
	return nil
}

func (an *Annotator) labeled(ctx context.Context, req chatbot.Request) ([]chatbot.LabeledMention, error) {
	resp, err := an.bot.Complete(ctx, req)
	if err != nil {
		return nil, err
	}
	return chatbot.ParseLabeledMentions(resp.Content)
}

// validLabelSets builds the allowed (group, label) pairs once per aspect:
// the label vocabulary is static, and the old per-document rebuild showed
// up in allocation profiles. The returned maps are shared — read-only.
var validLabelSets = sync.OnceValue(func() map[taxonomy.Aspect]map[string]bool {
	sets := map[taxonomy.Aspect]map[string]bool{}
	for aspect, groups := range map[taxonomy.Aspect][][]taxonomy.Label{
		taxonomy.AspectHandling: {taxonomy.RetentionLabels(), taxonomy.ProtectionLabels()},
		taxonomy.AspectRights:   {taxonomy.ChoiceLabels(), taxonomy.AccessLabels()},
	} {
		v := map[string]bool{}
		for _, ls := range groups {
			for _, l := range ls {
				v[l.Group+"|"+l.Name] = true
			}
		}
		sets[aspect] = v
	}
	return sets
})

// validLabels returns the allowed (group, label) pairs for an aspect, so
// labels invented by weak models are discarded. Aspects without label
// vocabularies yield a nil map, which rejects every lookup.
func validLabels(aspect taxonomy.Aspect) map[string]bool {
	return validLabelSets()[aspect]
}

// ScopeAnonymized marks practices that apply to anonymized/aggregated
// data rather than personally identifiable information.
const ScopeAnonymized = "anonymized"

// anonymizedScopeTerms flag de-identified data contexts.
var anonymizedScopeTerms = []string{
	"anonymized", "anonymised", "aggregated", "aggregate", "de-identified",
	"deidentified", "pseudonymized", "pseudonymised",
}

func anonymizedScope(context string) bool {
	low := strings.ToLower(context)
	for _, t := range anonymizedScopeTerms {
		if strings.Contains(low, t) {
			return true
		}
	}
	return false
}

// Dedup eliminates repetitive mentions of the same term per policy,
// keeping the first occurrence of each Key (the paper's unique-annotation
// counting rule for Tables 1–3).
func Dedup(anns []Annotation) []Annotation {
	seen := map[string]bool{}
	out := make([]Annotation, 0, len(anns))
	for _, a := range anns {
		k := a.Key()
		if a.Category == taxonomy.RetentionStated {
			// Stated periods dedup on the label, not the extracted wording.
			k = a.Aspect + "|" + a.Meta + "|" + a.Category
		}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, a)
	}
	return out
}

// Merge combines annotations from multiple pages of the same domain and
// dedups them (the crawl yields 1.8 privacy pages per domain on average).
func Merge(pages ...[]Annotation) []Annotation {
	var all []Annotation
	for _, p := range pages {
		all = append(all, p...)
	}
	return Dedup(all)
}
