package report

import (
	"fmt"
	"sort"

	"aipan/internal/annotate"
	"aipan/internal/nlp"
	"aipan/internal/stats"
	"aipan/internal/store"
	"aipan/internal/taxonomy"
	"aipan/internal/webgen"
)

// FailureAudit breaks failed domains down by cause — the exact-population
// version of the paper's 50-domain manual audit (§4).
type FailureAudit struct {
	CrawlFailures      int
	ExtractionFailures int
	ByClass            map[webgen.FailureClass]int
}

// Audit computes the failure breakdown against ground truth.
func (r *Report) Audit() FailureAudit {
	fa := FailureAudit{ByClass: map[webgen.FailureClass]int{}}
	if r.Gen == nil {
		return fa
	}
	for i := range r.Records {
		rec := &r.Records[i]
		if rec.Crawl.Success && rec.Extraction.Success {
			continue
		}
		site := r.Gen.Site(rec.Domain)
		if site == nil {
			continue
		}
		fa.ByClass[site.Failure]++
		if !rec.Crawl.Success {
			fa.CrawlFailures++
		} else if !rec.Extraction.Success {
			fa.ExtractionFailures++
		}
	}
	return fa
}

// AuditTable renders the audit like the paper's §4 narrative.
func (r *Report) AuditTable() *stats.Table {
	fa := r.Audit()
	t := &stats.Table{
		Title:   "§4 failure audit (full population vs the paper's 50-domain sample)",
		Headers: []string{"Failure class", "Domains"},
	}
	var classes []webgen.FailureClass
	for c := range fa.ByClass {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	for _, c := range classes {
		name := string(c)
		if name == "" {
			name = "transient (healthy site failed)"
		}
		t.AddRow(name, fmt.Sprintf("%d", fa.ByClass[c]))
	}
	t.AddRow("TOTAL crawl failures", fmt.Sprintf("%d (paper: 244)", fa.CrawlFailures))
	t.AddRow("TOTAL extraction failures", fmt.Sprintf("%d (paper: 103)", fa.ExtractionFailures))
	return t
}

// Precision is a per-aspect precision estimate.
type Precision struct {
	Aspect  string
	Correct int
	Total   int
}

// Value returns the precision fraction (1 for empty).
func (p Precision) Value() float64 {
	if p.Total == 0 {
		return 1
	}
	return float64(p.Correct) / float64(p.Total)
}

// PrecisionByAspect scores every annotation against the generator's
// planted ground truth — the exact-population version of the paper's
// manual precision estimation (§4: types 89.7%, purposes 94.3%, handling
// 97.5%, rights 90.5%).
func (r *Report) PrecisionByAspect() []Precision {
	out := make([]Precision, len(aspectOrder))
	for i, a := range aspectOrder {
		out[i].Aspect = a
	}
	if r.Gen == nil {
		return out
	}
	idx := map[string]*Precision{}
	for i := range out {
		idx[out[i].Aspect] = &out[i]
	}
	for _, rec := range r.annotated {
		site := r.Gen.Site(rec.Domain)
		if site == nil {
			continue
		}
		truth := truthSets(site)
		for _, ann := range rec.Annotations {
			p, ok := idx[ann.Aspect]
			if !ok {
				continue
			}
			p.Total++
			if truth.matches(ann.Aspect, ann.Meta, ann.Category, ann.Descriptor) {
				p.Correct++
			}
		}
	}
	return out
}

// truthSet answers "was this annotation planted?".
type truthSet struct {
	types    map[string]bool // category|stemmed descriptor
	typeCat  map[string]bool // category alone (novel descriptors)
	purposes map[string]bool
	handling map[string]bool // group|label
	rights   map[string]bool
}

func truthSets(site *webgen.Site) truthSet {
	ts := truthSet{
		types: map[string]bool{}, typeCat: map[string]bool{},
		purposes: map[string]bool{}, handling: map[string]bool{},
		rights: map[string]bool{},
	}
	for _, m := range site.Truth.Types {
		ts.types[m.Category+"|"+nlp.NormalizeStemmed(m.Descriptor)] = true
		ts.typeCat[m.Category] = true
	}
	for _, m := range site.Truth.Purposes {
		ts.purposes[m.Category+"|"+nlp.NormalizeStemmed(m.Descriptor)] = true
	}
	for _, l := range site.Truth.Handling {
		ts.handling[l.Group+"|"+l.Label] = true
	}
	for _, l := range site.Truth.Rights {
		ts.rights[l.Group+"|"+l.Label] = true
	}
	return ts
}

func (ts truthSet) matches(aspect, meta, category, descriptor string) bool {
	switch aspect {
	case "types":
		if ts.types[category+"|"+nlp.NormalizeStemmed(descriptor)] {
			return true
		}
		// Zero-shot descriptors are correct if the category was planted
		// with a novel phrase (descriptor wording may differ slightly).
		return false
	case "purposes":
		return ts.purposes[category+"|"+nlp.NormalizeStemmed(descriptor)]
	case "handling":
		return ts.handling[meta+"|"+category]
	case "rights":
		return ts.rights[meta+"|"+category]
	}
	return false
}

// PrecisionTable renders paper-vs-measured precision.
func (r *Report) PrecisionTable() *stats.Table {
	t := &stats.Table{
		Title:   "§4 annotation precision vs planted ground truth",
		Headers: []string{"Aspect", "Measured", "Paper (manual sample)"},
	}
	paper := map[string]string{
		"types": "89.7%", "purposes": "94.3%", "handling": "97.5%", "rights": "90.5%",
	}
	for _, p := range r.PrecisionByAspect() {
		t.AddRow(p.Aspect, stats.Pct(p.Value()), paper[p.Aspect])
	}
	return t
}

// Distribution reproduces the §5 data-type distribution claims.
type Distribution struct {
	AtLeast3Cats float64 // paper: 93.5%
	Over13Cats   float64 // 52.8%
	Over22Cats   float64 // 13.0%
	Over25Cats   float64 // 4.8%
	// CDMeanCats / CDMeanDescs are the consumer-discretionary means
	// (paper: 16.3 categories, 48.8 descriptors).
	CDMeanCats  float64
	CDMeanDescs float64
	// DataForSale counts companies with a "data for sale" annotation
	// (paper: 26).
	DataForSale int
}

// CategoryDistribution computes the §5 distribution numbers.
func (r *Report) CategoryDistribution() Distribution {
	agg := r.aggregateAspect("types")
	var d Distribution
	n := len(agg.sectors)
	if n == 0 {
		return d
	}
	var cdCats, cdDescs []float64
	for i, sector := range agg.sectors {
		cats := agg.distinctCats[i]
		if cats >= 3 {
			d.AtLeast3Cats++
		}
		if cats > 13 {
			d.Over13Cats++
		}
		if cats > 22 {
			d.Over22Cats++
		}
		if cats > 25 {
			d.Over25Cats++
		}
		if sector == "CD" {
			cdCats = append(cdCats, float64(cats))
			cdDescs = append(cdDescs, float64(agg.uniqueAnns[i]))
		}
	}
	d.AtLeast3Cats /= float64(n)
	d.Over13Cats /= float64(n)
	d.Over22Cats /= float64(n)
	d.Over25Cats /= float64(n)
	d.CDMeanCats = stats.Mean(cdCats)
	d.CDMeanDescs = stats.Mean(cdDescs)

	for _, rec := range r.annotated {
		for _, a := range rec.Annotations {
			if a.Aspect == "purposes" && a.Descriptor == "data for sale" {
				d.DataForSale++
				break
			}
		}
	}
	return d
}

// RetentionSummary reproduces the §5 stated-retention drill-down.
type RetentionSummary struct {
	MedianDays float64 // paper: 2 years
	MinDays    float64 // 1 day
	MaxDays    float64 // 50 years
	MinDomains []string
	MaxDomains []string
	// SpecificProtection is the fraction of companies mentioning at least
	// one non-generic protection practice (paper: 39.9%).
	SpecificProtection float64
	// ReadWriteAccess / ReadOnlyAccess / NoAccess split user access
	// (paper: 77.5% / 0.5% / 22.0%).
	ReadWriteAccess float64
	ReadOnlyAccess  float64
	NoAccess        float64
	// IndefiniteTotal / IndefiniteAnonymized implement the §6 refinement:
	// how many indefinite-retention mentions concern anonymized or
	// aggregated data (the paper notes these are "less concerning").
	IndefiniteTotal      int
	IndefiniteAnonymized int
}

// Retention computes the §5 handling/rights drill-downs.
func (r *Report) Retention() RetentionSummary {
	var s RetentionSummary
	var days []float64
	byDays := map[int][]string{}
	nAnnotated := len(r.annotated)
	for _, rec := range r.annotated {
		hasSpecific := false
		hasWrite, hasRead := false, false
		for _, a := range rec.Annotations {
			if a.Aspect == "handling" && a.Category == taxonomy.RetentionStated && a.RetentionDays > 0 {
				days = append(days, float64(a.RetentionDays))
				byDays[a.RetentionDays] = append(byDays[a.RetentionDays], rec.Domain)
			}
			if a.Aspect == "handling" && a.Category == taxonomy.RetentionIndefinitely {
				s.IndefiniteTotal++
				if a.Scope == annotate.ScopeAnonymized {
					s.IndefiniteAnonymized++
				}
			}
			if a.Aspect == "handling" && a.Meta == taxonomy.GroupProtection && a.Category != taxonomy.ProtectionGeneric {
				hasSpecific = true
			}
			if a.Aspect == "rights" && a.Meta == taxonomy.GroupAccess {
				switch a.Category {
				case taxonomy.AccessEdit, taxonomy.AccessPartialDelete, taxonomy.AccessFullDelete:
					hasWrite = true
				case taxonomy.AccessView, taxonomy.AccessExport:
					hasRead = true
				}
			}
		}
		if hasSpecific {
			s.SpecificProtection++
		}
		switch {
		case hasWrite:
			s.ReadWriteAccess++
		case hasRead:
			s.ReadOnlyAccess++
		default:
			s.NoAccess++
		}
	}
	if nAnnotated > 0 {
		s.SpecificProtection /= float64(nAnnotated)
		s.ReadWriteAccess /= float64(nAnnotated)
		s.ReadOnlyAccess /= float64(nAnnotated)
		s.NoAccess /= float64(nAnnotated)
	}
	if len(days) > 0 {
		s.MedianDays = stats.Median(days)
		s.MinDays, s.MaxDays = stats.MinMax(days)
		s.MinDomains = byDays[int(s.MinDays)]
		s.MaxDomains = byDays[int(s.MaxDays)]
	}
	return s
}

// FunnelTable renders paper-vs-measured funnel rows (Figure 1 / §3.1).
func FunnelTable(f FunnelNumbers) *stats.Table {
	t := &stats.Table{
		Title:   "Pipeline funnel: paper vs measured",
		Headers: []string{"Stage", "Paper", "Measured"},
	}
	t.AddRow("Index constituents", "2916", fmt.Sprintf("%d", f.Companies))
	t.AddRow("Unique domains", "2892", fmt.Sprintf("%d", f.Domains))
	t.AddRow("Crawl success (≥1 privacy page)", "2648 (91.6%)", fmt.Sprintf("%d (%s)", f.CrawlOK, stats.Pct(float64(f.CrawlOK)/float64(max(1, f.Domains)))))
	t.AddRow("Text extraction success", "2545 (88.0%)", fmt.Sprintf("%d (%s)", f.ExtractOK, stats.Pct(float64(f.ExtractOK)/float64(max(1, f.Domains)))))
	t.AddRow("≥1 annotation", "2529", fmt.Sprintf("%d", f.Annotated))
	t.AddRow("Avg pages crawled (incl. homepage)", "5.1", fmt.Sprintf("%.1f", f.AvgPagesCrawled))
	t.AddRow("Privacy pages per successful domain", "1.8", fmt.Sprintf("%.1f", f.AvgPrivacyPages))
	t.AddRow("/privacy-policy resolves", "54.5%", stats.Pct(float64(f.WellKnownPolicy)/float64(max(1, f.Domains))))
	t.AddRow("/privacy resolves", "48.6%", stats.Pct(float64(f.WellKnownPriv)/float64(max(1, f.Domains))))
	t.AddRow("Median policy length (core words)", "2671", fmt.Sprintf("%.0f", f.MedianWords))
	t.AddRow("Whole-text fallback used (≥1 aspect)", "708", fmt.Sprintf("%d", f.FallbackUsed))
	return t
}

// FunnelNumbers mirrors core.Funnel without importing core (report is a
// leaf consumed by both core-driven binaries and dataset-only tools).
type FunnelNumbers struct {
	Companies       int
	Domains         int
	CrawlOK         int
	ExtractOK       int
	Annotated       int
	AvgPagesCrawled float64
	AvgPrivacyPages float64
	WellKnownPolicy int
	WellKnownPriv   int
	MedianWords     float64
	FallbackUsed    int
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// SampledPrecision draws the paper's sample sizes (340 types, 175
// purposes, 200 handling, 220 rights) deterministically and scores them,
// mirroring the §4 methodology more literally than the full-population
// numbers.
func (r *Report) SampledPrecision(seed int64) []Precision {
	sizes := map[string]int{"types": 340, "purposes": 175, "handling": 200, "rights": 220}
	out := make([]Precision, 0, len(aspectOrder))
	for _, aspect := range aspectOrder {
		p := Precision{Aspect: aspect}
		total := 0
		for _, rec := range r.annotated {
			for i := range rec.Annotations {
				if rec.Annotations[i].Aspect == aspect {
					total++
				}
			}
		}
		if r.Gen == nil || total == 0 {
			out = append(out, p)
			continue
		}
		// Deterministic stride sampling over the aspect's annotations in
		// corpus order.
		n := sizes[aspect]
		if n > total {
			n = total
		}
		stride := total / n
		if stride == 0 {
			stride = 1
		}
		k := -1 // position among the aspect's annotations
	walk:
		for _, rec := range r.annotated {
			for i := range rec.Annotations {
				a := &rec.Annotations[i]
				if a.Aspect != aspect {
					continue
				}
				if k++; k%stride != 0 {
					continue
				}
				if p.Total >= n {
					break walk
				}
				site := r.Gen.Site(rec.Domain)
				if site == nil {
					continue
				}
				ts := truthSets(site)
				p.Total++
				if ts.matches(a.Aspect, a.Meta, a.Category, a.Descriptor) {
					p.Correct++
				}
			}
		}
		out = append(out, p)
	}
	return out
}

// RecordsBySector groups records for external analyses.
func RecordsBySector(records []store.Record) map[string][]*store.Record {
	out := map[string][]*store.Record{}
	for i := range records {
		out[records[i].SectorAbbrev] = append(out[records[i].SectorAbbrev], &records[i])
	}
	return out
}
