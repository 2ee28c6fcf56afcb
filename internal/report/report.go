// Package report regenerates the paper's evaluation artifacts from a
// dataset run: Table 1/4 (annotation summaries), Table 2a/5 (data-type
// coverage by sector), Table 2b (purposes), Table 3 (handling/rights),
// Table 6 (example annotations), the §3/§4 pipeline funnel, the §4
// validation (failure audit and precision against the generator's planted
// ground truth), the §5 distribution claims, and the §6 model comparison.
package report

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"aipan/internal/nlp"
	"aipan/internal/stats"
	"aipan/internal/store"
	"aipan/internal/taxonomy"
	"aipan/internal/webgen"
)

// Report computes tables over a completed dataset. Its tables may be
// rendered concurrently.
type Report struct {
	Records []store.Record
	// Gen supplies ground truth for validation; may be nil for datasets
	// gathered from the real web.
	Gen *webgen.Generator

	// annotated caches the records with ≥1 annotation (the paper's §5
	// denominator: 2,529).
	annotated []*store.Record

	// rollup holds one aggregate per aspectOrder entry, built on first
	// use by a single pass over annotated.
	rollupOnce sync.Once
	rollup     []*aggregate
}

// New builds a Report.
func New(records []store.Record, gen *webgen.Generator) *Report {
	r := &Report{Records: records, Gen: gen}
	for i := range r.Records {
		if r.Records[i].Annotated() {
			r.annotated = append(r.annotated, &r.Records[i])
		}
	}
	return r
}

// AnnotatedCount returns the §5 denominator.
func (r *Report) AnnotatedCount() int { return len(r.annotated) }

// ---------------------------------------------------------- aggregation

// catKey identifies a (meta, category) cell.
type catKey struct{ meta, cat string }

// descCount is a descriptor with its corpus-wide unique-annotation count.
type descCount struct {
	desc  string
	count int
}

// aggregate is the corpus-wide rollup for one aspect. An annotation
// counts once per domain per (meta, category, descriptor).
type aggregate struct {
	// total is the count of unique annotations across the corpus.
	total int
	metas map[string]*cell
	cats  map[catKey]*cell
	// sectors, distinctCats and uniqueAnns are indexed like the
	// annotated records: the record's sector, and its distinct
	// categories and unique annotations in this aspect (for the §5
	// distribution).
	sectors      []string
	distinctCats []int32
	uniqueAnns   []int32
}

// cell is the rollup of one meta-category or category.
type cell struct {
	// total counts unique annotations across the corpus.
	total int
	// perDomain[i] counts the unique annotations of annotated record i,
	// for coverage and mean±SD; nil in emptyCell.
	perDomain []int32
	// descs ranks a category's descriptors; nil for a meta-category.
	descs map[string]*descStat
	// meta is a category's meta-category cell.
	meta *cell
}

// descStat counts one descriptor of a category. last is the index of
// the last annotated record that counted it: a record's annotations are
// added together, so a repeat within one record is a duplicate.
type descStat struct{ count, last int }

// emptyCell stands in for a meta-category or category with no
// annotations.
var emptyCell = &cell{}

func newAggregate(sectors []string) *aggregate {
	return &aggregate{
		metas:        map[string]*cell{},
		cats:         map[catKey]*cell{},
		sectors:      sectors,
		distinctCats: make([]int32, len(sectors)),
		uniqueAnns:   make([]int32, len(sectors)),
	}
}

func (a *aggregate) meta(name string) *cell {
	if c, ok := a.metas[name]; ok {
		return c
	}
	return emptyCell
}

func (a *aggregate) cat(key catKey) *cell {
	if c, ok := a.cats[key]; ok {
		return c
	}
	return emptyCell
}

// add counts the annotation (key, desc) of annotated record i, unless
// record i already counted it.
func (a *aggregate) add(i int, key catKey, desc string) {
	c := a.cats[key]
	if c == nil {
		m := a.metas[key.meta]
		if m == nil {
			m = &cell{perDomain: make([]int32, len(a.sectors))}
			a.metas[key.meta] = m
		}
		c = &cell{perDomain: make([]int32, len(a.sectors)), descs: map[string]*descStat{}, meta: m}
		a.cats[key] = c
	}
	d := c.descs[desc]
	if d == nil {
		d = &descStat{last: -1}
		c.descs[desc] = d
	}
	if d.last == i {
		return
	}
	d.last = i
	d.count++
	a.total++
	c.total++
	c.meta.total++
	c.meta.perDomain[i]++
	if c.perDomain[i] == 0 {
		a.distinctCats[i]++
	}
	c.perDomain[i]++
	a.uniqueAnns[i]++
}

// aggregateAspect returns the rollup of one aspect; an aspect outside
// aspectOrder gets an empty aggregate over the same domains.
func (r *Report) aggregateAspect(aspect string) *aggregate {
	r.rollupOnce.Do(r.buildRollup)
	if i := slices.Index(aspectOrder, aspect); i >= 0 {
		return r.rollup[i]
	}
	return newAggregate(r.rollup[0].sectors)
}

// buildRollup aggregates every aspect in one pass over the annotated
// records.
func (r *Report) buildRollup() {
	sectors := make([]string, len(r.annotated))
	for i, rec := range r.annotated {
		sectors[i] = rec.SectorAbbrev
	}
	r.rollup = make([]*aggregate, len(aspectOrder))
	for i := range r.rollup {
		r.rollup[i] = newAggregate(sectors)
	}
	for i, rec := range r.annotated {
		for j := range rec.Annotations {
			ann := &rec.Annotations[j]
			ai := slices.Index(aspectOrder, ann.Aspect)
			if ai < 0 {
				continue
			}
			desc := ann.Descriptor
			if desc == "" {
				desc = ann.Category // handling/rights count by label
			}
			r.rollup[ai].add(i, catKey{ann.Meta, ann.Category}, desc)
		}
	}
}

// topDescriptors returns the n most common descriptors in a category with
// within-category percentages, ties broken alphabetically.
func (a *aggregate) topDescriptors(key catKey, n int) []string {
	var ds []descCount
	total := 0
	for d, s := range a.cat(key).descs {
		ds = append(ds, descCount{d, s.count})
		total += s.count
	}
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].count != ds[j].count {
			return ds[i].count > ds[j].count
		}
		return ds[i].desc < ds[j].desc
	})
	if len(ds) > n {
		ds = ds[:n]
	}
	var out []string
	for _, d := range ds {
		pct := 0.0
		if total > 0 {
			pct = float64(d.count) / float64(total) * 100
		}
		out = append(out, fmt.Sprintf("%s (%.1f%%)", d.desc, pct))
	}
	return out
}

// coverageOf computes coverage and the covered-domain descriptor counts
// for a category (or meta-category when cat == "").
func (a *aggregate) coverageOf(meta, cat string) (stats.Coverage, []float64, map[string]*stats.SectorStat) {
	col := a.meta(meta).perDomain
	if cat != "" {
		col = a.cat(catKey{meta, cat}).perDomain
	}
	cov := stats.Coverage{Total: len(a.sectors)}
	var values []float64
	sectors := map[string]*stats.SectorStat{}
	for i, sector := range a.sectors {
		n := 0
		if col != nil {
			n = int(col[i])
		}
		ss, ok := sectors[sector]
		if !ok {
			ss = &stats.SectorStat{Sector: sector}
			sectors[sector] = ss
		}
		ss.Coverage.Total++
		if n > 0 {
			cov.Covered++
			values = append(values, float64(n))
			ss.Coverage.Covered++
			ss.Values = append(ss.Values, float64(n))
		}
	}
	return cov, values, sectors
}

// sectorSummary renders the paper's "Highest / 2nd / 3rd / Lowest" sector
// cells.
func sectorSummary(sectors map[string]*stats.SectorStat, withValues bool, nTop int) []string {
	ranked := stats.RankSectors(sectors)
	// Only consider sectors with enough companies for a stable rate.
	var eligible []stats.SectorStat
	for _, s := range ranked {
		if s.Coverage.Total >= 5 {
			eligible = append(eligible, s)
		}
	}
	if len(eligible) == 0 {
		eligible = ranked
	}
	cell := func(s stats.SectorStat) string {
		if withValues && len(s.Values) > 0 {
			return fmt.Sprintf("%s %s %s", s.Sector, s.Coverage, stats.MeanSD(s.Values))
		}
		return fmt.Sprintf("%s %s", s.Sector, s.Coverage)
	}
	var out []string
	for i := 0; i < nTop && i < len(eligible); i++ {
		out = append(out, cell(eligible[i]))
	}
	for len(out) < nTop {
		out = append(out, "-")
	}
	if len(eligible) > 0 {
		out = append(out, cell(eligible[len(eligible)-1]))
	} else {
		out = append(out, "-")
	}
	return out
}

// descriptorKeyEqual compares descriptors modulo casing/inflection.
func descriptorKeyEqual(a, b string) bool {
	return nlp.NormalizeStemmed(a) == nlp.NormalizeStemmed(b)
}

// aspectOrder lists the four annotated aspects in Table 1 order.
var aspectOrder = []string{"types", "purposes", "handling", "rights"}

// labelGroupsFor returns the Table 1 label groups for handling/rights.
func labelGroupsFor(aspect string) [][]taxonomy.Label {
	switch aspect {
	case "handling":
		return [][]taxonomy.Label{taxonomy.RetentionLabels(), taxonomy.ProtectionLabels()}
	case "rights":
		return [][]taxonomy.Label{taxonomy.ChoiceLabels(), taxonomy.AccessLabels()}
	}
	return nil
}

// metaOrderTypes preserves the paper's meta-category order.
var metaOrderTypes = []string{
	taxonomy.MetaPhysicalProfile, taxonomy.MetaDigitalProfile,
	taxonomy.MetaBioHealthProfile, taxonomy.MetaFinancialLegal,
	taxonomy.MetaPhysicalBehavior, taxonomy.MetaDigitalBehavior,
}

var metaOrderPurposes = []string{
	taxonomy.MetaOperations, taxonomy.MetaLegal, taxonomy.MetaThirdParty,
}

// categoriesOfMeta lists categories of a meta in taxonomy order.
func categoriesOfMeta(cats []taxonomy.Category, meta string) []taxonomy.Category {
	var out []taxonomy.Category
	for _, c := range cats {
		if c.Meta == meta {
			out = append(out, c)
		}
	}
	return out
}

// renderCount formats counts with thousands separators like the paper.
func renderCount(n int) string {
	s := fmt.Sprintf("%d", n)
	if len(s) <= 3 {
		return s
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	return s + "," + strings.Join(parts, ",")
}
