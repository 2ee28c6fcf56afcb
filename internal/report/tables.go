package report

import (
	"fmt"
	"sort"
	"strings"

	"aipan/internal/stats"
	"aipan/internal/taxonomy"
)

// Table1 regenerates Table 1 (compact) or Table 4 (full): unique
// annotation counts by meta-category and category, with the top-3
// descriptors per category for types/purposes and label descriptions for
// handling/rights.
func (r *Report) Table1(full bool) *stats.Table {
	t := &stats.Table{
		Title:   "Table 1: Summary of AI-generated annotations (unique per policy)",
		Headers: []string{"Aspect", "Meta-category", "Category", "Top descriptors / description"},
	}
	if full {
		t.Title = "Table 4: Summary of AI-generated annotations over all categories"
	}

	// Types.
	types := r.aggregateAspect("types")
	catLimit := 0 // 0 = all; the compact Table 1 shows the top 4 per meta
	if !full {
		catLimit = 4
	}
	typeCats := taxonomy.TypeCategories()
	metas := append([]string(nil), metaOrderTypes...)
	first := true
	for _, meta := range metas {
		aspectCell := ""
		if first {
			aspectCell = fmt.Sprintf("Types (%s)", renderCount(types.total))
			first = false
		}
		metaCell := fmt.Sprintf("%s (%s)", meta, renderCount(types.meta(meta).total))
		cats := categoriesOfMeta(typeCats, meta)
		sort.SliceStable(cats, func(i, j int) bool {
			return types.cat(catKey{meta, cats[i].Name}).total > types.cat(catKey{meta, cats[j].Name}).total
		})
		if catLimit > 0 && len(cats) > catLimit {
			cats = cats[:catLimit]
		}
		for i, c := range cats {
			key := catKey{meta, c.Name}
			mc := metaCell
			if i > 0 {
				mc = ""
			}
			ac := aspectCell
			if i > 0 {
				ac = ""
			}
			t.AddRow(ac, mc,
				fmt.Sprintf("%s (%s)", c.Name, renderCount(types.cat(key).total)),
				strings.Join(types.topDescriptors(key, 3), ", "))
		}
	}

	// Purposes.
	purposes := r.aggregateAspect("purposes")
	purposeCats := taxonomy.PurposeCategories()
	first = true
	for _, meta := range metaOrderPurposes {
		aspectCell := ""
		if first {
			aspectCell = fmt.Sprintf("Purposes (%s)", renderCount(purposes.total))
			first = false
		}
		metaCell := fmt.Sprintf("%s (%s)", meta, renderCount(purposes.meta(meta).total))
		cats := categoriesOfMeta(purposeCats, meta)
		for i, c := range cats {
			key := catKey{meta, c.Name}
			mc, ac := metaCell, aspectCell
			if i > 0 {
				mc, ac = "", ""
			}
			t.AddRow(ac, mc,
				fmt.Sprintf("%s (%s)", c.Name, renderCount(purposes.cat(key).total)),
				strings.Join(purposes.topDescriptors(key, 3), ", "))
		}
	}

	// Handling and rights: labels with descriptions.
	for _, aspect := range []string{"handling", "rights"} {
		agg := r.aggregateAspect(aspect)
		first = true
		for _, group := range labelGroupsFor(aspect) {
			groupName := group[0].Group
			aspectCell := ""
			if first {
				aspectCell = fmt.Sprintf("%s (%s)", titleCase(aspect), renderCount(agg.total))
				first = false
			}
			metaCell := fmt.Sprintf("%s (%s)", groupName, renderCount(agg.meta(groupName).total))
			for i, l := range group {
				key := catKey{groupName, l.Name}
				mc, ac := metaCell, aspectCell
				if i > 0 {
					mc, ac = "", ""
				}
				t.AddRow(ac, mc,
					fmt.Sprintf("%s (%s)", l.Name, renderCount(agg.cat(key).total)),
					l.Desc)
			}
		}
	}
	return t
}

// Table2Types regenerates Table 2a (meta-categories) or Table 5 (all 34
// categories): coverage, mean±SD, and sector extremes.
func (r *Report) Table2Types(full bool) *stats.Table {
	agg := r.aggregateAspect("types")
	t := &stats.Table{
		Title: "Table 2a: Breakdown of collected data types (coverage over annotated companies)",
		Headers: []string{"Meta-category", "Category", "Coverage", "Mean/SD",
			"Highest", "2nd highest", "3rd highest", "Lowest"},
	}
	if full {
		t.Title = "Table 5: Breakdown of collected data types over all categories"
	}
	for _, meta := range metaOrderTypes {
		if !full {
			cov, values, sectors := agg.coverageOf(meta, "")
			row := append([]string{meta, "", cov.String(), stats.MeanSD(values)},
				sectorSummary(sectors, true, 3)...)
			t.AddRow(row...)
			continue
		}
		for _, c := range categoriesOfMeta(taxonomy.TypeCategories(), meta) {
			cov, values, sectors := agg.coverageOf(meta, c.Name)
			row := append([]string{meta, c.Name, cov.String(), stats.MeanSD(values)},
				sectorSummary(sectors, true, 3)...)
			t.AddRow(row...)
		}
	}
	return t
}

// Table2Purposes regenerates Table 2b: purposes by meta-category and
// category with sector extremes.
func (r *Report) Table2Purposes() *stats.Table {
	agg := r.aggregateAspect("purposes")
	t := &stats.Table{
		Title: "Table 2b: Data collection purposes",
		Headers: []string{"(Meta-)category", "Coverage", "Mean/SD",
			"Highest", "2nd highest", "3rd highest", "Lowest"},
	}
	for _, meta := range metaOrderPurposes {
		cov, values, sectors := agg.coverageOf(meta, "")
		row := append([]string{meta, cov.String(), stats.MeanSD(values)},
			sectorSummary(sectors, true, 3)...)
		t.AddRow(row...)
		for _, c := range categoriesOfMeta(taxonomy.PurposeCategories(), meta) {
			ccov, cvalues, csectors := agg.coverageOf(meta, c.Name)
			row := append([]string{"- " + c.Name, ccov.String(), stats.MeanSD(cvalues)},
				sectorSummary(csectors, true, 3)...)
			t.AddRow(row...)
		}
	}
	return t
}

// Table3 regenerates Table 3: handling and rights label coverage with
// sector extremes.
func (r *Report) Table3() *stats.Table {
	t := &stats.Table{
		Title:   "Table 3: Data handling and user rights annotations",
		Headers: []string{"Meta-category", "Category", "Cov.", "Highest", "2nd highest", "Lowest"},
	}
	for _, aspect := range []string{"handling", "rights"} {
		agg := r.aggregateAspect(aspect)
		for _, group := range labelGroupsFor(aspect) {
			groupName := group[0].Group
			for i, l := range group {
				cov, _, sectors := agg.coverageOf(groupName, l.Name)
				gc := groupName
				if i > 0 {
					gc = ""
				}
				cells := sectorSummary(sectors, false, 2)
				t.AddRow(gc, l.Name, cov.String(), cells[0], cells[1], cells[2])
			}
		}
	}
	return t
}

// Table6 regenerates Table 6: example annotations with their verbatim
// text and context, n per aspect.
func (r *Report) Table6(perAspect int) *stats.Table {
	t := &stats.Table{
		Title:   "Table 6: Examples of AI-generated annotations and context",
		Headers: []string{"Aspect", "Category", "Descriptor", "Text", "Context"},
	}
	for _, aspect := range aspectOrder {
		// Prefer diverse categories: walk the annotations in place,
		// taking the first example of each unseen category.
		seen := map[string]bool{}
		count := 0
	walk:
		for _, rec := range r.annotated {
			for i := range rec.Annotations {
				if count >= perAspect {
					break walk
				}
				a := &rec.Annotations[i]
				if a.Aspect != aspect || seen[a.Category] || a.Context == "" {
					continue
				}
				seen[a.Category] = true
				count++
				t.AddRow(aspect, a.Category, a.Descriptor, clip(a.Text, 48), clip(a.Context, 90))
			}
		}
	}
	return t
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}

func titleCase(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}
