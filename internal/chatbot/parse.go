package chatbot

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The parsers below decode the strict-JSON tuple formats the task prompts
// demand. They tolerate the two deviations real LLMs commonly produce —
// markdown code fences and leading prose — and reject everything else, so
// malformed completions surface as errors the pipeline can retry
// (§3.2: "programmatically verify" chatbot output).

// LineLabels is one heading/line with its assigned aspect labels.
type LineLabels struct {
	Line   int
	Labels []string
}

// Extraction is one verbatim mention located on a numbered line.
type Extraction struct {
	Line int
	Text string
}

// Normalization maps a surface mention onto the taxonomy.
type Normalization struct {
	Surface    string
	Meta       string
	Category   string
	Descriptor string
}

// LabeledMention is one practice mention with its Table 1 label.
type LabeledMention struct {
	Line  int
	Group string
	Label string
	Text  string
}

// StripJSON extracts the JSON payload from a completion: it removes
// ```json fences and any prose before the first '[' or '{'.
func StripJSON(s string) string {
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, "```") {
		s = strings.TrimPrefix(s, "```json")
		s = strings.TrimPrefix(s, "```")
		if i := strings.LastIndex(s, "```"); i >= 0 {
			s = s[:i]
		}
		s = strings.TrimSpace(s)
	}
	start := strings.IndexAny(s, "[{")
	if start > 0 {
		s = s[start:]
	}
	return strings.TrimSpace(s)
}

// ParseLineLabels decodes `[[12, ["types"]], [15, ["purposes","handling"]]]`.
// A bare string in place of the label list is read as a one-label list.
func ParseLineLabels(s string) ([]LineLabels, error) {
	return scanTuples(s, "line labels", func(sc *tupleScanner, ll *LineLabels) {
		sc.int(&ll.Line)
		sc.labels(&ll.Labels)
	})
}

// ParseExtractions decodes `[[4, "email address"], [4, "browsing history"]]`.
func ParseExtractions(s string) ([]Extraction, error) {
	return scanTuples(s, "extractions", func(sc *tupleScanner, e *Extraction) {
		sc.int(&e.Line)
		sc.str(&e.Text)
	})
}

// ParseNormalizations decodes
// `[["mailing address", "Physical profile", "Contact info", "postal address"]]`.
func ParseNormalizations(s string) ([]Normalization, error) {
	return scanTuples(s, "normalizations", func(sc *tupleScanner, n *Normalization) {
		sc.str(&n.Surface)
		sc.str(&n.Meta)
		sc.str(&n.Category)
		sc.str(&n.Descriptor)
	})
}

// ParseLabeledMentions decodes
// `[[3, "Data retention", "Stated", "six (6) years"]]`.
func ParseLabeledMentions(s string) ([]LabeledMention, error) {
	return scanTuples(s, "labeled mentions", func(sc *tupleScanner, m *LabeledMention) {
		sc.int(&m.Line)
		sc.str(&m.Group)
		sc.str(&m.Label)
		sc.str(&m.Text)
	})
}

// scanTuples decodes a reply in one pass: a JSON array of tuple arrays,
// each tuple's fields read by tuple straight into its output element. It
// accepts exactly what encoding/json accepts when decoding into the tuple
// types — top-level null is an empty result, a null field is the zero
// value, integers are integer literals that fit an int — and rejects
// everything else, trailing data included.
func scanTuples[T any](s, what string, tuple func(*tupleScanner, *T)) ([]T, error) {
	sc := tupleScanner{s: StripJSON(s), what: what, tuple: -1}
	out := []T{} // top-level null decodes to an empty, non-nil result
	if sc.ws(); !sc.null() {
		if !sc.next('[') {
			sc.fail("expected an array")
		}
		for first := true; sc.more(first); first = false {
			sc.tuple, sc.field = len(out), 0
			out = append(out, *new(T))
			if sc.ws(); !sc.next('[') {
				sc.fail("expected a tuple array")
			}
			tuple(&sc, &out[len(out)-1])
			if sc.ws(); sc.err == nil && !sc.next(']') {
				sc.fail("expected ']' after %d elements", sc.field)
			}
			sc.tuple = -1
		}
	}
	if sc.ws(); sc.err == nil && sc.i != len(sc.s) {
		sc.fail("unexpected data after the value")
	}
	if sc.err != nil {
		return nil, sc.err
	}
	return out, nil
}

// tupleScanner is the cursor of scanTuples. The first failure sticks in
// err and turns every later read into a no-op.
type tupleScanner struct {
	s     string
	i     int
	err   error
	what  string // the parser's name, for errors
	tuple int    // index of the tuple being decoded, or -1
	field int    // fields of that tuple read so far
}

func (sc *tupleScanner) fail(format string, args ...any) {
	if sc.err != nil {
		return
	}
	where := fmt.Sprintf("offset %d", sc.i)
	if sc.tuple >= 0 {
		where = fmt.Sprintf("tuple %d at offset %d", sc.tuple, sc.i)
	}
	sc.err = fmt.Errorf("chatbot: parsing %s: %s: %w", sc.what, where, fmt.Errorf(format, args...))
}

// ws skips JSON whitespace, and only that.
func (sc *tupleScanner) ws() {
	for sc.i < len(sc.s) && strings.IndexByte(" \t\n\r", sc.s[sc.i]) >= 0 {
		sc.i++
	}
}

// next consumes c if it comes next.
func (sc *tupleScanner) next(c byte) bool {
	if sc.i < len(sc.s) && sc.s[sc.i] == c {
		sc.i++
		return true
	}
	return false
}

// null consumes a null literal if one comes next.
func (sc *tupleScanner) null() bool {
	if strings.HasPrefix(sc.s[sc.i:], "null") {
		sc.i += 4
		return true
	}
	return false
}

// more reports whether the array being walked has another element. It
// consumes the ',' before every element but the first, or the closing ']'.
func (sc *tupleScanner) more(first bool) bool {
	if sc.ws(); sc.err != nil || sc.next(']') {
		return false
	}
	if !first && !sc.next(',') {
		sc.fail("expected ',' or ']'")
		return false
	}
	return true
}

// nextField moves to the tuple's next field, consuming the ',' before every
// field but the first, and reports whether decoding is still on track.
func (sc *tupleScanner) nextField() bool {
	if sc.ws(); sc.err == nil && sc.field > 0 && !sc.next(',') {
		sc.fail("expected ',' after %d elements", sc.field)
	}
	sc.field++
	sc.ws()
	return sc.err == nil
}

// int reads the next field: an integer literal, or null as 0. It reads
// only JSON's integer grammar, so the '.', 'e' or digit after "1" or "0"
// in 1.0, 1e2 or 01 fails the separator check that follows, and a value
// outside int fails ParseInt — encoding/json rejects the same.
func (sc *tupleScanner) int(dst *int) {
	if !sc.nextField() || sc.null() {
		return
	}
	start := sc.i
	sc.next('-')
	if !sc.next('0') {
		for sc.i < len(sc.s) && '0' <= sc.s[sc.i] && sc.s[sc.i] <= '9' {
			sc.i++
		}
	}
	n, err := strconv.ParseInt(sc.s[start:sc.i], 10, 0)
	if err != nil {
		sc.fail("expected an integer that fits an int")
		return
	}
	*dst = int(n)
}

// str reads the next field: a string, or null as "".
func (sc *tupleScanner) str(dst *string) {
	if sc.nextField() {
		*dst = sc.text()
	}
}

// labels reads the next field, a line's labels: an array of strings, a
// bare string as a one-label list, or null as nil.
func (sc *tupleScanner) labels(dst *[]string) {
	if !sc.nextField() || sc.null() {
		return
	}
	if !sc.next('[') {
		*dst = []string{sc.text()}
		return
	}
	*dst = []string{}
	for first := true; sc.more(first); first = false {
		*dst = append(*dst, sc.text())
	}
}

// text decodes a string token, or null as "". A plain ASCII string is
// copied once, so the result never pins the reply. One holding an escape,
// a control byte or a non-ASCII byte is decoded by encoding/json, so
// escapes, surrogate pairs, control bytes and the U+FFFD replacement of
// invalid UTF-8 behave exactly as json.Unmarshal has them.
func (sc *tupleScanner) text() string {
	if sc.ws(); sc.err != nil || sc.null() {
		return ""
	}
	if !sc.next('"') {
		sc.fail("expected a string")
		return ""
	}
	start, plain := sc.i, true
	for ; sc.i < len(sc.s) && sc.s[sc.i] != '"'; sc.i++ {
		switch c := sc.s[sc.i]; {
		case c == '\\':
			sc.i++
			plain = false
		case c < 0x20 || c >= utf8.RuneSelf:
			plain = false
		}
	}
	if sc.i >= len(sc.s) {
		sc.fail("unterminated string")
		return ""
	}
	sc.i++
	if plain {
		return strings.Clone(sc.s[start : sc.i-1])
	}
	var out string
	if err := json.Unmarshal([]byte(sc.s[start-1:sc.i]), &out); err != nil {
		sc.fail("%w", err)
	}
	return out
}

// --- Encoders used by simulated backends (kept beside the parsers so the
// --- wire format lives in one file).

// EncodeLineLabels renders line labels in the task's JSON tuple format.
func EncodeLineLabels(lls []LineLabels) string {
	parts := make([]any, len(lls))
	for i, ll := range lls {
		labels := ll.Labels
		if labels == nil {
			labels = []string{}
		}
		parts[i] = []any{ll.Line, labels}
	}
	return mustJSON(parts)
}

// EncodeExtractions renders extractions in the task's JSON tuple format.
func EncodeExtractions(es []Extraction) string {
	parts := make([]any, len(es))
	for i, e := range es {
		parts[i] = []any{e.Line, e.Text}
	}
	return mustJSON(parts)
}

// EncodeNormalizations renders normalizations in the JSON tuple format.
func EncodeNormalizations(ns []Normalization) string {
	parts := make([]any, len(ns))
	for i, n := range ns {
		parts[i] = []any{n.Surface, n.Meta, n.Category, n.Descriptor}
	}
	return mustJSON(parts)
}

// EncodeLabeledMentions renders labeled mentions in the JSON tuple format.
func EncodeLabeledMentions(ms []LabeledMention) string {
	parts := make([]any, len(ms))
	for i, m := range ms {
		parts[i] = []any{m.Line, m.Group, m.Label, m.Text}
	}
	return mustJSON(parts)
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Only reachable on unmarshalable types, which the encoders never
		// construct.
		panic(err)
	}
	return string(b)
}
