package chatbot

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestStripJSON(t *testing.T) {
	cases := []struct{ in, want string }{
		{`[[1, ["types"]]]`, `[[1, ["types"]]]`},
		{"```json\n[[1, \"x\"]]\n```", `[[1, "x"]]`},
		{"Here is the output:\n[[1, \"x\"]]", `[[1, "x"]]`},
		{"```\n{\"a\":1}\n```", `{"a":1}`},
	}
	for _, c := range cases {
		if got := StripJSON(c.in); got != c.want {
			t.Errorf("StripJSON(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseLineLabelsRoundTrip(t *testing.T) {
	in := []LineLabels{
		{Line: 1, Labels: []string{"types"}},
		{Line: 5, Labels: []string{"purposes", "handling"}},
	}
	got, err := ParseLineLabels(EncodeLineLabels(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Errorf("round trip: %+v != %+v", got, in)
	}
}

func TestParseLineLabelsBareString(t *testing.T) {
	got, err := ParseLineLabels(`[[3, "types"]]`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Line != 3 || got[0].Labels[0] != "types" {
		t.Errorf("got %+v", got)
	}
}

func TestParseLineLabelsErrors(t *testing.T) {
	for _, bad := range []string{`not json`, `[[1]]`, `[["x", ["a"]]]`, `[[1, 2, 3]]`} {
		if _, err := ParseLineLabels(bad); err == nil {
			t.Errorf("ParseLineLabels(%q) should fail", bad)
		}
	}
}

func TestParseExtractionsRoundTrip(t *testing.T) {
	in := []Extraction{{Line: 4, Text: "email address"}, {Line: 9, Text: "gps location"}}
	got, err := ParseExtractions(EncodeExtractions(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Errorf("round trip: %+v != %+v", got, in)
	}
}

func TestParseExtractionsErrors(t *testing.T) {
	for _, bad := range []string{`{}`, `[[1]]`, `[[1, 2]]`, `[["a","b"]]`} {
		if _, err := ParseExtractions(bad); err == nil {
			t.Errorf("ParseExtractions(%q) should fail", bad)
		}
	}
}

func TestParseNormalizationsRoundTrip(t *testing.T) {
	in := []Normalization{{Surface: "mailing address", Meta: "Physical profile", Category: "Contact info", Descriptor: "postal address"}}
	got, err := ParseNormalizations(EncodeNormalizations(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Errorf("round trip: %+v != %+v", got, in)
	}
}

func TestParseLabeledMentionsRoundTrip(t *testing.T) {
	in := []LabeledMention{{Line: 3, Group: "Data retention", Label: "Stated", Text: "six (6) years"}}
	got, err := ParseLabeledMentions(EncodeLabeledMentions(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Errorf("round trip: %+v != %+v", got, in)
	}
}

func TestParseLabeledMentionsErrors(t *testing.T) {
	for _, bad := range []string{`[[1, "a", "b"]]`, `[["x","a","b","c"]]`} {
		if _, err := ParseLabeledMentions(bad); err == nil {
			t.Errorf("ParseLabeledMentions(%q) should fail", bad)
		}
	}
}

func TestEmptyEncodings(t *testing.T) {
	if got := EncodeExtractions(nil); got != "[]" {
		t.Errorf("empty extractions = %q", got)
	}
	es, err := ParseExtractions("[]")
	if err != nil || len(es) != 0 {
		t.Errorf("parse empty: %v %v", es, err)
	}
}

// The reference parsers are the reflective encoding/json decoders the
// tuple scanner replaced. FuzzParseReplies holds the scanner to them:
// same error-or-success on every input, equal values on success.

func refParseLineLabels(s string) ([]LineLabels, error) {
	var raw [][]json.RawMessage
	if err := json.Unmarshal([]byte(StripJSON(s)), &raw); err != nil {
		return nil, err
	}
	out := make([]LineLabels, 0, len(raw))
	for i, tup := range raw {
		if len(tup) != 2 {
			return nil, fmt.Errorf("tuple %d has %d elements", i, len(tup))
		}
		var ll LineLabels
		if err := json.Unmarshal(tup[0], &ll.Line); err != nil {
			return nil, err
		}
		if err := json.Unmarshal(tup[1], &ll.Labels); err != nil {
			var one string
			if err2 := json.Unmarshal(tup[1], &one); err2 != nil {
				return nil, err
			}
			ll.Labels = []string{one}
		}
		out = append(out, ll)
	}
	return out, nil
}

func refParseExtractions(s string) ([]Extraction, error) {
	var raw [][]json.RawMessage
	if err := json.Unmarshal([]byte(StripJSON(s)), &raw); err != nil {
		return nil, err
	}
	out := make([]Extraction, 0, len(raw))
	for i, tup := range raw {
		if len(tup) != 2 {
			return nil, fmt.Errorf("tuple %d has %d elements", i, len(tup))
		}
		var e Extraction
		if err := json.Unmarshal(tup[0], &e.Line); err != nil {
			return nil, err
		}
		if err := json.Unmarshal(tup[1], &e.Text); err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

func refParseNormalizations(s string) ([]Normalization, error) {
	var raw [][]string
	if err := json.Unmarshal([]byte(StripJSON(s)), &raw); err != nil {
		return nil, err
	}
	out := make([]Normalization, 0, len(raw))
	for i, tup := range raw {
		if len(tup) != 4 {
			return nil, fmt.Errorf("tuple %d has %d elements", i, len(tup))
		}
		out = append(out, Normalization{Surface: tup[0], Meta: tup[1], Category: tup[2], Descriptor: tup[3]})
	}
	return out, nil
}

func refParseLabeledMentions(s string) ([]LabeledMention, error) {
	var raw [][]json.RawMessage
	if err := json.Unmarshal([]byte(StripJSON(s)), &raw); err != nil {
		return nil, err
	}
	out := make([]LabeledMention, 0, len(raw))
	for i, tup := range raw {
		if len(tup) != 4 {
			return nil, fmt.Errorf("tuple %d has %d elements", i, len(tup))
		}
		var m LabeledMention
		for j, dst := range []any{&m.Line, &m.Group, &m.Label, &m.Text} {
			if err := json.Unmarshal(tup[j], dst); err != nil {
				return nil, err
			}
		}
		out = append(out, m)
	}
	return out, nil
}

// simReplies returns real simulator replies for every task, so the fuzz
// corpus starts from the wire format the pipeline sees.
func simReplies(tb testing.TB) []string {
	tb.Helper()
	policy := "[1] Information We Collect\n" +
		"[2] We collect your email address, mailing address and phone number.\n" +
		"[3] We use your information to prevent fraud and send you marketing communications.\n" +
		"[4] We retain your personal information for six (6) years.\n" +
		"[5] You may opt out at any time by clicking the unsubscribe link.\n"
	reqs := []Request{
		HeadingLabelsRequest("[1] Information We Collect\n[2] Your Rights and Choices\n"),
		SegmentTextRequest(policy),
		ExtractTypesRequest(policy, 3),
		NormalizeTypesRequest([]string{"mailing address", "e-mail address", "gps coordinates"}, 3),
		ExtractPurposesRequest(policy, 3),
		NormalizePurposesRequest([]string{"prevent fraud", "marketing communications"}, 3),
		HandlingLabelsRequest(policy),
		RightsLabelsRequest(policy),
	}
	var out []string
	for _, bot := range []*Sim{NewSim(GPT4Profile()), NewSim(GPT35Profile())} {
		for _, req := range reqs {
			resp, err := bot.Complete(context.Background(), req)
			if err != nil {
				tb.Fatalf("Complete(%s): %v", req.Task, err)
			}
			out = append(out, resp.Content)
		}
	}
	return out
}

var replyEdgeCases = []string{
	"```json\n[[1, \"x\"]]\n```",
	"Here is the output:\n[[1, [\"types\"]]]",
	`null`, ` null `, `[]`, `[null]`, `[[null,null]]`, `[[null,null,null,null]]`,
	`[[1e2, "x"]]`, `[[1.0, "x"]]`, `[[-0, "x"]]`, `[[01, "x"]]`,
	`[[12345678901234567890, "x"]]`, `[[-9223372036854775808, "x"]]`,
	`[[1, "é"]]`, `[[1, "\u00e9"]]`, `[[1, "\ud83d\ude00"]]`, `[[1, "\ud83d"]]`,
	"[[1, \"\xff\xfe\"]]", "[[1, \"a\x01b\"]]", `[[1, "a\"b\\c"]]`,
	`[[1, "x"]] trailing`, `[[1, "x"]],`, "[[1,\f\"x\"]]",
	`[[3, "types"]]`, `[[3, []]]`, `[[3, [null, "a"]]]`, `[[3, null]]`,
	`[["a", "b", "c", "d"]]`, `[[1, "a", "b", "c"]]`, `[[1, "a", null, "c"]]`,
	`[[1, "x"],]`, `[,[1, "x"]]`, `[[1 "x"]]`, `[[1, "x"]`, `[[1, "x`, `{}`, `"x"`, `[true]`,
}

func checkSame[T any](t *testing.T, name, s string, parse, ref func(string) ([]T, error)) []T {
	t.Helper()
	got, err := parse(s)
	want, refErr := ref(s)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s(%q): scanner error %v, reference error %v", name, s, err, refErr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s(%q) = %#v, reference %#v", name, s, got, want)
	}
	return got
}

// checkRoundTrip asserts Parse(Encode(x)) == x. Encoding writes a nil
// label list as [], which parses back as an empty, non-nil list.
func checkRoundTrip[T any](t *testing.T, name string, x []T, encode func([]T) string, parse func(string) ([]T, error)) {
	t.Helper()
	if x == nil {
		return
	}
	got, err := parse(encode(x))
	if err != nil {
		t.Fatalf("%s round trip of %#v: %v", name, x, err)
	}
	if !reflect.DeepEqual(got, x) {
		t.Fatalf("%s round trip: %#v != %#v", name, got, x)
	}
}

// replyGen grows a tuple reply from fuzz bytes, one choice per byte:
// byte-level mutation of raw replies rarely builds new JSON structure, a
// walk of the tuple grammar does. Choice 0, which running out of bytes
// also gives, is always the well-formed option.
type replyGen struct {
	in  string
	out strings.Builder
}

var (
	genScalars = []string{`"a"`, "7", "null", `""`, "-0", `"é"`, `"\u00e9"`, `"\ud83d\ude00"`, `"\ud83d"`,
		"\"\xff\"", "\"\x01\"", `"a\"b"`, "1.0", "1e2", "01", "-", "9223372036854775808",
		"-9223372036854775808", "true", "{}", `"`, "x"}
	genSeps   = []string{",", " , ", "", ",,", "\n,\t", "\f,"}
	genCloses = []string{"]", " ]", ",]", "]]", ""}
)

func (g *replyGen) pick(n int) int {
	if g.in == "" {
		return 0
	}
	c := int(g.in[0])
	g.in = g.in[1:]
	return c % n
}

// array writes an array at depth 0 (the reply), 1 (a tuple) or 2 (a label
// list); its elements are arrays one level down or, mostly at depth 1 and
// always at depth 2, scalars.
func (g *replyGen) array(depth int) {
	g.out.WriteByte('[')
	for i, n := 0, g.pick(6); i < n; i++ {
		if i > 0 {
			g.out.WriteString(genSeps[g.pick(len(genSeps))])
		}
		if nested := g.pick(4); depth == 0 && nested != 3 || depth == 1 && nested == 1 {
			g.array(depth + 1)
		} else {
			g.out.WriteString(genScalars[g.pick(len(genScalars))])
		}
	}
	g.out.WriteString(genCloses[g.pick(len(genCloses))])
}

func genReply(in string) string {
	g := replyGen{in: in}
	g.array(0)
	return g.out.String()
}

func FuzzParseReplies(f *testing.F) {
	for _, s := range simReplies(f) {
		f.Add(s)
	}
	for _, s := range replyEdgeCases {
		f.Add(s)
	}
	// Short choice strings, for genReply to grow into replies.
	for _, n := range []int{4, 12, 24} {
		for _, c := range []string{"\x01", "\x02\x00", "\x04\x00\x01"} {
			f.Add(strings.Repeat(c, n))
		}
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkReply(t, s)
		checkReply(t, genReply(s))
	})
}

// checkReply holds every parser to its reference on s and checks the
// round trip of whatever parses.
func checkReply(t *testing.T, s string) {
	t.Helper()
	lls := checkSame(t, "ParseLineLabels", s, ParseLineLabels, refParseLineLabels)
	for i := range lls {
		if lls[i].Labels == nil {
			lls[i].Labels = []string{}
		}
	}
	checkRoundTrip(t, "ParseLineLabels", lls, EncodeLineLabels, ParseLineLabels)
	es := checkSame(t, "ParseExtractions", s, ParseExtractions, refParseExtractions)
	checkRoundTrip(t, "ParseExtractions", es, EncodeExtractions, ParseExtractions)
	ns := checkSame(t, "ParseNormalizations", s, ParseNormalizations, refParseNormalizations)
	checkRoundTrip(t, "ParseNormalizations", ns, EncodeNormalizations, ParseNormalizations)
	ms := checkSame(t, "ParseLabeledMentions", s, ParseLabeledMentions, refParseLabeledMentions)
	checkRoundTrip(t, "ParseLabeledMentions", ms, EncodeLabeledMentions, ParseLabeledMentions)
}

// TestParseEdgeValues pins values outright; FuzzParseReplies only checks
// that the scanner agrees with the reference decoders.
func TestParseEdgeValues(t *testing.T) {
	for in, want := range map[string][]Extraction{
		`null`:                        {},
		`[[1, "\u00e9\ud83d\ude00"]]`: {{Line: 1, Text: "é😀"}},
		"[[1, \"\xff\"]]":             {{Line: 1, Text: "\ufffd"}},
	} {
		if got, err := ParseExtractions(in); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("ParseExtractions(%q) = %#v, %v; want %#v", in, got, err, want)
		}
	}
	lls, err := ParseLineLabels(`[[1, null], [2, []], [3, [null, "a"]]]`)
	want := []LineLabels{{Line: 1}, {Line: 2, Labels: []string{}}, {Line: 3, Labels: []string{"", "a"}}}
	if err != nil || !reflect.DeepEqual(lls, want) {
		t.Errorf("ParseLineLabels null/empty labels = %#v, %v; want %#v", lls, err, want)
	}
}

func TestParseErrorsNameParserAndTuple(t *testing.T) {
	_, err := ParseLabeledMentions(`[[1, "a", "b", "c"], [2, "a", 3, "c"]]`)
	if err == nil || !strings.Contains(err.Error(), "parsing labeled mentions: tuple 1 at offset") {
		t.Errorf("error %v should name the parser and the tuple", err)
	}
}
