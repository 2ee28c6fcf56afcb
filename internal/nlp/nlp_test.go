package nlp

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestWords(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"We collect your Email Address.", []string{"we", "collect", "your", "email", "address"}},
		{"don't opt-out", []string{"don't", "opt-out"}},
		{"[12] IP address (IPv4)", []string{"12", "ip", "address", "ipv4"}},
		{"", nil},
		{"   ", nil},
		{"a-b- c", []string{"a-b", "c"}},
	}
	for _, c := range cases {
		if got := Words(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Words(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSentences(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"We collect data. For example, e.g. your name. Prices like 3.5 percent! Done?", []string{
			"We collect data.",
			"For example, e.g. your name.",
			"Prices like 3.5 percent!",
			"Done?",
		}},
		{"  Lead.\u00a0 ; trail  ", []string{"Lead.", ";", "trail"}},
		{" \t ", nil},
	}
	for _, c := range cases {
		var got []string
		for _, sp := range AppendSentenceSpans(nil, c.in) {
			got = append(got, c.in[sp.Start:sp.End])
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("AppendSentenceSpans(%q) = %#v, want %#v", c.in, got, c.want)
		}
	}
}

func TestWordStarts(t *testing.T) {
	in := "We collect your Email  Address’s."
	toks, starts := AppendWordStarts(nil, nil, in)
	if want := Words(in); !reflect.DeepEqual(toks, want) {
		t.Errorf("AppendWordStarts tokens = %v, want %v", toks, want)
	}
	if want := []int{0, 3, 11, 16, 23}; !reflect.DeepEqual(starts, want) {
		t.Errorf("AppendWordStarts starts = %v, want %v", starts, want)
	}
}

func TestSingular(t *testing.T) {
	cases := map[string]string{
		"addresses":   "address",
		"address":     "address",
		"cookies":     "cookie",
		"identifiers": "identifier",
		"business":    "business",
		"categories":  "category",
		"children":    "child",
		"status":      "status",
		"statuses":    "status",
		"gps":         "gps",
		"records":     "record",
		"analysis":    "analysis",
		"policies":    "policy",
		"boxes":       "box",
	}
	for in, want := range cases {
		if got := Singular(in); got != want {
			t.Errorf("Singular(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNormalizeStemmed(t *testing.T) {
	a := NormalizeStemmed("Email Addresses")
	b := NormalizeStemmed("email address")
	if a != b {
		t.Errorf("%q != %q", a, b)
	}
}

func TestContainsWords(t *testing.T) {
	text := "We may log your current Internet address and the type of browser software used."
	if !ContainsWords(text, "type of browser software") {
		t.Error("contiguous phrase not found")
	}
	if !ContainsWords(text, "internet address browser") {
		t.Error("discontinuous phrase not found")
	}
	if ContainsWords(text, "social security number") {
		t.Error("absent phrase falsely found")
	}
	if ContainsWords(text, "") {
		t.Error("empty phrase should not match")
	}
}

func TestFindPhrase(t *testing.T) {
	text := "we collect your email addresses and phone numbers"
	s, e, ok := FindPhrase(text, "email address", 0)
	if !ok || s != 3 || e != 5 {
		t.Errorf("FindPhrase = %d,%d,%v", s, e, ok)
	}
	_, _, ok = FindPhrase(text, "postal address", 0)
	if ok {
		t.Error("should not find postal address")
	}
	// Gap allowance.
	_, _, ok = FindPhrase("contact and location information", "contact information", 2)
	if !ok {
		t.Error("gapped phrase not found")
	}
}

func TestIsNegatedMention(t *testing.T) {
	cases := []struct {
		sentence, mention string
		want              bool
	}{
		{"We do not collect biometric data from users.", "biometric data", true},
		{"We collect biometric data from users.", "biometric data", false},
		{"We never sell your email address.", "email address", true},
		{"This privacy notice does not apply to campaign engagement data.", "campaign engagement", true},
		{"We do not sell data, but we collect your email address for service.", "email address", false},
		{"We collect your name; we do not collect your SSN.", "name", false},
		{"Without your consent we will not share location data.", "location data", true},
	}
	for _, c := range cases {
		if got := IsNegatedMention(c.sentence, c.mention); got != c.want {
			t.Errorf("IsNegatedMention(%q, %q) = %v, want %v", c.sentence, c.mention, got, c.want)
		}
	}
}

func TestSentenceOf(t *testing.T) {
	text := "We value privacy. We retain your data for six (6) years. Contact us anytime."
	got := SentenceOf(text, "six years")
	if got != "We retain your data for six (6) years." {
		t.Errorf("SentenceOf = %q", got)
	}
}

func TestParseRetention(t *testing.T) {
	cases := []struct {
		in   string
		days int
		ok   bool
	}{
		{"we retain data for 2 years", 730, true},
		{"for the period you use our services plus six (6) years", 2190, true},
		{"records are kept for 90 days", 90, true},
		{"retained for twelve months", 360, true},
		{"for up to 50 years", 18250, true},
		{"retained for 1 day", 1, true},
		{"we retain data as long as necessary", 0, false},
		{"founded 20 years ago is irrelevant but still a period", 7300, true},
	}
	for _, c := range cases {
		p, ok := ParseRetention(c.in)
		if ok != c.ok || (ok && p.Days != c.days) {
			t.Errorf("ParseRetention(%q) = %+v,%v want days=%d ok=%v", c.in, p, ok, c.days, c.ok)
		}
	}
}

func TestRetentionYears(t *testing.T) {
	p := RetentionPeriod{Days: 730}
	if y := p.Years(); y < 1.99 || y > 2.01 {
		t.Errorf("Years = %v", y)
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"kitten", "sitting", 3},
		{"", "abc", 3},
		{"abc", "", 3},
		{"same", "same", 0},
		{"email", "emails", 1},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinSymmetryProperty(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 64 {
			a = a[:64]
		}
		if len(b) > 64 {
			b = b[:64]
		}
		return Levenshtein(a, b) == Levenshtein(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinTriangleProperty(t *testing.T) {
	f := func(a, b, c string) bool {
		trim := func(s string) string {
			if len(s) > 32 {
				return s[:32]
			}
			return s
		}
		a, b, c = trim(a), trim(b), trim(c)
		return Levenshtein(a, c) <= Levenshtein(a, b)+Levenshtein(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestJaccardWords(t *testing.T) {
	if JaccardWords("email address", "email addresses") != 1 {
		t.Error("stemmed jaccard should be 1")
	}
	if got := JaccardWords("email address", "postal address"); got <= 0 || got >= 1 {
		t.Errorf("partial overlap = %v", got)
	}
	if JaccardWords("alpha", "beta") != 0 {
		t.Error("disjoint should be 0")
	}
}

func TestSingularIdempotentProperty(t *testing.T) {
	f := func(s string) bool {
		for _, w := range Words(s) {
			if Singular(Singular(w)) != Singular(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkContainsWords(b *testing.B) {
	text := "We may collect personal information such as your name, email address, postal address, phone number, and payment card information when you interact with our services."
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ContainsWords(text, "payment card information")
	}
}
