package aipan_test

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"aipan"
)

// TestPaperReproductionGolden pins the reproduction itself: the full
// seed-3000 corpus under the default configuration must give the paper's
// funnel and byte-identical exports. Run-versus-run determinism tests
// cannot catch a refactor that moves both sides; this one can. The
// digests are the paper run's in perfbench/expected.json. Changing one
// must be deliberate: a new value here and there, with the reason the
// output moved.
func TestPaperReproductionGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus run skipped in -short mode")
	}
	p, err := aipan.NewPipeline(aipan.PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	f := res.Funnel
	got := [5]int{f.Companies, f.Domains, f.CrawlOK, f.ExtractOK, f.Annotated}
	if want := [5]int{2916, 2892, 2648, 2545, 2529}; got != want {
		t.Errorf("funnel = %v, want %v", got, want)
	}

	dir := t.TempDir()
	exports := []struct {
		name  string
		write func(path string) error
		want  string
	}{
		{"dataset.jsonl", func(path string) error { return aipan.WriteDataset(path, res.Records) },
			"54e826d55d29f5cdd192e97d565691e67100205b7ad9c886a87ebb65ba4d823e"},
		{"annotations.csv", func(path string) error { return aipan.WriteAnnotationsCSV(path, res.Records) },
			"a2b62744fea0db65b308963b2aeb87e356daee51c046006e454f942df83ab9dd"},
		{"domains.csv", func(path string) error { return aipan.WriteDomainsCSV(path, res.Records) },
			"acc326a6bbfe641f855665071831ff569077fc01d4730a307978c5e960ce346d"},
		{"tables.txt", func(path string) error { return writeTables(path, aipan.NewReport(res.Records, p.Generator())) },
			"589bfc4c9800d03715bd6ad8bfd09b2728806ce9f0bb565bb841ce09fe0c3013"},
	}
	for _, e := range exports {
		path := filepath.Join(dir, e.name)
		if err := e.write(path); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if got := sha256File(t, path); got != e.want {
			t.Errorf("%s sha256 = %s, want %s", e.name, got, e.want)
		}
	}
}

// writeTables renders the paper's seven tables (1, 2a, 2b, 3, 4, 5, 6),
// each followed by a newline — the tables.txt export perfbench digests.
func writeTables(path string, rep *aipan.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, tab := range []*aipan.Table{
		rep.Table1(false), rep.Table2Types(false), rep.Table2Purposes(), rep.Table3(),
		rep.Table1(true), rep.Table2Types(true), rep.Table6(4),
	} {
		fmt.Fprintln(w, tab.Render())
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}

func sha256File(t *testing.T, path string) string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}
