package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"aipan"
	"aipan/internal/core"
	"aipan/internal/obs"
	"aipan/internal/store"
)

// passOut is one pipeline pass: the run plus its exports.
type passOut struct {
	dir      string // where the exports were written
	funnel   core.Funnel
	digests  map[string]string // export file → sha256
	lines    int               // lines in the JSONL export
	cost     procDelta         // Run start → last export file closed
	domains  int
	llmCalls float64
	prompt   float64
	complete float64
	appendEr float64
	records  []store.Record // retained passes only
	exportS  float64        // time spent in the exports
	exportB  int64          // bytes the exports wrote
	reportS  float64        // time spent rendering the report tables
}

// exportNames are the files a pass writes, in the order they are written.
var exportNames = []string{"dataset.jsonl", "annotations.csv", "domains.csv", "tables.txt"}

// setupSamples times pipeline construction — universe, search
// resolution and synthetic web — once per seed in keys. The last key is
// the run's own seed, so the measured pass that follows starts from the
// corpus the last sample built; the others use neighbouring seeds so no
// sample is served from the corpus cache.
func setupSamples(seed int64, universe int, n int) ([]float64, error) {
	var out []float64
	for i := n - 1; i >= 0; i-- {
		key := seed + int64(i)*7919
		runtime.GC()
		start := time.Now()
		if _, err := aipan.NewPipeline(aipan.PipelineConfig{
			Seed: key, UniverseDomains: universe, Registry: obs.NewRegistry(),
		}); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		out = append(out, time.Since(start).Seconds())
	}
	return out, nil
}

// chatbotTotals reads the run's LLM cost from its registry.
func chatbotTotals(reg *obs.Registry) (calls, prompt, complete float64) {
	cv := reg.CounterVec("aipan_chatbot_calls_total", "", "result")
	tv := reg.CounterVec("aipan_chatbot_tokens_total", "", "kind")
	return cv.With("ok").Value() + cv.With("error").Value(), tv.With("prompt").Value(), tv.With("completion").Value()
}

func appendErrors(reg *obs.Registry) float64 {
	return reg.Counter("aipan_pipeline_checkpoint_errors_total", "").Value()
}

// runPaperPass runs the paper's study with records retained and writes
// what `aipan all` writes: the JSONL dataset, both CSV exports and the
// seven report tables. cfg sets the seed, the workers, and optionally a
// domain limit and an events sink (which turns the flight recorder on);
// the pass gives the run a registry of its own.
func runPaperPass(ctx context.Context, cfg aipan.PipelineConfig, dir string) (*passOut, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("paper pass: %w", err)
	}
	reg := obs.NewRegistry()
	cfg.Registry = reg
	p, err := aipan.NewPipeline(cfg)
	if err != nil {
		return nil, fmt.Errorf("paper pass: %w", err)
	}
	runtime.GC()
	before, err := readProc()
	if err != nil {
		return nil, err
	}
	res, err := p.Run(ctx)
	if err != nil {
		return nil, fmt.Errorf("paper pass: %w", err)
	}
	out := &passOut{dir: dir, funnel: res.Funnel, domains: len(res.Records), records: res.Records}
	if err := writeRecordExports(dir, res.Records, p.Generator(), out); err != nil {
		return nil, err
	}
	after, err := readProc()
	if err != nil {
		return nil, err
	}
	out.cost = deltaOf(before, after)
	out.llmCalls, out.prompt, out.complete = chatbotTotals(reg)
	out.appendEr = appendErrors(reg)
	return out, finishDigests(dir, out)
}

// writeRecordExports writes the retained-records exports and the report
// tables, timing each group.
func writeRecordExports(dir string, records []store.Record, gen *aipan.Generator, out *passOut) error {
	start := time.Now()
	if err := aipan.WriteDataset(filepath.Join(dir, exportNames[0]), records); err != nil {
		return fmt.Errorf("export: %w", err)
	}
	if err := aipan.WriteAnnotationsCSV(filepath.Join(dir, exportNames[1]), records); err != nil {
		return fmt.Errorf("export: %w", err)
	}
	if err := aipan.WriteDomainsCSV(filepath.Join(dir, exportNames[2]), records); err != nil {
		return fmt.Errorf("export: %w", err)
	}
	out.exportS = time.Since(start).Seconds()
	start = time.Now()
	if err := writeTables(filepath.Join(dir, exportNames[3]), aipan.NewReport(records, gen)); err != nil {
		return err
	}
	out.reportS = time.Since(start).Seconds()
	return nil
}

// writeTables renders the paper's seven tables (1, 2a, 2b, 3, 4, 5, 6).
func writeTables(path string, rep *aipan.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("tables: %w", err)
	}
	w := bufio.NewWriter(f)
	for _, t := range []*aipan.Table{
		rep.Table1(false), rep.Table2Types(false), rep.Table2Purposes(), rep.Table3(),
		rep.Table1(true), rep.Table2Types(true), rep.Table6(4),
	} {
		if _, err := fmt.Fprintln(w, t.Render()); err != nil {
			_ = f.Close() // the write error is the one to report
			return fmt.Errorf("tables: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return fmt.Errorf("tables: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("tables: %w", err)
	}
	return nil
}

// streamStores are the stores a streaming pass writes into.
type streamStores struct {
	st     *store.Binary
	events *store.EventLog
}

// runStreamPass streams a sized universe (its first limit domains, or
// all with limit 0) into binary:16 with the flight recorder on and
// records discarded, then runs the k-way-merge exports. The stores stay
// open for the caller, which serves from them.
func runStreamPass(ctx context.Context, seed int64, universe, limit int, dir string) (*passOut, *streamStores, error) {
	ss, err := openStreamStores(dir)
	if err != nil {
		return nil, nil, err
	}
	reg := obs.NewRegistry()
	p, err := aipan.NewPipeline(aipan.PipelineConfig{
		Seed: seed, UniverseDomains: universe, Limit: limit, DiscardRecords: true,
		Store: ss.st, Events: ss.events, Registry: reg,
	})
	if err != nil {
		return nil, nil, errAndClose(fmt.Errorf("stream pass: %w", err), ss)
	}
	runtime.GC()
	before, err := readProc()
	if err != nil {
		return nil, nil, errAndClose(err, ss)
	}
	res, err := p.Run(ctx)
	if err != nil {
		return nil, nil, errAndClose(fmt.Errorf("stream pass: %w", err), ss)
	}
	out := &passOut{dir: dir, funnel: res.Funnel, domains: res.Funnel.Domains}
	if err := writeStoreExports(dir, ss.st, out); err != nil {
		return nil, nil, errAndClose(err, ss)
	}
	after, err := readProc()
	if err != nil {
		return nil, nil, errAndClose(err, ss)
	}
	out.cost = deltaOf(before, after)
	out.llmCalls, out.prompt, out.complete = chatbotTotals(reg)
	out.appendEr = appendErrors(reg)
	return out, ss, finishDigests(dir, out)
}

func openStreamStores(dir string) (*streamStores, error) {
	st, err := store.OpenBinary(filepath.Join(dir, "store"), 16)
	if err != nil {
		return nil, fmt.Errorf("stream store: %w", err)
	}
	ev, err := store.OpenEventLog(filepath.Join(dir, "events"), 4)
	if err != nil {
		_ = st.Close() // the event-log error is the one to report
		return nil, fmt.Errorf("stream events: %w", err)
	}
	return &streamStores{st: st, events: ev}, nil
}

func (ss *streamStores) close() error {
	err := ss.st.Close()
	if eerr := ss.events.Close(); err == nil {
		err = eerr
	}
	return err
}

func errAndClose(err error, ss *streamStores) error {
	if cerr := ss.close(); cerr != nil {
		return fmt.Errorf("%w (closing stores: %v)", err, cerr)
	}
	return err
}

// writeStoreExports runs the store-backed exports (k-way merge).
func writeStoreExports(dir string, st store.Store, out *passOut) error {
	start := time.Now()
	if err := aipan.ExportDataset(filepath.Join(dir, exportNames[0]), st); err != nil {
		return fmt.Errorf("export: %w", err)
	}
	if err := aipan.ExportAnnotationsCSV(filepath.Join(dir, exportNames[1]), st); err != nil {
		return fmt.Errorf("export: %w", err)
	}
	if err := aipan.ExportDomainsCSV(filepath.Join(dir, exportNames[2]), st); err != nil {
		return fmt.Errorf("export: %w", err)
	}
	out.exportS = time.Since(start).Seconds()
	return nil
}

// finishDigests hashes the pass's export files, after timing stopped.
func finishDigests(dir string, out *passOut) error {
	out.digests = map[string]string{}
	for _, name := range exportNames {
		path := filepath.Join(dir, name)
		if _, err := os.Stat(path); os.IsNotExist(err) {
			continue
		}
		sum, lines, n, err := digestFile(path)
		if err != nil {
			return err
		}
		out.digests[name] = sum
		out.exportB += n
		if name == exportNames[0] {
			out.lines = lines
		}
	}
	return nil
}

func digestFile(path string) (sum string, lines int, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, 0, fmt.Errorf("digest: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	r := bufio.NewReader(io.TeeReader(f, h))
	for {
		line, err := r.ReadSlice('\n')
		size += int64(len(line))
		if len(line) > 0 && line[len(line)-1] == '\n' {
			lines++
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return "", 0, 0, fmt.Errorf("digest %s: %w", path, err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), lines, size, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("sizing %s: %w", dir, err)
	}
	return n, nil
}
