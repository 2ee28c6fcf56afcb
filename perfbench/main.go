// Command perfbench is the repository's benchmark. It runs one named
// workload against the aipan pipeline and dataset server, checks the
// outputs, and prints every metric by name and unit; the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root, normally through perfbench/run.py):
//
//	perfbench --workload paper-run|stream-scale|serve-mixed --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
// driver and reports the per-layer metrics. README.md describes the
// workloads, the metrics and the checks.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// stateRoot holds what must survive between runs of one checkout: the
// export digests and exact counters each seed produced first, against
// which later runs of the same seed are checked. Records are kept per
// benchmark binary, so a rebuilt program starts afresh.
const stateRoot = ".bench_build/perfbench-state"

// stateDir is stateRoot's directory for this binary, set in main.
var stateDir string

// binaryID names this executable by a hash of its bytes.
func binaryID() (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", fmt.Errorf("binary id: %w", err)
	}
	f, err := os.Open(self)
	if err != nil {
		return "", fmt.Errorf("binary id: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("binary id: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "loadgen":
			os.Exit(loadgenMain(os.Args[2:]))
		case "serve":
			os.Exit(serveMain(os.Args[2:]))
		case "build-dataset":
			os.Exit(buildDatasetMain(os.Args[2:]))
		case "describe":
			os.Exit(describeMain(false))
		case "describe-layers":
			os.Exit(describeMain(true))
		case "expected":
			os.Exit(expectedMain())
		}
	}
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "paper-run | stream-scale | serve-mixed")
	fs.Int64Var(&o.seed, "seed", 3000, "workload seed")
	fs.IntVar(&o.seconds, "seconds", runSeconds, "measurement budget in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced driver and reports per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.trace = trace == 1
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥1 and --trace 0 or 1")
		os.Exit(2)
	}
	rep := newReport()
	id, err := binaryID()
	if err == nil {
		err = loadExpected()
	}
	if err == nil {
		stateDir = filepath.Join(stateRoot, id)
		err = run(context.Background(), o, rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		rep.check(false, "run: %v", err)
	}
	if !rep.print(os.Stdout, o) {
		os.Exit(1)
	}
}

func run(ctx context.Context, o options, rep *report) error {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return fmt.Errorf("work dir: %w", err)
	}
	work, err := os.MkdirTemp(".bench_build", "perfbench-run-")
	if err != nil {
		return fmt.Errorf("work dir: %w", err)
	}
	defer os.RemoveAll(work)
	switch o.workload {
	case wPaper:
		err = runPaper(ctx, o, rep, work)
	case wStream:
		err = runStream(ctx, o, rep, work)
	case wServe:
		err = runServe(ctx, o, rep, work)
	default:
		return fmt.Errorf("unknown workload %q (want %s, %s or %s)", o.workload, wPaper, wStream, wServe)
	}
	if err != nil {
		return err
	}
	// After the measurements, so the sample costs none of them.
	return checkSample(ctx, rep, o.workload, work)
}

// report accumulates metrics, operation counts and check failures.
type report struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
	metrics   map[string]float64
	notes     []string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// check counts one output check as an operation, failed when !ok.
func (r *report) check(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// ops counts operations the workload performed and how many failed.
func (r *report) ops(attempted, failed int, examples []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += attempted
	r.failed += failed
	r.failures = append(r.failures, examples...)
}

func (r *report) set(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = v
}

func (r *report) note(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// print writes the human-readable table, then the JSON result line,
// and reports whether the run was correct. The JSON carries exactly the
// metric set of the mode: end-to-end metrics untraced, per-layer
// metrics traced.
func (r *report) print(w *os.File, o options) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	var names []string
	if o.trace {
		for _, m := range perLayer() {
			names = append(names, m.Name)
		}
	} else {
		for _, m := range endToEnd {
			names = append(names, m.Name)
		}
	}
	res := resultLine{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricOut{}}
	if res.Attempted == 0 {
		res.Attempted, res.Failed = 1, 1
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	for _, n := range r.notes {
		fmt.Fprintln(w, "  "+n)
	}
	for _, name := range names {
		v, ok := r.metrics[name]
		if !ok && !o.trace {
			continue
		}
		// A per-layer metric the workload never reaches reads 0: the
		// layer did no work in this run.
		res.Metrics[name] = metricOut{Value: v, Unit: unitOf(name)}
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", name, v, unitOf(name))
	}
	frac := float64(res.Failed) / float64(res.Attempted)
	fmt.Fprintf(w, "  %-40s %14.6g ratio (%d failed of %d attempted)\n", "failed_frac", frac, res.Failed, res.Attempted)
	for _, f := range r.failures {
		fmt.Fprintln(w, "  FAILED: "+f)
	}
	var missing []string
	for _, name := range names {
		if _, ok := res.Metrics[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		// Every end-to-end metric is measured on every workload; a gap
		// is a failed run, not a number to fill in.
		fmt.Fprintln(w, "  FAILED: missing metrics: "+strings.Join(missing, ", "))
		res.Correct = false
		res.Failed++
		res.Attempted++
	}
	data, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		return false
	}
	fmt.Fprintln(w, string(data))
	return res.Correct
}

// loadState reads a persisted record for key, reporting whether one
// existed; saveState writes it the first time.
func loadState(key string, v any) (bool, error) {
	data, err := os.ReadFile(filepath.Join(stateDir, key+".json"))
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("state %s: %w", key, err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return false, fmt.Errorf("state %s: %w", key, err)
	}
	return true, nil
}

func saveState(key string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("state %s: %w", key, err)
	}
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return fmt.Errorf("state %s: %w", key, err)
	}
	tmp := filepath.Join(stateDir, key+".json.tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("state %s: %w", key, err)
	}
	if err := os.Rename(tmp, filepath.Join(stateDir, key+".json")); err != nil {
		return fmt.Errorf("state %s: %w", key, err)
	}
	return nil
}

// checkRepeat compares got with what the first run of key recorded
// (recording it when this is the first run). Keys of got are compared
// one by one, so a failure names the counter that moved.
func checkRepeat(rep *report, key string, got map[string]string) error {
	var want map[string]string
	ok, err := loadState(key, &want)
	if err != nil {
		return err
	}
	if !ok {
		return saveState(key, got)
	}
	names := make([]string, 0, len(got))
	for k := range got {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		rep.check(want[k] == got[k], "%s: %s is %s, an earlier run of this seed gave %s", key, k, got[k], want[k])
	}
	return nil
}

// describeMain prints BENCHMARK.json, or with layers the per-layer
// tags and predictions (layers.json), from the metric tables.
func describeMain(layers bool) int {
	type perLayerOut struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var doc any
	if layers {
		doc = struct {
			Note     string         `json:"note"`
			Workload []workloadSpec `json:"workloads"`
			PerLayer []layerSpec    `json:"per_layer"`
		}{
			"kind: system = the program's own cost; simulator = stand-ins for the web and the LLM, reported only; " +
				"bench = the benchmark's own bookkeeping. moves/on: the end-to-end metrics a change to the layer " +
				"should move, and the workloads where it should show.",
			workloads, perLayer(),
		}
	} else {
		var pl []perLayerOut
		for _, m := range perLayer() {
			pl = append(pl, perLayerOut{m.Name, m.Unit, m.Better})
		}
		doc = struct {
			Command    []string       `json:"command"`
			Paths      []string       `json:"paths"`
			RunSeconds int            `json:"run_seconds"`
			Workloads  []workloadSpec `json:"workloads"`
			EndToEnd   []e2eSpec      `json:"end_to_end"`
			PerLayer   []perLayerOut  `json:"per_layer"`
		}{[]string{"python3", "perfbench/run.py"}, []string{"perfbench"}, runSeconds, workloads, endToEnd, pl}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "describe:", err)
		return 1
	}
	fmt.Println(string(data))
	return 0
}
