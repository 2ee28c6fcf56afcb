package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"aipan"
)

// expected.json holds the program's outputs at pinnedSeed, committed
// with the benchmark. They are the checks that do not compare a build
// with itself: the per-seed checks (the Workers: 1 reference, repeated
// digests and counters) pass for any build that is merely
// deterministic, even one that drops annotations. When the program's
// output is meant to change, regenerate the file from the repository
// root, after perfbench/run.py has built the benchmark:
//
//	.bench_build/perfbench expected > perfbench/expected.json
//
//go:embed expected.json
var expectedJSON []byte

const (
	pinnedSeed = 3000
	// sampleDomains is the size of the pinned sample every run checks:
	// large enough to reach every pipeline outcome, small enough to
	// cost about a second.
	sampleDomains = 300
)

// pinned is the committed output of one pass at pinnedSeed.
type pinned struct {
	Limit   int               `json:"limit"` // domains processed; 0 = the whole study
	Funnel  [5]int            `json:"funnel"`
	Digests map[string]string `json:"digests"`
	// The LLM cost is recorded for reference, not checked: fewer calls
	// or tokens at the same output is the gain llm_calls_per_domain and
	// the token metrics exist to show.
	LLMCalls         float64 `json:"llm_calls"`
	PromptTokens     float64 `json:"prompt_tokens"`
	CompletionTokens float64 `json:"completion_tokens"`
}

// expectations are the pinned passes: each pipeline workload's full
// pass, and the samples that runs of any seed check.
type expectations struct {
	Paper        pinned `json:"paper_run"`
	Stream       pinned `json:"stream_scale"`
	PaperSample  pinned `json:"paper_run_sample"`
	StreamSample pinned `json:"stream_scale_sample"`
}

// expected is expected.json, decoded in main.
var expected expectations

func loadExpected() error {
	if err := json.Unmarshal(expectedJSON, &expected); err != nil {
		return fmt.Errorf("expected.json: %w", err)
	}
	e := expected
	for _, p := range []pinned{e.Paper, e.Stream, e.PaperSample, e.StreamSample} {
		if len(p.Digests) == 0 || p.Funnel[1] == 0 {
			return fmt.Errorf("expected.json: an entry lacks its funnel or digests")
		}
	}
	if e.PaperSample.Limit == 0 || e.StreamSample.Limit == 0 {
		return fmt.Errorf("expected.json: a sample has no domain limit")
	}
	return nil
}

// checkExpected compares a pass with its committed output: funnel and
// every export's sha256.
func checkExpected(rep *report, what string, want pinned, funnel [5]int, p *passOut) {
	rep.check(funnel == want.Funnel, "%s: funnel is %v, want %v", what, funnel, want.Funnel)
	for name, sum := range want.Digests {
		rep.check(p.digests[name] == sum, "%s: %s sha256 is %s, want %s", what, name, p.digests[name], sum)
	}
	rep.note("%s: %.0f LLM calls, %.0f prompt / %.0f completion tokens (committed: %.0f, %.0f / %.0f)",
		what, p.llmCalls, p.prompt, p.complete, want.LLMCalls, want.PromptTokens, want.CompletionTokens)
}

// pinnedPass runs a pipeline workload's pass at pinnedSeed over the
// first limit domains (all with 0).
func pinnedPass(ctx context.Context, workload string, limit int, dir string) (*passOut, error) {
	if workload == wStream {
		p, ss, err := runStreamPass(ctx, pinnedSeed, streamUniverse, limit, dir)
		if err != nil {
			return nil, err
		}
		return p, ss.close()
	}
	return runPaperPass(ctx, aipan.PipelineConfig{Seed: pinnedSeed, Workers: paperWorkers, Limit: limit}, dir)
}

// checkSample runs the workload's pinned sample and checks it against
// expected.json, so that a change to the program's output fails a run
// of any seed. serve-mixed serves the paper-run dataset and checks its
// sample.
func checkSample(ctx context.Context, rep *report, workload, work string) error {
	want := expected.PaperSample
	if workload == wStream {
		want = expected.StreamSample
	} else {
		workload = wPaper
	}
	p, err := pinnedPass(ctx, workload, want.Limit, filepath.Join(work, "pinned-sample"))
	if err != nil {
		return err
	}
	checkPipeline(rep, p, want.Limit)
	checkExpected(rep, fmt.Sprintf("pinned sample (seed %d, first %d domains)", pinnedSeed, want.Limit), want, funnelOf(p.funnel), p)
	return nil
}

// expectedMain prints expected.json for the program as built.
func expectedMain() int {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "expected:", err)
		return 1
	}
	work, err := os.MkdirTemp(".bench_build", "perfbench-expected-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "expected:", err)
		return 1
	}
	defer os.RemoveAll(work)
	pass := func(workload string, limit int) (pinned, error) {
		p, err := pinnedPass(context.Background(), workload, limit, filepath.Join(work, fmt.Sprintf("%s-%d", workload, limit)))
		if err != nil {
			return pinned{}, err
		}
		return pinned{Limit: limit, Funnel: funnelOf(p.funnel), Digests: p.digests,
			LLMCalls: p.llmCalls, PromptTokens: p.prompt, CompletionTokens: p.complete}, nil
	}
	var exp expectations
	var errs [4]error
	exp.Paper, errs[0] = pass(wPaper, 0)
	exp.Stream, errs[1] = pass(wStream, 0)
	exp.PaperSample, errs[2] = pass(wPaper, sampleDomains)
	exp.StreamSample, errs[3] = pass(wStream, sampleDomains)
	if err := errors.Join(errs[:]...); err != nil {
		fmt.Fprintln(os.Stderr, "expected:", err)
		return 1
	}
	data, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "expected:", err)
		return 1
	}
	fmt.Println(string(data))
	return 0
}
