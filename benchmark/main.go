// Command benchmark is the repository's yardstick: four named workloads
// against an in-process virtualizer stack, end-to-end metrics from an untraced
// window, per-layer metrics from a traced window plus a single-threaded layer
// replay, and output checks on every operation. BENCHMARK.json at the
// repository root names the workloads, metrics and regression bounds;
// README.md in this directory explains them.
//
//	go run ./benchmark                                  # all four workloads, both passes
//	go run ./benchmark -workload bulk_dirty -trace 1    # one workload, per-layer pass
//	go run ./benchmark -compare A.json B.json           # apply the bounds
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"time"
)

var workloadNames = []string{"bulk_clean", "bulk_dirty", "cdc_stream", "nightly_mix"}

func newWorkload(name string, sz sizes) (workload, error) {
	switch name {
	case "bulk_clean":
		return &bulkWorkload{sz: sz, rows: sz.BulkCleanRows, variants: 1}, nil
	case "bulk_dirty":
		return &bulkWorkload{sz: sz, rows: sz.BulkDirtyRows, badDates: sz.BulkDirtyBadDates,
			dupKeys: sz.BulkDirtyDupKeys, variants: sz.BulkDirtyVariants}, nil
	case "cdc_stream":
		return &cdcWorkload{sz: sz}, nil
	case "nightly_mix":
		return &nightlyWorkload{sz: sz}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from an untraced window; 1: per-layer metrics from a traced window and the layer replay")
	runs := fs.Int("runs", 1, "with -workload all: repetitions, on seeds seed, seed+1, …")
	outDir := fs.String("out", filepath.Join("results", "benchmark"), "directory for span files and result documents")
	compare := fs.Bool("compare", false, "compare two result documents (A.json B.json) under BENCHMARK.json's bounds")
	corrupt := fs.Bool("selftest-corrupt", false, "flip one expected count; the run must then fail")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var err error
	code := 0
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two result documents")
			return 2
		}
		code, err = compareDocs(os.Stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
	case *name == "all":
		code, err = runAll(ctx, *seed, *runs, *seconds, *corrupt, *outDir)
	default:
		cfg := runConfig{Workload: *name, Seed: *seed, Window: time.Duration(*seconds * float64(time.Second)),
			Trace: *trace != 0, Corrupt: *corrupt, Sizes: frozen, Strict: true, OutDir: *outDir}
		code, err = runAndPrint(ctx, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return code
}

// resultFile names the document one run leaves in the output directory.
func resultFile(dir, workload string, trace bool) string {
	pass := "e2e"
	if trace {
		pass = "layers"
	}
	return filepath.Join(dir, workload+"."+pass+".json")
}

// runAndPrint executes one run, writes its full document (units and sample
// counts) to the output directory and to standard output, and ends with the
// one-line summary the driver parses.
func runAndPrint(ctx context.Context, cfg runConfig) (int, error) {
	res, err := runOne(ctx, cfg)
	if err != nil {
		return 1, err
	}
	full, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return 1, fmt.Errorf("encoding result: %w", err)
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return 1, fmt.Errorf("creating output directory: %w", err)
	}
	if err := os.WriteFile(resultFile(cfg.OutDir, cfg.Workload, cfg.Trace), full, 0o644); err != nil {
		return 1, fmt.Errorf("writing result document: %w", err)
	}
	fmt.Printf("%s\n", full)

	// The summary carries value and unit only; a zero sample count is omitted.
	summary := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metric{}}
	for name, m := range res.Metrics {
		summary.Metrics[name] = metric{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		return 1, fmt.Errorf("encoding summary: %w", err)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

// allDoc is the document -workload all prints and -compare reads.
type allDoc struct {
	Runs []allRun `json:"runs"`
}

type allRun struct {
	Seed      int64                 `json:"seed"`
	Workloads map[string]*runResult `json:"workloads"`
}

// runAll runs every workload in a fresh child process of this binary, twice:
// the end-to-end pass and the per-layer pass. A process per run keeps set-up
// time and peak memory per workload.
func runAll(ctx context.Context, seed int64, runs int, seconds float64, corrupt bool, outDir string) (int, error) {
	self, err := os.Executable()
	if err != nil {
		return 1, fmt.Errorf("locating own binary: %w", err)
	}
	doc := allDoc{}
	code := 0
	for i := 0; i < runs; i++ {
		ar := allRun{Seed: seed + int64(i), Workloads: map[string]*runResult{}}
		for _, wl := range workloadNames {
			merged := &runResult{}
			for _, trace := range []bool{false, true} {
				args := []string{"-workload", wl, "-seed", fmt.Sprint(ar.Seed), "-seconds", fmt.Sprint(seconds),
					"-out", outDir, "-trace", "0"}
				if trace {
					args[len(args)-1] = "1"
				}
				if corrupt {
					args = append(args, "-selftest-corrupt")
				}
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d trace %v\n", wl, ar.Seed, trace)
				// a stale document must not pass for this run's
				if err := os.Remove(resultFile(outDir, wl, trace)); err != nil && !errors.Is(err, os.ErrNotExist) {
					return 1, fmt.Errorf("clearing old result: %w", err)
				}
				cmd := exec.CommandContext(ctx, self, args...)
				cmd.Stderr = os.Stderr
				var exit *exec.ExitError
				if err := cmd.Run(); errors.As(err, &exit) {
					code = 1 // the child reported wrong outputs or died; its document says which
				} else if err != nil {
					return 1, fmt.Errorf("running %s: %w", wl, err)
				}
				part, err := readResult(resultFile(outDir, wl, trace))
				if err != nil {
					return 1, fmt.Errorf("%s: child left no result: %w", wl, err)
				}
				if merged.Metrics == nil {
					*merged = *part
					continue
				}
				merged.Correct = merged.Correct && part.Correct
				merged.Attempted += part.Attempted
				merged.Failed += part.Failed
				merged.Failures = append(merged.Failures, part.Failures...)
				for k, v := range part.Metrics {
					merged.Metrics[k] = v
				}
			}
			ar.Workloads[wl] = merged
		}
		doc.Runs = append(doc.Runs, ar)
	}
	full, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return 1, fmt.Errorf("encoding results: %w", err)
	}
	if err := os.WriteFile(filepath.Join(outDir, "run.json"), full, 0o644); err != nil {
		return 1, fmt.Errorf("writing results: %w", err)
	}
	fmt.Printf("%s\n", full)
	return code, nil
}

func readResult(path string) (*runResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r runResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &r, nil
}
