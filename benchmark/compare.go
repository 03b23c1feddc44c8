package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json the program itself reads.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark spec: %w", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &spec, nil
}

func readDoc(path string) (*allDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading result document: %w", err)
	}
	var doc allDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(doc.Runs) == 0 {
		return nil, fmt.Errorf("%s holds no runs", path)
	}
	return &doc, nil
}

// values collects one metric of one workload across a document's runs.
func (d *allDoc) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range d.Runs {
		if w := r.Workloads[workload]; w != nil {
			if m, ok := w.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// failedShare is operations failed over operations attempted, across runs.
func (d *allDoc) failedShare(workload string) float64 {
	var failed, attempted int64
	for _, r := range d.Runs {
		if w := r.Workloads[workload]; w != nil {
			failed += w.Failed
			attempted += w.Attempted
		}
	}
	return ratio(float64(failed), float64(attempted))
}

// spread is the run-to-run spread of a sample as a share of its median: the
// interquartile distance with four or more values, the range with two or
// three, and 0 (unknown) with one.
func spread(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	med := median(s)
	if len(s) < 2 || med == 0 {
		return 0
	}
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = quartiles(s)
	}
	return (hi - lo) / med
}

// quartiles returns the first and third quartile of sorted s by the exclusive
// method (what Python's statistics.quantiles(n=4) computes).
func quartiles(s []float64) (q1, q3 float64) {
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.75)
}

// compareDocs prints one row per workload and end-to-end metric: both
// medians, their ratio with its base, and ok / regressed / unresolved under
// the spec's bound. It returns 1 if anything regressed or any workload's
// failed share rose.
func compareDocs(w io.Writer, specPath, pathA, pathB string) (int, error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return 1, err
	}
	a, err := readDoc(pathA)
	if err != nil {
		return 1, err
	}
	b, err := readDoc(pathB)
	if err != nil {
		return 1, err
	}
	code := 0
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA (base)\tB\tB/A\tworse by\tbound\tspread A/B\tverdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a.values(wl.Name, m.Name), b.values(wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t-\t%.2f\t-\tmissing\n", wl.Name, m.Name, m.Bound)
				code = 1
				continue
			}
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, ma)
			if m.Better == "higher" {
				worse = ratio(ma-mb, ma)
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "regressed"
				code = 1
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s (n=%d)\t%.4g (n=%d)\t%.3f\t%+.1f%%\t%.0f%%\t%.1f%%/%.1f%%\t%s\n",
				wl.Name, m.Name, ma, m.Unit, len(va), mb, len(vb), ratio(mb, ma), 100*worse, 100*m.Bound, 100*sa, 100*sb, verdict)
		}
		fa, fb := a.failedShare(wl.Name), b.failedShare(wl.Name)
		verdict := "ok"
		if fb > fa {
			verdict = "regressed"
			code = 1
		}
		fmt.Fprintf(tw, "%s\tfailed_share\t%.4g\t%.4g\t-\t-\t0 (absolute)\t-\t%s\n", wl.Name, fa, fb, verdict)
	}
	if err := tw.Flush(); err != nil {
		return 1, fmt.Errorf("writing comparison: %w", err)
	}
	return code, nil
}
