// Command benchfig regenerates the evaluation figures of §9 of the paper
// (Figures 7-11) on the in-process stack and prints the same series the
// paper plots. Absolute numbers reflect this substrate; the shapes are what
// the reproduction asserts.
//
// Usage:
//
//	benchfig              # all figures at the default scale
//	benchfig -fig 11      # one figure
//	benchfig -scale 10000 # more rows per paper-million (slower, smoother)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"etlvirt/internal/bench"
)

func main() {
	fig := flag.Int("fig", 0, "figure to regenerate (7-11); 0 = all")
	scale := flag.Int("scale", 0, "simulation rows per paper-million (0 = default)")
	ablations := flag.Bool("ablations", false, "run the design-choice ablations instead of the figures")
	traceOut := flag.String("trace-out", "", "run one traced Figure 7 import and write its Chrome trace JSON here instead of the figures")
	flag.Parse()

	if *traceOut != "" {
		data, err := bench.Fig7Trace(*scale)
		check(err)
		check(os.WriteFile(*traceOut, data, 0o644))
		fmt.Printf("wrote Chrome trace (%d bytes) to %s\n", len(data), *traceOut)
		return
	}

	if *ablations {
		rows, err := bench.AblationCompression(*scale)
		check(err)
		fmt.Println(bench.FormatAblations("intermediate-file compression on a slow uplink (§6)", rows))
		rows, err = bench.AblationFileSize(*scale)
		check(err)
		fmt.Println(bench.FormatAblations("intermediate-file size threshold (§6)", rows))
		return
	}

	runOne := func(n int) {
		switch n {
		case 7:
			rows, err := bench.Fig7(*scale)
			check(err)
			fmt.Println(bench.FormatFig7(rows))
		case 8:
			rows, err := bench.Fig8(*scale)
			check(err)
			fmt.Println(bench.FormatFig8(rows))
		case 9:
			rows, err := bench.Fig9(*scale)
			check(err)
			fmt.Println(bench.FormatFig9(rows))
		case 10:
			rows, err := bench.Fig10(*scale)
			check(err)
			fmt.Println(bench.FormatFig10(rows))
		case 11:
			rows, err := bench.Fig11(*scale)
			check(err)
			fmt.Println(bench.FormatFig11(rows))
		default:
			fmt.Fprintf(os.Stderr, "benchfig: no figure %d (supported: 7-11)\n", n)
			os.Exit(2)
		}
	}
	if *fig != 0 {
		runOne(*fig)
		return
	}
	for n := 7; n <= 11; n++ {
		runOne(n)
	}
}

func check(err error) {
	if err != nil {
		log.Fatalf("benchfig: %v", err)
	}
}
