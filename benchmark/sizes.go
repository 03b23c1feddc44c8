package main

import "time"

// sizes are the input sizes and load levels of the four workloads.
type sizes struct {
	// Clients is the number of closed-loop client goroutines, each with its
	// own control connection and one data session per job.
	Clients int

	BulkCleanRows int

	BulkDirtyRows     int
	BulkDirtyBadDates int
	BulkDirtyDupKeys  int
	// BulkDirtyVariants is how many differently-placed error patterns each
	// client cycles through, so one run averages over error positions.
	BulkDirtyVariants int

	// ReferenceRows sizes the job that runs on both the legacy reference
	// engine and the virtualizer at set-up; the reference applies
	// tuple-at-a-time, so the full-size job would take minutes there.
	ReferenceRows int

	CDCStreams     int
	CDCPreloadKeys int
	CDCLatencyMS   int
	// CDCCredits sizes the node's credit pool for cdc_stream. A stream parks
	// one credit per frame until its micro-batch commits, and an open-loop
	// trickle sends many small frames per batch: with the default pool
	// (4 x GOMAXPROCS) two trickle-fed streams park every credit and wait for
	// each other forever.
	CDCCredits int
	// CDCLoRate and CDCHiRate are deltas/s per stream in the open-loop
	// phases: about 25 % and 60 % of the closed-loop capacity measured at the
	// commit that introduced the benchmark.
	CDCLoRate, CDCHiRate float64
	// CDCSatDeltasPerSec sizes the closed-loop tail: deltas generated per
	// stream per second of phase sat, well above capacity so the stream
	// never runs dry; what is not sent when the phase ends is discarded.
	CDCSatDeltasPerSec float64

	NightlyGroups       int
	NightlyRowsPerGroup int
	// NightlyVariants is how many differently-seeded scenarios each client
	// cycles through, so one run averages over their error-row counts.
	NightlyVariants int

	Warmup time.Duration
	// SetupRepeats is how many times set-up runs; setup_s is their median.
	SetupRepeats int
}

// frozen holds the sizes every reported number is measured at. They were
// calibrated once on the reference machine (2 cores) so that each timed window
// completes at least 200 operations, and are never adjusted at run time: a
// change to any of them is a change to the benchmark, not to the program.
// README.md records the calibration.
var frozen = sizes{
	Clients: 2,

	BulkCleanRows: 5000,

	BulkDirtyRows:     400,
	BulkDirtyBadDates: 8,
	BulkDirtyDupKeys:  4,
	BulkDirtyVariants: 8,

	ReferenceRows: 400,

	CDCStreams:         2,
	CDCPreloadKeys:     500,
	CDCLatencyMS:       200,
	CDCCredits:         1024,
	CDCLoRate:          50,
	CDCHiRate:          100,
	CDCSatDeltasPerSec: 6000,

	NightlyGroups:       8,
	NightlyRowsPerGroup: 20,
	NightlyVariants:     32,

	Warmup:       2 * time.Second,
	SetupRepeats: 3,
}

// Shares of a cdc_stream window spent in each phase.
const (
	cdcLoShare  = 0.15
	cdcHiShare  = 0.45
	cdcSatShare = 0.40
)

// Node settings shared by all four workloads: the bulk-friendly staging
// configuration, so that a change tuned for bulk shows its cost on the small
// jobs and micro-batches too.
const (
	nodeFileSizeThreshold = 256 << 10
	nodeGzip              = true
)
