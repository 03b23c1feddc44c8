package bench

import (
	"fmt"
	"strings"
	"time"

	"etlvirt/internal/core"
)

// AblationRow is one configuration of an ablation sweep.
type AblationRow struct {
	Name        string
	Acquisition time.Duration
	Total       time.Duration
	Files       int64
	UploadMB    float64
}

// AblationCompression quantifies §6's upload tuning: gzip of intermediate
// files costs CPU but pays off when the link to the cloud store is slow.
func AblationCompression(scale int) ([]AblationRow, error) {
	if scale <= 0 {
		scale = RowsPerPaperMillion
	}
	w := Workload{Rows: 6 * scale, RowBytes: 500, Seed: 22}
	var out []AblationRow
	for _, gz := range []bool{false, true} {
		cfg := RunConfig{
			Workload:          w,
			Node:              core.Config{Gzip: gz, FileSizeThreshold: 64 << 10},
			Sessions:          2,
			ChunkRecords:      200,
			UplinkBytesPerSec: 2 << 20, // constrained 2 MB/s uplink
		}
		p, err := RunImport(cfg)
		if err != nil {
			return nil, fmt.Errorf("ablation gzip=%v: %w", gz, err)
		}
		name := "uncompressed upload"
		if gz {
			name = "gzip intermediate files"
		}
		out = append(out, AblationRow{
			Name:        name,
			Acquisition: p.Acquisition,
			Total:       p.Total,
			Files:       p.Files,
			UploadMB:    float64(p.Bytes) / 1e6,
		})
	}
	return out, nil
}

// AblationFileSize sweeps the intermediate-file size threshold of §6: small
// files parallelize uploads but multiply per-file COPY overhead.
func AblationFileSize(scale int) ([]AblationRow, error) {
	if scale <= 0 {
		scale = RowsPerPaperMillion
	}
	w := Workload{Rows: 8 * scale, RowBytes: 500, Seed: 23}
	var out []AblationRow
	for _, threshold := range []int{16 << 10, 128 << 10, 1 << 20, 8 << 20} {
		cfg := RunConfig{
			Workload:     w,
			Node:         core.Config{FileSizeThreshold: threshold, FileWriters: 2},
			Sessions:     4,
			ChunkRecords: 200,
		}
		p, err := RunImport(cfg)
		if err != nil {
			return nil, fmt.Errorf("ablation filesize=%d: %w", threshold, err)
		}
		out = append(out, AblationRow{
			Name:        fmt.Sprintf("threshold %dKiB", threshold>>10),
			Acquisition: p.Acquisition,
			Total:       p.Total,
			Files:       p.Files,
		})
	}
	return out, nil
}

// FormatAblations renders ablation sweeps.
func FormatAblations(title string, rows []AblationRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ablation: %s\n", title)
	fmt.Fprintf(&sb, "%-42s %14s %12s %7s\n", "configuration", "acquisition", "total", "files")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-42s %14v %12v %7d\n",
			r.Name, r.Acquisition.Round(time.Millisecond), r.Total.Round(time.Millisecond), r.Files)
	}
	return sb.String()
}
