package core

import "testing"

// TestReportLogBounded exercises the report ring: with a capacity of 3, five
// reports leave the three most recent, in order, and a dropped count of two.
func TestReportLogBounded(t *testing.T) {
	l := reportLog{cap: 3}
	for id := uint64(1); id <= 5; id++ {
		l.add(JobReport{JobID: id})
	}
	reports := l.all()
	if len(reports) != 3 {
		t.Fatalf("retained reports: %d, want 3", len(reports))
	}
	for i, r := range reports {
		if want := uint64(i + 3); r.JobID != want {
			t.Errorf("report %d: job %d, want %d", i, r.JobID, want)
		}
	}
	if d := l.droppedCount(); d != 2 {
		t.Errorf("dropped = %d, want 2", d)
	}
}
