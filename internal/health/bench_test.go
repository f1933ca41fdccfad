package health

import (
	"testing"

	"repro/internal/bench"
)

func TestRunBenchSmall(t *testing.T) {
	d, err := RunBench(100, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := bench.Check(d); err != nil {
		t.Fatalf("fresh run fails its gates: %v", err)
	}
	if v, _ := d.Value("transitions"); v == 0 {
		t.Error("no transitions — synthetic stream never crossed a threshold")
	}
	snaps, _ := d.Value("ring_snapshots")
	bytes, _ := d.Value("ring_bytes")
	if bytes <= 0 || snaps != 100 {
		t.Errorf("ring: %v snapshots, %v bytes", snaps, bytes)
	}
}

func TestRunBenchRejectsTinyWorkload(t *testing.T) {
	if _, err := RunBench(0, 1, 2); err == nil {
		t.Error("accepted zero rules")
	}
}
