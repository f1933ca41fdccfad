package main

import (
	"testing"
	"time"

	"repro/internal/bench"
)

// TestSmokeRunPassesCheck runs every kernel pair in smoke size with a
// tiny window: the document must pass bench.Check and carry a speedup
// for every pair.
func TestSmokeRunPassesCheck(t *testing.T) {
	d, err := run(time.Millisecond, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := bench.Check(d); err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if _, ok := d.Value(p.name + ".speedup"); !ok {
			t.Errorf("no speedup recorded for %s", p.name)
		}
	}
}
