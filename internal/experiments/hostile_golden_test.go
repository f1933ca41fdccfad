package experiments

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// update regenerates the golden files instead of comparing.
var update = flag.Bool("update", false, "rewrite golden files")

// TestE13Golden pins the E13 table at hostileConfig, and a short
// traced run with a custom outage=0.9 regime (which exhausts attempts)
// together with the sha256 of its trace, so a change to how the
// supervised cells are built shows up as a diff. Run with -update to
// accept a deliberate change.
func TestE13Golden(t *testing.T) {
	var out bytes.Buffer
	tab, err := E13HostileRegimes(hostileConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Format(&out); err != nil {
		t.Fatal(err)
	}

	var trace bytes.Buffer
	tr := obs.NewTracer(&trace)
	tab, err = E13HostileRegimes(Config{Symbols: 1000, Seed: 7, Inject: "outage=0.9", Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tab.Format(&out); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "trace sha256 %x\n", sha256.Sum256(trace.Bytes()))

	golden := filepath.Join("testdata", "e13.golden")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("E13 drifted from golden (run with -update to accept):\ngot:\n%s\nwant:\n%s", out.Bytes(), want)
	}
}
