package capserver

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates the golden files instead of comparing.
var update = flag.Bool("update", false, "rewrite golden files")

// supervisedPoints are the pinned /v1/simulate and /v1/trace queries:
// every protocol, with and without fault injection, one query whose ps
// /v1/simulate ignores, and outage=0.8 and 0.9 regimes that force
// retries, backoff, resyncs and abandoned chunks.
var supervisedPoints = []string{
	"proto=arq&n=4&pd=0.1&symbols=3000&seed=5",
	"proto=counter&n=4&pd=0.1&pi=0.05&symbols=3000&seed=3&inject=outage%3D0.8",
	"proto=naive&n=3&pd=0.05&pi=0.05&symbols=2000&seed=2&inject=drift%3D0.1",
	"proto=delayed&n=4&pd=0.2&delay=2&symbols=2000&seed=4&inject=outage%3D0.2%3Bjam%3D0.1",
	"proto=counter&n=2&pd=0.2&pi=0.1&ps=0.02&symbols=2000&seed=9",
	"proto=arq&n=4&pd=0.05&symbols=1000&inject=stuck%3D0.1%3Boutage%3D0.9",
}

// TestSupervisedRunGolden pins the canonical key and the body of every
// supervisedPoints query on both endpoints, so a change to how the
// supervised run is built, seeded or reported shows up as a diff.
// Run with -update to accept a deliberate change.
func TestSupervisedRunGolden(t *testing.T) {
	var out bytes.Buffer
	for _, path := range []string{"/v1/simulate", "/v1/trace"} {
		for _, q := range supervisedPoints {
			target := path + "?" + q
			srv := freshServer(t)
			key, ok := srv.Canonicalize(httptest.NewRequest(http.MethodGet, target, nil))
			if !ok {
				t.Fatalf("%s: Canonicalize rejected a valid query", target)
			}
			code, body := serve(srv, http.MethodGet, target, "")
			if code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", target, code, body)
			}
			out.WriteString("GET " + target + "\nkey " + key + "\n")
			out.Write(body)
		}
	}
	golden := filepath.Join("testdata", "supervised.golden")
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
		t.Errorf("supervised runs drifted from golden (run with -update to accept):\ngot:\n%s\nwant:\n%s", out.Bytes(), want)
	}
}
