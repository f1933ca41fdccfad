package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"

	"repro/internal/capserver"
	"repro/internal/obs"
)

// checkReport counts the correctness checks made outside the timed
// phase.
type checkReport struct {
	checked    int
	mismatches int
	first      string // the first mismatch, for the log
}

func (c *checkReport) fail(format string, args ...any) {
	c.mismatches++
	if c.first == "" {
		c.first = fmt.Sprintf(format, args...)
	}
}

// checkOracle compares each kept compute response byte for byte with a
// separate single-node capserver that has served nothing else.
func checkOracle(p *plan, caps []capture) checkReport {
	var rep checkReport
	oracle := capserver.New(capserver.Config{})
	defer oracle.Shutdown(context.Background())
	want := map[string][]byte{}
	for _, c := range caps {
		uri := p.uri(&c.op)
		body, ok := want[uri]
		if !ok {
			rr := httptest.NewRecorder()
			oracle.Handler().ServeHTTP(rr, httptest.NewRequest("GET", uri, nil))
			if rr.Code != 200 {
				rep.fail("oracle answered %d for %s", rr.Code, uri)
				continue
			}
			body = rr.Body.Bytes()
			want[uri] = body
		}
		rep.checked++
		if c.status != 200 || !bytes.Equal(c.body, body) {
			rep.fail("%s: status %d, body differs from the oracle's", uri, c.status)
		}
	}
	return rep
}

// wireEstimate is the part of a session response the check reads.
type wireEstimate struct {
	ID       string `json:"id"`
	Applied  *int   `json:"applied"`
	Estimate struct {
		Uses        int64   `json:"uses"`
		Transmits   int64   `json:"transmits"`
		Substitutes int64   `json:"substitutes"`
		Deletes     int64   `json:"deletes"`
		Inserts     int64   `json:"inserts"`
		Pd          float64 `json:"pd"`
		PdLo        float64 `json:"pd_lo"`
		PdHi        float64 `json:"pd_hi"`
		Pi          float64 `json:"pi"`
		PiLo        float64 `json:"pi_lo"`
		PiHi        float64 `json:"pi_hi"`
		Ps          float64 `json:"ps"`
		PsLo        float64 `json:"ps_lo"`
		PsHi        float64 `json:"ps_hi"`
	} `json:"estimate"`
}

// matchEstimate checks a session response against obs.UseCounts.Estimate
// over the events the session was sent, bit for bit.
func matchEstimate(body []byte, id string, want obs.UseCounts) error {
	var got wireEstimate
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	if got.ID != id {
		return fmt.Errorf("id %q, want %q", got.ID, id)
	}
	g := got.Estimate
	if g.Transmits != want.Transmits || g.Substitutes != want.Substitutes || g.Deletes != want.Deletes || g.Inserts != want.Inserts {
		return fmt.Errorf("tallies T%d S%d D%d I%d, want T%d S%d D%d I%d", g.Transmits, g.Substitutes, g.Deletes, g.Inserts,
			want.Transmits, want.Substitutes, want.Deletes, want.Inserts)
	}
	e := want.Estimate()
	pairs := [][2]float64{
		{g.Pd, e.Pd}, {g.PdLo, e.PdLo}, {g.PdHi, e.PdHi},
		{g.Pi, e.Pi}, {g.PiLo, e.PiLo}, {g.PiHi, e.PiHi},
		{g.Ps, e.Ps}, {g.PsLo, e.PsLo}, {g.PsHi, e.PsHi},
	}
	for i, pr := range pairs {
		if math.Float64bits(pr[0]) != math.Float64bits(pr[1]) {
			return fmt.Errorf("estimate field %d = %v, want %v (bit-exact)", i, pr[0], pr[1])
		}
	}
	if g.Uses != e.Uses {
		return fmt.Errorf("uses %d, want %d", g.Uses, e.Uses)
	}
	return nil
}

// checkSessions checks every kept session response, then reads back
// each slot's latest session and checks it against the events it was
// sent.
func checkSessions(sys *system, p *plan, caps []capture, executed []int, cs []*client) checkReport {
	var rep checkReport
	for _, c := range caps {
		o := c.op
		id := sessionID(int(o.slot))
		rep.checked++
		if c.status != 200 {
			rep.fail("%s: status %d", p.uri(&o), c.status)
			continue
		}
		if err := matchEstimate(c.body, id, p.expectedCounts(int(o.slot), int(o.batches))); err != nil {
			rep.fail("%s: %v", p.uri(&o), err)
			continue
		}
		if o.endpoint == epIngest {
			var a wireEstimate
			if json.Unmarshal(c.body, &a) != nil || a.Applied == nil || *a.Applied != sessionEvents {
				rep.fail("%s: applied is not %d", p.uri(&o), sessionEvents)
			}
		}
	}
	// The latest op each slot's owner sent says how many batches the
	// session holds.
	last := make([]*op, sessionSlots)
	for ci, n := range executed {
		seq := p.clients[ci]
		for k := 0; k < n && k < len(seq); k++ {
			last[seq[k].slot] = &seq[k]
		}
	}
	for s, o := range last {
		if o == nil {
			continue
		}
		id := sessionID(s)
		c := cs[s%len(cs)]
		r := c.send(sys, "/v1/sessions/"+id, nil, epGet, sys.hosts[0])
		rep.checked++
		if !r.ok() {
			rep.fail("read-back of %s: status %d (%v)", id, r.status, r.err)
			continue
		}
		if err := matchEstimate(c.buf.Bytes(), id, p.expectedCounts(s, int(o.batches))); err != nil {
			rep.fail("read-back of %s: %v", id, err)
		}
	}
	return rep
}
