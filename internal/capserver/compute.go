package capserver

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/delcap"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/syncproto"
)

// Every cacheable endpoint follows one contract: a parse function
// validates each parameter at the boundary into a typed query, whose
// appendKey appends the canonical cache key, endpoint prefix included,
// and whose compute method produces the response body. The key is
// built from the *parsed* values, so textual variants of one request
// ("0.20" vs "0.2", defaulted vs explicit parameters) share a cache
// line, and it spells each value as fmt's %d, %v, %t and %s would,
// since durable store entries on disk are keyed by it. compute is a
// pure function of the query; only the request leading a fresh flight
// builds it (see Server.do).

// appendInt, appendUint, appendFloat, appendBool and appendStr append
// one query field: its text up to the value (such as "&pd="), then the
// value.
func appendInt(dst []byte, field string, v int) []byte {
	return strconv.AppendInt(append(dst, field...), int64(v), 10)
}

func appendUint(dst []byte, field string, v uint64) []byte {
	return strconv.AppendUint(append(dst, field...), v, 10)
}

func appendFloat(dst []byte, field string, v float64) []byte {
	return strconv.AppendFloat(append(dst, field...), v, 'g', -1, 64)
}

func appendBool(dst []byte, field string, v bool) []byte {
	return strconv.AppendBool(append(dst, field...), v)
}

func appendStr(dst []byte, field, v string) []byte {
	return append(append(dst, field...), v...)
}

// boundsQuery is a validated /v1/bounds query: the paper's analytic
// bound family (core.ComputeBounds), the Section 4.4 degradation, the
// no-feedback deletion-channel rates of package delcap (exact
// enumeration and Monte-Carlo), and a Blahut–Arimoto cross-check of
// the converted channel.
type boundsQuery struct {
	params                 channel.Params
	exactN, mcN, mcSamples int
	seed                   uint64
	ba                     bool
	baTol                  float64
	baIters                int
	syncCapSet             bool
	syncCap                float64
}

// parseBounds validates a /v1/bounds query.
func parseBounds(q queryValues) (b boundsQuery, err error) {
	p := &b.params
	if p.N, err = q.intParam("n", 4, 1, 16); err != nil {
		return b, err
	}
	if p.Pd, err = q.floatParam("pd", 0); err != nil {
		return b, err
	}
	if p.Pi, err = q.floatParam("pi", 0); err != nil {
		return b, err
	}
	if p.Ps, err = q.floatParam("ps", 0); err != nil {
		return b, err
	}
	if err := p.Validate(); err != nil {
		return b, err
	}
	if b.exactN, err = q.intParam("exact_n", 0, 0, 12); err != nil {
		return b, err
	}
	if b.mcN, err = q.intParam("mc_n", 0, 0, 20); err != nil {
		return b, err
	}
	if b.mcSamples, err = q.intParam("mc_samples", 20000, 1, 5_000_000); err != nil {
		return b, err
	}
	if b.seed, err = q.uint64Param("seed", 1); err != nil {
		return b, err
	}
	if b.ba, err = q.boolParam("ba", false); err != nil {
		return b, err
	}
	if b.ba && p.N > 12 {
		return b, fmt.Errorf("parameter ba requires n <= 12 (alphabet 2^n), got n=%d", p.N)
	}
	if b.baTol, err = q.floatParam("ba_tol", 1e-9); err != nil {
		return b, err
	}
	if b.baTol <= 0 {
		return b, fmt.Errorf("parameter ba_tol=%v must be positive", b.baTol)
	}
	if b.baIters, err = q.intParam("ba_iters", 2000, 1, 100000); err != nil {
		return b, err
	}
	b.syncCapSet = q.Get("sync_capacity") != ""
	if b.syncCap, err = q.floatParam("sync_capacity", 0); err != nil {
		return b, err
	}
	if b.syncCapSet && b.syncCap < 0 {
		return b, fmt.Errorf("parameter sync_capacity=%v must be non-negative", b.syncCap)
	}
	return b, nil
}

// appendKey appends the query's canonical cache key.
func (b boundsQuery) appendKey(dst []byte) []byte {
	p := b.params
	dst = appendInt(dst, "bounds?n=", p.N)
	dst = appendFloat(dst, "&pd=", p.Pd)
	dst = appendFloat(dst, "&pi=", p.Pi)
	dst = appendFloat(dst, "&ps=", p.Ps)
	dst = appendInt(dst, "&exact_n=", b.exactN)
	dst = appendInt(dst, "&mc_n=", b.mcN)
	dst = appendInt(dst, "&mc_samples=", b.mcSamples)
	dst = appendUint(dst, "&seed=", b.seed)
	dst = appendBool(dst, "&ba=", b.ba)
	dst = appendFloat(dst, "&ba_tol=", b.baTol)
	dst = appendInt(dst, "&ba_iters=", b.baIters)
	dst = appendBool(dst, "&sync_set=", b.syncCapSet)
	return appendFloat(dst, "&sync=", b.syncCap)
}

// compute produces the /v1/bounds response body.
func (b boundsQuery) compute() ([]byte, error) {
	n, pd, pi := b.params.N, b.params.Pd, b.params.Pi
	bounds, err := core.ComputeBounds(b.params)
	if err != nil {
		return nil, err
	}
	resp := BoundsResponse{Bounds: FromBounds(bounds)}
	if b.syncCapSet {
		corrected, err := core.Degrade(b.syncCap, pd)
		if err != nil {
			return nil, err
		}
		resp.Degraded = &DegradeJSON{TraditionalEstimate: b.syncCap, Pd: pd, Corrected: corrected}
	}
	if b.exactN > 0 || b.mcN > 0 {
		del := &DeletionRatesJSON{
			Pd:            pd,
			GallagerLower: delcap.GallagerLowerBound(pd),
			ErasureUpper:  delcap.ErasureUpperBound(pd),
		}
		if b.exactN > 0 {
			rate, err := delcap.ExactUniformRate(b.exactN, pd)
			if err != nil {
				return nil, err
			}
			del.ExactN, del.ExactRate = b.exactN, rate
		}
		if b.mcN > 0 {
			rate, err := delcap.MonteCarloUniformRate(b.mcN, pd, b.mcSamples, rng.New(b.seed))
			if err != nil {
				return nil, err
			}
			del.MCN, del.MCSamples, del.MCSeed, del.MCRate = b.mcN, b.mcSamples, b.seed, rate
		}
		resp.Deletion = del
	}
	if b.ba {
		dmc, err := core.ConvertedChannelDMC(n, pi)
		if err != nil {
			return nil, err
		}
		cr, err := dmc.Capacity(b.baTol, b.baIters)
		if err != nil {
			return nil, err
		}
		resp.BlahutArimoto = &BlahutArimotoJSON{Capacity: cr.Capacity, Iterations: cr.Iterations, Gap: cr.Gap}
	}
	return marshalBody(resp)
}

// predictQuery is a validated /v1/predict query: the analytic rate a
// protocol is predicted to achieve at a parameter point — Theorem 3
// for ARQ, the Theorem 5 counter rates, and DelayedARQ.PredictedRate
// for the delayed-feedback ARQ.
type predictQuery struct {
	proto  string
	params channel.Params // Ps is always 0
	delay  int
}

// parsePredict validates a /v1/predict query.
func parsePredict(q queryValues) (r predictQuery, err error) {
	r.proto = q.Get("proto")
	switch r.proto {
	case "arq", "counter", "delayed":
	case "":
		return r, fmt.Errorf("parameter proto is required (arq, counter or delayed)")
	default:
		return r, fmt.Errorf("parameter proto=%q unknown (want arq, counter or delayed)", r.proto)
	}
	p := &r.params
	if p.N, err = q.intParam("n", 4, 1, 16); err != nil {
		return r, err
	}
	if p.Pd, err = q.floatParam("pd", 0); err != nil {
		return r, err
	}
	if p.Pi, err = q.floatParam("pi", 0); err != nil {
		return r, err
	}
	if r.delay, err = q.intParam("delay", 1, 0, 64); err != nil {
		return r, err
	}
	if err := p.Validate(); err != nil {
		return r, err
	}
	if (r.proto == "arq" || r.proto == "delayed") && p.Pi != 0 {
		return r, fmt.Errorf("proto %s analyzes a deletion-only channel; pi must be 0, got %v", r.proto, p.Pi)
	}
	return r, nil
}

// appendKey appends the query's canonical cache key.
func (r predictQuery) appendKey(dst []byte) []byte {
	dst = appendStr(dst, "predict?proto=", r.proto)
	dst = appendInt(dst, "&n=", r.params.N)
	dst = appendFloat(dst, "&pd=", r.params.Pd)
	dst = appendFloat(dst, "&pi=", r.params.Pi)
	return appendInt(dst, "&delay=", r.delay)
}

// compute produces the /v1/predict response body.
func (r predictQuery) compute() ([]byte, error) {
	p := r.params
	b, err := core.ComputeBounds(p)
	if err != nil {
		return nil, err
	}
	resp := PredictResponse{Proto: r.proto, N: p.N, Pd: p.Pd, Pi: p.Pi, Bounds: FromBounds(b)}
	switch r.proto {
	case "arq":
		rate, err := core.FeedbackDeletionCapacity(p)
		if err != nil {
			return nil, err
		}
		resp.PredictedRatePerUse = rate
	case "counter":
		resp.PredictedRatePerUse = b.LowerPerUse
		resp.PaperNormRate = b.LowerT5
	case "delayed":
		ch, err := channel.NewDeletionInsertion(p, rng.New(1))
		if err != nil {
			return nil, err
		}
		darq, err := syncproto.NewDelayedARQ(ch, r.delay)
		if err != nil {
			return nil, err
		}
		resp.Delay = r.delay
		resp.PredictedRatePerUse = darq.PredictedRate()
	}
	return marshalBody(resp)
}

// supervisedQuery is a validated /v1/simulate or /v1/trace query: a
// seeded supervised protocol run over a fault-injected channel.
type supervisedQuery struct {
	proto          string
	params         channel.Params // Ps is 0 on /v1/simulate, which takes no ps
	delay, symbols int
	seed           uint64
	faults         faultinject.Spec
	inject         string // faults in canonical spelling
	traced         bool   // a /v1/trace query, which adds ps
}

// parseSupervised validates the parameters /v1/simulate and /v1/trace
// share; traced adds /v1/trace's ps.
func (s *Server) parseSupervised(q queryValues, traced bool) (r supervisedQuery, err error) {
	r.traced = traced
	r.proto = q.Get("proto")
	switch r.proto {
	case "arq", "counter", "naive", "delayed":
	case "":
		return r, fmt.Errorf("parameter proto is required (arq, counter, naive or delayed)")
	default:
		return r, fmt.Errorf("parameter proto=%q unknown (want arq, counter, naive or delayed)", r.proto)
	}
	p := &r.params
	if p.N, err = q.intParam("n", 4, 1, 16); err != nil {
		return r, err
	}
	if p.Pd, err = q.floatParam("pd", 0.2); err != nil {
		return r, err
	}
	if p.Pi, err = q.floatParam("pi", 0); err != nil {
		return r, err
	}
	if traced {
		if p.Ps, err = q.floatParam("ps", 0); err != nil {
			return r, err
		}
	}
	if r.delay, err = q.intParam("delay", 1, 0, 64); err != nil {
		return r, err
	}
	if r.symbols, err = q.intParam("symbols", 20000, 1, s.cfg.MaxSymbols); err != nil {
		return r, err
	}
	if r.seed, err = q.uint64Param("seed", 1); err != nil {
		return r, err
	}
	if err := p.Validate(); err != nil {
		return r, err
	}
	if (r.proto == "arq" || r.proto == "delayed") && p.Pi != 0 {
		return r, fmt.Errorf("proto %s analyzes a deletion-only channel; pi must be 0, got %v", r.proto, p.Pi)
	}
	if r.faults, err = faultinject.ParseSpec(q.Get("inject")); err != nil {
		return r, err
	}
	r.inject = r.faults.String()
	return r, nil
}

// appendKey appends the query's canonical cache key; /v1/trace's also
// carries ps.
func (r supervisedQuery) appendKey(dst []byte) []byte {
	p := r.params
	if r.traced {
		dst = appendStr(dst, "trace?proto=", r.proto)
	} else {
		dst = appendStr(dst, "simulate?proto=", r.proto)
	}
	dst = appendInt(dst, "&n=", p.N)
	dst = appendFloat(dst, "&pd=", p.Pd)
	dst = appendFloat(dst, "&pi=", p.Pi)
	if r.traced {
		dst = appendFloat(dst, "&ps=", p.Ps)
	}
	dst = appendInt(dst, "&delay=", r.delay)
	dst = appendInt(dst, "&symbols=", r.symbols)
	dst = appendUint(dst, "&seed=", r.seed)
	return appendStr(dst, "&inject=", r.inject)
}

// run executes the query's supervised run with the seed derivation of
// chansim -inject (message from seed+1, channel from seed, fault stack
// from Stream(seed, 2)), so any server-side run is reproducible
// offline from its echoed parameters. A non-nil tr records every use,
// through an obs.ChannelRecorder between the stack and the meter, plus
// the supervision state machine and the fault layers' summary.
func (r supervisedQuery) run(tr *obs.Tracer) (syncproto.SupervisedResult, *faultinject.Stack, error) {
	n := r.params.N
	msg := make([]uint32, r.symbols)
	msgSrc := rng.New(r.seed + 1)
	for i := range msg {
		msg[i] = msgSrc.Symbol(n)
	}
	base, err := channel.NewDeletionInsertion(r.params, rng.New(r.seed))
	if err != nil {
		return syncproto.SupervisedResult{}, nil, err
	}
	stack, err := r.faults.Build(base, n, rng.NewStream(r.seed, 2))
	if err != nil {
		return syncproto.SupervisedResult{}, nil, err
	}
	var ch syncproto.UseChannel = stack
	if tr != nil {
		rec, err := obs.NewChannelRecorder(stack, tr, stack.Injected)
		if err != nil {
			return syncproto.SupervisedResult{}, nil, err
		}
		ch = rec
	}
	res, err := syncproto.Supervise(ch, syncproto.SuperviseSpec{
		Proto: r.proto, N: n, Pd: r.params.Pd, Delay: r.delay, Tracer: tr,
	}, msg)
	if err != nil {
		return syncproto.SupervisedResult{}, nil, err
	}
	stack.EmitSummary(tr)
	return res, stack, nil
}

// simulate produces the /v1/simulate response body: the query's
// supervised run, reported with its full accounting.
func (r supervisedQuery) simulate() ([]byte, error) {
	res, stack, err := r.run(nil)
	if err != nil {
		return nil, err
	}
	p := r.params
	return marshalBody(SimulateResponse{
		Proto: r.proto, N: p.N, Pd: p.Pd, Pi: p.Pi, Delay: r.delay,
		Symbols: r.symbols, Seed: r.seed, Inject: r.inject,
		Status:            res.Status.String(),
		Uses:              res.Uses,
		InjectedFaults:    stack.Injected(),
		SenderOps:         res.SenderOps,
		Delivered:         res.Delivered,
		SymbolErrors:      res.SymbolErrors,
		SkippedSymbols:    res.SkippedSymbols,
		ErrorRate:         res.ErrorRate(),
		MutualInfoPerSlot: res.MutualInfoPerSlot,
		InfoRatePerUse:    res.InfoRatePerUse(),
		Chunks:            res.Chunks,
		FailedChunks:      res.FailedChunks,
		Attempts:          res.Attempts,
		Retries:           res.Retries,
		Resyncs:           res.Resyncs,
		Recoveries:        res.Recoveries,
		BackoffUses:       res.BackoffUses,
	})
}

// allExperiments returns the combined primary + ablation registry.
func allExperiments() []experiments.Experiment {
	return append(experiments.Registry(), experiments.AblationRegistry()...)
}

// handleExperiments serves /v1/experiments: without an id parameter it
// returns the registry catalog directly (no computation to cache);
// with one it runs the selected experiments through the serving core.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	q := queryValues(r.URL.RawQuery)
	if q.Get("id") == "" {
		cat := CatalogResponse{}
		for _, e := range allExperiments() {
			cat.Experiments = append(cat.Experiments, ExperimentInfo{ID: e.ID, Index: e.Index, Title: e.Title})
		}
		body, err := marshalBody(cat)
		if err != nil {
			s.finish(w, "experiments", start, http.StatusInternalServerError, errorBody(err), "")
			return
		}
		s.finish(w, "experiments", start, http.StatusOK, body, "")
		return
	}
	e, err := s.parseExperiments(q)
	if err != nil {
		s.finish(w, "experiments", start, http.StatusBadRequest, errorBody(err), "")
		return
	}
	var key [keyBufLen]byte
	s.serveQuery(w, r, "experiments", start, e.appendKey(key[:0]), func() computeFunc { return e.compute })
}

// experimentsQuery is a validated seeded run of named experiments.
type experimentsQuery struct {
	ids []string // in registry order, without duplicates
	cfg experiments.Config
}

// parseExperiments validates an experiments run. The ids are kept as
// experiments.Run selects them, in registry order without duplicates,
// so every spelling of one batch shares a key.
func (s *Server) parseExperiments(q queryValues) (r experimentsQuery, err error) {
	known := allExperiments()
	valid := make(map[string]bool, len(known))
	for _, e := range known {
		valid[e.ID] = true
	}
	want := make(map[string]bool)
	for _, part := range strings.Split(q.Get("id"), ",") {
		id := strings.TrimSpace(part)
		if id == "" {
			continue
		}
		if !valid[id] {
			return r, fmt.Errorf("unknown experiment id %q (see the catalog at /v1/experiments)", id)
		}
		want[id] = true
	}
	for _, e := range known {
		if want[e.ID] {
			r.ids = append(r.ids, e.ID)
		}
	}
	if len(r.ids) == 0 {
		return r, fmt.Errorf("parameter id lists no experiments")
	}
	c := &r.cfg
	if c.Seed, err = q.uint64Param("seed", 1); err != nil {
		return r, err
	}
	if c.Seed == 0 {
		// Config.withDefaults treats 0 as "default seed 1"; normalize
		// before keying so both spellings share a cache line.
		c.Seed = 1
	}
	if c.Symbols, err = q.intParam("symbols", 20000, 1, s.cfg.MaxSymbols); err != nil {
		return r, err
	}
	if c.CodedSymbols, err = q.intParam("coded_symbols", 200, 1, 5000); err != nil {
		return r, err
	}
	if c.Quanta, err = q.intParam("quanta", 200000, 1, 2_000_000); err != nil {
		return r, err
	}
	return r, nil
}

// appendKey appends the query's canonical cache key.
func (r experimentsQuery) appendKey(dst []byte) []byte {
	dst = append(dst, "experiments?id="...)
	for i, id := range r.ids {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, id...)
	}
	dst = appendUint(dst, "&seed=", r.cfg.Seed)
	dst = appendInt(dst, "&symbols=", r.cfg.Symbols)
	dst = appendInt(dst, "&coded=", r.cfg.CodedSymbols)
	return appendInt(dst, "&quanta=", r.cfg.Quanta)
}

// compute runs the experiments. Jobs is pinned to 1 inside the
// worker-pool job: batch parallelism is the serving layer's concern
// here, and the emitted tables are byte-identical at any worker count
// anyway (PR-1 determinism contract).
func (r experimentsQuery) compute() ([]byte, error) {
	results, err := experiments.Run(context.Background(), r.cfg, allExperiments(),
		experiments.RunOptions{Jobs: 1, Only: r.ids})
	if err != nil {
		return nil, err
	}
	tables, err := experiments.Tables(results)
	if err != nil {
		return nil, err
	}
	c := r.cfg
	resp := ExperimentsResponse{Seed: c.Seed, Symbols: c.Symbols, CodedSymbols: c.CodedSymbols, Quanta: c.Quanta}
	for _, t := range tables {
		resp.Tables = append(resp.Tables, FromTable(t))
	}
	return marshalBody(resp)
}
