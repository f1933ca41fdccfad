package capserver

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"
)

// POST /v1/bounds:batch amortizes swept-parameter-grid workloads (the
// Duman-style numerical estimation shape: many BA solves over a grid)
// into one request carrying N parameter points. Each point is
// canonicalized exactly as a single GET /v1/bounds request — same
// validation, same defaults, same cache key — so batch points populate
// and hit the same LRU entries as single requests, and all points
// execute concurrently on the same bounded worker pool.

// maxBatchBodyBytes bounds the request body a batch may carry.
const maxBatchBodyBytes = 1 << 20

// BatchRequest is the /v1/bounds:batch request body. Each point is one
// parameter set, with the same names and syntax as GET /v1/bounds
// query parameters; values may be JSON numbers, strings or booleans.
type BatchRequest struct {
	Points []json.RawMessage `json:"points"`
}

// BatchPointResult is one point's outcome inside the partial-failure
// envelope: either the point's BoundsResponse under "result", or an
// error string with a retryable flag (true only for backpressure
// rejections, which succeed on retry once the queue drains).
type BatchPointResult struct {
	OK        bool            `json:"ok"`
	Result    json.RawMessage `json:"result,omitempty"`
	Error     string          `json:"error,omitempty"`
	Retryable bool            `json:"retryable,omitempty"`
}

// BatchResponse is the /v1/bounds:batch response body. Results are in
// request order.
type BatchResponse struct {
	Points    int                `json:"points"`
	Succeeded int                `json:"succeeded"`
	Failed    int                `json:"failed"`
	Results   []BatchPointResult `json:"results"`
}

// pointValues converts one batch point into the raw query the
// single-request parse path consumes, preserving numeric literals
// exactly as sent (json.Number keeps the source text, so "0.2" reaches
// strconv.ParseFloat identically to a query string's pd=0.2 and the
// canonical cache key comes out the same).
func pointValues(raw json.RawMessage) (queryValues, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		return "", fmt.Errorf("point is not a JSON object: %v", err)
	}
	vals := make(url.Values, len(m))
	for k, v := range m {
		switch t := v.(type) {
		case json.Number:
			vals.Set(k, t.String())
		case string:
			vals.Set(k, t)
		case bool:
			vals.Set(k, strconv.FormatBool(t))
		default:
			return "", fmt.Errorf("parameter %s has unsupported type (want number, string or boolean)", k)
		}
	}
	return queryValues(vals.Encode()), nil
}

// handleBoundsBatch serves POST /v1/bounds:batch: validate the
// envelope, canonicalize every point through the single-request build
// path, resolve all points concurrently through the shared cache /
// singleflight / worker-pool core, and respond with per-point results.
// The whole batch answers 429 (with Retry-After) only when backpressure
// rejected every point that could have computed; otherwise partial
// failures ride in the envelope with a Retry-After hint on the header.
func (s *Server) handleBoundsBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	const endpoint = "bounds:batch"
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBodyBytes))
	dec.UseNumber()
	var req BatchRequest
	if err := dec.Decode(&req); err != nil {
		s.finish(w, endpoint, start, http.StatusBadRequest,
			errorBody(fmt.Errorf("capserver: malformed batch body: %v", err)), "")
		return
	}
	if len(req.Points) == 0 {
		s.finish(w, endpoint, start, http.StatusBadRequest,
			errorBody(fmt.Errorf("capserver: batch needs at least one point")), "")
		return
	}
	if len(req.Points) > s.cfg.MaxBatchPoints {
		s.finish(w, endpoint, start, http.StatusBadRequest,
			errorBody(fmt.Errorf("capserver: batch has %d points, limit %d", len(req.Points), s.cfg.MaxBatchPoints)), "")
		return
	}

	ctx := r.Context()
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}

	results := make([]BatchPointResult, len(req.Points))
	var wg sync.WaitGroup
	for i, raw := range req.Points {
		q, err := pointValues(raw)
		if err == nil {
			var b boundsQuery
			if b, err = parseBounds(q); err == nil {
				wg.Add(1)
				go func(i int, b boundsQuery) {
					defer wg.Done()
					// Same endpoint tag and key line as GET /v1/bounds:
					// this is what makes batch points share its cache.
					var key [keyBufLen]byte
					body, _, _, err := s.do(ctx, "bounds", b.appendKey(key[:0]), func() computeFunc { return b.compute })
					if err != nil {
						results[i] = BatchPointResult{Error: err.Error(), Retryable: errors.Is(err, errQueueFull)}
						return
					}
					results[i] = BatchPointResult{OK: true, Result: json.RawMessage(bytes.TrimSpace(body))}
				}(i, b)
				continue
			}
		}
		results[i] = BatchPointResult{Error: err.Error()}
	}
	wg.Wait()

	resp := BatchResponse{Points: len(results), Results: results}
	rejected := 0
	for _, pr := range results {
		if pr.OK {
			resp.Succeeded++
		} else {
			resp.Failed++
			if pr.Retryable {
				rejected++
			}
		}
	}
	if rejected > 0 {
		// Saturated pool: hint when to come back. If nothing at all got
		// through, the whole batch is a backpressure rejection.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
		if resp.Succeeded == 0 {
			s.finish(w, endpoint, start, http.StatusTooManyRequests, errorBody(errQueueFull), "")
			return
		}
	}
	body, err := marshalBody(resp)
	if err != nil {
		s.finish(w, endpoint, start, http.StatusInternalServerError, errorBody(err), "")
		return
	}
	s.finish(w, endpoint, start, http.StatusOK, body, "")
}
