package syncproto

import (
	"fmt"

	"repro/internal/obs"
)

// SuperviseSpec is what varies between the repo's supervised,
// fault-injected protocol runs (/v1/simulate, /v1/trace, chansim
// -inject and E13). Everything else is the fixed profile of Config
// and Supervise.
type SuperviseSpec struct {
	// Proto is the active protocol: arq, counter, naive or delayed.
	Proto string
	// N is the symbol width in bits.
	N int
	// Pd and Delay configure the delayed ARQ: the nominal deletion
	// probability it predicts its rate from, and its feedback latency
	// in channel uses.
	Pd    float64
	Delay int
	// Tracer and DegradedRateFloor are passed to the SupervisorConfig.
	Tracer            *obs.Tracer
	DegradedRateFloor float64
}

// Config returns the supervision profile every supervised run shares:
// 256-symbol chunks, at most 4 attempts per chunk and protocol, a
// 32-use first backoff, and resync when a chunk's error rate exceeds
// 0.25. It carries no attempt deadline, which needs a UseMeter; the
// channel-less runs (E13's common-event row) use it as is.
func (s SuperviseSpec) Config() SupervisorConfig {
	return SupervisorConfig{
		ChunkSymbols:      256,
		MaxAttempts:       4,
		BackoffBase:       32,
		ErrorThreshold:    0.25,
		DegradedRateFloor: s.DegradedRateFloor,
		Tracer:            s.Tracer,
	}
}

// Supervise transfers msg over ch under the Config profile: ch is
// wrapped in a UseMeter, the spec's protocol runs over the meter, and
// a Counter over the same meter is the resync fallback. The attempt
// deadline is 8 uses per chunk symbol, a generous multiple of a clean
// chunk's cost, so only a wedged attempt (a long outage window, a
// drift excursion) is aborted; the delayed ARQ pays 1+Delay uses per
// send, so its deadline is 1+Delay times larger.
func Supervise(ch UseChannel, spec SuperviseSpec, msg []uint32) (SupervisedResult, error) {
	meter, err := NewUseMeter(ch)
	if err != nil {
		return SupervisedResult{}, err
	}
	var active Protocol
	switch spec.Proto {
	case "arq":
		active, err = NewARQOver(meter, spec.N)
	case "counter":
		active, err = NewCounterOver(meter, spec.N)
	case "naive":
		active, err = NewNaiveOver(meter, spec.N)
	case "delayed":
		active, err = NewDelayedARQOver(meter, spec.N, spec.Pd, spec.Delay)
	default:
		err = fmt.Errorf("syncproto: unknown protocol %q (want arq, counter, naive or delayed)", spec.Proto)
	}
	if err != nil {
		return SupervisedResult{}, err
	}
	resync, err := NewCounterOver(meter, spec.N)
	if err != nil {
		return SupervisedResult{}, err
	}
	cfg := spec.Config()
	cfg.AttemptUses = 8 * cfg.ChunkSymbols
	if spec.Proto == "delayed" {
		cfg.AttemptUses *= 1 + spec.Delay
	}
	sup, err := NewSupervisor(active, resync, meter, cfg)
	if err != nil {
		return SupervisedResult{}, err
	}
	return sup.Run(msg)
}
