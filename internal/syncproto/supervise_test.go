package syncproto

import (
	"testing"

	"repro/internal/channel"
	"repro/internal/faultinject"
	"repro/internal/rng"
)

// outageChannel builds a seeded deletion channel under outage=0.95,
// which aborts attempts, forces backoff and abandons chunks.
func outageChannel(t *testing.T, n int, pd float64) UseChannel {
	t.Helper()
	base, err := channel.NewDeletionInsertion(channel.Params{N: n, Pd: pd}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	stack, err := faultinject.Spec{{Kind: "outage", Value: 0.95}}.Build(base, n, rng.NewStream(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	return stack
}

// TestSuperviseMatchesDocumentedProfile pins Supervise to the profile
// DESIGN §7.2 documents: for every protocol it reports exactly what a
// hand-built supervisor reports with 256-symbol chunks, 4 attempts, a
// 32-use backoff, a 0.25 error threshold, a Counter resync and a
// deadline of 8 uses per chunk symbol, (1+delay) times that for the
// delayed ARQ.
func TestSuperviseMatchesDocumentedProfile(t *testing.T) {
	const (
		n     = 4
		pd    = 0.1
		delay = 2
	)
	msg := superMsg(3, 1500, n)
	for _, tc := range []struct {
		proto  string
		active func(*UseMeter) (Protocol, error)
		budget int
	}{
		{"arq", func(m *UseMeter) (Protocol, error) { return NewARQOver(m, n) }, 8 * 256},
		{"counter", func(m *UseMeter) (Protocol, error) { return NewCounterOver(m, n) }, 8 * 256},
		{"naive", func(m *UseMeter) (Protocol, error) { return NewNaiveOver(m, n) }, 8 * 256},
		{"delayed", func(m *UseMeter) (Protocol, error) { return NewDelayedARQOver(m, n, pd, delay) }, 8 * 256 * (1 + delay)},
	} {
		proto := tc.proto
		got, err := Supervise(outageChannel(t, n, pd), SuperviseSpec{Proto: proto, N: n, Pd: pd, Delay: delay}, msg)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}

		meter, err := NewUseMeter(outageChannel(t, n, pd))
		if err != nil {
			t.Fatal(err)
		}
		active, err := tc.active(meter)
		if err != nil {
			t.Fatal(err)
		}
		resync, err := NewCounterOver(meter, n)
		if err != nil {
			t.Fatal(err)
		}
		sup, err := NewSupervisor(active, resync, meter, SupervisorConfig{
			ChunkSymbols: 256, AttemptUses: tc.budget, MaxAttempts: 4, BackoffBase: 32, ErrorThreshold: 0.25,
		})
		if err != nil {
			t.Fatal(err)
		}
		want, err := sup.Run(msg)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: Supervise %+v, hand-built profile %+v", proto, got, want)
		}
		if want.Retries == 0 || want.BackoffUses == 0 {
			t.Errorf("%s: outage=0.95 forced no retry or backoff: %+v", proto, want)
		}
	}
}

func TestSuperviseErrors(t *testing.T) {
	msg := superMsg(1, 10, 4)
	ch, err := channel.NewDeletionInsertion(channel.Params{N: 4}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []SuperviseSpec{{Proto: "event", N: 4}, {Proto: "", N: 4}, {Proto: "arq", N: 0}} {
		if _, err := Supervise(ch, spec, msg); err == nil {
			t.Errorf("%+v: want an error", spec)
		}
	}
	if _, err := Supervise(nil, SuperviseSpec{Proto: "counter", N: 4}, msg); err == nil {
		t.Error("nil channel: want an error")
	}
}

// TestSuperviseConfigHasNoDeadline checks that the profile Config
// returns runs unmetered, as E13's common-event row does.
func TestSuperviseConfigHasNoDeadline(t *testing.T) {
	cfg := SuperviseSpec{DegradedRateFloor: 0.5}.Config()
	if cfg.AttemptUses != 0 || cfg.DegradedRateFloor != 0.5 {
		t.Fatalf("Config() = %+v", cfg)
	}
	ce, err := NewCommonEvent(4, 0.1, 0.1, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSupervisor(ce, nil, nil, cfg); err != nil {
		t.Fatalf("unmetered supervisor on Config(): %v", err)
	}
}
