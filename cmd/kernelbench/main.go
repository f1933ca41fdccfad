// Command kernelbench measures the optimized hot-path kernels against
// the retained reference implementations and writes the before/after
// trajectory to a machine-readable JSON file (BENCH_kernels.json).
//
// The three kernel families are the ones the speed pass rewrote:
//
//   - ba_capacity        Blahut–Arimoto capacity solves over the E5
//     converted-channel grid (internal/infotheory batched inner loops
//     vs. the scalar CapacityReference);
//   - seq_decode /       sequential and drift-trellis convolutional
//     drift_decode       decoding of E6-style frames (pooled buffers,
//     flat DP tables, branch-metric memoization vs. the
//     container/heap + map originals);
//   - channel_transmit / per-use Definition 1 simulation (integer
//     binary_transmit    thresholds and word-at-a-time bitset blits
//     vs. the float per-use reference).
//
// Every pair runs the current kernel and its reference on identical
// prebuilt inputs, so the ratio is pure kernel time. The references are
// the pre-optimization implementations kept for differential testing;
// the differential suites assert the outputs are identical, this tool
// records how much faster the identical answers arrive.
//
// Usage:
//
//	kernelbench [-out BENCH_kernels.json] [-smoke]
//
// -smoke shrinks the measurement windows for CI. The tool exits
// nonzero unless the document it wrote passes bench.Check.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/channel"
	"repro/internal/coding/conv"
	"repro/internal/core"
	"repro/internal/infotheory"
	"repro/internal/rng"
)

// pairs names every measured kernel and builds its current and
// reference variants.
var pairs = []struct {
	name string
	make func(smoke bool) (cur, ref func() error, err error)
}{
	{"ba_capacity", makeBA},
	{"seq_decode", makeSeqDecode},
	{"drift_decode", makeDriftDecode},
	{"channel_transmit", makeChannelTransmit},
	{"binary_transmit", makeBinaryTransmit},
}

func main() {
	out := flag.String("out", "BENCH_kernels.json", "bench document to write")
	smoke := flag.Bool("smoke", false, "shrink measurement windows (CI smoke mode)")
	flag.Parse()

	minDur := 300 * time.Millisecond
	if *smoke {
		minDur = 25 * time.Millisecond
	}
	d, err := run(minDur, *smoke)
	if err == nil {
		err = bench.Write(*out, d)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "kernelbench: %v\n", err)
		os.Exit(1)
	}
	for _, p := range pairs {
		speedup, _ := d.Value(p.name + ".speedup")
		fmt.Printf("%-18s %8.2fx\n", p.name, speedup)
	}
	fmt.Printf("wrote %s\n", *out)
}

// run measures every kernel pair and assembles the BENCH_kernels.json
// document. Its gates require a positive time and op count for every
// kernel and reference, and a positive speedup for every pair.
func run(minDur time.Duration, smoke bool) (*bench.Doc, error) {
	d := bench.New("kernels", map[string]any{
		"mode":          map[bool]string{false: "full", true: "smoke"}[smoke],
		"min_window_ms": minDur.Milliseconds(),
	})
	for _, p := range pairs {
		cur, ref, err := p.make(smoke)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", p.name, err)
		}
		fns := [2]func() error{cur, ref}
		var ns [2]float64
		for i, name := range [2]string{p.name, p.name + "_reference"} {
			nsPerOp, ops, err := measure(minDur, fns[i])
			if err != nil {
				return nil, fmt.Errorf("%s: %v", name, err)
			}
			d.Add(name+".ns_per_op", nsPerOp, "ns")
			d.Add(name+".ops", float64(ops), "count")
			d.Require(name+".ns_per_op", ">", 0)
			d.Require(name+".ops", ">", 0)
			ns[i] = nsPerOp
		}
		d.Add(p.name+".speedup", ns[1]/ns[0], "x")
		d.Require(p.name+".speedup", ">", 0)
	}
	d.Passed = true
	return d, nil
}

// measure runs fn repeatedly, at least once and for at least minDur
// (after one warmup op), and reports the mean ns/op and the op count.
func measure(minDur time.Duration, fn func() error) (nsPerOp float64, ops int, err error) {
	if err := fn(); err != nil {
		return 0, 0, err
	}
	start := time.Now()
	for ops == 0 || time.Since(start) < minDur {
		if err := fn(); err != nil {
			return 0, 0, err
		}
		ops++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(ops), ops, nil
}

// makeBA prebuilds the E5 converted-channel grid (N in {1,2,4,6}, Pi in
// {0.01,0.05,0.2,0.5}) and times full Blahut–Arimoto solves at the E5
// tolerance. One op = all 16 solves.
func makeBA(smoke bool) (cur, ref func() error, err error) {
	ns := []int{1, 2, 4, 6}
	pis := []float64{0.01, 0.05, 0.2, 0.5}
	if smoke {
		ns = []int{1, 4}
		pis = []float64{0.05, 0.2}
	}
	var dmcs []*infotheory.DMC
	for _, n := range ns {
		for _, pi := range pis {
			dmc, err := core.ConvertedChannelDMC(n, pi)
			if err != nil {
				return nil, nil, err
			}
			dmcs = append(dmcs, dmc)
		}
	}
	cur = func() error {
		for _, dmc := range dmcs {
			if _, err := dmc.Capacity(1e-11, 0); err != nil {
				return err
			}
		}
		return nil
	}
	ref = func() error {
		for _, dmc := range dmcs {
			if _, err := dmc.CapacityReference(1e-11, 0); err != nil {
				return err
			}
		}
		return nil
	}
	return cur, ref, nil
}

// convFrames encodes and transmits E6-style frames (96 message bits,
// conv(7,5), binary deletion–insertion at pd=pi=0.004) with fixed
// seeds, outside any timed region.
func convFrames(frames int) (c *conv.Code, recvs [][]byte, msgBits int, err error) {
	c = conv.Standard()
	const bits = 96
	src := rng.New(117)
	for f := 0; f < frames; f++ {
		msg := make([]byte, bits)
		for i := range msg {
			msg[i] = src.Bit()
		}
		cw, err := c.Encode(msg)
		if err != nil {
			return nil, nil, 0, err
		}
		ch, err := channel.NewBinaryDI(0.004, 0.004, 0, rng.New(400+uint64(f)))
		if err != nil {
			return nil, nil, 0, err
		}
		recv, err := ch.Transmit(cw)
		if err != nil {
			return nil, nil, 0, err
		}
		recvs = append(recvs, recv)
	}
	return c, recvs, bits, nil
}

// makeSeqDecode times sequential decoding of the prebuilt frames. One
// op = decode every frame. Decoding erasures (work-limit hits) count as
// measured work, not errors, as in E6.
func makeSeqDecode(smoke bool) (cur, ref func() error, err error) {
	frames := 6
	if smoke {
		frames = 2
	}
	c, recvs, msgBits, err := convFrames(frames)
	if err != nil {
		return nil, nil, err
	}
	params := conv.SequentialParams{Pd: 0.004, Pi: 0.004, MaxDrift: 12}
	cur = func() error {
		for _, recv := range recvs {
			c.DecodeSequential(recv, msgBits, params)
		}
		return nil
	}
	ref = func() error {
		for _, recv := range recvs {
			c.DecodeSequentialReference(recv, msgBits, params)
		}
		return nil
	}
	return cur, ref, nil
}

// makeDriftDecode times drift-trellis Viterbi decoding of the same
// frame shape. One op = decode every frame.
func makeDriftDecode(smoke bool) (cur, ref func() error, err error) {
	frames := 4
	if smoke {
		frames = 1
	}
	c, recvs, msgBits, err := convFrames(frames)
	if err != nil {
		return nil, nil, err
	}
	params := conv.DriftParams{Pd: 0.004, Pi: 0.004, MaxDrift: 12}
	cur = func() error {
		for _, recv := range recvs {
			if _, err := c.DecodeDrift(recv, msgBits, params); err != nil {
				return err
			}
		}
		return nil
	}
	ref = func() error {
		for _, recv := range recvs {
			if _, err := c.DecodeDriftReference(recv, msgBits, params); err != nil {
				return err
			}
		}
		return nil
	}
	return cur, ref, nil
}

// makeChannelTransmit times the Definition 1 per-use simulation at
// N=4 over a fixed symbol stream. The channel (and its seeded source)
// is rebuilt inside the op so both variants consume identical draws;
// construction is a few hundred ns against a multi-hundred-µs op.
func makeChannelTransmit(smoke bool) (cur, ref func() error, err error) {
	symbols := 100000
	if smoke {
		symbols = 10000
	}
	p := channel.Params{N: 4, Pd: 0.1, Pi: 0.05, Ps: 0.02}
	gen := rng.New(7)
	input := make([]uint32, symbols)
	for i := range input {
		input[i] = gen.Symbol(p.N)
	}
	cur = func() error {
		ch, err := channel.NewDeletionInsertion(p, rng.New(11))
		if err != nil {
			return err
		}
		ch.Transmit(input)
		return nil
	}
	ref = func() error {
		ch, err := channel.NewDeletionInsertion(p, rng.New(11))
		if err != nil {
			return err
		}
		ch.TransmitReference(input)
		return nil
	}
	return cur, ref, nil
}

// makeBinaryTransmit times the word-at-a-time bitset engine (BinaryDI)
// against the scalar per-use reference on the same bit stream.
func makeBinaryTransmit(smoke bool) (cur, ref func() error, err error) {
	nbits := 200000
	if smoke {
		nbits = 20000
	}
	gen := rng.New(13)
	bits := make([]byte, nbits)
	syms := make([]uint32, nbits)
	for i := range bits {
		bits[i] = gen.Bit()
		syms[i] = uint32(bits[i])
	}
	cur = func() error {
		ch, err := channel.NewBinaryDI(0.01, 0.01, 0.005, rng.New(17))
		if err != nil {
			return err
		}
		_, err = ch.Transmit(bits)
		return err
	}
	ref = func() error {
		ch, err := channel.NewDeletionInsertion(channel.Params{N: 1, Pd: 0.01, Pi: 0.01, Ps: 0.005}, rng.New(17))
		if err != nil {
			return err
		}
		ch.TransmitReference(syms)
		return nil
	}
	return cur, ref, nil
}
