package stats

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestAlignIdentical(t *testing.T) {
	s := []uint32{1, 2, 3, 4}
	c := Align(s, s)
	if c.Matches != 4 || c.Distance() != 0 {
		t.Fatalf("Align(identical) = %+v", c)
	}
}

func TestAlignPureDeletion(t *testing.T) {
	c := Align([]uint32{1, 2, 3, 4, 5}, []uint32{1, 3, 5})
	if c.Deletions != 2 || c.Insertions != 0 || c.Substitutions != 0 || c.Matches != 3 {
		t.Fatalf("Align = %+v", c)
	}
}

func TestAlignPureInsertion(t *testing.T) {
	c := Align([]uint32{1, 2}, []uint32{9, 1, 9, 2, 9})
	if c.Insertions != 3 || c.Deletions != 0 || c.Matches != 2 {
		t.Fatalf("Align = %+v", c)
	}
}

func TestAlignSubstitution(t *testing.T) {
	c := Align([]uint32{1, 2, 3}, []uint32{1, 7, 3})
	if c.Substitutions != 1 || c.Matches != 2 || c.Distance() != 1 {
		t.Fatalf("Align = %+v", c)
	}
}

func TestAlignEmpty(t *testing.T) {
	if c := Align(nil, nil); c.Distance() != 0 {
		t.Fatalf("Align(nil, nil) = %+v", c)
	}
	if c := Align([]uint32{1, 2}, nil); c.Deletions != 2 {
		t.Fatalf("Align(s, nil) = %+v", c)
	}
	if c := Align(nil, []uint32{1, 2, 3}); c.Insertions != 3 {
		t.Fatalf("Align(nil, r) = %+v", c)
	}
}

func TestEditDistanceKnown(t *testing.T) {
	tests := []struct {
		sent, recv []uint32
		want       int
	}{
		{[]uint32{1, 2, 3}, []uint32{1, 2, 3}, 0},
		{[]uint32{1, 2, 3}, []uint32{2, 3}, 1},
		{[]uint32{1, 2, 3}, []uint32{1, 2, 3, 4}, 1},
		{[]uint32{1, 2, 3}, []uint32{3, 2, 1}, 2},
		{[]uint32{1, 1, 1, 1}, []uint32{2, 2, 2, 2}, 4},
	}
	for _, tt := range tests {
		if got := EditDistance(tt.sent, tt.recv); got != tt.want {
			t.Errorf("EditDistance(%v, %v) = %d, want %d", tt.sent, tt.recv, got, tt.want)
		}
	}
}

// truncate keeps quick-generated sequences small so the O(nm) alignment
// stays fast.
func truncate(raw []byte, limit int) []uint32 {
	if len(raw) > limit {
		raw = raw[:limit]
	}
	out := make([]uint32, len(raw))
	for i, b := range raw {
		out[i] = uint32(b % 4)
	}
	return out
}

func TestAlignOpsConsistency(t *testing.T) {
	// Property: the operation sequence must consume exactly the two
	// sequences, and replaying it must reproduce the received sequence
	// modulo inserted/substituted values.
	err := quick.Check(func(rawA, rawB []byte) bool {
		sent := truncate(rawA, 20)
		recv := truncate(rawB, 20)
		ops := AlignOps(sent, recv)
		i, j := 0, 0
		for _, op := range ops {
			switch op {
			case OpMatch:
				if i >= len(sent) || j >= len(recv) || sent[i] != recv[j] {
					return false
				}
				i++
				j++
			case OpSubstitute:
				if i >= len(sent) || j >= len(recv) || sent[i] == recv[j] {
					return false
				}
				i++
				j++
			case OpDelete:
				i++
			case OpInsert:
				j++
			default:
				return false
			}
		}
		return i == len(sent) && j == len(recv)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlignDistanceTriangle(t *testing.T) {
	// Property: distance is symmetric, bounded by the longer length,
	// and deletions minus insertions equals the length difference
	// (ties between optimal alignments may trade S for D+I pairs, so
	// individual op counts need not swap exactly under reversal).
	err := quick.Check(func(rawA, rawB []byte) bool {
		a := truncate(rawA, 20)
		b := truncate(rawB, 20)
		ab := Align(a, b)
		ba := Align(b, a)
		if ab.Distance() != ba.Distance() {
			return false
		}
		if ab.Deletions-ab.Insertions != len(a)-len(b) {
			return false
		}
		max := len(a)
		if len(b) > max {
			max = len(b)
		}
		return ab.Distance() <= max
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEditCountsRates(t *testing.T) {
	c := EditCounts{Matches: 70, Substitutions: 10, Deletions: 15, Insertions: 5}
	pd, pi, ps := c.Rates()
	if !almostEqual(pd, 0.15, 1e-12) || !almostEqual(pi, 0.05, 1e-12) || !almostEqual(ps, 0.125, 1e-12) {
		t.Fatalf("Rates = %v, %v, %v", pd, pi, ps)
	}
	var zero EditCounts
	pd, pi, ps = zero.Rates()
	if pd != 0 || pi != 0 || ps != 0 {
		t.Fatal("zero counts should yield zero rates")
	}
}

func TestEditOpString(t *testing.T) {
	tests := []struct {
		op   EditOp
		want string
	}{
		{OpMatch, "M"}, {OpSubstitute, "S"}, {OpDelete, "D"}, {OpInsert, "I"}, {EditOp(0), "?"},
	}
	for _, tt := range tests {
		if got := tt.op.String(); got != tt.want {
			t.Errorf("EditOp(%d).String() = %q, want %q", tt.op, got, tt.want)
		}
	}
}

// alignOpsFull is the full-table alignment AlignOps replaced: it fills
// all (n+1)(m+1) cells. It is the reference the banded version must
// reproduce operation for operation.
func alignOpsFull(sent, received []uint32) []EditOp {
	n, m := len(sent), len(received)
	dp := make([][]int, n+1)
	for i := range dp {
		dp[i] = make([]int, m+1)
		dp[i][0] = i
	}
	for j := 0; j <= m; j++ {
		dp[0][j] = j
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			cost := 1
			if sent[i-1] == received[j-1] {
				cost = 0
			}
			best := dp[i-1][j-1] + cost
			if d := dp[i-1][j] + 1; d < best {
				best = d
			}
			if d := dp[i][j-1] + 1; d < best {
				best = d
			}
			dp[i][j] = best
		}
	}
	ops := make([]EditOp, 0, n+m)
	i, j := n, m
	for i > 0 || j > 0 {
		switch {
		case i > 0 && j > 0 && sent[i-1] == received[j-1] && dp[i][j] == dp[i-1][j-1]:
			ops = append(ops, OpMatch)
			i--
			j--
		case i > 0 && j > 0 && dp[i][j] == dp[i-1][j-1]+1:
			ops = append(ops, OpSubstitute)
			i--
			j--
		case i > 0 && dp[i][j] == dp[i-1][j]+1:
			ops = append(ops, OpDelete)
			i--
		default:
			ops = append(ops, OpInsert)
			j--
		}
	}
	for a, b := 0, len(ops)-1; a < b; a, b = a+1, b-1 {
		ops[a], ops[b] = ops[b], ops[a]
	}
	return ops
}

// TestAlignOpsMatchesFullTable checks the banded AlignOps against the
// full-table reference over random pairs: empty sides, skewed lengths,
// alphabets of one to eight symbols, and received sequences that are
// lightly or heavily edited copies of the sent one or have a block
// moved, so the band is accepted at its first width, doubled, or grown
// to the whole table.
func TestAlignOpsMatchesFullTable(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	random := func(n, alphabet int) []uint32 {
		s := make([]uint32, n)
		for i := range s {
			s[i] = uint32(r.Intn(alphabet))
		}
		return s
	}
	// edited copies s with each symbol deleted, substituted or
	// followed by an insertion with probability rate each.
	edited := func(s []uint32, rate float64, alphabet int) []uint32 {
		var out []uint32
		for _, x := range s {
			switch u := r.Float64(); {
			case u < rate:
			case u < 2*rate:
				out = append(out, uint32(r.Intn(alphabet)))
			case u < 3*rate:
				out = append(out, x, uint32(r.Intn(alphabet)))
			default:
				out = append(out, x)
			}
		}
		return out
	}
	// shifted deletes a block of sent and inserts a random block of
	// about the same length elsewhere: the optimal alignment strays
	// from the diagonal by about the block length.
	shifted := func(s []uint32, alphabet int) []uint32 {
		block := 60 + r.Intn(200)
		cut := r.Intn(len(s) - block)
		out := append(append([]uint32(nil), s[:cut]...), s[cut+block:]...)
		at := r.Intn(len(out) + 1)
		ins := random(block-20+r.Intn(40), alphabet)
		return append(out[:at], append(ins, out[at:]...)...)
	}
	for trial := 0; trial < 400; trial++ {
		alphabet := 1 + r.Intn(8)
		var sent, recv []uint32
		switch trial % 5 {
		case 0: // independent, possibly empty, sides
			sent, recv = random(r.Intn(200), alphabet), random(r.Intn(200), alphabet)
		case 1: // skewed lengths
			sent, recv = random(r.Intn(20), alphabet), random(100+r.Intn(400), alphabet)
			if r.Intn(2) == 0 {
				sent, recv = recv, sent
			}
		case 2: // long and close: the first band suffices
			sent = random(200+r.Intn(600), alphabet)
			recv = edited(sent, 0.02, alphabet)
		case 3: // long and far
			sent = random(200+r.Intn(600), alphabet)
			recv = edited(sent, 0.05+0.2*r.Float64(), alphabet)
		default: // a moved block: the band doubles
			sent = random(300+r.Intn(500), alphabet)
			recv = shifted(sent, alphabet)
		}
		got, want := AlignOps(sent, recv), alignOpsFull(sent, recv)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d m=%d alphabet %d): banded alignment differs from the full table", trial, len(sent), len(recv), alphabet)
		}
	}
}
