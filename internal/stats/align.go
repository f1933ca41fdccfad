package stats

// Edit-distance alignment between a transmitted and a received symbol
// sequence. The paper's capacity estimation procedure (Section 4.4)
// requires estimating the deletion probability Pd of a covert channel
// from observed behaviour; aligning transmitted against received traces
// and counting deletion/insertion/substitution operations is how those
// probabilities are measured empirically in the experiment harness.

// EditOp is one alignment operation.
type EditOp int

// Alignment operation kinds. Match means the symbols agree.
const (
	OpMatch EditOp = iota + 1
	OpSubstitute
	OpDelete // symbol present in sent, absent in received
	OpInsert // symbol absent in sent, present in received
)

// String returns a single-letter code for the operation.
func (op EditOp) String() string {
	switch op {
	case OpMatch:
		return "M"
	case OpSubstitute:
		return "S"
	case OpDelete:
		return "D"
	case OpInsert:
		return "I"
	default:
		return "?"
	}
}

// EditCounts aggregates alignment operations.
type EditCounts struct {
	Matches       int
	Substitutions int
	Deletions     int
	Insertions    int
}

// Distance returns the Levenshtein distance implied by the counts.
func (c EditCounts) Distance() int {
	return c.Substitutions + c.Deletions + c.Insertions
}

// Rates converts counts to empirical per-channel-use event rates using
// the paper's Definition 1 accounting: the number of channel uses is the
// number of alignment operations (every use either deletes a queued
// symbol, inserts a spurious one, or transmits).
func (c EditCounts) Rates() (pd, pi, ps float64) {
	uses := c.Matches + c.Substitutions + c.Deletions + c.Insertions
	if uses == 0 {
		return 0, 0, 0
	}
	n := float64(uses)
	pd = float64(c.Deletions) / n
	pi = float64(c.Insertions) / n
	transmitted := c.Matches + c.Substitutions
	if transmitted > 0 {
		ps = float64(c.Substitutions) / float64(transmitted)
	}
	return pd, pi, ps
}

// Align computes a minimal-cost alignment (unit costs for substitution,
// deletion and insertion) between sent and received symbol sequences and
// returns the operation counts. Ties are broken in favour of matches,
// then substitutions, then deletions.
func Align(sent, received []uint32) EditCounts {
	ops := AlignOps(sent, received)
	var c EditCounts
	for _, op := range ops {
		switch op {
		case OpMatch:
			c.Matches++
		case OpSubstitute:
			c.Substitutions++
		case OpDelete:
			c.Deletions++
		case OpInsert:
			c.Insertions++
		}
	}
	return c
}

// AlignOps returns the full operation sequence of a minimal alignment.
//
// It fills only the diagonal band |i-j| <= k of the dynamic-programming
// table (dp[i][j] = edit distance between sent[:i] and received[:j]),
// doubling k from max(64, |n-m|) until the distance within the band is
// at most k. Any alignment through a cell off the band costs more than
// k, so every optimal alignment then lies inside it; the band's values
// on those paths equal the full table's, and the traceback, ties
// included, is the full table's. Once the band would cover the whole
// table, the whole table is filled. Memory is O(n·k) instead of O(n·m).
func AlignOps(sent, received []uint32) []EditOp {
	n, m := len(sent), len(received)
	k := max(64, n-m, m-n)
	for k < max(n, m) && int(newBand(n, m, k, 2).fill(sent, received)) > k {
		k *= 2
	}
	dp := newBand(n, m, k, n+1)
	dp.fill(sent, received)
	// Trace back, preferring match/substitute over delete over insert.
	ops := make([]EditOp, 0, n+m)
	i, j := n, m
	for i > 0 || j > 0 {
		d := dp.at(i, j)
		switch {
		case i > 0 && j > 0 && sent[i-1] == received[j-1] && d == dp.at(i-1, j-1):
			ops = append(ops, OpMatch)
			i--
			j--
		case i > 0 && j > 0 && d == dp.at(i-1, j-1)+1:
			ops = append(ops, OpSubstitute)
			i--
			j--
		case i > 0 && d == dp.at(i-1, j)+1:
			ops = append(ops, OpDelete)
			i--
		default:
			ops = append(ops, OpInsert)
			j--
		}
	}
	// Reverse into forward order.
	for a, b := 0, len(ops)-1; a < b; a, b = a+1, b-1 {
		ops[a], ops[b] = ops[b], ops[a]
	}
	return ops
}

// offBand is the value of a cell outside the band: larger than any
// edit distance, with room to add one.
const offBand = 1 << 30

// band holds the rows of the edit-distance table restricted to the
// diagonal band |i-j| <= k. Row i covers columns max(0, i-k) through
// min(m, i+k); it is kept in slot i % rows, so a band of two rows
// yields the distance in O(k) memory and one of n+1 rows keeps the
// whole band for the traceback.
type band struct {
	m, k, width, rows int
	cells             []int32
}

func newBand(n, m, k, rows int) *band {
	width := min(2*k+1, m+1)
	return &band{m: m, k: k, width: width, rows: rows, cells: make([]int32, rows*width)}
}

// row returns row i's cells and its first column.
func (b *band) row(i int) ([]int32, int) {
	lo := max(0, i-b.k)
	slot := (i % b.rows) * b.width
	return b.cells[slot : slot+min(b.m, i+b.k)-lo+1], lo
}

// at returns dp[i][j], or offBand outside the band.
func (b *band) at(i, j int) int32 {
	row, lo := b.row(i)
	if j < lo || j-lo >= len(row) {
		return offBand
	}
	return row[j-lo]
}

// fill computes the band row by row and returns dp[n][m].
func (b *band) fill(sent, received []uint32) int32 {
	n := len(sent)
	first, _ := b.row(0)
	for j := range first {
		first[j] = int32(j)
	}
	for i := 1; i <= n; i++ {
		row, lo := b.row(i)
		prev, prevLo := b.row(i - 1)
		for j := lo; j < lo+len(row); j++ {
			if j == 0 {
				row[0] = int32(i)
				continue
			}
			cost := int32(1)
			if sent[i-1] == received[j-1] {
				cost = 0
			}
			best := prev[j-1-prevLo] + cost // match or substitute
			if j-prevLo < len(prev) {
				if d := prev[j-prevLo] + 1; d < best {
					best = d // delete
				}
			}
			if j > lo {
				if d := row[j-1-lo] + 1; d < best {
					best = d // insert
				}
			}
			row[j-lo] = best
		}
	}
	return b.at(n, b.m)
}

// EditDistance returns the Levenshtein distance between the sequences.
func EditDistance(sent, received []uint32) int {
	return Align(sent, received).Distance()
}
