package main

import "time"

// The yardstick is a fixed computation, owned by the benchmark and never
// by the code under test, that an untraced run times after every op or
// part of an op. Dividing the median op time by the median yardstick time
// cancels most of the slow drift in host speed that a shared machine goes
// through between runs; see the package documentation for the
// measurements behind its choice.
const (
	// yardstickWords sizes the yardstick's table: 1 MiB.
	yardstickWords = 1 << 17
	// yardstickSteps is the number of table updates in one pass, about
	// 25 ms on a 2.1 GHz Xeon.
	yardstickSteps = 3_000_000
	// yardstickPasses is how many passes run after each op or part: one
	// pass varies by about 9% from the next on a shared host, so a run
	// needs about a hundred of them for a steady median.
	yardstickPasses = 4
	// yardstickRefMS is the reference pass time setup_s is scaled to: a
	// run reports its median set-up time times yardstickRefMS over its
	// median pass time, the set-up on a host where a pass takes 25 ms.
	yardstickRefMS = 25.0
)

// yardstick times yardstickPasses yardstick passes, one by one.
func (r *runner) yardstick() {
	if r.ysTable == nil {
		r.ysTable = make([]uint64, yardstickWords)
	}
	for range yardstickPasses {
		t := time.Now()
		yardstickPass(r.ysTable, yardstickSteps)
		r.ysMS = append(r.ysMS, ms(time.Since(t)))
	}
}

// yardstickPass makes steps read-modify-writes of table at indexes drawn
// from a xorshift stream; a branch on each updated word feeds it back into
// the stream.
func yardstickPass(table []uint64, steps int) {
	mask := uint64(len(table) - 1)
	x := uint64(88172645463325252)
	for i := 0; i < steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		table[j] += x
		if table[j]&1 == 0 {
			x++
		}
	}
}
