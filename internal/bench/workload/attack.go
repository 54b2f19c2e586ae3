package main

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"time"

	"mayacache/internal/attack"
	"mayacache/internal/baseline"
	"mayacache/internal/cachemodel"
	maya "mayacache/internal/core"
	"mayacache/internal/metrics"
	"mayacache/internal/prince"
)

// attackDesign is one Fig 8 cache, built exactly as cmd/attacksim builds
// it, with its occupancy-set size: the capacity for the deterministic LRU
// cache, twice the capacity for the random-replacement designs.
type attackDesign struct {
	name, key string
	mk        func(seed uint64) (cachemodel.LLC, error)
	occupancy int
}

func attackDesigns(sets int) []attackDesign {
	capacity := sets * 16
	return []attackDesign{
		{"16-way SA", "sa16", func(seed uint64) (cachemodel.LLC, error) {
			return baseline.NewChecked(baseline.Config{Sets: sets, Ways: 16, Replacement: baseline.LRU, Seed: seed, MatchSDID: true})
		}, capacity},
		{"Maya", "maya", func(seed uint64) (cachemodel.LLC, error) {
			return maya.NewChecked(maya.Config{SetsPerSkew: sets, Skews: 2, BaseWays: 6, ReuseWays: 3, InvalidWays: 6, Seed: seed})
		}, 2 * sets * 2 * 6},
		{"Fully associative", "fa", func(seed uint64) (cachemodel.LLC, error) {
			return baseline.NewFullyAssociativeChecked(capacity, seed, true)
		}, 2 * capacity},
	}
}

// attackVictims are the two victim pairs of a Fig 8 job: two AES keys
// with contrasting reuse profiles, and two modular-exponentiation keys.
// Each pair has its own trial seed offset, as in cmd/attacksim.
var attackVictims = []struct {
	name    string
	seedOff uint64
}{{"aes", 0}, {"modexp", 77}}

// attackSetup is what a Fig 8 job needs before its first trial.
type attackSetup struct {
	designs    []attackDesign
	keyA, keyB [16]byte
}

func newAttackSetup(r *runner) (*attackSetup, error) {
	s := &attackSetup{designs: attackDesigns(r.sc.AttackSets)}
	for _, d := range s.designs {
		if _, err := d.mk(r.seed); err != nil {
			return nil, fmt.Errorf("%s: %w", d.name, err)
		}
	}
	s.keyA, s.keyB = attack.FindContrastingAESKeys(64, 16, r.seed)
	return s, nil
}

func (s *attackSetup) victims(victim string, c cachemodel.LLC) (attack.Victim, attack.Victim) {
	if victim == "aes" {
		return attack.NewAESVictim(s.keyA, 1<<20, 16, attack.CacheToucher(c, 2)),
			attack.NewAESVictim(s.keyB, 1<<20, 16, attack.CacheToucher(c, 3))
	}
	return attack.NewModExpVictim(1, 64, 1<<21, attack.CacheToucher(c, 2)),
		attack.NewModExpVictim(4, 64, 1<<21, attack.CacheToucher(c, 3))
}

// countingVictim counts the operations a victim ran, which is the number
// of samples its trial took.
type countingVictim struct {
	attack.Victim
	n *int
}

func (v countingVictim) Run() {
	*v.n++
	v.Victim.Run()
}

// attackCell is one (design, victim) attack of a Fig 8 job.
type attackCell struct {
	wall   time.Duration
	median float64
	trials []int // per-trial sample counts, sorted
	// trialMS and trialSamples hold each trial's wall time, from the
	// building of its cache to the start of the next trial or the cell's
	// end, and its samples, in the order the trials ran.
	trialMS      []float64
	trialSamples []int
}

// runCell runs one cell through attack.Trials as cmd/attacksim does, with
// one worker, so its trials run one after another, and counts each trial's
// samples. wrap, when non-nil, sees every trial's cache with its seed and
// may substitute a wrapper for it.
func runCell(r *runner, s *attackSetup, d attackDesign, victim string, seedOff uint64,
	wrap func(seed uint64, c cachemodel.LLC) cachemodel.LLC) (attackCell, error) {
	var mu sync.Mutex
	var counts []*int
	var starts []time.Time
	mkCache := func(seed uint64) cachemodel.LLC {
		mu.Lock()
		starts = append(starts, time.Now())
		mu.Unlock()
		c, err := d.mk(seed)
		if err != nil {
			// newAttackSetup built every design at this geometry.
			panic(fmt.Sprintf("%s: %v", d.name, err))
		}
		if wrap != nil {
			return wrap(seed, c)
		}
		return c
	}
	mkVictims := func(c cachemodel.LLC) (attack.Victim, attack.Victim) {
		va, vb := s.victims(victim, c)
		n := new(int)
		mu.Lock()
		counts = append(counts, n)
		mu.Unlock()
		return countingVictim{va, n}, vb
	}
	r.attempted += r.sc.AttackRuns
	runtime.GC() // as in runSim
	t := time.Now()
	med, err := attack.Trials{Runs: r.sc.AttackRuns, Workers: 1, Seed: r.seed + seedOff}.
		MedianDistinguishCtx(r.ctx, mkCache, mkVictims, d.occupancy, r.sc.AttackNoise, r.sc.AttackMax, 4.5)
	end := time.Now()
	cell := attackCell{wall: end.Sub(t), median: med}
	if err != nil {
		return cell, fmt.Errorf("%s %s: %w", d.name, victim, err)
	}
	for i, n := range counts {
		next := end
		if i+1 < len(starts) {
			next = starts[i+1]
		}
		cell.trialMS = append(cell.trialMS, ms(next.Sub(starts[i])))
		cell.trialSamples = append(cell.trialSamples, *n)
	}
	cell.trials = slices.Clone(cell.trialSamples)
	slices.Sort(cell.trials)
	return cell, nil
}

// checkCell compares a cell's outputs with the pinned trials (on the
// reference seed) or the first job's, and checks the production median
// against the counted trials.
func (r *runner) checkCell(d attackDesign, victim string, c attackCell) {
	f := make([]float64, len(c.trials))
	for i, n := range c.trials {
		f[i] = float64(n)
	}
	if metrics.Median(f) != c.median {
		r.fail(len(c.trials), "%s %s: median %v does not match counted trials %v", d.name, victim, c.median, c.trials)
	}
	want := ""
	if p := r.pinned(); p != nil {
		want = fmt.Sprint(p.attackTrials(d.name, victim))
	}
	r.agree(d.name+" "+victim, fmt.Sprint(c.trials), want, len(c.trials))
}

func (p *pins) attackTrials(design, victim string) []int {
	a := p.Attack[design]
	if victim == "aes" {
		return a.AES
	}
	return a.ModExp
}

// runAttack measures fig8-attack. One op is a Fig 8 job: every design
// against both victim pairs, each (design, victim) cell a part. The
// samples a trial needs depend on the seed (over seeds 1–10 the longest
// Maya modexp trial ranged from 664 samples to the 2000-sample cap), so
// each cell's time is reported at the reference mix: the median over its
// trials (they run one after another) of a trial's time per sample, times
// the samples that cell's trials took in the full-scale reference run.
// This is sound because a trial's time is linear in its samples: its
// fixed cost is building the cache and four priming passes, against one
// probe pass per sample, so it is under 2% of every cell but SA's, which
// are under 1% of the job. On another seed the op time is the time the
// reference job takes at this run's per-sample speeds; the job's measured
// wall time is printed as job_wall_ms. At other scales the run's first
// job is the reference. The first job always completes; after it the
// window is checked before every cell.
func runAttack(r *runner) error {
	var s *attackSetup
	if err := r.timeSetups(func() (_ func() error, err error) {
		s, err = newAttackSetup(r)
		return nil, err
	}); err != nil {
		return err
	}
	type cellSpec struct {
		d           attackDesign
		victim, key string
		seedOff     uint64
	}
	var cells []cellSpec
	for _, d := range s.designs {
		for _, v := range attackVictims {
			cells = append(cells, cellSpec{d, v.name, d.name + " " + v.name, v.seedOff})
		}
	}
	refSamples := map[string]int{}
	var job, wall float64
	var walls []float64
	r.startWindow()
	for i := 0; i < len(cells) || r.more(i); i++ {
		cs := cells[i%len(cells)]
		c, err := runCell(r, s, cs.d, cs.victim, cs.seedOff, nil)
		if err != nil {
			return err
		}
		r.checkCell(cs.d, cs.victim, c)
		ref, ok := refSamples[cs.key]
		if !ok {
			ref = sum(c.trials)
			if r.ref != nil {
				t := r.ref.attackTrials(cs.d.name, cs.victim)
				if len(t) == 0 {
					return fmt.Errorf("testdata/digests.json has no %s trials", cs.key)
				}
				ref = sum(t)
			}
			refSamples[cs.key] = ref
		}
		for j, trialMS := range c.trialMS {
			r.part(cs.key, ratio(trialMS*float64(ref), float64(c.trialSamples[j])))
		}
		r.yardstick()
		cellMS := ms(c.wall)
		job += ratio(cellMS*float64(ref), float64(sum(c.trials)))
		wall += cellMS
		if i%len(cells) == len(cells)-1 {
			r.opMS = append(r.opMS, job)
			walls = append(walls, wall)
			job, wall = 0, 0
		}
	}
	r.note("attack_s", r.opP50()/1e3, "s")
	r.note("job_wall_ms", metrics.Median(walls), "ms")
	return nil
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// traceAttack attributes fig8-attack's time to the LLC designs and
// PRINCE, one pass after another until the window closes. Per design a
// pass runs the job's cells untraced (attack.<d>.s), runs them again with
// every trial's LLC recorded up to the per-trial cap, replays each
// recording through a fresh cache built with the trial's seed, and for
// Maya re-derives every recorded line's indexes with a bare PRINCE
// randomizer of Maya's geometry.
func traceAttack(r *runner) (map[string]float64, error) {
	s, err := newAttackSetup(r)
	if err != nil {
		return nil, err
	}
	return r.passes(func() (map[string]float64, error) { return attackPass(r, s) })
}

func attackPass(r *runner, s *attackSetup) (map[string]float64, error) {
	out := map[string]float64{}
	var plain, traced time.Duration
	for _, d := range s.designs {
		var recs []*recorder
		var seeds []uint64
		var mu sync.Mutex
		record := func(seed uint64, c cachemodel.LLC) cachemodel.LLC {
			rec := newRecorder(c, r.sc.RecordCap)
			mu.Lock()
			recs, seeds = append(recs, rec), append(seeds, seed)
			mu.Unlock()
			return rec
		}
		var designT time.Duration
		for _, v := range attackVictims {
			c, err := runCell(r, s, d, v.name, v.seedOff, nil)
			if err != nil {
				return nil, err
			}
			r.checkCell(d, v.name, c)
			designT += c.wall
			out["attack."+d.key+"."+v.name+"_median"] = c.median
			rc, err := runCell(r, s, d, v.name, v.seedOff, record)
			if err != nil {
				return nil, err
			}
			if !slices.Equal(rc.trials, c.trials) {
				r.fail(len(c.trials), "%s %s: recording the LLC changed the trials", d.name, v.name)
			}
			traced += rc.wall
		}
		plain += designT
		out["attack."+d.key+".s"] = designT.Seconds()

		var replayT time.Duration
		var ops int
		var memo cachemodel.Stats
		exact := true
		for i, rec := range recs {
			fresh, err := d.mk(seeds[i])
			if err != nil {
				return nil, err
			}
			runtime.GC()
			t := time.Now()
			replayLLC(fresh, rec.ops)
			replayT += time.Since(t)
			ops += len(rec.ops)
			st := rec.recorded()
			if fresh.StatsSnapshot().WithoutMemo() != st.WithoutMemo() {
				exact = false
				r.fail(1, "%s: replay of the trial with seed %d diverged from its recording", d.name, seeds[i])
			}
			memo.MemoHits += st.MemoHits
			memo.MemoMisses += st.MemoMisses
		}
		out["attack.llc."+d.key+".ns_per_op"] = ratio(float64(replayT.Nanoseconds()), float64(ops))
		out["attack.llc."+d.key+".replay_exact"] = boolMetric(exact)
		if d.key == "maya" {
			out["attack.llc.maya.memo_hit_rate"] = memo.MemoHitRate()
			out["prince.ns_per_index"] = princePerIndex(r, recs)
		}
	}
	out["tracing.overhead"] = traced.Seconds()/plain.Seconds() - 1
	return out, nil
}

// princePerIndex times a PRINCE randomizer of the Fig 8 Maya geometry
// over every recorded line, once per skew.
func princePerIndex(r *runner, recs []*recorder) float64 {
	const skews = 2
	rz := prince.NewRandomizer(skews, uint(bits.TrailingZeros(uint(r.sc.AttackSets))), r.seed)
	n, sink := 0, 0
	runtime.GC()
	t := time.Now()
	for _, rec := range recs {
		for _, op := range rec.ops {
			for skew := 0; skew < skews; skew++ {
				sink ^= rz.Index(skew, op.line)
			}
		}
		n += skews * len(rec.ops)
	}
	el := time.Since(t)
	princeSink = sink
	return ratio(float64(el.Nanoseconds()), float64(n))
}

// princeSink keeps the timed index computations live.
var princeSink int
