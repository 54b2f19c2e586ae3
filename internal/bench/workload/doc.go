// Command workloadbench is the repository's benchmark of record: four
// workloads that drive the simulator through the entry points its users
// call, each reporting the same named end-to-end metrics and, in a
// separate traced run, a per-layer cost ledger.
//
// # Running
//
//	bash internal/bench/workload/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//
// run.sh builds this directory, a Go module of its own whose go.mod
// points mayacache at the checkout's root, into .bench_build/ and runs
// it. Everything the build and the run write stays under .bench_build/.
// Inputs derive from --seed (default 1); ops repeat until --seconds have
// passed (at least one op runs). --trace 0 reports the end-to-end metrics,
// --trace 1 the per-layer metrics; a run never reports both, so the
// end-to-end numbers are always measured untraced. Every metric is
// printed as a `name value unit` line, after lines of supporting numbers
// (sample counts, tails, raw times, the domain rates below), and the last
// line is one JSON object:
//
//	{"correct": true, "attempted": 15, "failed": 0, "metrics": {"op_p50_yardsticks": {"value": 138.2, "unit": "yardstick"}, ...}}
//
// An op is one simulation, one attack trial, one Monte-Carlo run or one
// session; attempted counts them, and failed counts those that erred, were
// shed, or produced outputs that failed a check. The exit status is 0 when
// nothing failed, 1 otherwise, and 2 on a usage error.
//
// The process runs Go code on min(2, NumCPU) threads, and the timed work
// of an untraced run is serial: attack trials, Monte-Carlo shards and
// sessions each run one at a time, leaving the second thread to the
// collector, the resident-set sampler and the HTTP goroutines. Two busy
// threads on a 2-vCPU guest measure the scheduler as much as the code: a
// fully-associative Fig 8 cell whose two trials ran in parallel took 2.1
// to 4.9 s for identical work, one trial alone 1.9 to 2.5 s. Only the
// traced secmc pass runs Fig 7 on two workers, to report the shard
// speedup. For the same reason no workload runs cachesim at Parallelism 2:
// its front and merge goroutines both stay busy, and ten 10-second runs of
// the Maya cell in that mode spread by 0.20 of their median in one set.
//
// # Workloads
//
// Load sizes are fixed by the benchmark. The simulators are batch jobs;
// serve-closed is a closed loop of two clients.
//
//	workload      op                                         why
//	fig9-mix8     Table VI mix M16 (mcf×3, cactuBSSN, lbm,    the Fig 9/10 sweep unit: drive loop, private caches,
//	              bfs×2, cc) on 8 cores, 1M warmup + 1M ROI  trace generation and LLC bookkeeping all weigh,
//	              per core, serially on Baseline, Mirage and  PRINCE never runs (FastHash), and lbm's writes put
//	              Maya: the Fig 10 cell                      writebacks beside reads
//	fig8-attack   the cmd/attacksim Fig 8 job: 64 sets, 2     LLC accesses from attacker and victims dominate,
//	              runs, at most 2000 samples, 16 noise lines, PRINCE and the index memo are on the hot path, and
//	              on 16-way SA, Maya and fully-associative    cachesim does no work: the PRINCE-heavy pair of
//	              caches, one trial at a time                fig9-mix8, where PRINCE does no work
//	secmc         experiments.Fig7: 16,384 buckets per skew,  the security model (buckets, mc, rng) alone, with
//	              5M iterations, 2 shards on one worker      no cache simulator involved
//	serve-closed  one session on a one-worker session         admission with the journal fsync, queueing behind
//	              service: 1-core Maya alternating mcf and    the other client's session, and periodic snapshot
//	              lbm, 50K warmup + 100K ROI, snapshots       encoding and cell saves; a merge of the harness,
//	              every 2^14 steps; two HTTP clients each     fleet and serve job runtimes must not slow it
//	              wait for a session's done event before
//	              submitting the next
//
// At every 2^14 steps a session saves several 1.8 MB snapshots, each
// fsynced, and simulation is about 11% of its latency (serve.sim_share).
// The service's default cadence, every 2^16 steps, was tried and dropped:
// simulation was then about half of a session, but a run's median session
// time was about 12 ms on two of ten seeds and about 14 ms on the others at
// the same yardstick time, a step no yardstick removes, and the ten runs'
// op_p50_yardsticks spread by 0.079 against 0.039 to 0.053 at 2^14.
//
// Each workload builds its caches through the constructor its production
// caller uses: experiments.NewLLCChecked with FastHash and the
// runMixCtx system shape for the mixes, the cmd/attacksim constructors
// for Fig 8, experiments.Fig7 and serve.Open for the rest.
//
// # End-to-end metrics (--trace 0)
//
//	name               unit       better  bound  meaning
//	setup_s            s          lower   0.25   median of the set-ups timed before the window (at least 21,
//	                                             and as many as fit in 0.3 s): building one op's inputs (the
//	                                             three systems, the AES key search and caches, the shard
//	                                             models, or opening the service), scaled to a host where a
//	                                             yardstick pass takes 25 ms
//	op_p50_yardsticks  yardstick  lower   0.25   median host time of one op, excluding its set-up, divided by
//	                                             the median time of one yardstick pass in the same run
//	rss_p50_mb         MB         lower   0.10   median resident set (VmRSS), sampled every 20 ms over the run
//
// The bound is the largest worsening of a metric's median, as a share of
// the parent's, that is not a regression. A bound is only as tight as the
// host lets it be: it must hold three times the distance between the
// quartiles of ten runs of one commit. On the shared 2-vCPU host described
// below that distance for op_p50_yardsticks was 0.03 to 0.08 in quiet
// stretches and reached 0.17 in slow ones, so a 0.10 bound could not be
// resolved there and op_p50_yardsticks carries 0.25.
//
// # The yardstick
//
// The yardstick (yardstick.go) is a fixed computation owned by this
// benchmark: 3,000,000 read-modify-writes of a 1 MiB table at
// xorshift-drawn indexes, about 25 ms. After every op, or every part of
// one, a run times four yardstick passes, so the passes sample the same
// stretch of host time as the ops. A change to the program cannot move the
// yardstick, so it moves op_p50_yardsticks exactly as it moves the op's
// time; what the division removes is the drift of the shared host's speed
// between runs, which moves both. setup_s is scaled the same way but kept
// in seconds: the run's median set-up time times 25 ms over its median
// pass time. The raw median op time (op_p50_ms), the raw median set-up
// time (setup_p50_raw_s) and the yardstick's median (yardstick_p50_ms) are
// printed as supporting lines.
//
// On a shared 2-vCPU KVM guest (Intel Xeon, 2.1 GHz) the raw op times
// could not meet a 0.10 bound. Sets of ten 10-second runs of an earlier
// five-workload version put the distance between the quartiles of the raw
// median op time at up to 0.32 of the median, and sets of ten 30-second
// runs at 0.07 to 0.24; the host slowed and sped up by 10 to 75% over tens
// of seconds, and a 1M+1M fig9-mix8 design run took 659 to 1267 ms for
// identical work within one run. Dividing by the yardstick
// brought two sets of ten 28-second runs (seeds 21–30, then 31–40) to
// quartile distances of 0.032 and 0.048 on fig9-mix8, 0.058 and 0.079 on
// fig8-attack, 0.082 and 0.042 on secmc, and 0.047 and 0.053 on
// serve-closed, against 0.075–0.163, 0.144–0.162, 0.132–0.148 and
// 0.063–0.100 for the raw times of the same runs. The raw medians fell 14
// to 16% from the first set to the second; op_p50_yardsticks moved by −4%,
// 0%, −3% and −3%. Of the kernels tried as yardsticks (an ALU chain,
// pointer chases over 1 to 32 MiB, tables of 1, 4 and 16 MiB, and a small
// set-associative cache model), this one tracked the simulator as well as
// any and better than most. None tracks it fully: in one slow stretch the
// 8-core simulation's time rose by up to 75% while the yardstick's rose by
// about 25%. A set of ten runs that met such a stretch spread by 0.135 on
// fig9-mix8, 0.166 on fig8-attack, 0.131 on secmc and 0.48 on serve-closed,
// whose sessions are mostly snapshot writes and fsyncs that a slow disk
// stretches far more than the yardstick.
//
// Over the sets measured, the median set-up time of ten runs moved by up
// to 22% on fig8-attack and 27% on secmc with the host's speed; scaled by
// the yardstick, by up to 11% and 13%. serve-closed's set-up opens files
// and a listener, and its ten-run median was 1.5 to 1.9 times higher in a
// set of serve-closed runs back to back than in sets where they alternated
// with the other workloads.
//
// The collector runs before each timed op, so collecting the previous
// op's garbage never lands in it, and before each mix system is built, so
// the previous one's garbage and the new one are never resident together.
// An op made of parts — fig9-mix8's three design runs, fig8-attack's six
// (design, victim) cells, each sampled once per trial — reports the sum of
// its parts' medians, so one slow part of one op moves the estimate no
// more than one slow op would; the first op always completes, and after it
// the window is checked before every part, so a run overruns its window by
// at most one part.
// serve-closed runs its clients in one-second epochs and the yardstick
// between them, when no session is in flight. The peak resident set
// (VmHWM) is printed as a supporting line, not a metric: it depends on
// when the collector runs.
//
// Every workload reports all three metrics, so the domain rates the
// workloads are usually quoted in are printed as supporting lines:
// sim_mips (simulated instructions, cores × (warmup + ROI) summed over the
// designs, per host µs) on fig9-mix8, attack_s on fig8-attack,
// mc_miters_per_s on secmc, and sessions_per_s and session_p50_ms on
// serve-closed. These are raw host times.
//
// How many samples a Fig 8 trial takes before the attacker can tell two
// keys apart depends on the seed, so fig8-attack's wall time would follow
// the seed rather than the code. Its op time is therefore reported at the
// reference sample mix: per (design, victim) cell, the median over its
// trials (they run one after another, each timed from the building of
// its cache) of a trial's wall time per sample, times the samples that
// cell's trials took in the pinned seed-1 run. On another seed it is the
// time the seed-1 job takes at that run's per-sample speeds; the measured
// wall time of a job is printed as job_wall_ms. That rests on a trial's
// time being linear in its samples. A trial's fixed cost is
// building its cache and four priming passes over the attacker's lines,
// against one probe pass per sample, so it is under 2% of every cell but
// the two 16-way SA cells, which take under 1% of the job. Over seeds
// 1–10 the time per sample stayed flat while the sample count moved: 0.84–
// 0.96 ms on the fully-associative modexp cell for 272 to 744 samples,
// with no trend in the count. Samples are counted by wrapping the victims,
// which costs one extra call per victim operation.
//
// # Per-layer metrics (--trace 1)
//
// A traced run repeats ledger passes until its window closes and reports
// each metric's median over the passes. Every layer is timed from outside,
// through calls into its public functions: the run records the exact call
// stream a layer receives inside a full run and replays it through a fresh,
// identically built instance of that layer alone. A metric a workload's
// layers do not produce reads 0; all workloads report every name.
//
//	layer               metrics                                  moves op_p50_yardsticks on
//	trace               trace.ns_per_event                       fig9-mix8
//	baseline (L1D/L2)   private.ns_per_event, private.l1d_hit_   fig9-mix8
//	                    rate, private.l2_hit_rate
//	cachesim drive      drive.ns_per_event                       fig9-mix8
//	core, mirage,       llc.<d>.ns_per_access, .accesses,        fig9-mix8, d ∈ {baseline, mirage, maya}
//	baseline LLC and    .miss_rate, .memo_hit_rate,
//	the probe memo      .replay_exact
//	                    attack.llc.<d>.ns_per_op, .replay_exact, fig8-attack, d ∈ {sa16, maya, fa}
//	                    attack.llc.maya.memo_hit_rate
//	prince              prince.ns_per_index                      fig8-attack; predicted no change on fig9-mix8
//	DRAM                dram.ns_per_op, dram.row_hit_rate,       fig9-mix8, where its share is about 1%, too
//	                    dram.reads, dram.writes                  small for an optimization to show
//	snapshot            snapshot.<shape>.encode_ms, .restore_ms, serve-closed, shape ∈ {session, mix8}
//	                    .bytes
//	serve               serve.admit_p50_ms, .admit_tail_ms,      serve-closed
//	                    .session_tail_ms, .tail_pct, .sessions,
//	                    .shed, .sim_share
//	mc, buckets         mc.serial_miters_per_s, mc.shard_speedup, secmc
//	                    buckets.spills
//	attack              attack.<d>.s, .aes_median, .modexp_median fig8-attack
//	ledger              ledger.fig9-mix8.closure, ledger.fig9-   fig9-mix8
//	                    mix8.<layer>_share, tracing.overhead
//	simulated checks    sim.<d>.ipc_sum, sim.<d>.mpki            none: they must repeat exactly
//
// perLayer in metrics.go records, for every name, the end-to-end metric
// and workload it should move; TestBenchmarkJSON checks both exist.
//
// On fig9-mix8 a pass runs the cell per design untraced, then with the
// LLC wrapped by a recorder and the trace events counted (the recording
// must not move a byte of the Results), replays the recorded stream
// through a fresh design built by the same constructor (llc.*), and
// replays the misses and victims it sent to memory through
// cachesim.NewDRAM (dram.*). Once per pass it regenerates each core's
// events with trace.NewGenerator (trace.*), walks them through fresh
// baseline.NewChecked L1D/L2 caches (private.*), and runs the cell on a
// null LLC that always hits, which costs trace + private caches + drive
// loop over exactly the same events. Every replay is checked: the LLC
// replay must reproduce StatsSnapshot().WithoutMemo() exactly, the DRAM
// replay the run's four DRAM counters, each core's private walk the LLC
// stream the recorder saw from that core, and the null-LLC run the same
// retired instructions. On fig8-attack every trial's LLC is recorded up to
// a cap of 2^19 operations and replayed with the trial's seed, and
// prince.ns_per_index re-derives the recorded lines' indexes with a bare
// prince.NewRandomizer of the Fig 8 Maya geometry. secmc runs Fig 7 on
// one worker and on two. serve-closed repeats the closed loop and times
// experiments.RunGridCell on the session's cell (serve.sim_share is that
// time over the session p50) and System.EncodeState/RestoreState on a
// session-shaped System and on the 8-core Maya System. Tails use the
// metrics guide's rule: the highest whole percentile with at least ten
// samples beyond it (serve.tail_pct names it; serve.sessions is the
// sample count).
//
// # Reading the ledger
//
// ledger.fig9-mix8.closure is 1 − (3 × null-LLC + LLC replays + DRAM
// replays) / recorded total, summed over the three designs. Near 0 the
// layer rows add up to the recorded run; positive means the full run costs
// more than its parts run alone (the parts share the host's caches in the
// full run and have them to themselves in a replay), negative that the
// parts cost more alone. The <layer>_share metrics divide each layer's
// time by the same recorded total, so with the closure they sum to 1.
// tracing.overhead is recorded ÷ untraced − 1: the recorder's own cost.
// To see where a change saved time, compare the shares and ns-per-unit
// rows of both commits; the saving should sit in the layer the change
// touched.
//
// # Output checks
//
// Every op's outputs are checked, and a mismatch counts the op as failed
// and makes the run exit 1. testdata/digests.json pins the full-scale
// seed-1 outputs: the SHA-256 of each fig9-mix8 design's Results JSON,
// each Fig 8 cell's per-trial sample counts, the secmc ShardedResult, and
// each session benchmark's result (computed by TestPinnedDigests through
// experiments.RunGridCell, without the service). On other seeds every rep
// must produce the same bytes as the run's first, and all sessions of one
// spec must return identical bytes.
//
// # What the numbers are not
//
// Host-time numbers are measured on whatever machine runs the benchmark
// and are not validated against any reference hardware; a yardstick ratio
// compares two host times of one machine and means nothing across
// machines. The sim.* values
// and the Fig 8 medians are determinism checks of the model, not claims
// about its accuracy: the synthetic traces and the cycle-approximate core
// model are not validated against real systems.
//
// # The older tiers
//
// cmd/mayabench's micro, macro, mc and serve tiers stay as they are,
// because ci.sh gates on them. Two of their numbers do not describe the
// traffic users run. The micro tier's real-hash memo hit rate of about
// 0.98 comes from replaying a cyclic 65,536-access stream; inside a full
// 8-core simulation the memo hit rate is about 0.19
// (llc.maya.memo_hit_rate here). The macro rows build their caches with
// the memo forced off (MemoBits: -1), while every production FastHash
// sweep runs with it on, because cachemodel.XorHasher exposes Epoch and
// cachemodel.MemoBitsFor therefore enables the memo.
package main
