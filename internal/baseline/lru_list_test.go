package baseline

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"mayacache/internal/cachemodel"
	"mayacache/internal/rng"
	"mayacache/internal/snapshot"
)

// scanLRU is lruPolicy without the recency list: the victim scans the
// set's stamps for the lowest, taking the first way among equals. It is
// the oracle the list must match op for op, with the same stamps and wire
// format.
type scanLRU struct {
	ways  int
	clock uint64
	stamp []uint64
}

func (p *scanLRU) hit(set, way int) {
	p.clock++
	p.stamp[set*p.ways+way] = p.clock
}

func (p *scanLRU) fill(set, way int) { p.hit(set, way) }

func (p *scanLRU) victim(set int) int {
	base := set * p.ways
	row := p.stamp[base : base+p.ways]
	best, bestStamp := 0, row[0]
	for w := 1; w < len(row); w++ {
		if s := row[w]; s < bestStamp {
			best, bestStamp = w, s
		}
	}
	return best
}

func (p *scanLRU) kind() ReplacementKind { return LRU }

func (p *scanLRU) saveState(e *snapshot.Encoder) {
	e.U64(p.clock)
	e.Count(len(p.stamp))
	for _, s := range p.stamp {
		binary.LittleEndian.PutUint64(e.Record(8), s)
	}
}

func (p *scanLRU) stateBound() int { return 8 + snapshot.CountBytes + 8*len(p.stamp) }

func (p *scanLRU) restoreState(d *snapshot.Decoder) {
	p.clock = d.U64()
	if !d.FixedCount(len(p.stamp), "lru stamps") {
		return
	}
	for i := range p.stamp {
		p.stamp[i] = d.U64()
		if p.stamp[i] > p.clock {
			d.Fail("lru stamps", "stamp %d ahead of clock %d", p.stamp[i], p.clock)
			return
		}
	}
}

// newScanTwin builds an LRU SetAssoc whose policy is the stamp scan,
// reached through the policy interface.
func newScanTwin(cfg Config) *SetAssoc {
	c := mustNew(cfg)
	c.pol = &scanLRU{ways: cfg.Ways, stamp: make([]uint64, cfg.Sets*cfg.Ways)}
	c.lru = nil
	return c
}

// lruOp is one call of the differential stream.
type lruOp struct {
	kind byte // 0 read, 1 writeback, 2 flush, 3 probe
	line uint64
	sdid uint8
	core uint8
}

func (op lruOp) String() string {
	return fmt.Sprintf("%s(line %d, sdid %d, core %d)",
		[...]string{"read", "writeback", "flush", "probe"}[op.kind], op.line, op.sdid, op.core)
}

// lruPair runs one op stream through the recency list and the scan.
type lruPair struct {
	cfg        Config
	list, scan *SetAssoc
}

func newLRUPair(cfg Config) *lruPair {
	cfg.Replacement = LRU
	return &lruPair{cfg: cfg, list: mustNew(cfg), scan: newScanTwin(cfg)}
}

// apply runs op on both caches and describes the first divergence in the
// victim of the set an access touches, the op's outcome, the statistics
// or, when withState is set, the saved state.
func (p *lruPair) apply(op lruOp, withState bool) error {
	switch op.kind {
	case 0, 1:
		set := p.list.index(op.line)
		if got, want := p.list.lru.victim(set), p.scan.pol.victim(set); got != want {
			return fmt.Errorf("set %d: list names victim %d, scan %d", set, got, want)
		}
		a := cachemodel.Access{Line: op.line, Type: cachemodel.Read, SDID: op.sdid, Core: op.core}
		if op.kind == 1 {
			a.Type = cachemodel.Writeback
		}
		got, want := p.list.Access(a), p.scan.Access(a)
		if got.TagHit != want.TagHit || got.DataHit != want.DataHit || got.SAE != want.SAE ||
			!slices.Equal(got.Writebacks, want.Writebacks) {
			return fmt.Errorf("result %+v, scan %+v", got, want)
		}
	case 2:
		if got, want := p.list.Flush(op.line, op.sdid), p.scan.Flush(op.line, op.sdid); got != want {
			return fmt.Errorf("flushed %v, scan %v", got, want)
		}
	default:
		gt, gd := p.list.Probe(op.line, op.sdid)
		wt, wd := p.scan.Probe(op.line, op.sdid)
		if gt != wt || gd != wd {
			return fmt.Errorf("probe (%v, %v), scan (%v, %v)", gt, gd, wt, wd)
		}
	}
	if got, want := p.list.StatsSnapshot(), p.scan.StatsSnapshot(); got != want {
		return fmt.Errorf("stats %+v, scan %+v", got, want)
	}
	if !withState {
		return nil
	}
	return p.sameState()
}

// sameState compares the two caches' SaveState bytes.
func (p *lruPair) sameState() error {
	var el, es snapshot.Encoder
	p.list.SaveState(&el)
	p.scan.SaveState(&es)
	if !bytes.Equal(el.Data(), es.Data()) {
		return fmt.Errorf("saved states differ (%d and %d bytes)", len(el.Data()), len(es.Data()))
	}
	return nil
}

// restore saves the scan twin's state, after edit has rewritten its
// stamps when non-nil, and restores it into a fresh pair. It then checks
// the rebuilt list: every set's victim is the scan's.
func (p *lruPair) restore(edit func(stamp []uint64)) (*lruPair, error) {
	if edit != nil {
		edit(p.scan.pol.(*scanLRU).stamp)
	}
	var e snapshot.Encoder
	p.scan.SaveState(&e)
	q := newLRUPair(p.cfg)
	for _, c := range []*SetAssoc{q.list, q.scan} {
		if err := c.RestoreState(snapshot.NewDecoder(e.Data())); err != nil {
			return nil, err
		}
	}
	if err := q.list.lru.audit(); err != nil {
		return nil, err
	}
	for set := 0; set < p.cfg.Sets; set++ {
		if got, want := q.list.lru.victim(set), q.scan.pol.victim(set); got != want {
			return nil, fmt.Errorf("set %d: restored list names victim %d, scan %d", set, got, want)
		}
	}
	return q, q.sameState()
}

// lruStream draws a stream's ops over a line set 2 to 4 times the
// cache's capacity, so lines are evicted and hit again, mostly accesses
// so every set fills and evicts.
func lruStream(r *rng.Rand, capacity, n int) []lruOp {
	lines := make([]uint64, (2+r.Intn(3))*capacity)
	for i := range lines {
		lines[i] = r.Uint64n(1 << 40)
	}
	ops := make([]lruOp, n)
	for i := range ops {
		op := lruOp{line: lines[r.Intn(len(lines))], sdid: uint8(r.Uint64n(3)), core: uint8(r.Uint64n(4))}
		switch k := r.Uint64n(16); {
		case k < 9:
			op.kind = 0
		case k < 12:
			op.kind = 1
		case k < 14:
			op.kind = 2
		default:
			op.kind = 3
		}
		ops[i] = op
	}
	return ops
}

// TestLRUListMatchesScan drives the recency list and the stamp scan, built
// alike, through random reads, writebacks, flushes and probes, comparing
// after every op the touched set's victim, the op's result, the
// statistics and the saved state. Midway, each pair restores its state
// three ways (as saved, every stamp zero, and stamps collapsed into few
// tied values) and carries on from the restored pair, so the rebuilt
// lists must name the scan's victims too. 257 ways is wider than a byte
// can index. The 64x257 cache's saved state is 350 KB, so it is compared
// after every 64th op and at each restore instead.
func TestLRUListMatchesScan(t *testing.T) {
	for _, ways := range []int{1, 2, 3, 8, 12, 16, 257} {
		for _, sets := range []int{1, 4, 64} {
			for _, matchSDID := range []bool{false, true} {
				for seed := uint64(1); seed <= 3; seed++ {
					name := fmt.Sprintf("%dx%d/sdid=%v/seed%d", sets, ways, matchSDID, seed)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						capacity := sets * ways
						p := newLRUPair(Config{Sets: sets, Ways: ways, Seed: seed, MatchSDID: matchSDID})
						r := rng.New(seed)
						ops := lruStream(r, capacity, max(1200, 3*capacity))
						edits := []func([]uint64){
							nil,
							func(s []uint64) { clear(s) },
							func(s []uint64) {
								for i := range s {
									s[i] = r.Uint64n(3)
								}
							},
						}
						stateEvery := 1
						if capacity > 4096 {
							stateEvery = 64
						}
						for i, op := range ops {
							if err := p.apply(op, i%stateEvery == 0); err != nil {
								t.Fatalf("op %d %v: %v", i, op, err)
							}
							if k := i - len(ops)/2; k >= 0 && k < len(edits) {
								q, err := p.restore(edits[k])
								if err != nil {
									t.Fatalf("restore %d after op %d: %v", k, i, err)
								}
								p = q
							}
						}
					})
				}
			}
		}
	}
}

// FuzzLRUList decodes an op stream from the fuzzer's bytes: the first
// byte picks the geometry and SDID matching, then every three bytes are
// one op (kind and SDID, line, core). Kinds 4 and 5 restore the pair from
// its own state, the second after collapsing stamps into tied values.
func FuzzLRUList(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x01, 0x00, 0x10, 0x02, 0x01, 0x20, 0x03, 0x00})
	f.Add([]byte{0x13, 0x00, 0x05, 0x01, 0x01, 0x09, 0x02, 0x02, 0x05, 0x00, 0x04, 0x00, 0x00, 0x03, 0x05, 0x01})
	f.Add([]byte{0x27, 0x04, 0x00, 0x00, 0x05, 0x11, 0x01, 0x06, 0x22, 0x00, 0x05, 0x00, 0x00, 0x02, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		geoms := [...][2]int{{1, 1}, {1, 2}, {1, 3}, {4, 2}, {4, 8}, {2, 12}, {8, 16}, {1, 300}}
		g := geoms[int(data[0]&0x0f)%len(geoms)]
		p := newLRUPair(Config{Sets: g[0], Ways: g[1], Seed: uint64(data[0]), MatchSDID: data[0]&0x10 != 0})
		r := rng.New(uint64(data[0]))
		lines := make([]uint64, 3*g[0]*g[1])
		for i := range lines {
			lines[i] = r.Uint64n(1 << 40)
		}
		for i := 1; i+2 < len(data); i += 3 {
			op := lruOp{
				kind: data[i] & 7,
				sdid: data[i] >> 3 & 3,
				line: lines[int(data[i+1])%len(lines)],
				core: data[i+2] & 3,
			}
			var err error
			switch op.kind {
			case 4, 5:
				var edit func([]uint64)
				if op.kind == 5 {
					shift := data[i+2] & 7
					edit = func(s []uint64) {
						for j := range s {
							s[j] >>= shift
						}
					}
				}
				p, err = p.restore(edit)
			case 6, 7:
				op.kind -= 6
				err = p.apply(op, true)
			default:
				err = p.apply(op, true)
			}
			if err != nil {
				t.Fatalf("op %d (kind %d): %v", i/3, data[i]&7, err)
			}
		}
	})
}
