// Package power reproduces the paper's cost analysis: the exact storage
// accounting of Table VIII and a P-CACTI-substitute energy/power/area
// model for Table IX.
//
// Storage is pure arithmetic over a design row of cachemodel's table and
// per-entry bit counts (a 46-bit line address space, MOESI coherence bits,
// FPTR/RPTR widths sized to the pointed-to store, an 8-bit SDID, and
// Maya's priority bit) and reproduces Table VIII bit-for-bit.
//
// Energy, static power, and area come from an affine model in the data-
// and tag-store sizes, calibrated on the paper's three P-CACTI rows
// (baseline, Mirage, Maya at 7nm) and used to extrapolate the variants
// (Maya-ISO, Mirage-Lite). See DESIGN.md §4 for the substitution argument.
package power

import (
	"math"
	"math/bits"

	"mayacache/internal/cachemodel"
)

// lineAddressBits is the paper's 46-bit line address space.
const lineAddressBits = 40 // 46-bit byte address minus 6 line-offset bits

// Storage describes one design's storage accounting (Table VIII).
type Storage struct {
	Design string

	TagBits       int // address tag bits per entry
	CoherenceBits int
	PriorityBits  int
	FPTRBits      int
	SDIDBits      int
	TagEntryBits  int // total per tag entry
	TagEntries    int
	TagStoreKB    float64

	DataBits      int // line payload bits
	RPTRBits      int
	DataEntryBits int
	DataEntries   int
	DataStoreKB   float64

	TotalKB float64
}

// OverheadVsBaseline returns the fractional storage change vs the
// baseline (+0.20 means +20%).
func (s Storage) OverheadVsBaseline() float64 {
	base := Account(cachemodel.Baseline)
	return s.TotalKB/base.TotalKB - 1
}

func ceilLog2(n int) int { return bits.Len(uint(n - 1)) }

// Account computes design row r's storage breakdown at the paper's 8-core
// scale (16K sets per skew). A pointer-linked row (the Maya and Mirage
// families) keeps the whole line address in each tag, an 8-bit SDID, and
// FPTR/RPTR pointers as wide as the data and tag stores they point into;
// any other row takes the set-index bits off its tag. A row with reuse
// ways adds Maya's priority bit.
func Account(r cachemodel.Row) Storage {
	const sets = 8 * cachemodel.DefaultSetsPerCore
	s := Storage{
		Design:        r.Name,
		TagBits:       lineAddressBits - ceilLog2(sets),
		CoherenceBits: 3,
		TagEntries:    r.TagEntries(sets),
		DataBits:      512,
		DataEntries:   r.DataEntries(sets),
	}
	if r.Decoupled() {
		s.TagBits = lineAddressBits
		s.SDIDBits = 8
		s.FPTRBits = ceilLog2(s.DataEntries)
		s.RPTRBits = ceilLog2(s.TagEntries)
	}
	if r.ReuseWays > 0 {
		s.PriorityBits = 1
	}
	s.TagEntryBits = s.TagBits + s.CoherenceBits + s.PriorityBits + s.FPTRBits + s.SDIDBits
	s.DataEntryBits = s.DataBits + s.RPTRBits
	s.TagStoreKB = float64(s.TagEntries) * float64(s.TagEntryBits) / 8 / 1024
	s.DataStoreKB = float64(s.DataEntries) * float64(s.DataEntryBits) / 8 / 1024
	s.TotalKB = s.TagStoreKB + s.DataStoreKB
	return s
}

// Costs holds the Table IX metrics.
type Costs struct {
	Design        string
	ReadEnergyNJ  float64
	WriteEnergyNJ float64
	StaticPowerMW float64
	AreaMM2       float64
}

// calibration rows: the paper's P-CACTI results at 7nm for (baseline,
// Mirage, Maya), used to fit the affine model.
var calibration = []struct {
	d     cachemodel.Row
	costs Costs
}{
	{cachemodel.Baseline, Costs{"Baseline", 3.153, 4.652, 622, 14.868}},
	{cachemodel.Mirage, Costs{"Mirage", 3.274, 4.857, 735, 15.887}},
	{cachemodel.Maya, Costs{"Maya", 2.661, 4.116, 588, 10.686}},
}

// model holds affine coefficients metric = a*dataKB + b*tagKB + c.
type model struct{ a, b, c float64 }

func (m model) eval(dataKB, tagKB float64) float64 { return m.a*dataKB + m.b*tagKB + m.c }

var readModel, writeModel, staticModel, areaModel = fitModels()

// fitModels solves the 3x3 linear system per metric so the calibration
// rows reproduce exactly.
func fitModels() (read, write, static, area model) {
	var A [3][3]float64
	var rRead, rWrite, rStatic, rArea [3]float64
	for i, c := range calibration {
		st := Account(c.d)
		A[i] = [3]float64{st.DataStoreKB, st.TagStoreKB, 1}
		rRead[i] = c.costs.ReadEnergyNJ
		rWrite[i] = c.costs.WriteEnergyNJ
		rStatic[i] = c.costs.StaticPowerMW
		rArea[i] = c.costs.AreaMM2
	}
	solve := func(rhs [3]float64) model {
		x := gauss3(A, rhs)
		return model{x[0], x[1], x[2]}
	}
	return solve(rRead), solve(rWrite), solve(rStatic), solve(rArea)
}

// gauss3 solves a 3x3 linear system by Gaussian elimination with partial
// pivoting.
func gauss3(a [3][3]float64, b [3]float64) [3]float64 {
	// Copy to avoid mutating the caller's arrays.
	m := a
	r := b
	for col := 0; col < 3; col++ {
		// Pivot.
		p := col
		for row := col + 1; row < 3; row++ {
			if math.Abs(m[row][col]) > math.Abs(m[p][col]) {
				p = row
			}
		}
		m[col], m[p] = m[p], m[col]
		r[col], r[p] = r[p], r[col]
		if m[col][col] == 0 {
			panic("power: singular calibration system")
		}
		for row := col + 1; row < 3; row++ {
			f := m[row][col] / m[col][col]
			for k := col; k < 3; k++ {
				m[row][k] -= f * m[col][k]
			}
			r[row] -= f * r[col]
		}
	}
	var x [3]float64
	for row := 2; row >= 0; row-- {
		sum := r[row]
		for k := row + 1; k < 3; k++ {
			sum -= m[row][k] * x[k]
		}
		x[row] = sum / m[row][row]
	}
	return x
}

// Estimate returns the Table IX metrics for design row r (exact for the
// calibration designs, extrapolated for variants).
func Estimate(r cachemodel.Row) Costs {
	s := Account(r)
	return Costs{
		Design:        r.Name,
		ReadEnergyNJ:  readModel.eval(s.DataStoreKB, s.TagStoreKB),
		WriteEnergyNJ: writeModel.eval(s.DataStoreKB, s.TagStoreKB),
		StaticPowerMW: staticModel.eval(s.DataStoreKB, s.TagStoreKB),
		AreaMM2:       areaModel.eval(s.DataStoreKB, s.TagStoreKB),
	}
}
