package power

import (
	"math"
	"testing"

	"mayacache/internal/cachemodel"
)

// Table VIII, reproduced exactly.
func TestTable8Baseline(t *testing.T) {
	s := Account(cachemodel.Baseline)
	if s.TagEntryBits != 29 {
		t.Errorf("baseline tag entry bits = %d, want 29", s.TagEntryBits)
	}
	if s.TagEntries != 262144 {
		t.Errorf("baseline tag entries = %d, want 262144", s.TagEntries)
	}
	if s.TagStoreKB != 928 {
		t.Errorf("baseline tag store = %v KB, want 928", s.TagStoreKB)
	}
	if s.DataEntryBits != 512 {
		t.Errorf("baseline data entry bits = %d, want 512", s.DataEntryBits)
	}
	if s.DataStoreKB != 16384 {
		t.Errorf("baseline data store = %v KB, want 16384", s.DataStoreKB)
	}
	if s.TotalKB != 17312 {
		t.Errorf("baseline total = %v KB, want 17312", s.TotalKB)
	}
}

func TestTable8Mirage(t *testing.T) {
	s := Account(cachemodel.Mirage)
	if s.TagEntryBits != 69 {
		t.Errorf("Mirage tag entry bits = %d, want 69", s.TagEntryBits)
	}
	if s.TagEntries != 458752 {
		t.Errorf("Mirage tag entries = %d, want 458752", s.TagEntries)
	}
	if s.TagStoreKB != 3864 {
		t.Errorf("Mirage tag store = %v KB, want 3864", s.TagStoreKB)
	}
	if s.DataEntryBits != 531 {
		t.Errorf("Mirage data entry bits = %d, want 531", s.DataEntryBits)
	}
	if s.DataStoreKB != 16992 {
		t.Errorf("Mirage data store = %v KB, want 16992", s.DataStoreKB)
	}
	if s.TotalKB != 20856 {
		t.Errorf("Mirage total = %v KB, want 20856", s.TotalKB)
	}
	// +20% overhead.
	if ov := s.OverheadVsBaseline(); math.Abs(ov-0.2047) > 0.01 {
		t.Errorf("Mirage overhead = %.4f, want ~+20%%", ov)
	}
}

func TestTable8Maya(t *testing.T) {
	s := Account(cachemodel.Maya)
	if s.TagEntryBits != 70 {
		t.Errorf("Maya tag entry bits = %d, want 70", s.TagEntryBits)
	}
	if s.TagEntries != 491520 {
		t.Errorf("Maya tag entries = %d, want 491520", s.TagEntries)
	}
	if s.TagStoreKB != 4200 {
		t.Errorf("Maya tag store = %v KB, want 4200", s.TagStoreKB)
	}
	if s.DataEntries != 196608 {
		t.Errorf("Maya data entries = %d, want 196608", s.DataEntries)
	}
	if math.Abs(s.DataStoreKB-12744) > 0.01 {
		t.Errorf("Maya data store = %v KB, want 12744", s.DataStoreKB)
	}
	if math.Abs(s.TotalKB-16944) > 60 {
		t.Errorf("Maya total = %v KB, want ~16994", s.TotalKB)
	}
	// -2% vs baseline.
	if ov := s.OverheadVsBaseline(); ov > -0.01 || ov < -0.04 {
		t.Errorf("Maya overhead = %.4f, want ~-2%%", ov)
	}
}

func TestTable9CalibrationExact(t *testing.T) {
	for _, c := range calibration {
		got := Estimate(c.d)
		if math.Abs(got.ReadEnergyNJ-c.costs.ReadEnergyNJ) > 1e-9 {
			t.Errorf("%s read energy %v, want %v", c.d, got.ReadEnergyNJ, c.costs.ReadEnergyNJ)
		}
		if math.Abs(got.WriteEnergyNJ-c.costs.WriteEnergyNJ) > 1e-9 {
			t.Errorf("%s write energy %v, want %v", c.d, got.WriteEnergyNJ, c.costs.WriteEnergyNJ)
		}
		if math.Abs(got.StaticPowerMW-c.costs.StaticPowerMW) > 1e-9 {
			t.Errorf("%s static power %v, want %v", c.d, got.StaticPowerMW, c.costs.StaticPowerMW)
		}
		if math.Abs(got.AreaMM2-c.costs.AreaMM2) > 1e-9 {
			t.Errorf("%s area %v, want %v", c.d, got.AreaMM2, c.costs.AreaMM2)
		}
	}
}

func TestMayaSavingsMatchPaperHeadlines(t *testing.T) {
	base := Estimate(cachemodel.Baseline)
	maya := Estimate(cachemodel.Maya)
	areaSaving := 1 - maya.AreaMM2/base.AreaMM2
	if math.Abs(areaSaving-0.2811) > 0.005 {
		t.Errorf("Maya area saving = %.4f, paper 28.11%%", areaSaving)
	}
	powerSaving := 1 - maya.StaticPowerMW/base.StaticPowerMW
	if math.Abs(powerSaving-0.0546) > 0.005 {
		t.Errorf("Maya static power saving = %.4f, paper 5.46%%", powerSaving)
	}
	readSaving := 1 - maya.ReadEnergyNJ/base.ReadEnergyNJ
	if math.Abs(readSaving-0.1555) > 0.005 {
		t.Errorf("Maya read energy saving = %.4f, paper 15.55%%", readSaving)
	}
}

func TestMayaISOExtrapolation(t *testing.T) {
	// The paper reports Maya-ISO at 16.085 mm^2 and 760 mW; the affine
	// model extrapolates to the same ballpark.
	iso := Estimate(cachemodel.MayaISO)
	if iso.AreaMM2 < 14.5 || iso.AreaMM2 > 17.5 {
		t.Errorf("Maya-ISO area = %.3f mm^2, paper 16.085", iso.AreaMM2)
	}
	if iso.StaticPowerMW < 700 || iso.StaticPowerMW > 820 {
		t.Errorf("Maya-ISO static power = %.1f mW, paper 760", iso.StaticPowerMW)
	}
	st := Account(cachemodel.MayaISO)
	if ov := st.OverheadVsBaseline(); math.Abs(ov-0.26) > 0.04 {
		t.Errorf("Maya-ISO storage overhead = %.3f, paper ~+26%%", ov)
	}
}

func TestMirageLite(t *testing.T) {
	s := Account(cachemodel.MirageLite)
	if ov := s.OverheadVsBaseline(); math.Abs(ov-0.17) > 0.03 {
		t.Errorf("Mirage-Lite storage overhead = %.3f, paper ~+17%%", ov)
	}
}

func TestAllDesignsAccountable(t *testing.T) {
	for _, d := range cachemodel.Registered() {
		s := Account(d)
		if s.TotalKB <= 0 {
			t.Errorf("%s: non-positive total storage", d)
		}
		c := Estimate(d)
		if c.AreaMM2 <= 0 || c.StaticPowerMW <= 0 {
			t.Errorf("%s: non-positive cost estimate %+v", d, c)
		}
	}
}
