package cachesim

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The compat fixtures under testdata/ were generated by the pre-arena
// code (-update-compat at the commit before the SWAR/arena layout change)
// and are intentionally NOT regenerated on layout changes: they prove the
// MAYASNAP wire format survives in-memory layout work in both directions.
// Only a deliberate, versioned wire-format change may regenerate them.
var updateCompat = flag.Bool("update-compat", false, "regenerate the frozen testdata fixtures, snapshot wire format and prefetching runs (only for deliberate format or model changes)")

func compatFixture(name, ext string) string {
	return filepath.Join("testdata", fmt.Sprintf("compat_%s.%s", name, ext))
}

// TestSnapshotWireCompat restores a committed pre-PR MAYASNAP blob into
// freshly constructed (now arena-backed) designs and proves wire-format
// compatibility in both directions:
//
//  1. old blob -> new code: the restored run finishes with Results JSON
//     byte-identical to the committed pre-PR results;
//  2. new code -> old blob: re-encoding the restored state reproduces the
//     committed blob byte-for-byte, so snapshots written by this code are
//     readable by the pre-PR decoder too.
func TestSnapshotWireCompat(t *testing.T) {
	for _, d := range snapDesigns[:3] { // maya, mirage, baseline
		t.Run(d.name, func(t *testing.T) {
			snapPath := compatFixture(d.name, "snap")
			resPath := compatFixture(d.name, "json")

			if *updateCompat {
				state := captureMidROI(t, snapSystem(t, d.mk()))
				full, err := Run(context.Background(), snapSystem(t, d.mk()), RunSpec{Warmup: snapWarmup, ROI: snapROI})
				if err != nil {
					t.Fatal(err)
				}
				res, err := json.Marshal(full)
				if err != nil {
					t.Fatal(err)
				}
				res = append(res, '\n')
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(snapPath, state, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(resPath, res, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes) and %s", snapPath, len(state), resPath)
				return
			}

			blob, err := os.ReadFile(snapPath)
			if err != nil {
				t.Fatalf("missing fixture (generate with -update-compat on the pre-change commit): %v", err)
			}
			wantRes, err := os.ReadFile(resPath)
			if err != nil {
				t.Fatal(err)
			}

			sys := snapSystem(t, d.mk())
			if err := sys.RestoreState(blob); err != nil {
				t.Fatalf("pre-PR blob no longer restores: %v", err)
			}

			reenc, err := sys.EncodeState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(reenc, blob) {
				t.Fatalf("re-encoded state diverges from the pre-PR blob (%d vs %d bytes): wire format changed", len(reenc), len(blob))
			}

			res, err := Run(context.Background(), sys, RunSpec{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			if !bytes.Equal(got, wantRes) {
				t.Fatalf("restored run results diverge from pre-PR results:\n got  %s\n want %s", got, wantRes)
			}
		})
	}
}
