package vet

import (
	"fmt"
	"sort"
)

// SnapshotFields returns the analyzer enforcing MAYASNAP completeness: for
// every struct participating in the snapshot protocol (a SaveState-shaped
// method taking *snapshot.Encoder and a RestoreState-shaped method taking
// *snapshot.Decoder), each field must be referenced by BOTH codec methods'
// transitive call closures. A field touched by neither — or by only one
// side — is a latent resume corruption: the run restores, Audit may even
// pass, and the divergence surfaces as a non-reproducible result long
// after the snapshot was taken.
//
// Two exemption paths keep the signal clean. Fields never assigned
// outside a constructor (geometry, masks, table shapes) are auto-exempt:
// an identically configured rebuild already reproduces them. Everything
// else — derived state rebuilt on restore (tagFP, invMask), scratch
// buffers whose contents are dead between operations (wbBuf) — must carry
// an explicit `//mayavet:ignore snapshotfields -- reason` on its
// declaration so the exemption is a reviewed decision, not an accident.
func SnapshotFields() *Analyzer {
	return &Analyzer{
		Name:       "snapshotfields",
		Doc:        "flag stateful struct fields missing from the snapshot codec",
		RunProgram: runSnapshotFields,
	}
}

func runSnapshotFields(prog *Program) []Finding {
	ids := make([]string, 0, len(prog.Stateful))
	//mayavet:ignore maporder -- keys are sorted immediately below
	for id := range prog.Stateful {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var out []Finding
	for _, id := range ids {
		st := prog.Stateful[id]
		saved := prog.ReachableFieldRefs(st.Save, st.ID)
		restored := prog.ReachableFieldRefs(st.Restore, st.ID)
		for _, field := range st.FieldOrder {
			if field == "_" {
				continue
			}
			if saved[field] && restored[field] {
				continue
			}
			if !prog.MutatedOutsideConstructor(st.ID, field) {
				continue // construction-time-only: a rebuild reproduces it
			}
			var gap string
			switch {
			case saved[field]:
				gap = "saved but never restored"
			case restored[field]:
				gap = "restored but never saved"
			default:
				gap = "neither saved nor restored"
			}
			out = append(out, Finding{
				Analyzer: "snapshotfields",
				Pos:      st.Pkg.Fset.Position(st.FieldPos[field]),
				Message: fmt.Sprintf("stateful field %s.%s is %s by the snapshot codec; add codec lines or exempt with //mayavet:ignore snapshotfields -- reason",
					st.Named.Obj().Name(), field, gap),
			})
		}
	}
	return out
}
