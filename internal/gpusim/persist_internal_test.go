package gpusim

import (
	"testing"

	"repro/internal/isa"
)

// TestPersistBitEncoding pins the persistent kinds' Bit domain to its
// decoder: every code in [0, StuckBits()) decodes through newPersistState to
// its own fault, both stuck values are reachable, and stuck-pred's codes
// cover every (stuck value, predicate register, flag bit). The fault layer
// sizes its site spaces by StuckBits, so a short domain would leave faults
// unsampled and an aliasing decode would sample one fault twice.
func TestPersistBitEncoding(t *testing.T) {
	for k := InjectKind(0); k < NumInjectKinds; k++ {
		if !k.Persistent() {
			if n := k.StuckBits(); n != 0 {
				t.Errorf("%s: transient kind has StuckBits %d", k, n)
			}
			continue
		}
		seen := map[persistState]int{}
		stuck := map[bool]bool{}
		for bit := 0; bit < k.StuckBits(); bit++ {
			p := newPersistState(&Injection{Kind: k, Bit: bit})
			if prev, dup := seen[*p]; dup {
				t.Fatalf("%s: codes %d and %d decode to one state %+v", k, prev, bit, *p)
			}
			seen[*p] = bit
			stuck[p.stuck1] = true
		}
		if len(stuck) != 2 {
			t.Errorf("%s: codes reach stuck values %v, want both", k, stuck)
		}
		if k != InjectStuckPred {
			continue
		}
		for _, s1 := range []bool{false, true} {
			for reg := 0; reg < isa.NumPreds; reg++ {
				for flag := 0; flag < isa.PredBits; flag++ {
					want := persistState{kind: k, stuck1: s1, predReg: reg, predMask: 1 << flag}
					if _, ok := seen[want]; !ok {
						t.Errorf("%s: no code for stuck-at-%v p%d flag %d", k, s1, reg, flag)
					}
				}
			}
		}
	}
}
