package faults

import "testing"

func TestFlipTagBitNeedsAHook(t *testing.T) {
	if _, ok := FlipTagBit(struct{}{}, 0, 0); ok {
		t.Fatal("hookless value reported corruptible")
	}
}
