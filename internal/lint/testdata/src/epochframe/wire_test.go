package epochframe

import "testing"

func TestFrameShape(t *testing.T) {
	// ok: wire_test.go pins the frame encoding at literal epoch zero on
	// purpose — the epochframe rule exempts this file by name.
	if got := appendHeader(nil, 1, 7, 0); len(got) != 3 {
		t.Fatalf("frame length %d, want 3", len(got))
	}
	if r := (request{epoch: 0}); r.id != 0 { // ok: same exemption for the struct form
		t.Fatal("zero value")
	}
}
