package soda

import (
	"errors"
	"testing"
)

// These tests pin the errors.Is contract of the exported sentinels
// through the real paths that produce them. Callers dispatch on
// errors.Is (the quarantine, retry, and epoch re-park paths), so the
// property that must never break is Is-matchability of the wrapped
// chains the production code actually builds — not string equality.
// The errwrap lint rule requires a test like this for every exported
// sentinel.

func TestErrEmptyValueIsTarget(t *testing.T) {
	codec, lb := newCluster(t, 5, 3)
	if _, err := codec.EncodeValue(nil); !errors.Is(err, ErrEmptyValue) {
		t.Fatalf("EncodeValue(nil): err = %v, want errors.Is ErrEmptyValue", err)
	}
	w := mustWriter(t, "w1", codec, lb.Conns())
	if _, err := w.Write(testCtx(t), testKey, nil); !errors.Is(err, ErrEmptyValue) {
		t.Fatalf("Write(empty): err = %v, want errors.Is ErrEmptyValue", err)
	}
}

func TestErrConfigIsTarget(t *testing.T) {
	codec, lb := newCluster(t, 5, 3)
	// Empty writer id: rejected before anything touches the cluster.
	if _, err := NewWriter("", codec, lb.Conns()); !errors.Is(err, ErrConfig) {
		t.Fatalf("NewWriter(empty id): err = %v, want errors.Is ErrConfig", err)
	}
	// Conn set that cannot cover the code: n=5 codec over 3 conns.
	if _, err := NewWriter("w1", codec, lb.Conns()[:3]); !errors.Is(err, ErrConfig) {
		t.Fatalf("NewWriter(3 conns, n=5): err = %v, want errors.Is ErrConfig", err)
	}
	// Fault budget that destroys the quorum: n-f < k.
	if _, err := mustView(t, &Config{Codec: codec, Conns: lb.Conns(), F: 3}).Writer("w1"); !errors.Is(err, ErrConfig) {
		t.Fatalf("NewWriter(f=3, n=5, k=3): err = %v, want errors.Is ErrConfig", err)
	}
}

func TestErrRepairQuorumIsTarget(t *testing.T) {
	ctx := testCtx(t)
	codec, lb := newCluster(t, 5, 3)
	m := NewMembership(5)
	w := mustWriterOn(t, "w1", &Config{Codec: codec, Conns: lb.Conns(), F: 0}) // all n hold it on return
	if _, err := w.Write(ctx, testKey, []byte("needs k=3 donors to repair")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	rp := mustRepairer(t, codec, lb.Conns(), m)
	m.MarkSuspect(2, errors.New("operator hunch"))
	// Crash donors until fewer than k live servers can answer the
	// collect: no version can reach k matching elements.
	lb.Crash(0)
	lb.Crash(1)
	lb.Crash(3)
	if _, err := rp.RepairOnce(ctx, 2); !errors.Is(err, ErrRepairQuorum) {
		t.Fatalf("RepairOnce with 1 live donor: err = %v, want errors.Is ErrRepairQuorum", err)
	}
}
