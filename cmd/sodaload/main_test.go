package main

import (
	"testing"
	"time"
)

// TestRunLoad drives the harness's three shapes at smoke scale — mixed
// traffic on loopback, write-only over the multiplexed TCP transport, and
// the kill loop on durable loopback nodes — and checks that every
// admitted arrival completed without error.
func TestRunLoad(t *testing.T) {
	for _, tc := range []struct {
		name      string
		transport string
		readFrac  float64
		kill      bool
	}{
		{"loopback/mixed", "loopback", 0.5, false},
		{"tcp-mux/write-only", "tcp-mux", 0, false},
		{"loopback/kill", "loopback", 0.5, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := runLoad(runConfig{
				transport: tc.transport, n: 5, k: 3, keys: 64, rate: 2000,
				duration: 300 * time.Millisecond, readFrac: tc.readFrac, vsize: 128,
				inflight: 128, prewrite: tc.readFrac > 0, seed: 1, kill: tc.kill,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Errors != 0 || res.Completed <= 0 || res.Completed != res.Arrivals-res.Shed {
				t.Fatalf("arrivals %d, shed %d, completed %d, errors %d",
					res.Arrivals, res.Shed, res.Completed, res.Errors)
			}
			if tc.kill && res.Kills < 1 {
				t.Fatalf("kill run made %d kills", res.Kills)
			}
		})
	}
}
