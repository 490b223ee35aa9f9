package soda

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// checkNoLeaks arms a goroutine-leak check for the calling test: it
// snapshots the live goroutines now and, at cleanup time, polls until
// every goroutine created during the test has exited (teardown is
// asynchronous — conn closes and context cancels race the final
// poll). Call it FIRST in the test, before any cluster or transport
// is built, so the t.Cleanup LIFO order runs the check after the
// test's own teardown.
//
// Allowlisted (long-lived by design, not leaks):
//   - soda.(*idleList).work: the fan-out pool's idle lists (pool.go)
//     park their goroutines process-wide and never retire them. The
//     erasure codec below has no goroutines of its own.
//   - (*Repairer).Run: the anti-entropy background loop; tests that
//     start one stop it via context, but the stop is asynchronous.
//   - (*durability).background: the durable server's snapshot/
//     truncation loop, stopped asynchronously by Close.
//
// Everything else that outlives the test — mux readLoops, TCP accept
// loops and per-conn handlers, stream relays, quorum waiters — is a
// real leak: those exact goroutines pin conns and registers, and a
// suite that leaks them goes flaky under -race and -count=N.
func checkNoLeaks(t *testing.T) {
	t.Helper()
	baseline := make(map[string]bool)
	for _, g := range goroutineStanzas() {
		baseline[goroutineID(g)] = true
	}
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		var leaked []string
		for {
			leaked = leaked[:0]
			for _, g := range goroutineStanzas() {
				if baseline[goroutineID(g)] || allowlistedGoroutine(g) {
					continue
				}
				leaked = append(leaked, g)
			}
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("%d goroutine(s) leaked by this test:\n\n%s",
			len(leaked), strings.Join(leaked, "\n\n"))
	})
}

// goroutineStanzas returns one stack-dump stanza per live goroutine,
// excluding the calling one.
func goroutineStanzas() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	stanzas := strings.Split(strings.TrimSpace(string(buf)), "\n\n")
	out := stanzas[:0]
	for _, g := range stanzas[1:] { // stanza 0 is this goroutine
		out = append(out, g)
	}
	return out
}

// goroutineID extracts the "goroutine N" prefix that identifies a
// stanza across snapshots.
func goroutineID(stanza string) string {
	header, _, _ := strings.Cut(stanza, "\n")
	if i := strings.Index(header, " ["); i >= 0 {
		return header[:i]
	}
	return header
}

func allowlistedGoroutine(stanza string) bool {
	for _, frame := range []string{
		"soda.(*idleList).work(",
		"(*Repairer).Run",
		"(*durability).background",
		"testing.(*T).Run", // parent test goroutines parked in Wait
		"testing.tRunner",  // subtest runners not yet reaped
		"runtime.gc",       // GC workers spawned mid-test
		"runtime.bgsweep",
		"runtime.bgscavenge",
		"time.goFunc", // expiring timers from t.Cleanup contexts
	} {
		if strings.Contains(stanza, frame) {
			return true
		}
	}
	return false
}

// TestCheckNoLeaksHelper pins the helper itself: a goroutine parked
// past cleanup is caught, an exiting one is waited for, and the
// allowlist covers the sanctioned background loops.
func TestCheckNoLeaksHelper(t *testing.T) {
	release := make(chan struct{})

	t.Run("waits for async exits", func(t *testing.T) {
		checkNoLeaks(t)
		done := make(chan struct{})
		go func() {
			defer close(done)
			// Exits shortly AFTER the test body returns: the poll loop
			// must absorb it rather than flag it.
			time.Sleep(50 * time.Millisecond)
		}()
	})

	t.Run("baseline is per-call", func(t *testing.T) {
		// A goroutine started BEFORE checkNoLeaks is baseline, not a leak.
		go func() { <-release }()
		checkNoLeaks(t)
	})
	close(release)

	// The detection direction (a parked goroutine IS reported) is pinned
	// without failing the suite: run the same scan the cleanup runs and
	// assert it sees the straggler.
	park := make(chan struct{})
	go func() { <-park }()
	time.Sleep(10 * time.Millisecond)
	found := false
	for _, g := range goroutineStanzas() {
		if !allowlistedGoroutine(g) && strings.Contains(g, "TestCheckNoLeaksHelper") {
			found = true
		}
	}
	close(park)
	if !found {
		t.Fatalf("scan missed a parked goroutine; stanzas=%d", len(goroutineStanzas()))
	}
}
