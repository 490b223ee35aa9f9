package soda

import "time"

// Settings only the tests make: each reaches past a constructor's
// defaults into what the package keeps unexported.

// testMuxConn is newMuxConn at SeedEpoch with opts applied.
func testMuxConn(idx int, addr string, opts ...func(*MuxConn)) *MuxConn {
	c := newMuxConn(idx, addr, SeedEpoch)
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// withDialTimeout caps each dial attempt; the effective deadline is the
// earlier of this and the operation context's.
func withDialTimeout(d time.Duration) func(*MuxConn) {
	return func(c *MuxConn) { c.policy.timeout = d }
}

// withDialRetry sets how many times an operation attempts the dial
// (minimum 1) and the backoff schedule between attempts.
func withDialRetry(attempts int, b backoff) func(*MuxConn) {
	return func(c *MuxConn) {
		c.policy.attempts = max(attempts, 1)
		c.policy.backoff = b
	}
}

// fastReconfigurator is NewReconfigurator with the retry schedule tests
// drive flips with inside each phase while a member is unreachable.
func fastReconfigurator(view *ConfigView) *Reconfigurator {
	rc := NewReconfigurator(view)
	rc.backoff = backoff{base: time.Millisecond, max: 10 * time.Millisecond}
	return rc
}

// withRepairBackoff sets the per-server retry schedule applied after a
// failed repair attempt.
func withRepairBackoff(b backoff) func(*Repairer) {
	return func(rp *Repairer) { rp.backoff = b }
}

// withRepairEvents installs a hook invoked synchronously after every
// repair attempt.
func withRepairEvents(fn func(repairEvent)) func(*Repairer) {
	return func(rp *Repairer) { rp.onEvent = fn }
}

// withWALFailAfter injects a disk fault: the WAL append that would push
// the active segment past the given size fails and latches, degrading
// the server to memory-only durability (counted by WALFailures). Zero
// disables the injection.
func withWALFailAfter(bytes int64) DurableOption {
	return func(c *durConfig) { c.failAfter = bytes }
}
