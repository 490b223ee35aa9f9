package soda

import "time"

// Settings only the tests make: each reaches past a constructor's
// defaults into what the package keeps unexported.

// withDialTimeout caps each dial attempt; the effective deadline is the
// earlier of this and the operation context's.
func withDialTimeout(d time.Duration) TCPOption {
	return func(o *tcpOpts) { o.policy.timeout = d }
}

// withDialRetry sets how many times an operation attempts the dial
// (minimum 1) and the backoff schedule between attempts.
func withDialRetry(attempts int, b backoff) TCPOption {
	return func(o *tcpOpts) {
		o.policy.attempts = max(attempts, 1)
		o.policy.backoff = b
	}
}

// withReconfigBackoff sets the retry schedule used inside each phase of
// a flip while a member is unreachable.
func withReconfigBackoff(b backoff) ReconfigOption {
	return func(rc *Reconfigurator) { rc.backoff = b }
}

// withRepairBackoff sets the per-server retry schedule applied after a
// failed repair attempt.
func withRepairBackoff(b backoff) RepairerOption {
	return func(rp *Repairer) error {
		rp.backoff = b
		return nil
	}
}

// withRepairEvents installs a hook invoked synchronously after every
// repair attempt.
func withRepairEvents(fn func(repairEvent)) RepairerOption {
	return func(rp *Repairer) error {
		rp.onEvent = fn
		return nil
	}
}

// withWALFailAfter injects a disk fault: the WAL append that would push
// the active segment past the given size fails and latches, degrading
// the server to memory-only durability (counted by WALFailures). Zero
// disables the injection.
func withWALFailAfter(bytes int64) DurableOption {
	return func(c *durConfig) { c.failAfter = bytes }
}
