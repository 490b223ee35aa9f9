package soda

import "time"

// clock is the time the protocol's own loops read: every backoff sleep
// (dial, reconfiguration, repair), the repair loop's retry deadlines and
// the WAL's fsync timing. Its zero value is the wall clock; a test, or a
// simulator, stands in its own now and after through the field that
// holds it. The socket paths keep wall time: mux.go's reader-done
// flusher and tcp.go's write-deadline rearm, a deadline the kernel
// counts.
type clock struct {
	nowFn   func() time.Time
	afterFn func(time.Duration) <-chan time.Time
}

// now returns the current time.
func (c clock) now() time.Time {
	if c.nowFn != nil {
		return c.nowFn()
	}
	return time.Now()
}

// after returns a channel that receives once d has passed.
func (c clock) after(d time.Duration) <-chan time.Time {
	if c.afterFn != nil {
		return c.afterFn(d)
	}
	return time.After(d)
}
