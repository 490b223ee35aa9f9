package soda

import (
	"context"
	"time"
)

// backoff is a small bounded exponential backoff shared by the
// transports and the repair loop: delays double from base up to max.
// It is deliberately jitter-free so fault-injection tests stay
// deterministic; the processes sharing a cluster are few enough that
// synchronized retries are not a thundering herd.
type backoff struct {
	base time.Duration // first delay; default 10ms
	max  time.Duration // delay cap; default 2s
	clk  clock         // what sleep waits on; the wall clock by default

	attempt int
}

const (
	defaultBackoffBase = 10 * time.Millisecond
	defaultBackoffMax  = 2 * time.Second
)

// next returns the next delay and advances the schedule.
func (b *backoff) next() time.Duration {
	d, ceil := b.base, b.max
	if d <= 0 {
		d = defaultBackoffBase
	}
	if ceil <= 0 {
		ceil = defaultBackoffMax
	}
	for i := 0; i < b.attempt && d < ceil; i++ {
		d *= 2
	}
	b.attempt++
	return min(d, ceil)
}

// sleep blocks for the next delay or until ctx ends, returning
// ctx.Err() in the latter case. A hung peer must never stall a caller
// past its context: every retry loop in this package sleeps through
// here. The delay is b.clk's channel, which has no Stop: under go.mod's
// go 1.22 timer rules a sleep cut short by ctx leaves its timer, at
// most max (2s by default), to fire unobserved.
func (b *backoff) sleep(ctx context.Context) error {
	select {
	case <-b.clk.after(b.next()):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retry runs fn up to attempts times, backing off between failures,
// and returns the first success or the last error. It stops early when
// ctx ends. fn's error is returned unwrapped so callers keep errors.Is
// visibility into the cause.
func retry(ctx context.Context, attempts int, b backoff, fn func() error) error {
	var err error
	for i := 0; i < attempts; i++ {
		if err = fn(); err == nil {
			return nil
		}
		if ctx.Err() != nil || i == attempts-1 {
			return err
		}
		if serr := b.sleep(ctx); serr != nil {
			return err
		}
	}
	return err
}
