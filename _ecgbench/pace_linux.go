package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. It sleeps with nanosleep(2) rather than
// time.Sleep: the runtime timer wakes a sleeper up to a millisecond late
// on Linux, which in an open loop would be charged to the server.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		// An interrupted sleep returns early; the loop re-checks the time.
		_ = syscall.Nanosleep(&ts, nil)
	}
}
