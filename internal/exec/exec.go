// Package exec provides the execution substrate that all simulated threads
// in this repository run on. The whole stack — ring buffers, the RDMA
// fabric, the monitor daemon, libsd itself — is written against
// exec.Context and runs on Sim, a deterministic discrete-event scheduler
// (NewSim). Threads are goroutines that run strictly one at a time;
// virtual time advances only through explicit Charge/Sleep calls; threads
// are pinned to simulated cores whose occupancy is enforced, so N-core
// scalability and core time-sharing experiments are reproducible on a
// single physical CPU. What the Go code itself costs in wall time is
// measured from outside, by perfbench, on the same scheduler.
//
// Time is expressed in integer nanoseconds throughout.
package exec

// Thread is a handle to a simulated thread. Wait for one to finish with
// Context.Join.
type Thread interface {
	// Name returns the debug name given at spawn time.
	Name() string
	// Unpark wakes the thread if it is parked (or buffers one wakeup
	// permit if it is not). Safe to call from any thread or timer
	// callback of the same Sim.
	Unpark()
}

// CoreID identifies a simulated CPU core.
type CoreID int

// Context is what a simulated thread uses to interact with time, the
// scheduler, and other threads. A Context is owned by exactly one thread
// and must not be shared across threads (spawn children instead).
type Context interface {
	// Now returns the calling thread's virtual time in nanoseconds since
	// the start of the run.
	Now() int64

	// Charge consumes d nanoseconds of CPU time on the calling thread's
	// core: it advances the thread's virtual time and keeps the core busy.
	Charge(d int64)

	// Yield cooperatively gives up the core so other runnable threads
	// pinned to the same core may run. It costs DefaultYieldCost.
	Yield()

	// Sleep blocks the calling thread for d nanoseconds without
	// occupying the core.
	Sleep(d int64)

	// Park blocks the calling thread until someone calls Unpark on its
	// Thread handle. A pending permit (Unpark before Park) makes Park
	// return immediately.
	Park()

	// Self returns the calling thread's handle.
	Self() Thread

	// Spawn starts fn on a new thread placed on a fresh core and returns
	// its handle. The child receives its own Context.
	Spawn(name string, fn func(Context)) Thread

	// SpawnOn starts fn on a new thread pinned to the given core.
	// Threads sharing a core time-share it cooperatively (Yield).
	SpawnOn(core CoreID, name string, fn func(Context)) Thread

	// Join blocks until t's function has returned.
	Join(t Thread)

	// After arranges for fn to run at time Now()+d without occupying any
	// simulated core. fn must not block; it is intended for hardware
	// timer events (packet arrival, retransmission timers).
	After(d int64, fn func())
}

// WaitUntil polls pred, charging pollCost and yielding between attempts,
// until pred returns true. It is the canonical busy-poll loop used by
// polling-mode queues.
func WaitUntil(ctx Context, pollCost int64, pred func() bool) {
	for !pred() {
		ctx.Charge(pollCost)
		ctx.Yield()
	}
}
