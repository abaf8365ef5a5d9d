package exec

import (
	"sync/atomic"
	"testing"
)

func TestSimChargeAdvancesTime(t *testing.T) {
	s := NewSim(SimConfig{})
	var end int64
	s.Spawn("a", func(ctx Context) {
		ctx.Charge(100)
		ctx.Charge(250)
		end = ctx.Now()
	})
	s.Run()
	if end != 350 {
		t.Fatalf("Now = %d, want 350", end)
	}
}

func TestSimSleepDoesNotOccupyCore(t *testing.T) {
	s := NewSim(SimConfig{})
	var aWake, bDone int64
	s.SpawnOn(0, "a", func(ctx Context) {
		ctx.Sleep(1000)
		aWake = ctx.Now()
	})
	s.SpawnOn(0, "b", func(ctx Context) {
		ctx.Charge(300)
		bDone = ctx.Now()
	})
	s.Run()
	if bDone != 300 {
		t.Fatalf("b finished at %d, want 300 (core free while a sleeps)", bDone)
	}
	if aWake != 1000 {
		t.Fatalf("a woke at %d, want 1000", aWake)
	}
}

func TestSimCoreExclusive(t *testing.T) {
	// Two threads charging on the same core must serialize; on separate
	// cores they overlap.
	run := func(sameCore bool) int64 {
		s := NewSim(SimConfig{})
		body := func(ctx Context) { ctx.Charge(1000) }
		if sameCore {
			s.SpawnOn(0, "a", body)
			s.SpawnOn(0, "b", body)
		} else {
			s.SpawnOn(0, "a", body)
			s.SpawnOn(1, "b", body)
		}
		return s.Run()
	}
	if got := run(true); got != 2000 {
		t.Errorf("same core: end=%d, want 2000", got)
	}
	if got := run(false); got != 1000 {
		t.Errorf("separate cores: end=%d, want 1000", got)
	}
}

func TestSimCausalMessagePassing(t *testing.T) {
	// A message stamped at the producer's virtual time must not be
	// observed by a polling consumer at an earlier time.
	s := NewSim(SimConfig{})
	var slot atomic.Int64 // 0 = empty, else timestamp+1
	var observedAt, sentAt int64
	s.Spawn("producer", func(ctx Context) {
		ctx.Charge(5000)
		sentAt = ctx.Now()
		slot.Store(sentAt + 1)
	})
	s.Spawn("consumer", func(ctx Context) {
		for slot.Load() == 0 {
			ctx.Charge(10)
			ctx.Yield()
		}
		observedAt = ctx.Now()
	})
	s.Run()
	if observedAt < sentAt {
		t.Fatalf("consumer observed at %d before producer sent at %d", observedAt, sentAt)
	}
	if observedAt > sentAt+1000 {
		t.Fatalf("consumer observed at %d, far after send at %d", observedAt, sentAt)
	}
}

func TestSimParkUnpark(t *testing.T) {
	s := NewSim(SimConfig{})
	var wokenAt int64
	var target Thread
	ready := false
	target = s.Spawn("sleeper", func(ctx Context) {
		ready = true
		ctx.Park()
		wokenAt = ctx.Now()
	})
	s.Spawn("waker", func(ctx Context) {
		for !ready {
			ctx.Yield()
		}
		ctx.Charge(700)
		target.Unpark()
	})
	s.Run()
	if wokenAt < 700 {
		t.Fatalf("woken at %d, want >= 700", wokenAt)
	}
}

func TestSimUnparkPermitBeforePark(t *testing.T) {
	s := NewSim(SimConfig{})
	done := false
	var target Thread
	target = s.Spawn("t", func(ctx Context) {
		ctx.Charge(100)
		ctx.Park() // must consume the early permit and not block forever
		done = true
	})
	s.Spawn("w", func(ctx Context) {
		target.Unpark() // fires at t=0, before t parks at t=100
	})
	s.Run()
	if !done {
		t.Fatal("thread never returned from Park despite pending permit")
	}
}

func TestSimAfterTimer(t *testing.T) {
	s := NewSim(SimConfig{})
	var fired int64
	s.Spawn("t", func(ctx Context) {
		ctx.After(12345, func() { fired = 12345 })
		ctx.Sleep(20000)
		if fired != 12345 {
			t.Errorf("timer had not fired by t=20000")
		}
	})
	s.Run()
}

func TestSimJoin(t *testing.T) {
	s := NewSim(SimConfig{})
	var childEnd, joinEnd int64
	s.Spawn("parent", func(ctx Context) {
		ch := ctx.Spawn("child", func(c Context) {
			c.Charge(4000)
			childEnd = c.Now()
		})
		ctx.Join(ch)
		joinEnd = ctx.Now()
	})
	s.Run()
	if joinEnd < childEnd || childEnd != 4000 {
		t.Fatalf("join ended at %d, child at %d", joinEnd, childEnd)
	}
}

func TestSimDeterminism(t *testing.T) {
	run := func() []int64 {
		var log []int64
		s := NewSim(SimConfig{})
		for i := 0; i < 4; i++ {
			d := int64(100 * (i + 1))
			s.SpawnOn(CoreID(i%2), "t", func(ctx Context) {
				for k := 0; k < 5; k++ {
					ctx.Charge(d)
					ctx.Yield()
					log = append(log, ctx.Now())
				}
			})
		}
		s.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at step %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestSimRoundRobinOnSharedCore(t *testing.T) {
	// Threads sharing a core with yield loops should interleave rather
	// than starve.
	s := NewSim(SimConfig{})
	counts := [2]int{}
	for i := 0; i < 2; i++ {
		i := i
		s.SpawnOn(0, "t", func(ctx Context) {
			for k := 0; k < 100; k++ {
				ctx.Charge(10)
				counts[i]++
				ctx.Yield()
			}
		})
	}
	s.Run()
	if counts[0] != 100 || counts[1] != 100 {
		t.Fatalf("starvation: counts=%v", counts)
	}
}

func TestWaitUntil(t *testing.T) {
	s := NewSim(SimConfig{})
	flag := false
	var at int64
	s.Spawn("setter", func(ctx Context) {
		ctx.Charge(3000)
		flag = true
	})
	s.Spawn("waiter", func(ctx Context) {
		WaitUntil(ctx, 10, func() bool { return flag })
		at = ctx.Now()
	})
	s.Run()
	if at < 3000 {
		t.Fatalf("waiter finished at %d, before flag set at 3000", at)
	}
}
