package core_test

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"socksdirect/internal/core"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/obs"
)

// TestCrashResetBlockedRecv kills the client while the server is parked
// on an empty ring: the server must wake and see exactly one ECONNRESET,
// then io.EOF — never hang (the pre-fix behavior). The monitor's
// crash_cleanup event must land on the dead process's trace track.
func TestCrashResetBlockedRecv(t *testing.T) {
	obs.Reset()
	defer obs.Reset()
	w := newWorld(t)
	sp, sl := proc(t, w.a, "server", 0)
	cp, clib := proc(t, w.a, "client", 0)

	var firstErr, secondErr error
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7300)
		s, _, err := lst.Accept(ctx)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		buf := make([]byte, 16)
		_, firstErr = s.Recv(ctx, th, buf) // blocks; client dies
		_, secondErr = s.Recv(ctx, th, buf)
	})
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		_, _, err := clib.Connect(ctx, th, "hostA", 7300)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		ctx.Sleep(200_000) // let the server park on the empty ring
		cp.Signal(ctx, host.SIGKILL)
	})
	w.sim.Run()
	if !errors.Is(firstErr, core.ECONNRESET) {
		t.Fatalf("first recv after crash: want ECONNRESET, got %v", firstErr)
	}
	if secondErr != io.EOF {
		t.Fatalf("second recv after crash: want io.EOF, got %v", secondErr)
	}
	var cleanups []obs.Span
	for _, sp := range obs.AllSpans() {
		if sp.Hop == obs.HopEvent && obs.Event(sp.Kind) == obs.EvCrashCleanup {
			cleanups = append(cleanups, sp)
		}
	}
	if len(cleanups) != 1 || cleanups[0].Host != "hostA" || cleanups[0].PID != int64(cp.PID) {
		t.Fatalf("crash_cleanup events = %+v, want one on hostA/pid%d", cleanups, cp.PID)
	}
}

// TestCrashResetBlockedSend kills the receiver while the sender is stuck
// on a full ring: the sender must wake with ECONNRESET (the first
// operation consumes the reset) and every later send must fail EPIPE.
func TestCrashResetBlockedSend(t *testing.T) {
	w := newWorld(t)
	sp, sl := proc(t, w.a, "server", 0)
	cp, clib := proc(t, w.a, "client", 0)

	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7301)
		if _, _, err := lst.Accept(ctx); err != nil {
			t.Errorf("accept: %v", err)
		}
		// Never receives: the client's ring fills up and its send blocks.
	})
	var sendErr, nextErr error
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		s, _, err := clib.Connect(ctx, th, "hostA", 7301)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		chunk := make([]byte, 8192)
		for {
			if _, sendErr = s.Send(ctx, th, chunk); sendErr != nil {
				break
			}
		}
		_, nextErr = s.Send(ctx, th, chunk)
	})
	cp.Spawn("killer", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(500_000) // the ring (128 KiB) is long full by now
		sp.Signal(ctx, host.SIGKILL)
	})
	w.sim.Run()
	if !errors.Is(sendErr, core.ECONNRESET) {
		t.Fatalf("blocked send after peer crash: want ECONNRESET, got %v", sendErr)
	}
	if !errors.Is(nextErr, core.EPIPE) {
		t.Fatalf("send after reset consumed: want EPIPE, got %v", nextErr)
	}
}

// TestCrashResetAfterDrain checks kernel TCP sequencing: bytes already in
// the ring when the peer dies are delivered first; only then does the
// reset surface, exactly once.
func TestCrashResetAfterDrain(t *testing.T) {
	w := newWorld(t)
	sp, sl := proc(t, w.a, "server", 0)
	cp, clib := proc(t, w.a, "client", 0)

	payload := []byte("last words")
	var got []byte
	var drainErr, resetErr, eofErr error
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7302)
		s, _, err := lst.Accept(ctx)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		ctx.Sleep(300_000) // client has sent and died by now
		buf := make([]byte, 64)
		var n int
		n, drainErr = s.Recv(ctx, th, buf)
		got = append(got, buf[:n]...)
		_, resetErr = s.Recv(ctx, th, buf)
		_, eofErr = s.Recv(ctx, th, buf)
	})
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		s, _, err := clib.Connect(ctx, th, "hostA", 7302)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		if _, err := s.Send(ctx, th, payload); err != nil {
			t.Errorf("send: %v", err)
			return
		}
		ctx.Sleep(50_000)
		cp.Signal(ctx, host.SIGKILL)
	})
	w.sim.Run()
	if drainErr != nil || !bytes.Equal(got, payload) {
		t.Fatalf("in-flight bytes not drained: %q err=%v", got, drainErr)
	}
	if !errors.Is(resetErr, core.ECONNRESET) {
		t.Fatalf("post-drain recv: want ECONNRESET, got %v", resetErr)
	}
	if eofErr != io.EOF {
		t.Fatalf("recv after reset consumed: want io.EOF, got %v", eofErr)
	}
}

// TestCrashUnblocksEpollWait kills the process of a thread parked in
// Epoll.Wait: the wait must return ErrProcessKilled instead of spinning
// on the corpse's FD table (regression for the epoll wake-path gap).
func TestCrashUnblocksEpollWait(t *testing.T) {
	w := newWorld(t)
	sp, sl := proc(t, w.a, "server", 0)
	cp, clib := proc(t, w.a, "client", 0)

	var waitErr error
	waitReturned := false
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7303)
		s, _, err := lst.Accept(ctx)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		ep := sl.NewEpoll()
		ep.Add(s.FD(), core.EPOLLIN)
		// Drain the readiness from connection setup, then wait on a
		// socket that will never become readable before our own death.
		evs := make([]core.Event, 4)
		_, waitErr = ep.Wait(ctx, evs)
		for waitErr == nil {
			buf := make([]byte, 16)
			if _, err := s.Recv(ctx, th, buf); err != nil {
				break
			}
			_, waitErr = ep.Wait(ctx, evs)
		}
		waitReturned = true
	})
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		s, _, err := clib.Connect(ctx, th, "hostA", 7303)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		s.Send(ctx, th, []byte("one"))
		ctx.Sleep(300_000)
		sp.Signal(ctx, host.SIGKILL) // kill the epoll waiter's own process
	})
	w.sim.Run()
	if !waitReturned {
		t.Fatal("epoll waiter never unwound after its process died")
	}
	if waitErr != nil && !errors.Is(waitErr, core.ErrProcessKilled) {
		t.Fatalf("epoll wait after own death: want ErrProcessKilled, got %v", waitErr)
	}
}
