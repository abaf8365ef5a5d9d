package core

import (
	"io"
	"sync/atomic"

	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/obs"
	"socksdirect/internal/shm"
)

// maxInline is the largest chunk sent through the ring as bytes; larger
// VA-based transfers go zero-copy (§4.3).
const maxInline = 8192

// ZCThreshold is the minimum payload for page remapping (§4.3: "we only
// use zero copy for send or recv with at least 16 KiB payload size").
const ZCThreshold = 16 * 1024

// emptyPollsBeforeSleep is the consecutive-empty-poll budget before a
// receiver switches its queue to interrupt mode (§4.2, §4.4).
const emptyPollsBeforeSleep = 4096

// Socket is a connected libsd socket endpoint.
type Socket struct {
	lib  *Libsd
	side *SideState
	ep   endpoint
	fd   int
	// sideIdx disambiguates the two endpoints' token namespaces at the
	// monitor (0 = connecting side, 1 = accepting side).
	sideIdx uint16

	intra *IntraSock // non-nil for intra-host sockets

	// shmTok is the SHM segment token of an intra-host socket (0 for
	// RDMA sockets); replayed to a restarted monitor so segment
	// accounting — reclaim-on-crash — survives the restart.
	shmTok uint64

	// flow is this endpoint's row in the obs flow table (sdstat). Nil
	// until the socket is established; every Flow method is nil-safe.
	flow *obs.Flow

	// stream reassembly: bytes of a partially consumed ring message.
	rxPending []byte

	// zero-copy receive state (deferred page mappings).
	rxZC []zcRecv

	// per-direction submission/completion rings for the vectored op path
	// (SendBatch/RecvBatch). Lazily allocated; each is owned by whichever
	// thread holds that direction's token.
	sendBR *batchRing
	recvBR *batchRing

	// Overload controls (ISSUE-10). Deadlines are absolute virtual-clock
	// nanoseconds (0 = none); nonblock turns every would-wait point into
	// an immediate EWOULDBLOCK. All are racing-thread-safe atomics so one
	// thread can arm a deadline while another is mid-op.
	sendDeadline atomic.Int64
	recvDeadline atomic.Int64
	nonblock     atomic.Bool

	established bool // saw the MAck (Fig. 6 Wait-Server -> Established)
}

// SetSendDeadline arms an absolute virtual-time deadline (ns) for send-side
// waits: ring-full sends, send-token takeovers, zero-copy pool-slot waits.
// A send that cannot complete by the deadline returns ETIMEDOUT. 0 clears.
func (s *Socket) SetSendDeadline(at int64) { s.sendDeadline.Store(at) }

// SetRecvDeadline arms an absolute virtual-time deadline (ns) for recv-side
// waits (empty-ring blocking, recv-token takeovers). 0 clears.
func (s *Socket) SetRecvDeadline(at int64) { s.recvDeadline.Store(at) }

// SetNonblock switches the socket into (or out of) O_NONBLOCK mode: any
// operation that would wait returns EWOULDBLOCK instead, and epoll's
// EPOLLIN/EPOLLOUT report when a retry can make progress.
func (s *Socket) SetNonblock(on bool) { s.nonblock.Store(on) }

// Nonblock reports whether the socket is in O_NONBLOCK mode.
func (s *Socket) Nonblock() bool { return s.nonblock.Load() }

// opDeadline returns the armed absolute deadline for a direction (0 = none).
func (s *Socket) opDeadline(dir int) int64 {
	if dir == DirSend {
		return s.sendDeadline.Load()
	}
	return s.recvDeadline.Load()
}

// blockBudget is consulted at every genuine would-block point on the data
// plane. It returns EWOULDBLOCK in nonblocking mode, ETIMEDOUT once the
// direction's deadline has passed, and nil when the op may keep waiting.
func (s *Socket) blockBudget(ctx exec.Context, dir int) error {
	if s.nonblock.Load() {
		mEWouldBlock.Inc()
		return EWOULDBLOCK
	}
	if dl := s.opDeadline(dir); dl != 0 && ctx.Now() >= dl {
		mDeadlineTimeouts.Inc()
		return ETIMEDOUT
	}
	return nil
}

// initFlow registers the socket in the obs flow table (the `sdstat` view,
// §4.5 introspection). Called once the endpoint is established; the probe
// closure captures fields only this endpoint can read.
func (l *Libsd) initFlow(s *Socket) {
	peer := s.side.PeerHost
	if peer == "" {
		peer = l.H.Name // intra-host: both ends live here
	}
	tr := uint8(ctlmsg.TransportRDMA)
	if s.intra != nil {
		tr = uint8(ctlmsg.TransportSHM)
	}
	f := obs.RegisterFlow(obs.FlowKey{Host: l.H.Name, PID: int64(l.P.PID), QID: s.side.QID}, peer, tr)
	side := s.side
	f.SetProbe(func(fs *obs.FlowSnapshot) {
		fs.RingHW = int64(side.TX.OccHW())
		fs.Epoch = l.monEpoch.Load()
	})
	s.flow = f
}

// FD returns the descriptor this socket is installed at.
func (s *Socket) FD() int { return s.fd }

// QID returns the socket queue identity (token arbitration handle).
func (s *Socket) QID() uint64 { return s.side.QID }

// --- token-based sharing (§4.1): one active sender and one active
// receiver per queue; everyone else must take over through the monitor ---

func (s *Socket) acquireToken(ctx exec.Context, t *host.Thread, dir int) error {
	me := int64(s.lib.GTIDOf(t))
	holder, _ := s.tokenVars(dir)
	for {
		h := holder.Load()
		if h == me {
			// Fast path: one atomic load is the whole synchronization.
			mTokenFast.Inc()
			return nil
		}
		if h == 0 && holder.CompareAndSwap(0, me) {
			return nil // unowned (returned or never claimed): grab it
		}
		mTokenTakeover.Inc()
		s.flow.Takeover()
		op := obs.BeginOp(s.lib.H.Name, int64(s.lib.P.PID), obs.OpTakeover, ctx.Now())
		// Slow path: ask the monitor to arbitrate (§4.1.1). FIFO and
		// starvation-free: the monitor keeps the (deduplicated) waiting
		// list; Aux tells it whom to revoke from.
		m := ctlmsg.Msg{
			Kind: ctlmsg.KTakeover, QID: s.side.QID, Dir: uint8(dir),
			SrcPort: s.sideIdx, Aux: uint64(h),
			PID: int64(s.lib.P.PID), TID: int64(t.TID),
			TraceID: op.Trace, SpanID: op.Span,
		}
		s.lib.sendCtl(ctx, &m)
		polls := 0
		// Bounded wait: a long FIFO queue behind a healthy monitor waits as
		// long as it takes (the daemon keeps answering pings); only monitor
		// silence aborts, with EAGAIN — the takeover is simply retryable.
		// Across a restart the waiter re-enters the successor's (empty)
		// FIFO automatically.
		w := s.lib.newCtlWaiter(ctx, s.lib.ctlShard(&m), func(c exec.Context) {
			m.Aux = uint64(holder.Load())
			s.lib.sendCtl(c, &m)
		})
		for {
			cur := holder.Load()
			if cur == me {
				op.End(ctx.Now(), true)
				return nil
			}
			if cur == 0 && holder.CompareAndSwap(0, me) {
				op.End(ctx.Now(), true)
				return nil // freed while we waited
			}
			if s.lib.P.Dead() {
				op.End(ctx.Now(), false)
				return ErrProcessKilled
			}
			if s.peerGone() && (dir == DirSend || !s.hasDrainable()) {
				// Peer crashed and (for receivers) nothing is left to
				// drain; no point waiting for a token on a dead queue.
				op.End(ctx.Now(), false)
				return s.resetErr(ctx, dir)
			}
			if err := s.blockBudget(ctx, dir); err != nil {
				// Deadline/nonblock shed mid-takeover. We stay in the
				// monitor's FIFO: a later grant parks in the holder var and
				// the next op's fast path claims it.
				op.End(ctx.Now(), false)
				return err
			}
			// Note: no hand-back of OUR pending grant here — that would
			// drop us from the monitor's FIFO. But revocations against
			// idle holders (threads parked in application code) are
			// executed on their behalf; the busy counters make it safe.
			s.lib.processRevokes(ctx)
			if err := w.step(ctx); err != nil {
				op.End(ctx.Now(), false)
				return EAGAIN
			}
			polls++
			if polls%4096 == 0 {
				// A grant may have been snatched by a faster claimant
				// (freed-token CAS); re-enter the queue. The monitor
				// deduplicates, so this is harmless when already queued.
				m.Aux = uint64(holder.Load())
				s.lib.sendCtl(ctx, &m)
			}
		}
	}
}

func (s *Socket) tokenVars(dir int) (holderVar, retVar) {
	if dir == DirSend {
		return &s.side.SendHolder, &s.side.SendReturnReq
	}
	return &s.side.RecvHolder, &s.side.RecvReturnReq
}

func (s *Socket) busyVar(dir int) *atomic.Int32 {
	if dir == DirSend {
		return &s.side.BusySend
	}
	return &s.side.BusyRecv
}

type holderVar = interface {
	Load() int64
	CompareAndSwap(old, new int64) bool
	Store(v int64)
}
type retVar = interface {
	Load() bool
	Store(v bool)
	CompareAndSwap(old, new bool) bool
}

// maybeHandBack returns a token at an operation boundary if the monitor
// asked for it back.
func (s *Socket) maybeHandBack(ctx exec.Context, dir int) {
	holder, ret := s.tokenVars(dir)
	if !ret.Load() {
		return
	}
	if !ret.CompareAndSwap(true, false) {
		return
	}
	holder.Store(0)
	mTokenReturns.Inc()
	m := ctlmsg.Msg{Kind: ctlmsg.KTokenReturn, QID: s.side.QID, Dir: uint8(dir),
		SrcPort: s.sideIdx, PID: int64(s.lib.P.PID)}
	s.lib.sendCtl(ctx, &m)
}

// --- send path ---

// Send writes the whole byte slice (blocking), preserving stream
// semantics. The buffer is reusable the moment Send returns, exactly like
// POSIX send (§2.1.3) — small messages are copied into the ring.
func (s *Socket) Send(ctx exec.Context, t *host.Thread, data []byte) (int, error) {
	s.lib.enter()
	defer s.lib.leave()
	if s.lib.P.Dead() {
		return 0, ErrProcessKilled
	}
	mSendOps.Inc()
	mSendBytes.Add(int64(len(data)))
	if err := s.acquireToken(ctx, t, DirSend); err != nil {
		return 0, err
	}
	defer s.maybeHandBack(ctx, DirSend)
	s.side.BusySend.Add(1)
	defer s.side.BusySend.Add(-1)
	if s.side.TxShut.Load() {
		return 0, ErrShutdown
	}
	s.flushSlotReturns(ctx)
	if len(data) > maxInline {
		// A multi-chunk send is a batch in disguise: stage all chunks and
		// ring the doorbell once (burstEnd publishes; the explicit kick
		// wakes a receiver that parked while the bytes were invisible).
		// The size test comes first so a small send skips the interface
		// assertion: its runtime type-assert cache fills at random and
		// can allocate mid-stream.
		if b, ok := s.ep.(burster); ok {
			b.burstBegin()
			defer func() {
				b.burstEnd(ctx)
				s.ep.kick(ctx)
			}()
		}
	}
	total := 0
	for len(data) > 0 {
		n := len(data)
		if n > maxInline {
			n = maxInline
		}
		if err := s.sendMsgT(ctx, t, MData, data[:n], nil); err != nil {
			return total, err
		}
		host.CountCopy(n)
		ctx.Charge(s.lib.H.Costs.CopyCost(n))
		s.flow.AddTx(int64(n))
		data = data[n:]
		total += n
	}
	return total, nil
}

// sendMsg blocks until one ring message is enqueued. Callers must hold the
// send token and not block indefinitely elsewhere; sendMsgT is the variant
// that survives token revocation while waiting on a full ring.
func (s *Socket) sendMsg(ctx exec.Context, typ uint8, a, b []byte) error {
	return s.sendMsgT(ctx, nil, typ, a, b)
}

func (s *Socket) sendMsgT(ctx exec.Context, t *host.Thread, typ uint8, a, b []byte) error {
	for !s.ep.trySend(ctx, typ, a, b) {
		if s.lib.P.Dead() {
			return ErrProcessKilled
		}
		if s.peerGone() {
			return s.resetErr(ctx, DirSend)
		}
		if t != nil {
			// Application-driven send blocked on a full ring: honor the
			// socket's deadline / O_NONBLOCK. Internal protocol messages
			// (t == nil: MShut, zero-copy returns) keep blocking — shedding
			// those would corrupt the close/ZC handshakes.
			if err := s.blockBudget(ctx, DirSend); err != nil {
				return err
			}
		}
		if s.side.RxShut.Load() && s.side.TxShut.Load() {
			return ErrShutdown
		}
		s.ep.progress(ctx) // pump + failure recovery / degraded-path I/O
		s.lib.pollCtl(ctx)
		// A transport failure leaves the ring full until recovery or
		// degradation succeeds; throttle the retry loop so virtual time
		// advances (deadlines and backoff timers live on the clock).
		if rep, ok := s.ep.(*rdmaEP); ok && rep.failed.Load() {
			ctx.Sleep(recoveryPollInterval)
		} else if _, ok := s.ep.(*tcpEP); ok {
			ctx.Sleep(degradedPollInterval)
		}
		if t != nil {
			// Blocked on a full ring: honor a pending token revocation and
			// rejoin the FIFO rather than starving the waiter (§4.1.1).
			s.maybeHandBack(ctx, DirSend)
			if s.side.SendHolder.Load() != int64(s.lib.GTIDOf(t)) {
				if err := s.acquireToken(ctx, t, DirSend); err != nil {
					return err
				}
			}
		}
		ctx.Yield()
	}
	s.ep.kick(ctx)
	return nil
}

// --- receive path ---

// Recv reads at least one byte into buf (blocking); zero-copy descriptors
// arriving on the byte API are materialized by copying (the VA API gets
// the remap, RecvVA).
func (s *Socket) Recv(ctx exec.Context, t *host.Thread, buf []byte) (int, error) {
	s.lib.enter()
	defer s.lib.leave()
	if s.lib.P.Dead() {
		return 0, ErrProcessKilled
	}
	mRecvOps.Inc()
	if err := s.acquireToken(ctx, t, DirRecv); err != nil {
		return 0, err
	}
	defer s.maybeHandBack(ctx, DirRecv)
	s.side.BusyRecv.Add(1)
	defer s.side.BusyRecv.Add(-1)
	return s.recvLockedBytes(ctx, t, buf)
}

// dispatchMsg routes one ring message; done=true means n/err are final.
func (s *Socket) dispatchMsg(ctx exec.Context, msg shm.Msg, buf []byte) (bool, int, error) {
	switch msg.Type {
	case MData:
		n := copy(buf, msg.Payload)
		if n < len(msg.Payload) {
			// Copy the remainder out of the ring: the view dies at the
			// next tryRecv.
			s.rxPending = append(s.rxPending[:0], msg.Payload[n:]...)
		}
		host.CountCopy(n)
		ctx.Charge(s.lib.H.Costs.CopyCost(n))
		mRecvBytes.Add(int64(n))
		s.flow.AddRx(int64(n))
		return true, n, nil
	case MZC:
		s.queueZC(msg.Payload)
	case MShut:
		s.side.RxShut.Store(true)
		return true, 0, io.EOF
	case MAck:
		s.established = true
	case MZCRet:
		s.handleZCReturn(msg.Payload)
	case MPoolInit:
		s.handlePoolInit(msg.Payload)
	}
	return false, 0, nil
}

// blockOnRecv waits for traffic, switching the queue into interrupt mode
// after enough empty polls (§4.4): the thread parks; an intra-host sender
// wakes it through the monitor, an RDMA completion wakes it through the
// armed CQ.
func (s *Socket) blockOnRecv(ctx exec.Context, t *host.Thread) error {
	empty := 0
	for {
		if s.ep.canRecv() {
			return nil
		}
		if s.lib.P.Dead() {
			return ErrProcessKilled
		}
		if s.peerGone() {
			// canRecv was checked first, so in-flight bytes always drain
			// before the crash surfaces (reset-after-drain).
			return s.resetErr(ctx, DirRecv)
		}
		if s.side.RxShut.Load() {
			return nil // EOF surfaces in caller
		}
		if err := s.blockBudget(ctx, DirRecv); err != nil {
			return err
		}
		s.lib.pollCtl(ctx)
		s.maybeHandBack(ctx, DirRecv)
		if s.side.RecvHolder.Load() != int64(s.lib.GTIDOf(t)) {
			if err := s.acquireToken(ctx, t, DirRecv); err != nil {
				return err
			}
		}
		ctx.Charge(s.lib.H.Costs.RingOp)
		// Failure paths never park: a failed endpoint needs this loop to
		// drive its own recovery, and the degraded TCP path has no
		// doorbell into libsd. Throttled polling instead of interrupt mode.
		if rep, ok := s.ep.(*rdmaEP); ok && rep.failed.Load() {
			s.ep.progress(ctx)
			ctx.Sleep(recoveryPollInterval)
			empty = 0
			continue
		}
		if _, ok := s.ep.(*tcpEP); ok {
			s.ep.progress(ctx)
			ctx.Sleep(degradedPollInterval)
			empty = 0
			continue
		}
		empty++
		if empty < emptyPollsBeforeSleep {
			ctx.Yield()
			continue
		}
		// Interrupt mode: publish the sleeper and park.
		me := int64(s.lib.GTIDOf(t))
		s.side.RecvSleeper.Store(me)
		if !s.ep.canRecv() { // re-check after publishing (wake/sleep race)
			if rep, ok := s.ep.(*rdmaEP); ok {
				th := t.H
				s.lib.recvCQArm(rep, th)
			}
			mRecvSleeps.Inc()
			if dl := s.opDeadline(DirRecv); dl != 0 {
				// Armed deadline: schedule a timer unpark so the park can
				// never outlive the deadline (the loop re-checks and
				// returns ETIMEDOUT). A spurious unpark after data arrived
				// is absorbed by the permit/loop.
				th := ctx.Self()
				ctx.After(dl-ctx.Now(), th.Unpark)
			}
			m := ctlmsg.Msg{Kind: ctlmsg.KSleepNote, QID: s.side.QID, PID: int64(s.lib.P.PID), TID: int64(t.TID)}
			s.lib.sendCtl(ctx, &m)
			// Track the park so a restarted monitor — whose predecessor's
			// sleeper table died with it — relearns this thread from the
			// re-registration report and can still ring its doorbell.
			s.lib.sleepMu.Lock()
			s.lib.sleepNotes[t.TID] = struct{}{}
			s.lib.sleepMu.Unlock()
			ctx.Park()
			s.lib.sleepMu.Lock()
			delete(s.lib.sleepNotes, t.TID)
			s.lib.sleepMu.Unlock()
			mRecvWakeups.Inc()
		}
		s.side.RecvSleeper.Store(0)
		empty = 0
	}
}

// recvCQArm arms the process CQ to unpark a sleeping receiver thread.
func (l *Libsd) recvCQArm(ep *rdmaEP, th exec.Thread) {
	l.recvCQ.Arm(func() { th.Unpark() })
}

// raiseHUP delivers SIGHUP to the local process when the peer died
// (§4.5.4: "If an application fails, libsd in the peers will generate
// SIGHUP").
func (s *Socket) raiseHUP(ctx exec.Context) {
	s.lib.P.Signal(ctx, host.SIGHUP)
}

// peerGone reports that the peer process crashed: observed directly
// through the transport (a corpse's PID on the SHM segment, an RDMA QP
// error) or latched from the monitor's KPeerDead broadcast.
func (s *Socket) peerGone() bool {
	return s.side.PeerReset.Load() || !s.ep.peerAlive()
}

// hasDrainable reports in-flight bytes not yet delivered to the
// application; kernel TCP delivers these before surfacing a reset.
func (s *Socket) hasDrainable() bool {
	return len(s.rxPending) > 0 || len(s.rxZC) > 0 || s.ep.canRecv()
}

// resetErr surfaces a peer-process crash with kernel TCP errno
// sequencing: the first operation that observes the corpse consumes the
// reset — ECONNRESET, one sd/core/resets tick, SIGHUP per §4.5.4 —
// and afterwards sends fail with EPIPE while receives report orderly
// io.EOF.
func (s *Socket) resetErr(ctx exec.Context, dir int) error {
	if s.side.ResetSeen.CompareAndSwap(false, true) {
		mResets.Inc()
		s.flow.NoteReset()
		obs.Trigger(obs.TrigReset, s.lib.H.Clk.Now(), "ECONNRESET on "+s.lib.H.Name)
		s.raiseHUP(ctx)
		return ECONNRESET
	}
	if dir == DirSend {
		return EPIPE
	}
	return io.EOF
}

// --- close / shutdown (§4.5.4) ---

// Shutdown closes one or both directions, pushing out an in-band MShut.
func (s *Socket) Shutdown(ctx exec.Context, t *host.Thread, dir int) error {
	s.lib.enter()
	defer s.lib.leave()
	if dir == DirSend && !s.side.TxShut.Load() {
		if err := s.acquireToken(ctx, t, DirSend); err == nil {
			s.sendMsg(ctx, MShut, nil, nil)
		}
		s.side.TxShut.Store(true)
	}
	if dir == DirRecv {
		s.side.RxShut.Store(true)
	}
	return nil
}

// Close drops this FD's reference; the last reference shuts both
// directions ("close is equivalent to shutdown on both send and receive
// directions", with the refcount incremented on fork).
func (s *Socket) Close(ctx exec.Context, t *host.Thread) error {
	s.lib.enter()
	s.lib.releaseFD(s.fd)
	s.lib.untrackSock(s)
	s.lib.leave()
	if s.side.Refs.Add(-1) > 0 {
		return nil
	}
	// The flow row outlives the socket (sdstat lists closed rows); drop
	// its probe so the row no longer pins the rings and the libsd.
	s.flow.SetState(obs.FlowClosed)
	s.flow.SetProbe(nil)
	s.Shutdown(ctx, t, DirSend)
	s.Shutdown(ctx, t, DirRecv)
	return nil
}

// Readable reports whether Recv would make progress (epoll hook).
func (s *Socket) Readable() bool {
	return len(s.rxPending) > 0 || len(s.rxZC) > 0 || s.ep.canRecv() ||
		s.side.RxShut.Load() || s.peerGone()
}

// writableHeadroom is the TX-ring room required before epoll reports
// EPOLLOUT: one maximum inline chunk plus header/wrap slack, so a woken
// writer's next Send cannot immediately re-block.
const writableHeadroom = maxInline + 128

// Writable reports whether a Send would make progress without waiting
// (epoll hook): the TX ring has room for at least one full inline chunk,
// or the op would fail fast (shutdown/peer crash) — failing immediately
// is "not blocking" too, exactly like kernel EPOLLOUT|EPOLLERR.
func (s *Socket) Writable() bool {
	if s.side.TxShut.Load() || s.peerGone() {
		return true // Send returns ErrShutdown/EPIPE without waiting
	}
	if _, ok := s.ep.(*tcpEP); ok {
		return true // degraded path: the kernel socket buffers
	}
	tx := s.side.TX
	if tx == nil {
		return true
	}
	return tx.Cap()-tx.Used() >= writableHeadroom
}
