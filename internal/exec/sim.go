package exec

// SimConfig is the scheduler's configuration. It has no fields: the
// scheduler has nothing left to tune, and the type stays so that callers
// outside this module (the perfbench benchmark) keep building.
type SimConfig struct{}

// DefaultYieldCost is the virtual time every Yield charges: one empty
// re-poll iteration or cooperative context switch (~20 ns).
const DefaultYieldCost = 20

// Sim is a deterministic discrete-event scheduler. Exactly one simulated
// thread executes at any instant; virtual time advances only through
// Charge, Sleep, Yield and After. Runs with the same spawn order and
// charges are bit-for-bit reproducible.
type Sim struct {
	now      int64
	seq      uint64
	pq       eventHeap
	cores    map[CoreID]*simCore
	autoCore CoreID
	running  *simThread
	stopped  chan struct{}
	killed   bool
	threads  []*simThread
}

type simCore struct{ busyUntil int64 }

const (
	stReady = iota
	stRunning
	stParked
	stDone
)

type simThread struct {
	sim     *Sim
	name    string
	core    CoreID
	vt      int64
	state   int
	permit  bool
	resume  chan struct{}
	doneCh  chan struct{}
	joiners []*simThread
}

type simKilled struct{}

type event struct {
	at  int64
	seq uint64
	th  *simThread
	fn  func()
}

// eventHeap is a hand-rolled binary min-heap ordered by (at, seq). It
// deliberately does not use container/heap: that interface boxes every
// pushed and popped event into an interface value, which costs two heap
// allocations per scheduled event — and every Yield, Sleep, After and
// wakeup schedules one. With the open-coded sift the steady-state data
// path schedules events allocation-free (the backing array is reused
// across pushes once grown).
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) peekTime() int64 { return h[0].at }

func (h eventHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// push assigns a fresh sequence number (FIFO tiebreak among same-time
// events) and inserts. pushKeepSeq preserves the event's existing number
// (a thread displaced by a busy core must stay ahead of later arrivals).
func (s *Sim) push(e event) {
	e.seq = s.seq
	s.seq++
	s.pushKeepSeq(e)
}

func (s *Sim) pushKeepSeq(e event) {
	s.pq = append(s.pq, e)
	s.pq.siftUp(len(s.pq) - 1)
}

func (s *Sim) pop() event {
	e := s.pq[0]
	n := len(s.pq) - 1
	s.pq[0] = s.pq[n]
	s.pq[n] = event{} // drop the fn reference so closures are collectable
	s.pq = s.pq[:n]
	if n > 0 {
		s.pq.siftDown(0)
	}
	return e
}

// NewSim creates a fresh simulator.
func NewSim(SimConfig) *Sim {
	return &Sim{
		cores:    make(map[CoreID]*simCore),
		autoCore: 1 << 20,
		stopped:  make(chan struct{}),
	}
}

func (s *Sim) core(id CoreID) *simCore {
	c, ok := s.cores[id]
	if !ok {
		c = &simCore{}
		s.cores[id] = c
	}
	return c
}

// curTime is the time at which a scheduler-visible action happens: the
// running thread's local clock, or the global clock from timer context.
func (s *Sim) curTime() int64 {
	if s.running != nil {
		return s.running.vt
	}
	return s.now
}

// Spawn registers a root thread before (or during) Run, on a fresh core.
func (s *Sim) Spawn(name string, fn func(Context)) Thread {
	s.autoCore++
	return s.spawn(s.autoCore, name, fn)
}

// SpawnOn registers a root thread pinned to the given core.
func (s *Sim) SpawnOn(core CoreID, name string, fn func(Context)) Thread {
	return s.spawn(core, name, fn)
}

func (s *Sim) spawn(core CoreID, name string, fn func(Context)) Thread {
	t := &simThread{
		sim:    s,
		name:   name,
		core:   core,
		vt:     s.curTime(),
		state:  stReady,
		resume: make(chan struct{}),
		doneCh: make(chan struct{}),
	}
	s.core(core)
	s.threads = append(s.threads, t)
	s.push(event{at: t.vt, th: t})
	go t.run(fn)
	return t
}

func (t *simThread) run(fn func(Context)) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(simKilled); ok {
				t.state = stDone
				close(t.doneCh)
				return
			}
			panic(r)
		}
	}()
	<-t.resume
	if t.sim.killed {
		panic(simKilled{})
	}
	fn(simCtx{t})
	t.state = stDone
	close(t.doneCh)
	for _, j := range t.joiners {
		t.sim.wake(j, t.vt)
	}
	t.joiners = nil
	t.sim.stopped <- struct{}{}
}

// stop hands control back to the scheduler and blocks until resumed.
func (t *simThread) stop(state int) {
	t.state = state
	t.sim.stopped <- struct{}{}
	<-t.resume
	if t.sim.killed {
		panic(simKilled{})
	}
}

// wake moves a parked thread to ready at the given time.
func (s *Sim) wake(t *simThread, at int64) {
	if t.state != stParked {
		t.permit = true
		return
	}
	t.state = stReady
	if at < s.now {
		at = s.now
	}
	s.push(event{at: at, th: t})
}

// Run executes the simulation until no events remain, then tears down any
// threads that are still parked. It returns the final virtual time.
func (s *Sim) Run() int64 {
	for s.pq.Len() > 0 {
		e := s.pop()
		if e.at > s.now {
			s.now = e.at
		}
		if e.fn != nil {
			e.fn()
			continue
		}
		t := e.th
		if t.state != stReady {
			continue // stale event
		}
		c := s.cores[t.core]
		if c.busyUntil > e.at {
			// Keep the original sequence number: a thread displaced by a
			// busy core stays ahead of threads queued after it, which is
			// what makes same-core scheduling round-robin rather than
			// letting the running thread starve its core-mates.
			e.at = c.busyUntil
			s.pushKeepSeq(e)
			continue
		}
		if e.at > t.vt {
			t.vt = e.at
		}
		t.state = stRunning
		s.running = t
		t.resume <- struct{}{}
		<-s.stopped
		s.running = nil
		if c.busyUntil < t.vt {
			c.busyUntil = t.vt
		}
		if t.vt > s.now {
			s.now = t.vt
		}
	}
	// Tear down parked stragglers (daemon threads) so goroutines exit.
	s.killed = true
	for _, t := range s.threads {
		if t.state == stParked || t.state == stReady {
			t.state = stRunning
			t.resume <- struct{}{}
			<-t.doneCh
		}
	}
	return s.now
}

// simCtx is the Context handed to each simulated thread.
type simCtx struct{ t *simThread }

func (c simCtx) Now() int64 { return c.t.vt }

func (c simCtx) Charge(d int64) {
	if d <= 0 {
		return
	}
	t := c.t
	t.vt += d
	s := t.sim
	// Preempt if some other event is due before our local clock: requeue
	// ourselves so global time order stays causal.
	if s.pq.Len() > 0 && s.pq.peekTime() < t.vt {
		s.push(event{at: t.vt, th: t})
		t.stop(stReady)
	}
}

func (c simCtx) Yield() {
	t := c.t
	t.vt += DefaultYieldCost
	t.sim.push(event{at: t.vt, th: t})
	t.stop(stReady)
}

func (c simCtx) Sleep(d int64) {
	if d < 0 {
		d = 0
	}
	t := c.t
	t.sim.push(event{at: t.vt + d, th: t})
	t.stop(stReady)
}

func (c simCtx) Park() {
	t := c.t
	if t.permit {
		t.permit = false
		return
	}
	t.stop(stParked)
}

func (c simCtx) Self() Thread { return c.t }

func (c simCtx) Spawn(name string, fn func(Context)) Thread {
	s := c.t.sim
	s.autoCore++
	return s.spawn(s.autoCore, name, fn)
}

func (c simCtx) SpawnOn(core CoreID, name string, fn func(Context)) Thread {
	return c.t.sim.spawn(core, name, fn)
}

func (c simCtx) Join(t Thread) {
	st := t.(*simThread)
	if st.state == stDone {
		return
	}
	st.joiners = append(st.joiners, c.t)
	c.t.stop(stParked)
}

func (c simCtx) After(d int64, fn func()) {
	if d < 0 {
		d = 0
	}
	c.t.sim.push(event{at: c.t.vt + d, fn: fn})
}

func (t *simThread) Name() string { return t.name }

// Unpark may be called from any simulated thread or timer callback within
// the same Sim. It must not be called from outside the simulation.
func (t *simThread) Unpark() {
	s := t.sim
	s.wake(t, s.curTime())
}
