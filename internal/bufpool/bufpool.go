// Package bufpool provides the size-classed, reference-counted buffer
// pool behind the allocation-free data path. Table 2 of the paper puts
// "Allocate and deallocate a buffer" at 0.13 µs — already more than the
// per-message budget of an 8-byte SocksDirect send — so the real system
// never mallocs per message: payload staging is recycled. This package
// gives the simulated stack the same property: the RDMA layer stages
// segment payloads here (internal/rdma), the fabric releases them when a
// frame is dropped or delivered (internal/fabric), and libsd borrows
// copy scratch for the §4.3 zero-copy bookkeeping (internal/core).
//
// Buffers are handed out by size class from free lists. A Buf carries a
// reference count so one payload can be held by several owners at once —
// the go-back-N retransmit window and every in-flight copy of the frame
// on the wire — and returns to its class pool exactly when the last
// owner releases it. Requests above the largest class fall back to the
// garbage collector (Release becomes a no-op); those are the ≥16 KiB
// messages that travel the zero-copy path anyway (§4.3).
//
// Telemetry: sd/mem/pool/{gets,puts,misses,oversize} counters and the
// sd/mem/pool/outstanding gauge. Outstanding returning to zero after a
// teardown is the pool's leak check (see LeakCheck).
package bufpool

import (
	"sync"
	"sync/atomic"

	"socksdirect/internal/telemetry"
)

// Package-wide metric handles (resolved once; see internal/telemetry).
var (
	mGets         = telemetry.C(telemetry.MemPoolGets)
	mPuts         = telemetry.C(telemetry.MemPoolPuts)
	mMisses       = telemetry.C(telemetry.MemPoolMisses)
	mOversize     = telemetry.C(telemetry.MemPoolOversize)
	mQuotaRejects = telemetry.C(telemetry.MemPoolQuotaRejects)
	gOutstanding  = telemetry.G(telemetry.MemPoolOutstanding)
	gQuotaBytes   = telemetry.G(telemetry.MemPoolQuotaBytes)
)

// classSizes are the buffer capacities handed out, smallest to largest.
// 4096 matches rdma.MTU (one wire segment); 64 covers acks and credit
// words; the top class covers the largest single-WQE staging a flush
// posts before zero copy takes over.
var classSizes = [...]int{64, 256, 1024, 4096, 16384, 65536}

// numClasses is exported for boundary tests.
const numClasses = len(classSizes)

var classes [numClasses]FreeList[Buf, *Buf]

// FreeList is a mutex-guarded LIFO of recycled objects, the recycler
// behind every pooled object on the data path (buffers here, RDMA
// packets, fabric deliveries). The list is intrusive — each object
// embeds a Link — so Put never allocates, and once the list holds the
// peak number of objects in use, Get never misses. The simulator runs
// one thread at a time, so the mutex is uncontended. sync.Pool does not
// give that guarantee: its per-P caches allocate whenever the
// simulator's running goroutine lands on a different P than the one that
// released the object (a miss calls New; a Put can grow a fresh per-P
// queue), and a garbage collection empties them.
type FreeList[T any, P linked[T]] struct {
	mu   sync.Mutex
	head P
}

// Link is embedded by every object kept on a FreeList.
type Link[P any] struct{ next P }

func (l *Link[P]) link() *Link[P] { return l }

type linked[T any] interface {
	*T
	link() *Link[*T]
}

// Get pops a recycled object, or returns nil when the list is empty.
func (l *FreeList[T, P]) Get() P {
	l.mu.Lock()
	x := l.head
	if x != nil {
		l.head = x.link().next
		x.link().next = nil
	}
	l.mu.Unlock()
	return x
}

// Put returns x for reuse. The caller must hold no other reference.
func (l *FreeList[T, P]) Put(x P) {
	l.mu.Lock()
	x.link().next = l.head
	l.head = x
	l.mu.Unlock()
}

// Buf is a pooled, reference-counted byte buffer. B aliases the pooled
// backing array and is sized to the Get request; cap(B) is the class
// size. The zero of refs means "free" — a Buf in that state must not be
// touched.
type Buf struct {
	B     []byte
	refs  atomic.Int32
	class int8 // -1: oversize, owned by the GC
	Link[*Buf]
}

// Get returns a buffer with len(B) == n holding one reference. The
// contents are NOT zeroed: every data-path caller immediately overwrites
// the bytes it asked for, and clearing 4 KiB per message would put the
// memset back on the path the pool exists to clean.
func Get(n int) *Buf {
	mGets.Inc()
	gOutstanding.Add(1)
	ci := classFor(n)
	if ci < 0 {
		mOversize.Inc()
		b := &Buf{B: make([]byte, n), class: -1}
		b.refs.Store(1)
		return b
	}
	b := classes[ci].Get()
	if b == nil {
		mMisses.Inc()
		b = &Buf{B: make([]byte, classSizes[ci]), class: int8(ci)}
	}
	b.B = b.B[:cap(b.B)][:n]
	b.refs.Store(1)
	return b
}

// Ref adds an owner. Each distinct holder of the Buf — the retransmit
// window, every copy of the frame in flight on the fabric — must hold
// its own reference and pair it with exactly one Release.
func (b *Buf) Ref() {
	if b.refs.Add(1) <= 1 {
		panic("bufpool: Ref on a released buffer")
	}
}

// Release drops one owner; the last drop returns the buffer to its class
// pool. Releasing more times than referenced panics: a double release
// would let two messages share one backing array, which corrupts
// payloads silently — loud failure is the only acceptable mode.
func (b *Buf) Release() {
	n := b.refs.Add(-1)
	if n < 0 {
		panic("bufpool: Release without matching Get/Ref")
	}
	if n != 0 {
		return
	}
	mPuts.Inc()
	gOutstanding.Add(-1)
	if b.class < 0 {
		return // oversize: the GC owns the backing array
	}
	classes[b.class].Put(b)
}

// Refs reports the current reference count (tests).
func (b *Buf) Refs() int32 { return b.refs.Load() }

// classFor maps a request size to the smallest fitting class, or -1 when
// the request exceeds the largest class.
func classFor(n int) int {
	for i, s := range classSizes {
		if n <= s {
			return i
		}
	}
	return -1
}

// ClassSize reports the capacity a Get(n) buffer will have (tests and
// sizing assertions); -1 means the request is oversize.
func ClassSize(n int) int {
	ci := classFor(n)
	if ci < 0 {
		return -1
	}
	return classSizes[ci]
}

// MaxPooled is the largest request served from a pool class; anything
// bigger is a plain allocation.
func MaxPooled() int { return classSizes[numClasses-1] }

// Outstanding reports buffers currently held (gets minus final puts).
// After a full teardown — QPs closed, endpoints degraded, fabric drained
// — this must return to the value observed before the workload: that
// delta is the leak check the pool tests and the endpoint-close tests
// assert on.
func Outstanding() int64 { return gOutstanding.Load() }

// Memory admission control (overload robustness). The pool itself never
// fails — Get stays infallible because ~every transport hot path already
// assumes it — but send-side STAGING asks for admission first: TryAdmit
// charges the requested bytes against a per-process byte quota and
// returns false (→ ENOBUFS at the socket layer) when the ceiling is hit.
// Admitted bytes are returned by AdmitRelease when the staged buffer's
// last reference drops, so in-flight data always drains and the quota
// can never deadlock: receivers consuming is the only thing needed to
// readmit senders.
var (
	quotaBytes    atomic.Int64 // ceiling; 0 = unlimited
	admittedBytes atomic.Int64 // bytes currently charged
)

// QuotaBytes reports the staging byte quota (0 = unlimited).
func QuotaBytes() int64 { return quotaBytes.Load() }

// SetQuotaBytes installs a staging byte quota and returns the previous
// value. 0 disables admission control. Lowering the quota below the
// currently admitted bytes is safe: no new staging is admitted until
// in-flight buffers drain below the new ceiling.
func SetQuotaBytes(n int64) int64 { return quotaBytes.Swap(n) }

// TryAdmit charges n bytes against the quota. It returns false — and
// counts a quota_reject — when the charge would exceed the ceiling; the
// caller surfaces ENOBUFS and must NOT call AdmitRelease.
func TryAdmit(n int) bool {
	q := quotaBytes.Load()
	if q <= 0 {
		return true
	}
	for {
		cur := admittedBytes.Load()
		if cur+int64(n) > q {
			mQuotaRejects.Inc()
			return false
		}
		if admittedBytes.CompareAndSwap(cur, cur+int64(n)) {
			gQuotaBytes.Add(int64(n))
			return true
		}
	}
}

// AdmitRelease returns n bytes to the quota. Pairs with a successful
// TryAdmit; called when the admitted staging buffer is finally released.
// Releases always succeed — even if the quota was lowered or disabled in
// between — so draining can never block.
func AdmitRelease(n int) {
	admittedBytes.Add(int64(-n))
	gQuotaBytes.Add(int64(-n))
}

// AdmittedBytes reports bytes currently charged against the quota
// (drill assertions: must return to its baseline after a drain).
func AdmittedBytes() int64 { return admittedBytes.Load() }
