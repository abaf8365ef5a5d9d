// Package costmodel holds the calibrated hardware/kernel cost table that
// parameterizes the simulation. The entries mirror Table 2 of the
// SocksDirect paper ("Round-trip latency and single-core throughput of
// operations"): they are the per-operation costs of the pieces we cannot
// execute for real on this host — kernel crossings with/without KPTI, NIC
// doorbell/DMA/wire time, page-table manipulation, interrupt delivery and
// process wakeup.
//
// Pure-software mechanisms (ring buffers, locks, memory copies) run for
// real, but virtual time only advances through charges, so the table
// also carries their calibrated costs (RingOp, SpinlockOp, PageCopy4K).
// What the Go code itself costs in wall time is measured separately, by
// perfbench.
//
// All values are nanoseconds.
package costmodel

// Costs is one calibration profile.
type Costs struct {
	// --- kernel ---
	Syscall         int64 // one kernel crossing (enter+exit), KPTI on
	SyscallNoKPTI   int64 // one kernel crossing before KPTI
	InterruptHandle int64 // hard IRQ + softirq processing of one packet
	ProcessWakeup   int64 // futex/wait-queue wakeup of a sleeping process
	ContextSwitch   int64 // cooperative context switch (sched_yield)
	KernelFDAlloc   int64 // allocate an FD + inode in VFS
	SignalDeliver   int64 // deliver + handle a POSIX signal

	// --- transport software ---
	TCPProto       int64 // TCP protocol processing per packet (one side)
	PktProc        int64 // generic packet processing (driver, demux)
	BufferMgmt     int64 // allocate+free one packet buffer
	SpinlockOp     int64 // uncontended lock/unlock pair
	KernelLockHold int64 // hold time of the kernel's global TCB lock
	RingOp         int64 // one lockless ring enqueue or dequeue
	RDMAPost       int64 // CPU cost of posting one verb / polling one CQE
	MonDispatch    int64 // monitor control-plane handling of one message

	// --- memory system ---
	PageMap4K         int64 // map one 4 KiB page (incl. kernel crossing + TLB shootdown share)
	PageMapBatchFixed int64 // fixed cost of one batched remap call
	PageMapPerPage    int64 // marginal cost per page within a batch
	PageCopy4K        int64 // copy one 4 KiB page
	CacheMiss         int64 // inter-core cache line migration
	PageFault         int64 // minor fault (COW resolution)

	// --- NIC / fabric ---
	NICDoorbellDMA  int64 // MMIO doorbell + descriptor/payload DMA, modern NIC
	NICProcessWire  int64 // NIC pipeline + wire propagation, one direction
	NICHairpin      int64 // CPU->NIC->CPU loopback within a host, one direction
	LegacyNICPerPkt int64 // per-packet cost of a legacy (non-RDMA) NIC path
	RDMAQPCreate    int64 // create+transition an RC QP to RTS
	TCPHandshakeNet int64 // wire RTT share of initial TCP handshake

	// --- link ---
	LinkBandwidthGbps float64 // wire rate used for serialization delay
}

// Default is calibrated against Table 2 of the paper (Xeon E5-2698 v3,
// ConnectX-4 100G, Linux 4.15 with KPTI). The reproduction keeps the same
// ratios the paper's analysis relies on.
var Default = Costs{
	Syscall:         200, // "System call (after KPTI): 0.20 us"
	SyscallNoKPTI:   50,  // "System call (before KPTI): 0.05 us"
	InterruptHandle: 4000,
	ProcessWakeup:   4000, // "2.8~5.5 us"
	ContextSwitch:   520,  // "Cooperative context switch: 0.52 us"
	KernelFDAlloc:   1600, // "Open a socket FD: 1.6 us"
	SignalDeliver:   2000,

	TCPProto:       360, // Table 4: "Transport protocol" (Linux)
	PktProc:        500, // Table 4: "Packet processing" (Linux)
	BufferMgmt:     130, // "Allocate and deallocate a buffer: 0.13 us"
	SpinlockOp:     100, // "Spinlock (no contention): 0.10 us"
	KernelLockHold: 420, // serialized share of kernel TCB/queue locks (flattens Linux ~7 cores, Fig 9)
	RingOp:         20,  // half of the 27 Mop/s lockless-queue RTT budget
	RDMAPost:       77,  // 13 M one-sided writes/s on one core (Table 2)
	MonDispatch:    90,  // §6: monitor dispatches 5.3 M conns/s (~189 ns/conn, ~2 ctl msgs each)

	PageMap4K:         780, // "Map one page (4 KiB): 0.78 us"
	PageMapBatchFixed: 766, // derived: "Map 32 pages (128 KiB): 1.2 us" = fixed + 32*perPage
	PageMapPerPage:    14,
	PageCopy4K:        400, // "Copy one page (4 KiB): 0.40 us"
	CacheMiss:         30,  // "Inter-core cache migration: 0.03 us"
	PageFault:         1000,

	NICDoorbellDMA:  600,  // Table 4: "NIC doorbell and DMA" for SocksDirect
	NICProcessWire:  200,  // Table 4: "NIC processing & wire"
	NICHairpin:      950,  // Table 2: "NIC hairpin within a host: 0.95 us" RTT => 475/dir; we keep 950 as RTT and charge half per direction
	LegacyNICPerPkt: 1500, // Table 4 Linux: 2100 total DMA minus modern 600
	RDMAQPCreate:    30000,
	TCPHandshakeNet: 16000,

	LinkBandwidthGbps: 100,
}

// CopyCost returns the CPU time to copy n bytes, scaled from the 4 KiB
// page-copy calibration point. The simulator performs the copy for real
// but charges this, so virtual time reflects the paper's hardware rather
// than the Go copy.
func (c *Costs) CopyCost(n int) int64 {
	return int64(n) * c.PageCopy4K / 4096
}

// MapCost returns the time to remap n pages in one batched kernel call —
// the amortization zero copy lives on (Table 2: 1 page 0.78 us, 32 pages
// 1.2 us; §4.3's threshold exists because single-page remaps lose to
// copies).
func (c *Costs) MapCost(n int) int64 {
	if n <= 0 {
		return 0
	}
	return c.PageMapBatchFixed + int64(n)*c.PageMapPerPage
}

// SerializationDelay returns the time to clock n bytes onto the wire.
func (c *Costs) SerializationDelay(n int) int64 {
	if c.LinkBandwidthGbps <= 0 {
		return 0
	}
	return int64(float64(n*8) / c.LinkBandwidthGbps) // bits / (Gbit/s) = ns
}

// OneWayWireLatency is the modelled one-direction latency of an RDMA
// message: doorbell+DMA on the sender, NIC pipeline and wire.
func (c *Costs) OneWayWireLatency() int64 { return c.NICDoorbellDMA + c.NICProcessWire }
