package host

import (
	"fmt"
	"sync"

	"socksdirect/internal/exec"
	"socksdirect/internal/fabric"
)

// Kernel is the host's simulated OS kernel: it charges syscall crossings,
// owns the network device ports used by the kernel TCP stack, and provides
// the classic kernel IPC objects (pipes, Unix-domain sockets). Its costs
// are the Linux baseline's handicap — exactly the overheads Table 1 lists.
type Kernel struct {
	h *Host

	mu       sync.Mutex
	netPorts map[string]*fabric.Endpoint
	fab      *fabric.Port // routed fabric attachment (N-host topologies)
	protos   map[string]func(src string, frame any)
	loop     *fabric.Endpoint

	// TCBLock is the global lock Linux-era kernels take for connection
	// table management (§2.1.4); the kernel TCP stack acquires it per
	// packet dispatch and per connection setup, which is what limits
	// multi-core scaling in Figure 9's Linux series.
	TCBLock sync.Mutex
}

func newKernel(h *Host) *Kernel {
	k := &Kernel{
		h:        h,
		netPorts: make(map[string]*fabric.Endpoint),
		protos:   make(map[string]func(string, any)),
	}
	k.loop = fabric.NewLoopback(h.Clk, h.Name+"/lo", fabric.Config{})
	k.loop.SetHandler(func(f any, _ int) { k.deliver(h.Name, f) })
	return k
}

// netFrame tags a frame with the protocol family that owns it, modelling
// NIC flow bifurcation (kernel TCP vs. a kernel-bypass user stack sharing
// the same port).
type netFrame struct {
	proto   string
	payload any
}

// Syscall charges one kernel crossing (KPTI-era cost).
func (k *Kernel) Syscall(ctx exec.Context) {
	mSyscalls.Inc()
	ctx.Charge(k.h.Costs.Syscall)
}

func (k *Kernel) addNetPort(remote string, ep *fabric.Endpoint) {
	k.mu.Lock()
	k.netPorts[remote] = ep
	k.mu.Unlock()
	ep.SetHandler(func(f any, _ int) { k.deliver(remote, f) })
}

// AttachFabric wires the kernel network stack into a routed fabric.Net:
// NetSend routes through the fabric's directed edges for hosts without a
// dedicated point-to-point port, and inbound fabric frames dispatch by
// their source host exactly like point-to-point arrivals.
func (k *Kernel) AttachFabric(p *fabric.Port) {
	k.mu.Lock()
	k.fab = p
	k.mu.Unlock()
	p.SetHandler(func(src string, f any, _ int) { k.deliver(src, f) })
}

func (k *Kernel) deliver(src string, frame any) {
	nf, ok := frame.(netFrame)
	if !ok {
		return
	}
	k.mu.Lock()
	rx := k.protos[nf.proto]
	k.mu.Unlock()
	if rx != nil {
		rx(src, nf.payload)
	}
}

// RegisterProto installs a receive entry point (interrupt context) for one
// protocol family ("tcp" for the kernel stack, "vma" for the user-space
// stack, ...).
func (k *Kernel) RegisterProto(proto string, fn func(src string, frame any)) {
	k.mu.Lock()
	k.protos[proto] = fn
	k.mu.Unlock()
}

// NetSend transmits a frame toward remote ("" or the host's own name means
// loopback) under the given protocol family.
func (k *Kernel) NetSend(proto, remote string, frame any, size int) error {
	f := netFrame{proto: proto, payload: frame}
	if remote == "" || remote == k.h.Name {
		k.loop.Send(f, size)
		return nil
	}
	k.mu.Lock()
	ep, ok := k.netPorts[remote]
	fab := k.fab
	k.mu.Unlock()
	if !ok {
		if fab != nil && fab.Reaches(remote) {
			return fab.SendTo(remote, f, size)
		}
		return fmt.Errorf("host %s: no route to %q", k.h.Name, remote)
	}
	ep.Send(f, size)
	return nil
}
