package main

import (
	"bytes"
	"hash/crc32"
	"math"

	sd "socksdirect"
	"socksdirect/internal/exec"
	"socksdirect/internal/mem"
)

// workload is one closed-loop traffic mix. build spawns its servers and
// clients on a fresh cluster; every op count is fixed, so a round always
// does the same work for a given seed.
type workload struct {
	name string
	why  string
	// dataPath marks workloads whose measured window touches only
	// established connections: any kernel syscall in it is a failure.
	dataPath bool
	build    func(h *harness)
}

var workloads = []workload{
	{
		name:     "rpc_mix",
		why:      "established-connection small messages, 3/4 inter-host: per-message cost in core, shm, rdma, fabric and exec",
		dataPath: true,
		build:    buildRPCMix,
	},
	{
		name:  "conn_churn",
		why:   "dial, one 64 B echo, close: control plane (monitor, ctlmsg, QP creation, SHM and FD set-up) with an idle data path",
		build: buildConnChurn,
	},
	{
		name:     "bulk_stream",
		why:      "one-way 64 KiB zero-copy and 1 KiB batched streams, intra and inter: page remaps, bufpool staging, batch ring, MTU segmentation",
		dataPath: true,
		build:    buildBulkStream,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// rng is splitmix64: every draw a workload makes comes from one of these,
// seeded from --seed.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng {
	return &rng{s: seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + 1}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// fill writes pseudo-random bytes.
func (r *rng) fill(b []byte) {
	for i := 0; i < len(b); i += 8 {
		v := r.next()
		for j := i; j < i+8 && j < len(b); j++ {
			b[j] = byte(v)
			v >>= 8
		}
	}
}

// Workload sizes. Each is a fixed op count per round.
const (
	rpcClients   = 4
	rpcOpsPerCli = 1500
	rpcMinSize   = 8
	rpcMaxSize   = 1024
	rpcPort      = 7000

	churnClients   = 4
	churnOpsPerCli = 50
	churnSize      = 64
	churnPort      = 7100

	bulkVAMsgs      = 768 // per zero-copy stream
	bulkVASize      = 64 << 10
	bulkBatchMsgs   = 6144 // per batched stream
	bulkBatchSize   = 1024
	bulkBatchMax    = 32
	bulkBatchWindow = 2 * bulkBatchMax
	bulkPort        = 7200
)

// buildRPCMix: 4 client threads on hostA, each holding one intra-host
// (SHM) and one inter-host (RDMA) connection to echo servers; each op
// sends a log-uniform 8 B..1 KiB request to the inter-host server with
// probability 3/4 and reads the echo back.
func buildRPCMix(h *harness) {
	h.echoServer(h.a, rpcPort)
	h.echoServer(h.b, rpcPort)
	h.parties, h.finishers = rpcClients, rpcClients
	h.r.expected = rpcClients * rpcOpsPerCli
	for i := 0; i < rpcClients; i++ {
		rg := newRNG(h.seed, uint64(i))
		p := h.a.NewProcess("client", 1000+i)
		p.Go("client", func(t *sd.T) {
			t.Sleep(10 * sd.Microsecond)
			var conns [2]*sd.Conn // 0: intra, 1: inter
			for k, hostName := range []string{"hostA", "hostB"} {
				s := h.rec.begin(t, "dial", 0, 0)
				c, err := dialRetry(t, hostName, rpcPort)
				h.rec.end(t, s, err)
				if err != nil {
					h.r.failed++
					h.barrier(t)
					h.finish(t)
					return
				}
				if c.Fallback() {
					h.r.failed++
				}
				conns[k] = c
			}
			req := make([]byte, rpcMaxSize)
			resp := make([]byte, rpcMaxSize)
			h.barrier(t)
			if h.setupOnly {
				// A probe still echoes once per connection before closing:
				// the server handler then holds both socket tokens. Its
				// close would otherwise need the send token from the
				// acceptor, which stays parked in Accept, and never end.
				for _, c := range conns {
					if _, err := c.Send(req[:8]); err == nil {
						c.RecvFull(resp[:8])
					}
				}
			}
			for n := 0; n < h.count(rpcOpsPerCli); n++ {
				size := int(math.Exp(math.Log(rpcMinSize) + rg.float()*(math.Log(rpcMaxSize)-math.Log(rpcMinSize))))
				inter := 0
				if rg.intn(4) != 0 {
					inter = 1
				}
				c := conns[inter]
				q := req[:size]
				rg.fill(q)
				id := h.nextOp()
				t0 := t.Now()
				root := h.rec.begin(t, "op", id, 0)
				s := h.rec.begin(t, "send", id, root.ID)
				_, err := c.Send(q)
				h.rec.end(t, s, err)
				ok := err == nil
				if ok {
					s = h.rec.begin(t, "recv", id, root.ID)
					_, err = c.RecvFull(resp[:size])
					h.rec.end(t, s, err)
					ok = err == nil && bytes.Equal(q, resp[:size])
				}
				h.rec.end(t, root, nil)
				h.op(t.Now()-t0, 2*int64(size), ok)
			}
			h.finish(t)
			for _, c := range conns {
				s := h.rec.begin(t, "close", 0, 0)
				err := c.Close()
				h.rec.end(t, s, err)
			}
		})
	}
}

// buildConnChurn: 4 client threads on hostA in a closed loop; each op
// dials an echo server, verifies one 64 B echo and closes. Each client's
// targets are a seeded shuffle of a fixed deck, 2/5 intra-host and 3/5
// inter-host, so the median always falls in the inter-host mode.
func buildConnChurn(h *harness) {
	h.echoServer(h.a, churnPort)
	h.echoServer(h.b, churnPort)
	h.parties, h.finishers = churnClients, churnClients
	h.r.expected = churnClients * churnOpsPerCli
	for i := 0; i < churnClients; i++ {
		rg := newRNG(h.seed, uint64(i))
		mine := make([]int, churnOpsPerCli)
		for n := range mine {
			if n >= churnOpsPerCli*2/5 {
				mine[n] = 1
			}
		}
		for n := len(mine) - 1; n > 0; n-- {
			k := rg.intn(n + 1)
			mine[n], mine[k] = mine[k], mine[n]
		}
		p := h.a.NewProcess("client", 1000+i)
		p.Go("client", func(t *sd.T) {
			req := make([]byte, churnSize)
			resp := make([]byte, churnSize)
			t.Sleep(10 * sd.Microsecond)
			h.barrier(t)
			for _, target := range mine[:h.count(len(mine))] {
				hostName := "hostA"
				if target == 1 {
					hostName = "hostB"
				}
				rg.fill(req)
				id := h.nextOp()
				t0 := t.Now()
				root := h.rec.begin(t, "op", id, 0)
				s := h.rec.begin(t, "dial", id, root.ID)
				c, err := dialRetry(t, hostName, churnPort)
				h.rec.end(t, s, err)
				ok := err == nil
				if ok {
					ok = !c.Fallback()
					s = h.rec.begin(t, "send", id, root.ID)
					_, err = c.Send(req)
					h.rec.end(t, s, err)
					ok = ok && err == nil
					if err == nil {
						s = h.rec.begin(t, "recv", id, root.ID)
						_, err = c.RecvFull(resp)
						h.rec.end(t, s, err)
						ok = ok && err == nil && bytes.Equal(req, resp)
					}
					s = h.rec.begin(t, "close", id, root.ID)
					err = c.Close()
					h.rec.end(t, s, err)
					ok = ok && err == nil
				}
				h.rec.end(t, root, nil)
				h.op(t.Now()-t0, 2*churnSize, ok)
			}
			h.finish(t)
		})
	}
}

// bulkStream is one one-way stream's shared state: the sender records
// each message's send time and checksum, the receiver checks both. The
// stream is closed-loop: the sender keeps at most window messages
// undelivered, parking until the receiver catches up.
type bulkStream struct {
	sentAt    []int64
	crc       []uint32
	window    int
	delivered int
	waiting   exec.Thread // parked sender, or nil
}

// await parks the sender until sending n more messages stays within the
// window.
func (st *bulkStream) await(t *sd.T, sent, n int) {
	for sent+n-st.delivered > st.window {
		st.waiting = t.Ctx.Self()
		t.Ctx.Park()
	}
}

// deliver counts one message in and wakes a parked sender.
func (st *bulkStream) deliver() {
	st.delivered++
	if st.waiting != nil {
		st.waiting.Unpark()
		st.waiting = nil
	}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// buildBulkStream: for the intra-host pair (hostA→hostA) and the
// inter-host pair (hostA→hostB), one stream of 64 KiB SendVA/RecvVA
// messages and one of 1 KiB messages through SendBatch/RecvBatch with
// seeded batch lengths. Receivers checksum every message.
func buildBulkStream(h *harness) {
	h.parties, h.finishers = 8, 4
	h.r.expected = 2 * (bulkVAMsgs + bulkBatchMsgs)
	for pair, dst := range []*sd.Host{h.a, h.b} {
		dstName := []string{"hostA", "hostB"}[pair]
		for kind := 0; kind < 2; kind++ {
			port := bulkPort + uint16(2*pair+kind)
			n, size, window := bulkVAMsgs, bulkVASize, vaBufs
			if kind == 1 {
				n, size, window = bulkBatchMsgs, bulkBatchSize, bulkBatchWindow
			}
			st := &bulkStream{sentAt: make([]int64, n), crc: make([]uint32, n), window: window}
			rg := newRNG(h.seed, uint64(10+2*pair+kind))
			recv := dst.NewProcess("sink", 0)
			recv.Go("sink", func(t *sd.T) {
				ln, err := t.Listen(port)
				if err != nil {
					h.r.failed += n
					h.barrier(t)
					h.finish(t)
					return
				}
				s := h.rec.begin(t, "accept", 0, 0)
				c, err := ln.Accept()
				h.rec.end(t, s, err)
				ln.Close()
				if err != nil {
					h.r.failed += n
					h.barrier(t)
					h.finish(t)
					return
				}
				h.barrier(t)
				if kind == 0 {
					h.recvVA(t, c, st, h.count(n), size)
				} else {
					h.recvBatch(t, c, st, h.count(n), size)
				}
				h.finish(t)
				c.Close()
			})
			send := h.a.NewProcess("source", 1000)
			send.Go("source", func(t *sd.T) {
				t.Sleep(10 * sd.Microsecond)
				s := h.rec.begin(t, "dial", 0, 0)
				c, err := dialRetry(t, dstName, port)
				h.rec.end(t, s, err)
				if err != nil {
					h.r.failed += n
					h.barrier(t)
					return
				}
				if c.Fallback() {
					h.r.failed++
				}
				h.barrier(t)
				if kind == 0 {
					h.sendVA(t, c, st, rg, h.count(n), size)
				} else {
					h.sendBatch(t, c, st, rg, h.count(n), size)
				}
				s = h.rec.begin(t, "close", 0, 0)
				err = c.Close()
				h.rec.end(t, s, err)
			})
		}
	}
}

// vaBufs is how many simulated-memory buffers each zero-copy endpoint
// rotates through.
const vaBufs = 4

func (h *harness) sendVA(t *sd.T, c *sd.Conn, st *bulkStream, rg *rng, n, size int) {
	var addrs [vaBufs]mem.VAddr
	for i := range addrs {
		addrs[i] = t.Alloc(size)
	}
	data := make([]byte, size)
	rg.fill(data)
	for i := 0; i < n; i++ {
		rg.fill(data[:64]) // a fresh header per message
		st.await(t, i, 1)  // buffer i%vaBufs is free once message i-vaBufs is in
		addr := addrs[i%vaBufs]
		if err := t.WriteMem(addr, data); err != nil {
			h.r.failed++
		}
		st.crc[i] = crc32.Checksum(data, castagnoli)
		st.sentAt[i] = t.Now()
		s := h.rec.begin(t, "sendva", int64(i), 0)
		_, err := c.SendVA(addr, size)
		h.rec.end(t, s, err)
		if err != nil {
			return
		}
	}
}

func (h *harness) recvVA(t *sd.T, c *sd.Conn, st *bulkStream, n, size int) {
	var addrs [vaBufs]mem.VAddr
	for i := range addrs {
		addrs[i] = t.Alloc(size)
	}
	out := make([]byte, size)
	for i := 0; i < n; i++ {
		addr := addrs[i%vaBufs]
		got := 0
		var err error
		for got < size && err == nil {
			var m int
			s := h.rec.begin(t, "recvva", int64(i), 0)
			m, err = c.RecvVA(addr+mem.VAddr(got), size-got)
			h.rec.end(t, s, err)
			got += m
		}
		ok := err == nil && t.ReadMem(addr, out) == nil &&
			crc32.Checksum(out, castagnoli) == st.crc[i]
		h.op(t.Now()-st.sentAt[i], int64(got), ok)
		st.deliver()
		if err != nil {
			return
		}
	}
}

func (h *harness) sendBatch(t *sd.T, c *sd.Conn, st *bulkStream, rg *rng, n, size int) {
	pool := make([]byte, 64<<10)
	rg.fill(pool)
	bufs := make([][]byte, 0, bulkBatchMax)
	for i := 0; i < n; {
		k := 1 + rg.intn(bulkBatchMax)
		if k > n-i {
			k = n - i
		}
		st.await(t, i, k)
		bufs = bufs[:0]
		now := t.Now()
		for j := 0; j < k; j++ {
			off := rg.intn(len(pool)-size) &^ 7
			b := pool[off : off+size]
			st.crc[i+j] = crc32.Checksum(b, castagnoli)
			st.sentAt[i+j] = now
			bufs = append(bufs, b)
		}
		for len(bufs) > 0 {
			s := h.rec.begin(t, "sendbatch", int64(i), 0)
			m, err := c.SendBatch(bufs)
			h.rec.end(t, s, err)
			if err != nil {
				return
			}
			bufs = bufs[m:]
		}
		i += k
	}
}

// recvBatch treats the stream as bytes, so the check does not depend on
// message boundaries surviving the transport: each message's checksum
// is accumulated across however many buffers carry it.
func (h *harness) recvBatch(t *sd.T, c *sd.Conn, st *bulkStream, n, size int) {
	bufs := make([][]byte, bulkBatchMax)
	for i := range bufs {
		bufs[i] = make([]byte, size)
	}
	lens := make([]int, bulkBatchMax)
	msg, off := 0, 0
	var sum uint32
	for msg < n {
		s := h.rec.begin(t, "recvbatch", int64(msg), 0)
		k, err := c.RecvBatch(bufs, lens)
		h.rec.end(t, s, err)
		if err != nil {
			return
		}
		for j := 0; j < k; j++ {
			b := bufs[j][:lens[j]]
			for len(b) > 0 && msg < n {
				take := size - off
				if take > len(b) {
					take = len(b)
				}
				sum = crc32.Update(sum, castagnoli, b[:take])
				b = b[take:]
				off += take
				if off == size {
					h.op(t.Now()-st.sentAt[msg], int64(size), sum == st.crc[msg])
					st.deliver()
					msg++
					off, sum = 0, 0
				}
			}
			if len(b) > 0 {
				h.r.failed++ // bytes beyond the last message
			}
		}
	}
}
