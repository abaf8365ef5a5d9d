package main

import (
	"time"

	"socksdirect/internal/bufpool"
	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/exec"
	"socksdirect/internal/fabric"
	"socksdirect/internal/rdma"
	"socksdirect/internal/shm"
)

// Per-layer microbenchmarks. Each calls one layer's exported functions
// directly and reports wall nanoseconds per operation: the median over
// microBatches timed batches, after doubling warm-up batches size them.

const microBatches = 7

// microOp runs n operations and reports false if the layer misbehaved.
type microOp func(n int) bool

// timeMicro sizes a batch to about budget/(microBatches+1) and returns the
// median ns per operation, or -1 if the layer misbehaved.
func timeMicro(op microOp, budget time.Duration) float64 {
	n := 1
	for {
		t0 := time.Now()
		if !op(n) {
			return -1
		}
		if d := time.Since(t0); d > budget/(4*(microBatches+1)) || n >= 1<<30 {
			n = int(float64(n) * float64(budget/(microBatches+1)) / float64(d+1))
			break
		}
		n *= 2
	}
	if n < 1 {
		n = 1
	}
	per := make([]float64, microBatches)
	for i := range per {
		t0 := time.Now()
		if !op(n) {
			return -1
		}
		per[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// runMicros runs every microbenchmark within about budget.
func runMicros(budget time.Duration) map[string]float64 {
	each := budget / time.Duration(len(micros))
	return map[string]float64{
		"exec.handoff_wall_ns":    timeMicro(handoffOp, each),
		"ctlmsg.codec_wall_ns":    timeMicro(codecOp(), each),
		"shm.ring_op_wall_ns":     timeMicro(ringOp(), each),
		"rdma.qp_write_wall_ns":   timeMicro(qpWriteOp(), each),
		"bufpool.get_put_wall_ns": timeMicro(bufpoolOp, each),
	}
}

// handoffOp: two simulated threads on separate cores ping-pong with
// Yield, n handoffs in all (each Yield parks one goroutine and resumes
// the other through the scheduler).
func handoffOp(n int) bool {
	s := exec.NewSim(exec.SimConfig{})
	for k := 0; k < 2; k++ {
		s.Spawn("yield", func(ctx exec.Context) {
			for i := 0; i < (n+1)/2; i++ {
				ctx.Yield()
			}
		})
	}
	s.Run()
	return true
}

// codecOp: one control-message Marshal plus Unmarshal.
func codecOp() microOp {
	m := ctlmsg.Msg{Kind: ctlmsg.KConnect, Port: 80, ConnID: 7, QID: 9, PID: 11, TID: 12, Aux: 3}
	m.SetHost("hostB")
	buf := make([]byte, ctlmsg.Size)
	return func(n int) bool {
		for i := 0; i < n; i++ {
			m.ConnID = uint64(i)
			out, ok := ctlmsg.Unmarshal(m.Marshal(buf))
			if !ok || out.ConnID != uint64(i) {
				return false
			}
		}
		return true
	}
}

// ringOp: one 64 B send plus receive on an SPSC shared-memory ring.
func ringOp() microOp {
	r := shm.NewRing(1 << 16)
	payload := make([]byte, 64)
	return func(n int) bool {
		for i := 0; i < n; i++ {
			if !r.TrySendV(1, 0, payload, nil) {
				return false
			}
			if _, ok := r.TryRecv(); !ok {
				return false
			}
		}
		return true
	}
}

// qpWriteOp: one 1 KiB RDMA write between two connected QPs, delivered,
// acknowledged and completed on virtual time.
func qpWriteOp() microOp {
	s := exec.NewSim(exec.SimConfig{})
	clk := s.Clock()
	epA, epB := fabric.NewLink(clk, "A", "B", fabric.Config{PropDelay: 800})
	na := rdma.NewNIC(clk, "A", nil, 1)
	nb := rdma.NewNIC(clk, "B", nil, 2)
	na.AddPort("B", epA)
	nb.AddPort("A", epB)
	pda, pdb := na.AllocPD(), nb.AllocPD()
	mrb := pdb.RegisterBytes(make([]byte, 1<<16))
	cqaS, cqbR := rdma.NewCQ(), rdma.NewCQ()
	qa := pda.CreateQP(cqaS, rdma.NewCQ())
	qb := pdb.CreateQP(rdma.NewCQ(), cqbR)
	if qa.Connect("B", qb.QPN()) != nil || qb.Connect("A", qa.QPN()) != nil {
		return func(int) bool { return false }
	}
	payload := make([]byte, 1024)
	return func(n int) bool {
		for i := 0; i < n; i++ {
			if qa.PostWrite(1, payload, mrb.RKey(), 0, 1, true) != nil {
				return false
			}
			s.Run()
			if _, ok := cqaS.PollOne(); !ok {
				return false
			}
			if _, ok := cqbR.PollOne(); !ok {
				return false
			}
		}
		return true
	}
}

// bufpoolOp: one 1 KiB Get plus Release.
func bufpoolOp(n int) bool {
	for i := 0; i < n; i++ {
		bufpool.Get(1024).Release()
	}
	return true
}
