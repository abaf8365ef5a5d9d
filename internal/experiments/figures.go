package experiments

import (
	"fmt"

	sd "socksdirect"
	"socksdirect/internal/exec"
)

// MsgSizes is the x axis of Figures 7 and 8.
var MsgSizes = []int{8, 64, 512, 4096, 32768, 262144, 1 << 20}

// countFor scales message counts so big-message sweeps stay fast.
func countFor(size int) int {
	switch {
	case size <= 64:
		return 3000
	case size <= 4096:
		return 600
	case size <= 65536:
		return 80
	case size <= 262144:
		return 24
	default:
		return 10
	}
}

// roundsFor scales ping-pong rounds.
func roundsFor(size int) int {
	switch {
	case size >= 1<<18:
		return 5
	case size >= 1<<15:
		return 12
	default:
		return 30
	}
}

// Fig7 regenerates Figure 7: intra-host single-core throughput and latency
// across message sizes for every system.
func Fig7() (tput, lat []*Series) { return figure(true) }

// Fig8 regenerates Figure 8 (inter-host; adds raw RDMA).
func Fig8() (tput, lat []*Series) { return figure(false) }

func figure(intra bool) (tput, lat []*Series) {
	systems := []System{SysSD, SysLinux, SysLibVMA, SysRSocket, SysSDUnopt}
	if !intra {
		systems = append(systems, SysRDMA)
	}
	for _, sys := range systems {
		ts := &Series{Name: string(sys)}
		ls := &Series{Name: string(sys)}
		for _, size := range MsgSizes {
			r := Stream(sys, size, intra, countFor(size))
			ts.Add(float64(size), r.BytesPerSec*8/1e9) // Gbps
			p := PingPong(sys, size, intra, roundsFor(size))
			ls.Add(float64(size), p.LatencyNs/1000) // us
		}
		tput = append(tput, ts)
		lat = append(lat, ls)
	}
	return tput, lat
}

// Fig9 regenerates Figure 9: aggregate 8-byte message throughput with
// 1..16 core pairs. Each pair is an independent connection between two
// threads on dedicated virtual cores — exactly what the paper runs on
// physical cores, which the discrete-event scheduler reproduces on this
// one-CPU host.
func Fig9(intra bool, cores []int) []*Series {
	systems := []System{SysSD, SysLinux, SysLibVMA, SysRSocket, SysSDUnopt}
	if !intra {
		systems = append(systems, SysRDMA)
	}
	var out []*Series
	for _, sys := range systems {
		s := &Series{Name: string(sys)}
		for _, n := range cores {
			s.Add(float64(n), multiPair(sys, intra, n)/1e6) // M op/s
		}
		out = append(out, s)
	}
	return out
}

// MultiPair exposes one scalability cell (benchmarks).
func MultiPair(sys System, intra bool, n int) float64 { return multiPair(sys, intra, n) }

// multiPair runs n independent sender/receiver pairs and returns aggregate
// messages per second.
func multiPair(sys System, intra bool, n int) float64 {
	const perPair = 700
	w := newWorld()
	finish := make([]int64, n)
	starts := make([]int64, n)
	done := 0
	for i := 0; i < n; i++ {
		i := i
		port := uint16(7200 + i)
		serverFn := func(t *timeSrc, api endpointAPI) {
			buf := make([]byte, 8)
			for k := 0; k < perPair; k++ {
				if _, err := recvFull(api, buf); err != nil {
					return
				}
			}
			finish[i] = t.now()
		}
		clientFn := func(t *timeSrc, api endpointAPI) {
			buf := make([]byte, 8)
			starts[i] = t.now() // measurement starts once connected
			for k := 0; k < perPair; k++ {
				if _, err := api.send(buf); err != nil {
					return
				}
			}
			for finish[i] == 0 {
				if api.idle != nil {
					api.idle()
				}
				t.sleep(20_000)
			}
			done++
		}
		wireOnT(w, sys, intra, sys == SysSDUnopt, 8, port, serverFn, clientFn)
	}
	w.sim.Run()
	if done != n {
		return 0
	}
	// Aggregate rate over the pumping window only: connection setup (QP
	// creation is 30 us apiece) is Table 4's per-connection cost, not
	// per-message throughput.
	var minStart, maxEnd int64
	minStart = 1 << 62
	for i := 0; i < n; i++ {
		if starts[i] < minStart {
			minStart = starts[i]
		}
		if finish[i] > maxEnd {
			maxEnd = finish[i]
		}
	}
	if maxEnd <= minStart {
		return 0
	}
	return float64(n*perPair) / (float64(maxEnd-minStart) / 1e9)
}

// Fig10 regenerates Figure 10: message processing latency when 1..8 server
// processes share a single core, each serving its own client (cooperative
// sched_yield time sharing, §4.4 challenge 3).
func Fig10(procs []int) *Series {
	out := &Series{Name: "SocksDirect"}
	for _, n := range procs {
		out.Add(float64(n), sharedCoreLatency(n)/1000) // us
	}
	return out
}

func sharedCoreLatency(n int) float64 {
	const rounds = 120
	w := newWorld()
	sharedCore := exec.CoreID(900)
	var total, count int64
	for i := 0; i < n; i++ {
		port := uint16(7300 + i)
		sp := w.ha.NewProcess(fmt.Sprintf("srv%d", i), 0)
		cp := w.ha.NewProcess(fmt.Sprintf("cli%d", i), 0)
		// All servers share one core; clients have their own.
		sp.GoOn(sharedCore, "srv", func(t *sd.T) {
			ln, err := t.Listen(port)
			if err != nil {
				return
			}
			c, err := ln.Accept()
			if err != nil {
				return
			}
			buf := make([]byte, 8)
			for k := 0; k <= rounds; k++ {
				if _, err := c.Recv(buf); err != nil {
					return
				}
				c.Send(buf)
			}
		})
		cp.Go("cli", func(t *sd.T) {
			t.Sleep(20_000)
			c, err := t.Dial("hostA", port)
			if err != nil {
				return
			}
			buf := make([]byte, 8)
			c.Send(buf)
			c.Recv(buf)
			start := t.Now()
			for k := 0; k < rounds; k++ {
				c.Send(buf)
				c.Recv(buf)
			}
			total += (t.Now() - start) / rounds
			count++
		})
	}
	w.sim.Run()
	if count == 0 {
		return 0
	}
	return float64(total) / float64(count)
}
