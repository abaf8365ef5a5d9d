package socksdirect_test

import (
	"bytes"
	"testing"

	sd "socksdirect"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/mem"
)

// TestPublicAPIQuickstartShape runs the package-doc session twice from
// Defaults(): each echoes, and Run reports the same positive final
// virtual time both times (the scheduler is deterministic).
func TestPublicAPIQuickstartShape(t *testing.T) {
	quickstart := func() int64 {
		cl := sd.NewCluster(sd.Defaults())
		h := cl.AddHost("alpha")
		srv := h.NewProcess("server", 0)
		cli := h.NewProcess("client", 1000)

		srv.Go("main", func(t2 *sd.T) {
			ln, err := t2.Listen(80)
			if err != nil {
				t.Errorf("listen: %v", err)
				return
			}
			c, err := ln.Accept()
			if err != nil {
				t.Errorf("accept: %v", err)
				return
			}
			buf := make([]byte, 64)
			n, err := c.Recv(buf)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			c.Send(bytes.ToUpper(buf[:n]))
		})
		var got string
		cli.Go("main", func(t2 *sd.T) {
			t2.Sleep(10 * sd.Microsecond)
			c, err := t2.Dial("alpha", 80)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			if c.Fallback() {
				t.Error("intra-host dial took the fallback path")
			}
			c.Send([]byte("quickstart"))
			buf := make([]byte, 64)
			n, _ := c.Recv(buf)
			got = string(buf[:n])
			c.Close()
		})
		end := cl.Run()
		if got != "QUICKSTART" {
			t.Fatalf("got %q", got)
		}
		return end
	}
	first, second := quickstart(), quickstart()
	if first <= 0 || first != second {
		t.Fatalf("Run() = %d then %d, want the same positive virtual time", first, second)
	}
}

func TestPublicAPIInterHostAndZeroCopy(t *testing.T) {
	cl := sd.NewCluster(sd.Defaults())
	a := cl.AddHost("alpha")
	b := cl.AddHost("beta")
	sd.PeerMonitors(a, b)
	srv := b.NewProcess("server", 0)
	cli := a.NewProcess("client", 0)

	const n = 64 * 1024
	payload := bytes.Repeat([]byte("zeta"), n/4)
	var got []byte
	srv.Go("main", func(t2 *sd.T) {
		ln, _ := t2.Listen(90)
		c, err := ln.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		dst := t2.Alloc(n)
		rec := 0
		for rec < n {
			m, err := c.RecvVA(dst+mem.VAddr(rec), n-rec)
			if err != nil {
				t.Errorf("recvVA: %v", err)
				return
			}
			rec += m
		}
		got = make([]byte, n)
		t2.ReadMem(dst, got)
	})
	cli.Go("main", func(t2 *sd.T) {
		t2.Sleep(10 * sd.Microsecond)
		c, err := t2.Dial("beta", 90)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		src := t2.Alloc(n)
		t2.WriteMem(src, payload)
		if _, err := c.SendVA(src, n); err != nil {
			t.Errorf("sendVA: %v", err)
		}
	})
	cl.Run()
	if !bytes.Equal(got, payload) {
		t.Fatal("inter-host zero copy corrupted payload")
	}
}

func TestPublicAPIForkAndLegacyPeer(t *testing.T) {
	cl := sd.NewCluster(sd.Defaults())
	a := cl.AddHost("alpha")
	legacy := cl.AddLegacyHost("oldbox")

	// Legacy kernel TCP server.
	kl, err := legacy.KS.Listen(700)
	if err != nil {
		t.Fatal(err)
	}
	lp := legacy.H.NewProcess("legacy", 0)
	lp.Spawn("srv", func(ctx exec.Context, _ *host.Thread) {
		c, err := kl.Accept(ctx)
		if err != nil {
			return
		}
		buf := make([]byte, 16)
		n, _ := c.Recv(ctx, buf)
		c.Send(ctx, buf[:n])
	})

	cli := a.NewProcess("client", 0)
	var echoed string
	var forkOK bool
	cli.Go("main", func(t2 *sd.T) {
		// Fallback dial to the legacy box.
		c, err := t2.Dial("oldbox", 700)
		if err != nil {
			t.Errorf("dial legacy: %v", err)
			return
		}
		if !c.Fallback() {
			t.Error("dial to monitor-less host did not fall back")
		}
		c.Send([]byte("old"))
		buf := make([]byte, 16)
		n, _ := c.Recv(buf)
		echoed = string(buf[:n])

		// Fork through the public API.
		child, err := t2.Fork("child")
		if err != nil {
			t.Errorf("fork: %v", err)
			return
		}
		done := false
		child.Go("cmain", func(t3 *sd.T) {
			forkOK = t3.Pr.P.Parent != nil
			done = true
		})
		for !done {
			t2.Yield()
		}
	})
	cl.Run()
	if echoed != "old" {
		t.Fatalf("legacy echo got %q", echoed)
	}
	if !forkOK {
		t.Fatal("fork bookkeeping broken")
	}
}
