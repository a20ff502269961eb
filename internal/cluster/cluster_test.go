package cluster

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"ppm/internal/machine"
	"ppm/internal/vtime"
)

func genericCfg(procs, perNode int) Config {
	return Config{Procs: procs, ProcsPerNode: perNode, Machine: machine.Generic()}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Procs: 0, ProcsPerNode: 1}, func(p *Proc) {}); err == nil {
		t.Error("Procs=0 accepted")
	}
	if _, err := Run(Config{Procs: 1, ProcsPerNode: 0}, func(p *Proc) {}); err == nil {
		t.Error("ProcsPerNode=0 accepted")
	}
	bad := machine.Generic()
	bad.FlopRate = -1
	if _, err := Run(Config{Procs: 1, ProcsPerNode: 1, Machine: bad}, func(p *Proc) {}); err == nil {
		t.Error("invalid machine accepted")
	}
}

func TestTopology(t *testing.T) {
	seen := make([]string, 6)
	_, err := Run(genericCfg(6, 2), func(p *Proc) {
		seen[p.Rank()] = fmt.Sprintf("n%d r%d/%d nr%d", p.Node(), p.Rank(), p.Procs(), p.NodeRank())
		if p.Nodes() != 3 {
			panic("Nodes() wrong")
		}
		if p.ProcsPerNode() != 2 {
			panic("ProcsPerNode() wrong")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"n0 r0/6 nr0", "n0 r1/6 nr1", "n1 r2/6 nr0", "n1 r3/6 nr1", "n2 r4/6 nr0", "n2 r5/6 nr1"}
	for i := range want {
		if seen[i] != want[i] {
			t.Errorf("rank %d: got %q, want %q", i, seen[i], want[i])
		}
	}
}

func TestRaggedLastNode(t *testing.T) {
	rep, err := Run(genericCfg(5, 2), func(p *Proc) {})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nodes != 3 {
		t.Errorf("Nodes = %d, want 3", rep.Nodes)
	}
}

func TestChargeAdvancesClock(t *testing.T) {
	rep, err := Run(genericCfg(1, 1), func(p *Proc) {
		p.Charge(0.5)
		p.ChargeFlops(1e9) // 1s on Generic
		p.ChargeMem(1e10)  // 1s on Generic
		if got := p.Clock(); math.Abs(got.Seconds()-2.5) > 1e-12 {
			panic(fmt.Sprintf("clock = %v, want 2.5s", got))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Makespan.Seconds()-2.5) > 1e-12 {
		t.Errorf("makespan = %v, want 2.5s", rep.Makespan)
	}
	if math.Abs(rep.Totals.ComputeTime.Seconds()-2.5) > 1e-12 {
		t.Errorf("compute total = %v, want 2.5s", rep.Totals.ComputeTime)
	}
}

func TestNegativeChargePanicsIntoError(t *testing.T) {
	_, err := Run(genericCfg(1, 1), func(p *Proc) { p.Charge(-1) })
	if err == nil || !strings.Contains(err.Error(), "negative duration") {
		t.Errorf("expected negative-duration error, got %v", err)
	}
}

func TestSendRecvInterNodeCost(t *testing.T) {
	m := machine.Generic() // o=1us, L=1us, BW=1e9, header=0, recv o=1us
	var recvClock vtime.Time
	_, err := Run(Config{Procs: 2, ProcsPerNode: 1, Machine: m}, func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Send(1, 7, "hello", 1000) // wire = 1us
			// Sender pays only its overhead.
			if got := p.Clock().Seconds(); math.Abs(got-1e-6) > 1e-15 {
				panic(fmt.Sprintf("sender clock %v, want 1us", got))
			}
		case 1:
			msg := p.Recv(0, 7)
			if msg.Payload.(string) != "hello" || msg.Src != 0 || msg.Bytes != 1000 {
				panic("bad message")
			}
			recvClock = p.Clock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// arrival = send o (1us) + wire (1us) + L (1us) = 3us; + recv o = 4us.
	if got := recvClock.Seconds(); math.Abs(got-4e-6) > 1e-15 {
		t.Errorf("receiver clock = %v, want 4us", got)
	}
}

func TestSendRecvIntraNodeCheaper(t *testing.T) {
	m := machine.Generic()
	var interClock, intraClock vtime.Time
	_, err := Run(Config{Procs: 2, ProcsPerNode: 1, Machine: m}, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 0, nil, 1000)
		} else {
			p.Recv(0, 0)
			interClock = p.Clock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(Config{Procs: 2, ProcsPerNode: 2, Machine: m}, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 0, nil, 1000)
		} else {
			p.Recv(0, 0)
			intraClock = p.Clock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !intraClock.Before(interClock) {
		t.Errorf("intra-node message (%v) should be cheaper than inter-node (%v)", intraClock, interClock)
	}
}

func TestNICSerialization(t *testing.T) {
	// Two sends back to back from one rank occupy the NIC sequentially:
	// receiver sees second arrival after first wire time completes.
	m := machine.Generic()
	m.SendOverhead = 0
	m.RecvOverhead = 0
	m.NetLatency = 0
	var second vtime.Time
	_, err := Run(Config{Procs: 2, ProcsPerNode: 1, Machine: m}, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 0, nil, 1000) // 1us wire
			p.Send(1, 0, nil, 1000) // queued behind -> arrives at 2us
		} else {
			p.Recv(0, 0)
			p.Recv(0, 0)
			second = p.Clock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := second.Seconds(); math.Abs(got-2e-6) > 1e-15 {
		t.Errorf("second arrival = %v, want 2us (NIC serialized)", got)
	}
}

func TestRecvNonOvertakingSameSource(t *testing.T) {
	var order []int
	_, err := Run(genericCfg(2, 1), func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 5, 1, 8)
			p.Send(1, 5, 2, 8)
			p.Send(1, 5, 3, 8)
		} else {
			for i := 0; i < 3; i++ {
				order = append(order, p.Recv(0, 5).Payload.(int))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[1 2 3]" {
		t.Errorf("messages overtook: %v", order)
	}
}

func TestRecvByTagSelects(t *testing.T) {
	var got []int
	_, err := Run(genericCfg(2, 1), func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 1, 100, 8)
			p.Send(1, 2, 200, 8)
		} else {
			got = append(got, p.Recv(0, 2).Payload.(int))
			got = append(got, p.Recv(0, 1).Payload.(int))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[200 100]" {
		t.Errorf("tag matching wrong: %v", got)
	}
}

func TestAnySourceDeterministic(t *testing.T) {
	run := func() []int {
		var got []int
		_, err := Run(genericCfg(4, 1), func(p *Proc) {
			if p.Rank() == 0 {
				for i := 0; i < 3; i++ {
					got = append(got, p.Recv(AnySource, AnyTag).Src)
				}
			} else {
				p.Charge(vtime.Duration(float64(4-p.Rank()) * 1e-6)) // stagger
				p.Send(0, 9, nil, 8)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("AnySource nondeterministic: %v vs %v", a, b)
	}
}

func TestTryRecv(t *testing.T) {
	_, err := Run(genericCfg(2, 1), func(p *Proc) {
		if p.Rank() == 0 {
			if m := p.TryRecv(AnySource, AnyTag); m != nil {
				panic("TryRecv returned a message before any send")
			}
			p.Recv(1, 1) // force ordering: wait for the real one
			if m := p.TryRecv(1, 2); m == nil || m.Payload.(int) != 42 {
				panic("TryRecv missed queued message")
			}
		} else {
			p.Send(0, 2, 42, 8)
			p.Send(0, 1, 0, 8)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	m := machine.Generic()
	clocks := make([]vtime.Time, 4)
	_, err := Run(Config{Procs: 4, ProcsPerNode: 1, Machine: m}, func(p *Proc) {
		p.Charge(vtime.Duration(float64(p.Rank()+1) * 0.001)) // 1..4ms
		p.Barrier()
		clocks[p.Rank()] = p.Clock()
	})
	if err != nil {
		t.Fatal(err)
	}
	want := vtime.Time(0.004).Add(m.BarrierTime(4))
	for r, c := range clocks {
		if math.Abs(c.Seconds()-want.Seconds()) > 1e-12 {
			t.Errorf("rank %d clock after barrier = %v, want %v", r, c, want)
		}
	}
}

func TestRepeatedBarriers(t *testing.T) {
	rep, err := Run(genericCfg(3, 1), func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Totals.Barriers != 30 {
		t.Errorf("barrier count = %d, want 30", rep.Totals.Barriers)
	}
}

func TestBarrierWithFinishedProcs(t *testing.T) {
	// Rank 2 exits immediately; the others' barrier must still release.
	_, err := Run(genericCfg(3, 1), func(p *Proc) {
		if p.Rank() == 2 {
			return
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	_, err := Run(genericCfg(2, 1), func(p *Proc) {
		p.Recv(1-p.Rank(), 0) // both wait, nobody sends
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("expected deadlock error, got %v", err)
	}
}

func TestBarrierRecvMixDeadlock(t *testing.T) {
	_, err := Run(genericCfg(2, 1), func(p *Proc) {
		if p.Rank() == 0 {
			p.Barrier()
		} else {
			p.Recv(0, 0)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("expected deadlock error, got %v", err)
	}
}

func TestPanicPropagatesAndTearsDown(t *testing.T) {
	_, err := Run(genericCfg(4, 1), func(p *Proc) {
		if p.Rank() == 2 {
			panic("boom")
		}
		p.Barrier()
	})
	if err == nil || !strings.Contains(err.Error(), "rank 2 panicked: boom") {
		t.Errorf("expected rank-2 panic error, got %v", err)
	}
}

func TestSendInvalidRank(t *testing.T) {
	_, err := Run(genericCfg(1, 1), func(p *Proc) { p.Send(5, 0, nil, 0) })
	if err == nil || !strings.Contains(err.Error(), "invalid rank") {
		t.Errorf("expected invalid-rank error, got %v", err)
	}
}

func TestSendNegativeBytes(t *testing.T) {
	_, err := Run(genericCfg(2, 1), func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 0, nil, -1)
		} else {
			p.Recv(0, 0)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "negative bytes") {
		t.Errorf("expected negative-bytes error, got %v", err)
	}
}

func TestStatsCounting(t *testing.T) {
	rep, err := Run(genericCfg(2, 2), func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 0, nil, 100)
			p.Send(1, 0, nil, 200)
		} else {
			p.Recv(0, 0)
			p.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Totals.MsgsSent != 2 || rep.Totals.MsgsRecvd != 2 {
		t.Errorf("msg counts: %+v", rep.Totals)
	}
	if rep.Totals.BytesSent != 300 || rep.Totals.BytesRecvd != 300 {
		t.Errorf("byte counts: %+v", rep.Totals)
	}
	if rep.Totals.IntraMsgsSent != 2 {
		t.Errorf("intra count = %d, want 2", rep.Totals.IntraMsgsSent)
	}
}

func TestDeterministicMakespan(t *testing.T) {
	run := func() *Report {
		rep, err := Run(genericCfg(8, 2), func(p *Proc) {
			for i := 0; i < 5; i++ {
				p.Charge(vtime.Duration(float64(p.Rank()%3) * 1e-5))
				next := (p.Rank() + 1) % p.Procs()
				prev := (p.Rank() + p.Procs() - 1) % p.Procs()
				p.Send(next, i, p.Rank(), 64)
				p.Recv(prev, i)
				p.Barrier()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan {
		t.Errorf("nondeterministic makespan: %v vs %v", a.Makespan, b.Makespan)
	}
	for i := range a.FinalClocks {
		if a.FinalClocks[i] != b.FinalClocks[i] {
			t.Errorf("rank %d final clock differs: %v vs %v", i, a.FinalClocks[i], b.FinalClocks[i])
		}
	}
	if a.String() != b.String() {
		t.Errorf("report strings differ:\n%s\n%s", a, b)
	}
}

func TestYieldKeepsProgress(t *testing.T) {
	_, err := Run(genericCfg(2, 1), func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Yield()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAdvanceToOnlyForward(t *testing.T) {
	_, err := Run(genericCfg(1, 1), func(p *Proc) {
		p.Charge(1)
		p.AdvanceTo(0.5) // no-op
		if p.Clock() != 1 {
			panic("AdvanceTo moved clock backwards")
		}
		p.AdvanceTo(2)
		if p.Clock() != 2 {
			panic("AdvanceTo did not move forward")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNICAcquireVisibleAcrossRanksOnNode(t *testing.T) {
	// Two ranks on one node share the NIC resource.
	var done vtime.Time
	_, err := Run(genericCfg(2, 2), func(p *Proc) {
		if p.Rank() == 0 {
			p.NICAcquire(0, 0.001)
		}
		p.Barrier()
		if p.Rank() == 1 {
			done = p.NICAcquire(0, 0.001)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(done.Seconds()-0.002) > 1e-12 {
		t.Errorf("shared NIC completion = %v, want 2ms", done)
	}
}

func TestManyProcsPingPong(t *testing.T) {
	const P = 64
	rep, err := Run(genericCfg(P, 4), func(p *Proc) {
		partner := p.Rank() ^ 1
		for i := 0; i < 20; i++ {
			if p.Rank()%2 == 0 {
				p.Send(partner, i, i, 32)
				p.Recv(partner, i)
			} else {
				p.Recv(partner, i)
				p.Send(partner, i, i, 32)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Totals.MsgsSent != P*20 {
		t.Errorf("messages = %d, want %d", rep.Totals.MsgsSent, P*20)
	}
}
