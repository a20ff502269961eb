package faultinject

import (
	"io"
	"strings"
	"testing"
	"time"
)

func TestParseFullSpec(t *testing.T) {
	spec := "seed=7; drop=0.1; delay=0.2:5ms@phase:3; dup=0.05; trunc=0.01@phase:2; sever=1@phase:4; partition=0|1,2@phase:5; kill=2@phase:6"
	pl, err := ParseHost(spec, 0, 0, 0)
	if err != nil {
		t.Fatalf("ParseHost: %v", err)
	}
	if pl.seed != 7 {
		t.Errorf("seed = %d, want 7", pl.seed)
	}
	if len(pl.rules) != 4 {
		t.Fatalf("got %d frame rules, want 4", len(pl.rules))
	}
	if pl.rules[1].kind != ruleDelay || pl.rules[1].d != 5*time.Millisecond || pl.rules[1].fromPhase != 3 {
		t.Errorf("delay rule = %+v", pl.rules[1])
	}
	if got := pl.SeverNow(4); len(got) != 1 || got[0] != 1 {
		t.Errorf("SeverNow(4) = %v, want [1]", got)
	}
	// Rank 0 is on side A of the partition; ranks 1 and 2 are far.
	pl.SetPhase(5)
	if !pl.blackholed(1) || !pl.blackholed(2) {
		t.Error("ranks 1,2 should be blackholed for rank 0 at phase 5")
	}
	// Rank 0 is not the kill victim.
	if pl.KillNow(6) {
		t.Error("rank 0 must not be killed by kill=2")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"drop",              // no =
		"drop=1.5",          // probability out of range
		"drop=x",            // not a number
		"delay=0.5",         // missing duration
		"delay=0.5:-3ms",    // negative duration
		"drop=0.5@phase:-1", // negative phase
		"drop=0.5@after:3",  // bad suffix
		"sever=x",           // bad rank
		"partition=0,1",     // missing |
		"partition=|1",      // empty side
		"kill=-2",           // negative rank
		"seed=abc",          // bad seed
		"explode=1",         // unknown key
	}
	for _, spec := range bad {
		if _, err := ParseHost(spec, 0, 0, 0); err == nil {
			t.Errorf("ParseHost(%q) succeeded, want error", spec)
		} else if !strings.Contains(err.Error(), "faultinject:") {
			t.Errorf("ParseHost(%q) error %q lacks package prefix", spec, err)
		}
	}
}

func TestKillTargetsOnlyNamedRank(t *testing.T) {
	for rank := 0; rank < 3; rank++ {
		pl, err := ParseHost("kill=1@phase:5", rank, rank, 0)
		if err != nil {
			t.Fatalf("ParseHost: %v", err)
		}
		want := rank == 1
		if got := pl.KillNow(5); got != want {
			t.Errorf("rank %d KillNow(5) = %v, want %v", rank, got, want)
		}
		if pl.KillNow(4) || pl.KillNow(6) {
			t.Errorf("rank %d kill fired at wrong phase", rank)
		}
	}
}

func TestOneShotsDisarmedOnRelaunch(t *testing.T) {
	// attempt > 0 means the supervisor relaunched the fleet; the fault
	// that killed attempt 0 must not fire again or recovery can't work.
	pl, err := ParseHost("kill=1@phase:5; sever=0@phase:2; partition=0|1@phase:3", 1, 1, 1)
	if err != nil {
		t.Fatalf("ParseHost: %v", err)
	}
	if pl.KillNow(5) {
		t.Error("kill re-armed on attempt 1")
	}
	if got := pl.SeverNow(2); len(got) != 0 {
		t.Errorf("sever re-armed on attempt 1: %v", got)
	}
	pl.SetPhase(10)
	if pl.blackholed(0) {
		t.Error("partition re-armed on attempt 1")
	}
}

func TestSeverOnVictimRankMeansAllPeers(t *testing.T) {
	pl, err := ParseHost("sever=2@phase:1", 2, 2, 0)
	if err != nil {
		t.Fatalf("ParseHost: %v", err)
	}
	if got := pl.SeverNow(1); len(got) != 1 || got[0] != -1 {
		t.Errorf("victim's SeverNow = %v, want [-1] (all peers)", got)
	}
}

func TestPartitionSidesAndBystanders(t *testing.T) {
	// Rank 2 is in neither set: it must keep talking to everyone.
	pl, err := ParseHost("partition=0|1", 2, 2, 0)
	if err != nil {
		t.Fatalf("ParseHost: %v", err)
	}
	pl.SetPhase(0)
	if pl.blackholed(0) || pl.blackholed(1) {
		t.Error("bystander rank 2 should not blackhole anyone")
	}
	// Before the arming phase, even partition members talk freely.
	pl0, _ := ParseHost("partition=0|1@phase:4", 0, 0, 0)
	pl0.SetPhase(3)
	if pl0.blackholed(1) {
		t.Error("partition fired before its arming phase")
	}
	pl0.SetPhase(4)
	if !pl0.blackholed(1) {
		t.Error("partition did not fire at its arming phase")
	}
	if pl0.blackholed(0) {
		t.Error("rank 0 blackholed itself")
	}
}

func TestFrameDecisionsDeterministic(t *testing.T) {
	draw := func() []frameFault {
		pl, err := ParseHost("seed=42; drop=0.3; dup=0.2; delay=0.1:1ms", 1, 1, 0)
		if err != nil {
			t.Fatalf("ParseHost: %v", err)
		}
		w := writer(pl, 0)
		var out []frameFault
		for i := 0; i < 200; i++ {
			out = append(out, w.frame())
		}
		return out
	}
	a, b := draw(), draw()
	var drops int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("frame %d: %+v != %+v — replay diverged", i, a[i], b[i])
		}
		if a[i].drop {
			drops++
		}
	}
	// 200 draws at p=0.3: distribution sanity, not exactness.
	if drops < 20 || drops > 120 {
		t.Errorf("got %d drops of 200 at p=0.3 — rng stream looks broken", drops)
	}
}

func TestFrameStreamsIndependentPerPeer(t *testing.T) {
	pl, _ := ParseHost("seed=9; drop=0.5", 0, 0, 0)
	pl2, _ := ParseHost("seed=9; drop=0.5", 0, 0, 0)
	// Interleaving draws to different peers must not perturb either
	// peer's own stream.
	w1, w2, again := writer(pl, 1), writer(pl, 2), writer(pl2, 1)
	var to1 []frameFault
	for i := 0; i < 50; i++ {
		to1 = append(to1, w1.frame())
		w2.frame()
	}
	for i := 0; i < 50; i++ {
		if got := again.frame(); got != to1[i] {
			t.Fatalf("draw %d to peer 1 diverged when peer 2 traffic interleaved", i)
		}
	}
}

// writer is pl's fault writer toward dst, its output discarded.
func writer(pl *Plan, dst int) *faultWriter { return pl.Writer(dst, io.Discard).(*faultWriter) }

func TestFrameRespectsArmingPhase(t *testing.T) {
	pl, _ := ParseHost("drop=1@phase:5", 0, 0, 0)
	w := writer(pl, 1)
	pl.SetPhase(4)
	if f := w.frame(); f.drop {
		t.Error("drop fired before arming phase")
	}
	pl.SetPhase(5)
	if f := w.frame(); !f.drop {
		t.Error("drop=1 did not fire at arming phase")
	}
}

func TestFromEnvUnset(t *testing.T) {
	t.Setenv("PPM_FAULT", "")
	pl, err := FromEnvHost(3, 3)
	if pl != nil || err != nil {
		t.Fatalf("FromEnvHost with no spec = (%v, %v), want (nil, nil)", pl, err)
	}
}

func TestFromEnvAttempt(t *testing.T) {
	t.Setenv("PPM_FAULT", "kill=0@phase:1")
	t.Setenv("PPM_FAULT_ATTEMPT", "2")
	pl, err := FromEnvHost(0, 0)
	if err != nil {
		t.Fatalf("FromEnvHost: %v", err)
	}
	if pl.KillNow(1) {
		t.Error("kill armed despite PPM_FAULT_ATTEMPT=2")
	}
	t.Setenv("PPM_FAULT_ATTEMPT", "bogus")
	if _, err := FromEnvHost(0, 0); err == nil {
		t.Error("bad PPM_FAULT_ATTEMPT accepted")
	}
}

func TestKillhostTargetsOnlyNamedProc(t *testing.T) {
	// killhost keys on the HOST PROCESS index, not the logical rank: a
	// rescaled fleet hosts several ranks per process, and the fault must
	// follow the process that "is" the dead machine.
	for proc := 0; proc < 3; proc++ {
		pl, err := ParseHost("killhost=1@phase:4", 0, proc, 0)
		if err != nil {
			t.Fatalf("ParseHost: %v", err)
		}
		want := proc == 1
		if got := pl.KillNow(4); got != want {
			t.Errorf("proc %d KillNow(4) = %v, want %v", proc, got, want)
		}
		if pl.KillNow(3) || pl.KillNow(5) {
			t.Errorf("proc %d killhost fired at wrong phase", proc)
		}
	}
}

func TestKillhostRearmsOnEveryAttempt(t *testing.T) {
	// Unlike kill (a one-shot crash the relaunch survives), killhost
	// models a permanently dead machine: every attempt that schedules a
	// process with the doomed index dies again, until the supervisor
	// rescales the fleet so no process carries that index.
	for attempt := 0; attempt < 3; attempt++ {
		pl, err := ParseHost("killhost=1@phase:4", 0, 1, attempt)
		if err != nil {
			t.Fatalf("ParseHost(attempt=%d): %v", attempt, err)
		}
		if !pl.KillNow(4) {
			t.Errorf("killhost disarmed on attempt %d; a dead host must stay dead", attempt)
		}
	}
}

func TestKillhostParseErrors(t *testing.T) {
	for _, spec := range []string{"killhost=-1", "killhost=x", "killhost="} {
		if _, err := ParseHost(spec, 0, 0, 0); err == nil {
			t.Errorf("ParseHost(%q) accepted a bad proc index", spec)
		}
	}
}

func TestKillStillKeysOnRankUnderHosting(t *testing.T) {
	// A rescaled process hosts rank 2 as proc 1; kill=2 must follow the
	// rank, killhost=1 the proc — the two addressing schemes coexist.
	pl, err := ParseHost("kill=2@phase:6", 2, 1, 0)
	if err != nil {
		t.Fatalf("ParseHost: %v", err)
	}
	if !pl.KillNow(6) {
		t.Error("kill=2 did not fire for rank 2 hosted on proc 1")
	}
	pl2, err := ParseHost("kill=1@phase:6", 2, 1, 0)
	if err != nil {
		t.Fatalf("ParseHost: %v", err)
	}
	if pl2.KillNow(6) {
		t.Error("kill=1 fired for rank 2 just because its proc index is 1")
	}
}
