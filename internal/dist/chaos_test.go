package dist

import (
	"os"
	"strings"
	"testing"
	"time"

	"ppm/internal/apps/cg"
	"ppm/internal/apps/jacobi"
	"ppm/internal/apps/scatter"
)

// End-to-end fault tolerance over real processes: ppm-node fleets with
// injected faults, supervised by LaunchLocal. The two headline scenarios
// — kill-and-recover-from-checkpoint and partition-detected-fast — run in
// every test invocation; the full fault matrix is the `make chaos` job
// (PPM_CHAOS=1), since it forks a few dozen fleets.

// detectorArgs makes the failure detector and op deadlines fast enough
// for tests without changing any semantics.
var detectorArgs = []string{"-hb-interval", "100ms", "-hb-timeout", "2s", "-op-timeout", "5s"}

// TestSubprocessKillRecoveryJacobi is the ISSUE's acceptance scenario: a
// real rank process dies (os.Exit at the phase-5 commit boundary), the
// supervisor relaunches the fleet with -restore, the new fleet resumes
// from the last common checkpoint — and the final output and counters
// are bit-identical to a fault-free run.
func TestSubprocessKillRecoveryJacobi(t *testing.T) {
	if nodeBin == "" {
		t.Fatal("ppm-node binary was not built; see TestMain output")
	}
	prm := jacobi.Params{NX: 10, NY: 6, NZ: 4, Sweeps: 8}
	want, wrep, err := jacobi.RunPPM(distOpt(2), prm)
	if err != nil {
		t.Fatal(err)
	}

	restarts := 0
	results, err := LaunchLocal(LaunchOpts{
		Nodes:   2,
		NodeBin: nodeBin,
		NodeArgs: append([]string{"-app", "jacobi", "-cores", "2",
			"-jacobi-grid", "10x6x4", "-jacobi-sweeps", "8"}, detectorArgs...),
		Env:             []string{"PPM_FAULT=kill=1@phase:5"},
		MaxRestarts:     2,
		CheckpointDir:   t.TempDir(),
		CheckpointEvery: 2,
		Stderr:          nopWriter{}, // the killed rank and its survivors complain on purpose
		OnRestart:       func(int, error) { restarts++ },
	})
	if err != nil {
		t.Fatalf("supervised launch did not recover: %v", err)
	}
	if restarts == 0 {
		t.Fatal("fleet succeeded without restarting — the kill fault never fired")
	}
	m, err := Merge(AppSpec{App: "jacobi", Jacobi: prm}, results)
	if err != nil {
		t.Fatal(err)
	}
	sameF64(t, "u (recovered run)", m.Jacobi, want)
	samePerNode(t, m.PerNode, wrep.PerNode)
}

// TestSubprocessPartitionAbortsFast partitions a real fleet mid-run and
// checks the failure detector — not the 120s launcher watchdog — is what
// ends it, with an error naming the unresponsive peer.
func TestSubprocessPartitionAbortsFast(t *testing.T) {
	if nodeBin == "" {
		t.Fatal("ppm-node binary was not built; see TestMain output")
	}
	start := time.Now()
	_, err := LaunchLocal(LaunchOpts{
		Nodes:   2,
		NodeBin: nodeBin,
		NodeArgs: append([]string{"-app", "jacobi", "-cores", "2",
			"-jacobi-grid", "10x6x4", "-jacobi-sweeps", "8"}, detectorArgs...),
		Env:    []string{"PPM_FAULT=partition=0|1@phase:3"},
		Stderr: nopWriter{},
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("partitioned fleet reported success")
	}
	if elapsed > 60*time.Second {
		t.Fatalf("partition took %v to surface — that is watchdog territory, not the detector", elapsed)
	}
	if !strings.Contains(err.Error(), "unresponsive") {
		t.Errorf("launch error does not carry the detector's diagnosis:\n%v", err)
	}
	if !strings.Contains(err.Error(), "rank") {
		t.Errorf("launch error does not name a rank:\n%v", err)
	}
}

// TestChaosMatrix is the seeded fault matrix behind `make chaos`
// (PPM_CHAOS=1): every fault class against three checkpoint-aware apps
// (jacobi, whose tag is the sweep count, cg, whose tag is the iteration
// count, and scatter, whose tag is the phase count — a kill recovery
// resumes each from the last common checkpoint). jacobi and cg write
// owner-locally, so their commit streams are empty; scatter is the app
// whose faults land on CommitData frames. Benign faults (delay, dup)
// and recoverable ones (kill, and killhost once the supervisor rescales
// the dead host away) must end bit-identical to the simulator; lossy
// ones (drop, trunc, partition) must end in a clean, attributed error
// well before the watchdog.
func TestChaosMatrix(t *testing.T) {
	if os.Getenv("PPM_CHAOS") == "" {
		t.Skip("set PPM_CHAOS=1 (or run `make chaos`) for the full fault matrix")
	}
	if nodeBin == "" {
		t.Fatal("ppm-node binary was not built; see TestMain output")
	}
	faults := []struct {
		name    string
		spec    string
		recover bool     // expect bit-identical completion (possibly via restart)
		rescale bool     // give the supervisor a per-rank budget and a floor below Nodes
		args    []string // extra per-node flags (wire tuning)
	}{
		{"delay", "seed=3; delay=0.2:2ms", true, false, nil},
		{"dup", "seed=5; dup=0.3", true, false, nil},
		{"drop", "seed=7; drop=0.4", false, false, nil},
		{"trunc", "seed=9; trunc=0.5", false, false, nil},
		{"partition", "partition=0|1@phase:2", false, false, nil},
		{"kill", "kill=1@phase:3", true, false, nil},
		// Permanent host death: the one-shot relaunch dies the same way,
		// so recovery REQUIRES the rescale path — both ranks finish on
		// the surviving host process.
		{"killhost-rescale", "killhost=1@phase:3", true, true, nil},
		{"killhost-early-rescale", "killhost=1@phase:1", true, true, nil},
		// Wire-tuning interactions: truncation hits post-codec frames, so
		// a delta-encoded fleet must fail just as cleanly (a corrupt
		// delta stream is a decode error, never a wrong answer).
		{"trunc-delta", "seed=9; trunc=0.5", false, false, []string{"-wire-codec", "delta"}},
		{"dup-delta", "seed=5; dup=0.3", true, false, []string{"-wire-codec", "delta"}},
		{"killhost-rescale-delta", "killhost=1@phase:3", true, true, []string{"-wire-codec", "delta"}},
		// Both apps run one Do per iteration, so from the third phase on
		// every phase replays a plan and opens with the vectored prefetch:
		// frame faults armed from there hit its request and its one
		// many-range reply. A lost or cut reply must end in an attributed
		// error (op deadline, or the reply length check), a duplicated one
		// must be ignored; none may hang or install a wrong byte.
		{"drop-warm-prefetch", "seed=7; drop=0.4@phase:3", false, false, nil},
		{"dup-warm-prefetch", "seed=5; dup=0.3@phase:3", true, false, nil},
		{"trunc-warm-prefetch", "seed=9; trunc=0.5@phase:3", false, false, nil},
	}
	for _, app := range []string{"jacobi", "cg", "scatter"} {
		for _, f := range faults {
			t.Run(app+"/"+f.name, func(t *testing.T) {
				runChaosCase(t, app, f.spec, f.recover, f.rescale, f.args)
			})
		}
	}
}

func runChaosCase(t *testing.T, app, spec string, expectRecover, rescale bool, extraArgs []string) {
	t.Helper()
	opts := LaunchOpts{
		Nodes:   2,
		NodeBin: nodeBin,
		Env:     []string{"PPM_FAULT=" + spec},
		Stderr:  nopWriter{},
	}
	var appSpec AppSpec
	switch app {
	case "jacobi":
		prm := jacobi.Params{NX: 10, NY: 6, NZ: 4, Sweeps: 6}
		appSpec = AppSpec{App: "jacobi", Jacobi: prm}
		opts.NodeArgs = append([]string{"-app", "jacobi", "-cores", "2",
			"-jacobi-grid", "10x6x4", "-jacobi-sweeps", "6"}, detectorArgs...)
	case "cg":
		prm := cg.Params{NX: 8, NY: 8, NZ: 8, MaxIter: 6}
		appSpec = AppSpec{App: "cg", CG: prm}
		opts.NodeArgs = append([]string{"-app", "cg", "-cores", "2",
			"-cg-grid", "8x8x8", "-cg-iters", "6"}, detectorArgs...)
	case "scatter":
		// Six phases, so the faults armed from phase 3 have streams to hit.
		prm := scatter.Params{N: 3000, VPs: 6, Iters: 6, Seed: 7}
		appSpec = AppSpec{App: "scatter", Scatter: prm}
		opts.NodeArgs = append([]string{"-app", "scatter", "-cores", "2", "-scatter-n", "3000",
			"-scatter-vps", "6", "-scatter-iters", "6", "-scatter-seed", "7"}, detectorArgs...)
	}
	opts.NodeArgs = append(opts.NodeArgs, extraArgs...)
	if expectRecover {
		opts.MaxRestarts = 2
		opts.CheckpointDir = t.TempDir()
		opts.CheckpointEvery = 2
	}
	if rescale {
		// A permanently dead host needs one more attempt (die, die
		// again, finish rescaled) and permission to shrink to one host
		// process carrying both ranks.
		opts.MaxRestarts = 3
		opts.PerRankRestarts = 2
		opts.MinNodes = 1
	}

	start := time.Now()
	results, err := LaunchLocal(opts)
	elapsed := time.Since(start)

	if !expectRecover {
		if err == nil {
			t.Fatalf("%s under %q reported success; expected a clean abort", app, spec)
		}
		if elapsed > 60*time.Second {
			t.Fatalf("abort took %v — the detector/deadlines did not fire", elapsed)
		}
		if !strings.Contains(err.Error(), "rank") {
			t.Errorf("abort is not attributed to a rank:\n%v", err)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s under %q did not recover: %v", app, spec, err)
	}
	m, err := Merge(appSpec, results)
	if err != nil {
		t.Fatal(err)
	}
	want, wstats := simReference(t, 2, appSpec)
	sameAppOutput(t, appSpec, m, want)
	samePerNode(t, m.PerNode, wstats)
}
