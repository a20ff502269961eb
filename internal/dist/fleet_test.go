package dist

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// fakeNode writes a shell script that stands in for ppm-node: it learns
// its first rank from the -rank StartHost puts first, reads the job line
// when run with -serve (job id J; a one-shot job has the empty id), runs
// body with reply R [,"Err":...] at hand, and then idles like a serving
// host until stdin closes.
func fakeNode(t *testing.T, body string) string {
	t.Helper()
	script := `#!/bin/sh
rank=$2
id=
case " $* " in *" -serve "*) read job; id=J;; esac
reply() { echo "{\"id\":\"$id\",\"done\":true,\"result\":{\"Rank\":$1$2}}"; }
` + body + `
case " $* " in *" -serve "*) exec cat >/dev/null;; esac
exit 0
`
	path := filepath.Join(t.TempDir(), "fake-node")
	if err := os.WriteFile(path, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	return path
}

// The collector's checks, on one-shot and serving hosts alike: replies
// for another job are ignored, progress reaches onPhase, a second
// terminal reply for a rank is ignored, a reply for a rank the host does
// not host or without a result fails the attempt, a host whose reply
// does not decode is killed, and a host is a suspect when it dies
// without a reply, not when it exits after replying with an error.
func TestFleetCollector(t *testing.T) {
	cases := []struct {
		name     string
		procs    int // host processes for 2 logical ranks
		body     string
		want     []string // error lines; none: the job succeeds
		suspects []int
		stop     bool
	}{{
		name:  "duplicate reply",
		procs: 1,
		body: `echo '{"id":"other","done":true,"result":{"Rank":0,"Err":"not this job"}}'
echo "{\"id\":\"$id\",\"phase\":3}"
reply 0; reply 0 ',"Err":"a second reply"'; reply 1`,
	}, {
		name:  "foreign rank",
		procs: 2,
		body:  `reply 1`,
		want:  []string{"host 0: terminal reply for rank 1, which it does not host", "rank 0: no result"},
	}, {
		name:  "no result",
		procs: 2,
		body:  `if [ $rank = 0 ]; then echo "{\"id\":\"$id\",\"done\":true}"; else reply 1; fi`,
		want:  []string{"host 0: terminal reply without a result", "rank 0: no result"},
	}, {
		name:     "exit mid-job",
		procs:    2,
		body:     `[ $rank = 1 ] && exit 3; reply 0`,
		want:     []string{"rank 1: no result (host 1 exit: exit status 3)"},
		suspects: []int{1},
	}, {
		name:  "error then exit",
		procs: 2,
		body:  `if [ $rank = 1 ]; then reply 1 ',"Err":"peer 0 lost"'; exit 1; fi; reply 0`,
		want:  []string{"rank 1: peer 0 lost"},
	}, {
		name:     "reply does not decode",
		procs:    2,
		body:     `if [ $rank = 1 ]; then reply 1 ',"Jacobi":"AAAAAAA="'; else reply 0; fi`,
		want:     []string{"rank 1: no result (host 1 exit: killed after a reply that does not decode", "result.Jacobi", "not whole 8-byte words"},
		suspects: []int{1},
	}, {
		name:  "operator stop",
		procs: 2,
		body:  `reply $rank ',"Err":"operator stop"'; exit 86`,
		want:  []string{"host 0: stopped by operator (exit 86)", "host 1: stopped by operator (exit 86)"},
		stop:  true,
	}}
	for _, serve := range []bool{false, true} {
		for _, c := range cases {
			mode, id, line, args := "one-shot", "", []byte(nil), []string(nil)
			if serve {
				mode, id, line, args = "serve", "J", []byte(`{"id":"J"}`+"\n"), []string{"-serve"}
			}
			t.Run(mode+"/"+c.name, func(t *testing.T) {
				o := LaunchOpts{Nodes: 2, NodeBin: fakeNode(t, c.body), NodeArgs: args, Stderr: io.Discard, Timeout: 30 * time.Second}
				f, err := o.StartFleet(0, c.procs)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Stop()
				var phases []int64
				results, err := f.Run(id, line, func(ph int64) { phases = append(phases, ph) })
				if len(c.want) == 0 {
					if err != nil {
						t.Fatal(err)
					}
					for r, res := range results {
						if res.Rank != r || res.Err != "" {
							t.Errorf("results[%d] = %+v, want rank %d's first reply", r, res, r)
						}
					}
					if !reflect.DeepEqual(phases, []int64{3}) {
						t.Errorf("progress %v, want [3]", phases)
					}
					if f.Idle() != serve {
						t.Errorf("Idle() = %v after a successful job, want %v", !serve, serve)
					}
					return
				}
				var ae *attemptError
				if !errors.As(err, &ae) {
					t.Fatalf("err = %v, want an attempt error", err)
				}
				for _, w := range c.want {
					if !strings.Contains(err.Error(), w) {
						t.Errorf("error does not say %q:\n%v", w, err)
					}
				}
				if !reflect.DeepEqual(ae.suspects, c.suspects) {
					t.Errorf("suspects %v, want %v", ae.suspects, c.suspects)
				}
				if errors.Is(err, ErrOperatorStop) != c.stop {
					t.Errorf("errors.Is(err, ErrOperatorStop) = %v, want %v", !c.stop, c.stop)
				}
				if f.Idle() {
					t.Error("a fleet a job failed on is still Idle")
				}
			})
		}
	}
}

// The one backoff rule at every attempt a budget could reach: never
// below the base or above the cap (an uncapped shift of the base goes
// negative at attempt 37), and never a wait that ends past the deadline.
func TestRetryDelayBounded(t *testing.T) {
	now := time.Now()
	for _, u := range []float64{0, 0.5, 0.999999} {
		prev := time.Duration(0)
		for n := 1; n <= 64; n++ {
			d, ok := retryDelay(n, u, now, time.Time{})
			if !ok || d < retryBase || d > retryCap || d < prev {
				t.Fatalf("retryDelay(%d, %v) = %v, %v; want within [%v, %v] and at least %v", n, u, d, ok, retryBase, retryCap, prev)
			}
			prev = d
			if _, ok := retryDelay(n, u, now, now.Add(time.Second)); ok != (d <= time.Second) {
				t.Fatalf("retryDelay(%d, %v) = %v, ok %v with a deadline 1s away", n, u, d, ok)
			}
		}
	}
}

// The supervisor's policy with no process in the loop: a host blamed
// twice shrinks the fleet by one, blame starts over at the new size, a
// dead host at one process ends the job naming the floor, and an
// operator stop or a deadline nearer than the first backoff ends it at
// once.
func TestSupervisorPolicy(t *testing.T) {
	var retries []string
	_, err := Supervisor{
		Nodes: 2, Retries: 10,
		OnRetry: func(n, procs int, _ error) { retries = append(retries, fmt.Sprintf("%d@%d", n, procs)) },
	}.Run(func(_, procs int) ([]NodeResult, error) {
		return nil, &attemptError{suspects: []int{0}, lines: []string{"host 0 died"}}
	})
	if want := []string{"1@2", "2@1", "3@1"}; !reflect.DeepEqual(retries, want) {
		t.Errorf("retries (attempt@procs) %v, want %v", retries, want)
	}
	if err == nil || !strings.Contains(err.Error(), "host 0 is permanently dead") || !strings.Contains(err.Error(), "floor of 1 host process") {
		t.Errorf("floor error: %v", err)
	}

	for name, sup := range map[string]Supervisor{
		"stop":     {Nodes: 2, Retries: 3},
		"deadline": {Nodes: 2, Retries: 3, Deadline: time.Now().Add(50 * time.Millisecond)},
	} {
		attempts := 0
		sup.OnRetry = func(int, int, error) { t.Errorf("%s: retried", name) }
		sup.Run(func(int, int) ([]NodeResult, error) {
			attempts++
			return nil, &attemptError{stopped: name == "stop", lines: []string{"failed"}}
		})
		if attempts != 1 {
			t.Errorf("%s: %d attempts, want 1", name, attempts)
		}
	}
}
