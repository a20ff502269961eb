package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"ppm/internal/apps/cg"
	"ppm/internal/apps/colloc"
	"ppm/internal/apps/nbody"
	"ppm/internal/cluster"
	"ppm/internal/core"
	"ppm/internal/dist"
	"ppm/internal/jobspec"
	"ppm/internal/wire"
)

// Direct-call probes: layer costs that the rounds' spans cannot split
// out, measured by calling the layer's public functions on the
// workload's own specs, results and captured commit streams.

// perOp times f in five batches of at least 10 ms each and returns the
// median batch's mean nanoseconds per call.
func perOp(f func()) float64 {
	var means []float64
	for b := 0; b < 5; b++ {
		n := 0
		start := time.Now()
		for time.Since(start) < 10*time.Millisecond {
			f()
			n++
		}
		means = append(means, float64(time.Since(start))/float64(n))
	}
	return median(means)
}

// timesMS runs f n times and returns each run's wall-clock in ms.
func timesMS(n int, f func() error) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		out = append(out, ms(time.Since(start)))
	}
	return out, nil
}

// probeSamples is how many times a one-shot operation (connect, close,
// launch) is repeated: the fewest that leave ten samples beside the
// median's own.
const probeSamples = 11

// probeJobspec times the jobspec calls the server makes around every
// job: on submit (normalize, validate, hash) and on completion (decode
// each rank's NodeResult, flatten, encode the Result).
func probeJobspec(js []*job, nodeResults map[string][]dist.NodeResult, m metrics) error {
	var hashNS, mergeNS, encNS, encBytes, specs float64
	var decNS, decBytes, ranks float64
	for _, j := range js {
		if j.spec == nil {
			continue
		}
		specs++
		hashNS += perOp(func() {
			s := *j.spec
			s.Normalize()
			s.Validate()
			s.Hash()
		})
		mergeNS += perOp(func() { jobspec.FromMerged(j.spec, j.merged) })
		res, err := jobspec.FromMerged(j.spec, j.merged)
		if err != nil {
			return err
		}
		buf, err := json.Marshal(res)
		if err != nil {
			return err
		}
		encBytes += float64(len(buf))
		encNS += perOp(func() { json.Marshal(res) })
		for _, nr := range nodeResults[j.name] {
			buf, err := json.Marshal(nr)
			if err != nil {
				return err
			}
			ranks++
			decBytes += float64(len(buf))
			decNS += perOp(func() {
				var back dist.NodeResult
				json.Unmarshal(buf, &back)
			})
		}
	}
	if specs > 0 {
		m["jobspec.hash_us"] = hashNS / specs / 1e3
		m["jobspec.from_merged_us"] = mergeNS / specs / 1e3
		m["jobspec.result_encode_us"] = encNS / specs / 1e3
		m["jobspec.result_kb"] = encBytes / specs / 1024
	}
	if ranks > 0 {
		m["jobspec.noderesult_decode_us"] = decNS / ranks / 1e3
		m["jobspec.noderesult_kb"] = decBytes / ranks / 1024
	}
	return nil
}

// probeMeshLifecycle times bringing a mesh of this size up and down.
func probeMeshLifecycle(e *env, nodes int, m metrics) error {
	var connectMS, closeMS []float64
	for i := 0; i < probeSamples; i++ {
		start := time.Now()
		mesh, err := connectMesh(e.workDir, nodes)
		if err != nil {
			return err
		}
		connectMS = append(connectMS, ms(time.Since(start)))
		start = time.Now()
		if err := mesh.close(); err != nil {
			return err
		}
		closeMS = append(closeMS, ms(time.Since(start)))
	}
	m.setMedian("dist.connect_ms_p50", connectMS)
	m.setMedian("dist.close_ms_p50", closeMS)
	return nil
}

// probeLaunch times dist.LaunchLocal forking a cold two-process fleet
// for a tiny cg, and the same spec cold on a mesh that is already
// connected: the difference is what fork, exec, rendezvous, handshake
// and result transport cost a one-shot distributed run.
func probeLaunch(e *env, m metrics) error {
	prm := cg.Params{NX: 8, NY: 8, NZ: 8, MaxIter: 6}
	spec := dist.AppSpec{App: "cg", CG: prm}
	launches, err := timesMS(probeSamples, func() error {
		results, err := dist.LaunchLocal(dist.LaunchOpts{
			Nodes: 2, NodeBin: e.nodeBin, Stderr: io.Discard,
			NodeArgs: []string{"-app", "cg", "-cg-grid", "8x8x8", "-cg-iters", "6", "-cores", "2"},
		})
		if err != nil {
			return err
		}
		_, err = dist.Merge(spec, results)
		return err
	})
	if err != nil {
		return fmt.Errorf("dist.LaunchLocal: %w", err)
	}
	mesh, err := connectMesh(e.workDir, 2)
	if err != nil {
		return err
	}
	defer mesh.close()
	j := &job{name: "cg-tiny", spec: (&jobspec.Spec{
		App: "cg", Backend: jobspec.BackendDist, Nodes: 2, Cores: 2, CG: &prm,
	}).Normalize()}
	connected, err := timesMS(probeSamples, func() error {
		_, _, err := mesh.run(j, traceCtx{}) // no session key: every run is plan-cold
		return err
	})
	if err != nil {
		return err
	}
	m.setMedian("dist.launch_ms_p50", launches)
	m["dist.launch_overhead_ms"] = median(launches) - median(connected)
	return nil
}

// probeWire times the wire package on commit streams the wrappers
// captured from the workload's own programs (every element is a
// float64, so 8 bytes).
func probeWire(streams [][]byte, m metrics) error {
	var raw []byte
	runs := 0
	for _, s := range streams {
		raw = append(raw, s...)
		rd := wire.NewCommitReader(s)
		for rd.More() {
			_, n, err := rd.Block()
			if err != nil {
				return err
			}
			runs += n
			for ; n > 0; n-- {
				if _, _, err := rd.Run(8); err != nil {
					return err
				}
			}
		}
	}
	if len(raw) == 0 || runs == 0 {
		return fmt.Errorf("the commit workload put no commit stream on the wire")
	}
	kb := float64(len(raw)) / 1024
	elemBytes := func(int) int { return 8 }

	// Framing at the engine's chunk size, the way CommitExchange ships.
	const chunk = 8192
	var framed []byte
	appendAll := func() {
		framed = framed[:0]
		for off := 0; off < len(raw); off += chunk {
			framed = wire.AppendFrame(framed, wire.KindCommitData, raw[off:min(off+chunk, len(raw))])
		}
	}
	m["wire.frame_append_ns_per_kb"] = perOp(appendAll) / kb
	var readErr error
	m["wire.frame_read_ns_per_kb"] = perOp(func() {
		br := bufio.NewReader(bytes.NewReader(framed))
		for {
			if _, _, err := wire.ReadFrame(br); err != nil {
				if err != io.EOF {
					readErr = err
				}
				return
			}
		}
	}) / kb
	if readErr != nil {
		return readErr
	}

	m["wire.commit_parse_ns_per_run"] = perOp(func() {
		for _, s := range streams {
			rd := wire.NewCommitReader(s)
			for rd.More() {
				_, n, _ := rd.Block()
				for ; n > 0; n-- {
					rd.Run(8)
				}
			}
		}
	}) / float64(runs)

	// The delta codec transcodes whole streams, one per peer per phase.
	var enc [][]byte
	encBytes := 0
	for _, s := range streams {
		d, err := wire.AppendCommitDelta(nil, s, elemBytes)
		if err != nil {
			return err
		}
		enc = append(enc, d)
		encBytes += len(d)
	}
	var scratch []byte
	m["wire.delta_encode_ns_per_kb"] = perOp(func() {
		for _, s := range streams {
			scratch, _ = wire.AppendCommitDelta(scratch[:0], s, elemBytes)
		}
	}) / kb
	m["wire.delta_decode_ns_per_kb"] = perOp(func() {
		for _, d := range enc {
			scratch, _ = wire.DecodeCommitDeltaInto(scratch[:0], d, elemBytes)
		}
	}) / kb
	m["wire.delta_ratio"] = float64(len(raw)) / float64(encBytes)
	return nil
}

// probeSimModel runs the simulator with an Observer on each of the
// round's specs (event count, exact), and the paper's comparisons at 8
// nodes: PPM against the MPI baseline, cg's modeled scaling efficiency,
// and the sequential against the parallel host scheduler.
func probeSimModel(js []*job, simMSPerRound float64, m metrics) error {
	var events int64
	for _, j := range js {
		opt := j.options()
		opt.Observer = func(cluster.Event) { events++ }
		if _, _, err := simRun(j.spec, opt); err != nil {
			return err
		}
		m["cluster.model_makespan_ms."+j.spec.App] += j.ref.makespanMS
	}
	m["cluster.events"] = float64(events)
	m["cluster.ns_per_event"] = simMSPerRound * 1e6 / float64(events)

	const nodes = 8
	defaults := func(app string, n int) *jobspec.Spec {
		return (&jobspec.Spec{App: app, Nodes: n}).Normalize()
	}
	ppm := func(app string, n int, parallel bool) (float64, error) {
		s := defaults(app, n)
		opt := s.Options()
		opt.Parallel = parallel
		_, rep, err := simRun(s, opt)
		if err != nil {
			return 0, err
		}
		return rep.Makespan().Seconds(), nil
	}
	mpi := func(s *jobspec.Spec) (rep *cluster.Report, err error) {
		switch s.App {
		case "cg":
			_, rep, err = cg.RunMPI(cg.MPIOptions{Nodes: s.Nodes}, *s.CG)
		case "colloc":
			_, rep, err = colloc.RunMPI(colloc.MPIOptions{Nodes: s.Nodes}, *s.Colloc)
		case "nbody":
			_, rep, err = nbody.RunMPI(nbody.MPIOptions{Nodes: s.Nodes}, *s.Nbody)
		}
		return rep, err
	}
	var cg8 float64
	for _, app := range mpiApps {
		p, err := ppm(app, nodes, false)
		if err != nil {
			return err
		}
		rep, err := mpi(defaults(app, nodes))
		if err != nil {
			return fmt.Errorf("%s MPI baseline: %w", app, err)
		}
		m["mp.ppm_over_mpi."+app] = p / rep.Makespan.Seconds()
		if app == "cg" {
			cg8 = p
		}
	}
	cg1, err := ppm("cg", 1, false)
	if err != nil {
		return err
	}
	m["cluster.model_scaling_eff.cg"] = cg1 / (nodes * cg8)

	host := func(parallel bool) (float64, error) {
		t, err := timesMS(3, func() error { _, err := ppm("cg", nodes, parallel); return err })
		return median(t), err
	}
	seq, err := host(false)
	if err != nil {
		return err
	}
	par, err := host(true)
	if err != nil {
		return err
	}
	m["core.sim_parallel_ratio"] = seq / par
	return nil
}

// spanMetrics turns the wrappers' spans into the dist.* and core.*
// metrics every traced mesh round yields. rounds is the number of traced
// rounds, so counts and waits read per round.
func spanMetrics(tr *tracer, rounds float64, m metrics) {
	type agg struct {
		calls, wait string
		name        string
	}
	for _, a := range []agg{
		{"dist.fetch_calls", "dist.fetch_wait_ms", spanFetch},
		{"dist.commit_calls", "dist.commit_wait_ms", spanCommit},
		{"dist.recv_calls", "dist.recv_wait_ms", spanRecv},
	} {
		byParent := tr.childrenOf(a.name)
		var calls int
		var wait int64
		for _, ivs := range byParent {
			calls += len(ivs)
			wait += unionLen(ivs) // per rank: VPs of one rank wait concurrently
		}
		m[a.calls] = float64(calls) / rounds
		m[a.wait] = float64(wait) / 1e6 / rounds
	}
	rtt := tr.durations(spanFetch, time.Microsecond)
	m.setMedian("dist.fetch_rtt_us_p50", rtt)
	m.setP90("dist.fetch_rtt_us_p90", rtt)
	ce := tr.durations(spanCommit, time.Microsecond)
	m.setMedian("dist.commit_us_p50", ce)
	m.setP90("dist.commit_us_p90", ce)
	serve := tr.durations(spanReadServe, time.Millisecond)
	m["dist.read_serve_calls"] = float64(len(serve)) / rounds
	m["dist.read_serve_ms"] = sum(serve) / rounds

	// A rank's self time: its RunApp span minus what its blocking calls
	// into dist cover — compute, access bookkeeping, commit build and
	// apply, plan validation.
	blocked := tr.childrenOf(spanFetch, spanCommit, spanRecv)
	var self int64
	for id, s := range tr.spans {
		if s.Name == spanRunApp {
			self += selfTime(interval{s.Start, s.End}, blocked[int32(id)])
		}
	}
	m["core.self_ms"] = float64(self) / 1e6 / rounds
	phases := tr.durations(spanPhase, time.Millisecond)
	m.setMedian("core.phase_ms_p50", phases)
	m.setP90("core.phase_ms_p90", phases)
}

// counterMetrics turns the summed NodeStats of the traced rounds' jobs
// into per-round counts: the program counters (exact, equal to the
// simulator's on every backend), the plan cache, and the real wire.
func counterMetrics(s core.NodeStats, rounds float64, m metrics) {
	per := func(v int64) float64 { return float64(v) / rounds }
	m["core.global_phases"] = per(s.GlobalPhases)
	m["core.shared_reads"] = per(s.SharedReads)
	m["core.shared_writes"] = per(s.SharedWrites)
	m["core.remote_read_elems"] = per(s.RemoteReadElems)
	m["core.remote_write_elems"] = per(s.RemoteWriteElems)
	m["core.bundles_out"] = per(s.BundlesOut)
	m["core.model_kb_out"] = per(s.BytesOut) / 1024

	pc := s.PlanCache
	m["core.plan_hits"] = per(pc.Hits)
	m["core.plan_misses"] = per(pc.Misses)
	m["core.plan_invalidations"] = per(pc.Invalidations)
	if pc.Hits+pc.Misses > 0 {
		m["core.plan_hit_ratio"] = float64(pc.Hits) / float64(pc.Hits+pc.Misses)
	}

	w := s.Wire
	m["dist.frames_out"] = per(w.FramesOut)
	m["dist.flushes"] = per(w.Flushes)
	m["dist.forced_flushes"] = per(w.ForcedFlushes)
	m["dist.wire_kb"] = per(w.BytesOnWire) / 1024
	if w.Flushes > 0 {
		m["dist.frames_per_flush"] = float64(w.FramesOut) / float64(w.Flushes)
	}
	m["dist.read_reqs_sent"] = per(w.ReadReqsSent)
	m["dist.reads_coalesced"] = per(w.ReadsCoalesced)
	m["wire.commit_kb_raw"] = per(w.CommitBytesRaw) / 1024
	m["wire.commit_kb_enc"] = per(w.CommitBytesEnc) / 1024
}
