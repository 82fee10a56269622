package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/history"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// layerSample is one layer pass over a workload's cells, summed over the
// cells.
type layerSample struct {
	// driver.RunOn with Certify off, on the cell's own engine.
	events, committed int
	runS              float64
	allocs, bytes     uint64
	// Sharded-engine shape at W1 (identical at W2, which is checked) and
	// the median RunOn wall time at each worker count: parallel speedup is
	// a wall-clock property, so this is the one layer figure not in CPU
	// time.
	rounds, critical, blocked, simEvents int
	runW1, runW2                         float64
	// Replay of the recorded history into a fresh streaming session.
	appendDur                        []float64 // CPU seconds, one per Append
	finishS, batchS                  float64
	resolves, appends, peak, retired int
	allocBytes                       uint64
	// CPU time of the same replays (Appends plus Finish) with spans
	// recorded and without.
	traced, untraced float64
}

// measureLayers repeats layer passes until the deadline (at least once).
// Counts come from the first pass, which runs the command's seed; times,
// CPU time except for sim.w2_speedup, are medians over the passes.
func measureLayers(w benchWorkload, seed int64, deadline time.Time, tr *tracer) (outcome, error) {
	var out outcome
	var samples []layerSample
	for it := 0; it == 0 || time.Now().Before(deadline); it++ {
		s, lines, err := layerPass(w, repSeed(seed, it), it, tr, &out)
		if err != nil {
			return out, err
		}
		if it == 0 {
			out.digestLines = lines
		}
		samples = append(samples, s)
	}
	out.digest = digestOf(out.digestLines)
	out.metrics = layerMetrics(samples)
	return out, nil
}

// layerPass runs every cell of w at seed three ways: untraced exactly as
// measure does (the reference for the ride-along verdict), traced with a
// span around each call into a layer, and at W1 and W2 for the sharded
// engine's speedup. The history replay runs once more without spans, the
// reference for trace.overhead_frac.
func layerPass(w benchWorkload, seed int64, it int, tr *tracer, out *outcome) (layerSample, []string, error) {
	var s layerSample
	var lines []string
	for _, c := range w.cells {
		p := core.ByName(c.proto)
		ref, err := runChecked(w, c, seed, out)
		if err != nil {
			return s, nil, err
		}
		lines = append(lines, digestLine(c.proto, ref.rep))

		// The history layer replays a certified history and compares the
		// replay's verdict with the ride-along one.
		want, hist := ref.rep.Cert, ref.rep.History
		if !w.certified {
			slice := c
			slice.cfg.Txns = w.sliceTxns
			slice.cfg.Certify, slice.cfg.RecordHistory = true, true
			sr, err := runCell(slice, seed)
			if err != nil {
				return s, nil, fmt.Errorf("history slice: %w", err)
			}
			if sr.rep.Incomplete > 0 {
				return s, nil, fmt.Errorf("history slice %s seed %d: %d transactions incomplete", c.proto, seed, sr.rep.Incomplete)
			}
			if err := verdictGate(sr.rep, sr.batch); err != nil {
				return s, nil, fmt.Errorf("history slice %s seed %d: %w", c.proto, seed, err)
			}
			want, hist = sr.rep.Cert, sr.rep.History
		}

		// The driver layer runs without certification but records history
		// exactly when the workload's cells do.
		cfg := c.cfg
		cfg.Seed = seed
		cfg.Certify = false
		debug.FreeOSMemory()
		tr.begin("cell", map[string]any{"cell": c.proto, "iter": it, "seed": seed})
		tr.begin("setup", nil)
		d, err := deploy(p, cfg)
		tr.end() // setup
		if err != nil {
			return s, nil, err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		tr.begin("driver.RunOn", nil)
		rep, err := driver.RunOn(d, cfg)
		run := tr.end()
		if err != nil {
			return s, nil, fmt.Errorf("%s: %w", c.proto, err)
		}
		runtime.ReadMemStats(&m1)
		s.events += rep.Events
		s.committed += rep.Committed
		s.runS += run.Seconds()
		s.allocs += m1.Mallocs - m0.Mallocs
		s.bytes += m1.TotalAlloc - m0.TotalAlloc

		level := p.Claims().Consistency
		names := make([]string, cfg.Clients)
		for i := range names {
			names[i] = string(d.Clients[i])
		}
		hl, err := replay(tr, level, names, hist, want)
		if err != nil {
			return s, nil, fmt.Errorf("%s seed %d: %w", c.proto, seed, err)
		}
		if hist.Len() <= history.MaxTxns {
			tr.begin("history.CheckBatch", nil)
			b := history.CheckBatch(hist, level)
			hl.batch = tr.end().Seconds()
			if b.OK != hl.verdict.OK {
				return s, nil, fmt.Errorf("%s seed %d: replayed verdict OK=%v disagrees with batch OK=%v (%s)",
					c.proto, seed, hl.verdict.OK, b.OK, b.Reason)
			}
		}
		tr.end() // cell
		plain, err := replay(nil, level, names, hist, want)
		if err != nil {
			return s, nil, fmt.Errorf("%s seed %d: untraced %w", c.proto, seed, err)
		}
		s.traced += hl.total
		s.untraced += plain.total
		s.appendDur = append(s.appendDur, hl.appendDur...)
		s.finishS += hl.finish
		s.batchS += hl.batch
		s.resolves += hl.verdict.Resolves
		s.appends += hl.verdict.Appended
		s.peak = max(s.peak, hl.verdict.PeakWindow)
		s.retired += hl.verdict.Retired
		s.allocBytes += hl.allocBytes

		w1, w2, st, err := simPass(p, cfg)
		if err != nil {
			return s, nil, fmt.Errorf("%s seed %d: %w", c.proto, seed, err)
		}
		s.runW1 += w1
		s.runW2 += w2
		s.rounds += st.Rounds
		s.critical += st.CriticalEvents
		s.blocked += st.BlockedShardRounds
		s.simEvents += st.Events
	}
	return s, lines, nil
}

// historyLayer is one replay. Its times are CPU seconds: total covers
// the Appends and Finish together, as timed from outside the spans.
type historyLayer struct {
	appendDur            []float64
	finish, batch, total float64
	verdict              history.SessionVerdict
	allocBytes           uint64
}

// replay appends hist, one span per call, to a fresh streaming session
// declaring the client names the driver's ride-along session declares,
// then finishes it. The replayed verdict must match the ride-along one
// exactly. With a nil tracer no spans are recorded.
func replay(tr *tracer, level string, names []string, hist *history.History, want *history.SessionVerdict) (historyLayer, error) {
	var hl historyLayer
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := cpuNow()
	sess := history.NewStreamingSession(hist.Initials(), level, names)
	for _, rec := range hist.Records() {
		tr.begin("history.Append", nil)
		clean := sess.Append(rec)
		hl.appendDur = append(hl.appendDur, tr.end().Seconds())
		if !clean {
			break // sealed, as the ride-along session stops feeding
		}
	}
	tr.begin("history.Finish", nil)
	hl.verdict = sess.Finish()
	hl.finish = tr.end().Seconds()
	hl.total = (cpuNow() - t0).Seconds()
	runtime.ReadMemStats(&m1)
	hl.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	v := hl.verdict
	if v.OK != want.OK || v.Appended != want.Appended || v.Resolves != want.Resolves || v.FirstViolation != want.FirstViolation {
		return hl, fmt.Errorf("replayed verdict (OK=%v appended=%d resolves=%d first=%d) differs from ride-along (OK=%v appended=%d resolves=%d first=%d)",
			v.OK, v.Appended, v.Resolves, v.FirstViolation, want.OK, want.Appended, want.Resolves, want.FirstViolation)
	}
	return hl, nil
}

// simPass runs cfg on the lookahead engine at one and two workers,
// alternating, until 200ms have gone by (at least one pair, at most 20),
// and returns the median RunOn wall time at each. The two worker counts
// must produce the same digest. Serial-engine cells are measured on the
// lookahead engine here: the sim metrics describe the sharded engine on
// every workload.
func simPass(p protocol.Protocol, cfg driver.Config) (w1, w2 float64, st *sim.ShardingStats, err error) {
	var t1, t2 []float64
	start := time.Now()
	for k := 0; k == 0 || (k < 20 && time.Since(start) < 200*time.Millisecond); k++ {
		var lines [2]string
		for j, workers := range []int{1, 2} {
			cw := cfg
			cw.Workers = workers
			d, _, err := prepare(p, cw)
			if err != nil {
				return 0, 0, nil, err
			}
			t0 := time.Now()
			rep, err := driver.RunOn(d, cw)
			dt := time.Since(t0).Seconds()
			if err != nil {
				return 0, 0, nil, err
			}
			if j == 0 {
				t1 = append(t1, dt)
				st = rep.Sharding
			} else {
				t2 = append(t2, dt)
			}
			lines[j] = digestLine(p.Name(), rep)
		}
		if lines[0] != lines[1] {
			return 0, 0, nil, fmt.Errorf("digest differs between W1 and W2:\n  W1 %s\n  W2 %s", lines[0], lines[1])
		}
	}
	return median(t1), median(t2), st, nil
}

// tailLadder lists the percentiles tried, highest first, for the append
// tail: the reported one is the highest with at least ten samples above.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// appendTail returns the highest ladder percentile of xs with at least
// ten samples beyond it, and its value.
func appendTail(xs []float64) (pct, val float64) {
	n := float64(len(xs))
	pct = tailLadder[len(tailLadder)-1]
	for _, p := range tailLadder {
		if n*(100-p)/100 >= 10 {
			pct = p
			break
		}
	}
	return pct, percentile(sorted(xs), pct)
}

// percentile is the nearest-rank percentile of sorted (0 for none).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics turns the passes into the per-layer metrics: deterministic
// counts from the first pass, times as medians over all passes.
func layerMetrics(samples []layerSample) map[string]metric {
	first := samples[0]
	med := func(f func(layerSample) float64) float64 {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = f(s)
		}
		return median(xs)
	}
	tailPct, _ := appendTail(first.appendDur)
	return map[string]metric{
		"protocol.events_per_txn": {ratio(float64(first.events), float64(first.committed)), "events/txn"},

		"driver.run_s":            {med(func(s layerSample) float64 { return s.runS }), "s"},
		"driver.events_per_s":     {med(func(s layerSample) float64 { return ratio(float64(s.events), s.runS) }), "1/s"},
		"driver.allocs_per_event": {med(func(s layerSample) float64 { return ratio(float64(s.allocs), float64(s.events)) }), "allocs/event"},
		"driver.bytes_per_event":  {med(func(s layerSample) float64 { return ratio(float64(s.bytes), float64(s.events)) }), "B/event"},
		"driver.events":           {float64(first.events), "count"},

		"sim.rounds":               {float64(first.rounds), "count"},
		"sim.critical_events":      {float64(first.critical), "count"},
		"sim.model_parallelism":    {ratio(float64(first.simEvents), float64(first.critical)), "x"},
		"sim.blocked_shard_rounds": {float64(first.blocked), "count"},
		"sim.w2_speedup":           {med(func(s layerSample) float64 { return ratio(s.runW1, s.runW2) }), "x"},

		"history.append_s":      {med(func(s layerSample) float64 { return sum(s.appendDur) }), "s"},
		"history.append_p50_us": {med(func(s layerSample) float64 { return 1e6 * percentile(sorted(s.appendDur), 50) }), "us"},
		"history.append_tail_us": {med(func(s layerSample) float64 {
			_, v := appendTail(s.appendDur)
			return 1e6 * v
		}), "us"},
		"history.append_tail_pct": {tailPct, "%"},
		"history.appends":         {float64(first.appends), "count"},
		"history.finish_s":        {med(func(s layerSample) float64 { return s.finishS }), "s"},
		"history.batch_s":         {med(func(s layerSample) float64 { return s.batchS }), "s"},
		"history.cert_over_batch": {med(func(s layerSample) float64 { return ratio(sum(s.appendDur)+s.finishS, s.batchS) }), "x"},
		"history.resolves":        {float64(first.resolves), "count"},
		"history.resolve_frac":    {ratio(float64(first.resolves), float64(first.appends)), "frac"},
		"history.peak_window":     {float64(first.peak), "txns"},
		"history.retired":         {float64(first.retired), "txns"},
		"history.alloc_mb":        {med(func(s layerSample) float64 { return float64(s.allocBytes) / (1 << 20) }), "MB"},

		"trace.overhead_frac": {med(func(s layerSample) float64 { return ratio(s.traced, s.untraced) - 1 }), "frac"},
	}
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}
