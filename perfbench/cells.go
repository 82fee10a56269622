package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/history"
	"repro/internal/protocol"
	"repro/internal/workload"
)

// cell is one simulated protocol run of a workload. Its Seed is filled in
// per repetition.
type cell struct {
	proto string
	cfg   driver.Config
}

// benchWorkload is a named set of cells plus the correctness gates they
// must pass.
type benchWorkload struct {
	name  string
	cells []cell
	// certified cells certify ride-along and are cross-checked against
	// the batch re-solve of their recorded history.
	certified bool
	// replace cells must show a replica replacement whose catch-up window
	// some commit lived through (NemesisReport.SyncPhaseCommitted > 0).
	replace bool
	// sliceTxns sizes the certified slice an uncertified workload's
	// history layer is measured on: full-size load cells take minutes to
	// certify, so the traced run certifies a short run of the same cell.
	sliceTxns int
}

// teethSeed is the seed of the naivefast victim cell each certified run
// starts with; at this seed both certified cells refute naivefast in well
// under a second.
const teethSeed = 3

// Cell sizes. Each is small enough that a run repeats its cells many
// times within --seconds (medians need samples; shared hosts lose CPU to
// other tenants in bursts) and large enough to sit in the regime the
// workload exists to show.
const (
	replaceTxns = 400
	openTxns    = 1000
	loadTxns    = 10_000
)

func workloads() []benchWorkload {
	certCfg := driver.Config{
		Clients: 8, Mix: workload.Balanced(), Servers: 4, ObjectsPerServer: 2,
		RecordHistory: true, Certify: true,
	}
	replace := certCfg
	replace.Txns = replaceTxns
	replace.Workers = 1
	replace.Nemesis = &driver.Nemesis{Replaces: 1}
	open := certCfg
	open.Txns = openTxns
	open.Rate = 3000
	var load []cell
	for _, p := range []string{"cops", "cure", "spanner"} {
		load = append(load, cell{p, driver.Config{
			Clients: 64, Txns: loadTxns, Mix: workload.ReadHeavy(),
			Servers: 8, ObjectsPerServer: 2, Workers: 2,
		}})
	}
	return []benchWorkload{
		{name: "cert-sharded-replace", cells: []cell{{"cops", replace}}, certified: true, replace: true},
		{name: "load-sharded", cells: load, sliceTxns: 512},
		{name: "cert-serial-open", cells: []cell{{"cops", open}}, certified: true},
	}
}

// repSeed derives the seed of repetition r; repetition 0 runs the
// command's seed itself.
func repSeed(seed int64, r int) int64 { return seed + int64(r)*1_000_003 }

// deploy builds the load-mode deployment driver.Run builds for cfg
// (trace ring off, no payload retention) and runs the initializing
// transactions.
func deploy(p protocol.Protocol, cfg driver.Config) (*protocol.Deployment, error) {
	d := protocol.Deploy(p, protocol.Config{
		Servers:          cfg.Servers,
		ObjectsPerServer: cfg.ObjectsPerServer,
		Replication:      cfg.Replication,
		Clients:          cfg.Clients,
		Seed:             cfg.Seed,
	})
	d.Kernel.SetTraceCap(-1)
	d.Kernel.SetPayloadRetention(false)
	if err := d.InitAll(400_000); err != nil {
		return nil, fmt.Errorf("%s init: %w", p.Name(), err)
	}
	return d, nil
}

// prepare deploys and initializes cfg from a collected heap that has
// been returned to the OS, so every timed run starts from the same state.
// Set-up takes a fraction of a millisecond on the certified cells, so it
// is repeated until 5ms of CPU time have gone (at most 25 times); the
// median CPU time is returned with the last deployment.
func prepare(p protocol.Protocol, cfg driver.Config) (*protocol.Deployment, time.Duration, error) {
	debug.FreeOSMemory()
	var times []float64
	var spent time.Duration
	for {
		t0 := cpuNow()
		d, err := deploy(p, cfg)
		dt := cpuNow() - t0
		if err != nil {
			return nil, dt, err
		}
		times = append(times, dt.Seconds())
		spent += dt
		if spent >= 5*time.Millisecond || len(times) == 25 {
			runtime.GC() // drop the discarded deployments before the timed run
			return d, time.Duration(median(times) * float64(time.Second)), nil
		}
	}
}

// cellRun is one measured execution of a cell.
type cellRun struct {
	setup time.Duration // CPU time of protocol.Deploy + InitAll
	// cpu and wall time driver.RunOn, plus CheckBatch on certified cells.
	// wall excludes the time the host stole from the guest (see
	// maxStolen), and is never less than cpu spread over every CPU.
	cpu, wall time.Duration
	rep       *driver.Report
	// batch is the batch re-solve of the recorded history (nil unless the
	// cell certifies and its history is within history.MaxTxns).
	batch *history.Verdict
}

// runCell executes c at seed exactly as the workload measures it.
func runCell(c cell, seed int64) (cellRun, error) {
	p := core.ByName(c.proto)
	if p == nil {
		return cellRun{}, fmt.Errorf("unknown protocol %q", c.proto)
	}
	cfg := c.cfg
	cfg.Seed = seed
	var out cellRun
	d, setup, err := prepare(p, cfg)
	out.setup = setup
	if err != nil {
		return out, err
	}
	t1, c1, s1 := time.Now(), cpuNow(), stolenNow()
	rep, err := driver.RunOn(d, cfg)
	if err != nil {
		return out, fmt.Errorf("%s: %w", c.proto, err)
	}
	if cfg.Certify && rep.History != nil && rep.History.Len() <= history.MaxTxns {
		b := history.CheckBatch(rep.History, rep.CertLevel)
		out.batch = &b
	}
	ncpu := time.Duration(runtime.NumCPU())
	out.cpu = cpuNow() - c1
	out.wall = max(time.Since(t1)-maxStolen(s1, stolenNow()), out.cpu/ncpu)
	out.rep = rep
	return out, nil
}

// runChecked runs c at seed as the workload measures it, counts its
// transactions into out and applies the per-cell correctness gates.
func runChecked(w benchWorkload, c cell, seed int64, out *outcome) (cellRun, error) {
	out.attempted += c.cfg.Txns
	cr, err := runCell(c, seed)
	if err != nil {
		out.failed += c.cfg.Txns
		return cr, err
	}
	out.failed += cr.rep.Rejected + cr.rep.Incomplete
	if err := checkCell(w, c, cr); err != nil {
		return cr, fmt.Errorf("seed %d: %w", seed, err)
	}
	return cr, nil
}

// checkCell applies the per-cell correctness gates.
func checkCell(w benchWorkload, c cell, cr cellRun) error {
	rep := cr.rep
	if rep.Incomplete > 0 {
		return fmt.Errorf("%s: %d transactions incomplete", c.proto, rep.Incomplete)
	}
	if rep.Issued != c.cfg.Txns || rep.Committed+rep.Rejected != rep.Issued {
		return fmt.Errorf("%s: issued %d of %d, committed %d + rejected %d",
			c.proto, rep.Issued, c.cfg.Txns, rep.Committed, rep.Rejected)
	}
	if w.certified {
		if err := verdictGate(rep, cr.batch); err != nil {
			return fmt.Errorf("%s: %w", c.proto, err)
		}
	}
	if w.replace {
		if n := rep.Nemesis; n == nil || n.Replacements == 0 || n.SyncPhaseCommitted == 0 {
			return fmt.Errorf("%s: no replacement with a commit inside its catch-up window: %+v", c.proto, n)
		}
	}
	return nil
}

// verdictGate requires a clean ride-along verdict that the batch re-solve
// agrees with. Every protocol the benchmark certifies (cops, and cure and
// spanner on load-sharded's history slice) meets its claimed consistency
// level, so a refutation means a broken simulator, protocol or certifier.
func verdictGate(rep *driver.Report, batch *history.Verdict) error {
	v := rep.Cert
	if v == nil {
		return fmt.Errorf("no ride-along verdict")
	}
	if batch != nil && batch.OK != v.OK {
		return fmt.Errorf("ride-along verdict OK=%v (%s) disagrees with batch OK=%v (%s)",
			v.OK, v.Reason, batch.OK, batch.Reason)
	}
	if !v.OK {
		return fmt.Errorf("refuted at append %d: %s", v.FirstViolation, v.Reason)
	}
	return nil
}

// teeth runs the workload's first cell on the designed victim naivefast
// and fails unless the verdict gate trips: a gate that cannot refute a
// known-violating protocol guards nothing.
func teeth(w benchWorkload) error {
	c := w.cells[0]
	c.proto = "naivefast"
	cr, err := runCell(c, teethSeed)
	if err != nil {
		return fmt.Errorf("teeth cell: %w", err)
	}
	if verdictGate(cr.rep, cr.batch) == nil {
		return fmt.Errorf("teeth: naivefast passed the verdict gate at seed %d", teethSeed)
	}
	return nil
}

// digestLine is the deterministic shape of one run: a change that only
// speeds the simulator up must leave every field identical.
func digestLine(proto string, rep *driver.Report) string {
	var rounds, critical, resolves, peak int
	if s := rep.Sharding; s != nil {
		rounds, critical = s.Rounds, s.CriticalEvents
	}
	if v := rep.Cert; v != nil {
		resolves, peak = v.Resolves, v.PeakWindow
	}
	return fmt.Sprintf("%s events=%d committed=%d duration_us=%d p50_us=%d p99_us=%d rounds=%d critical_events=%d resolves=%d peak_window=%d",
		proto, rep.Events, rep.Committed, rep.Duration, rep.Latency.P50, rep.Latency.P99,
		rounds, critical, resolves, peak)
}

// digestOf hashes a workload's digest lines.
func digestOf(lines []string) string {
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:8])
}
