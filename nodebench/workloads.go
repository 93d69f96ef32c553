package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/core"
	"ammboost/internal/summary"
	"ammboost/internal/trace"
	"ammboost/internal/workload"
)

// spec sizes one workload. Every input derives from the seed; the node
// only ever sees the generated transactions.
type spec struct {
	name      string
	pools     int
	committee int
	rounds    int // ω, rounds per epoch
	// epochs is the planned epoch count of one repeat. Open loop: one
	// warm-up epoch, the measured window, and one empty closing epoch
	// whose start ends the window. Closed loop: the whole deployment,
	// killed at closed.killAt and resumed to this count.
	epochs int
	// dailyVolume is the open-loop arrival rate V_D in tx/day.
	dailyVolume int
	closed      *closedSpec
}

// closedSpec is the durable-ingest closed loop: producers block on a
// small mempool, the store is attached, and the node is killed once.
type closedSpec struct {
	producers    int
	batch        int
	capacity     int    // IngestCapacity, deliberately small
	killAt       uint64 // the node is killed at this epoch's start
	compactEvery int
}

// specs returns the benchmark's workloads; tiny shrinks every size for
// the smoke test while keeping each workload's shape.
func specs(tiny bool) []spec {
	ws := []spec{
		{
			name:        "zipf-day",
			pools:       256,
			committee:   100,
			rounds:      30,
			epochs:      6,
			dailyVolume: 12_000_000,
		},
		{
			name:        "paper-committee",
			pools:       256,
			committee:   500,
			rounds:      30,
			epochs:      6,
			dailyVolume: 2_000_000,
		},
		{
			name:      "durable-ingest",
			pools:     256,
			committee: 100,
			rounds:    30,
			epochs:    6,
			closed: &closedSpec{
				producers: 2, batch: 256, capacity: 1024, killAt: 6, compactEvery: 2,
			},
		},
	}
	if tiny {
		for i := range ws {
			w := &ws[i]
			w.pools, w.committee, w.rounds = 8, 10, 4
			w.dailyVolume /= 50
			if w.closed != nil {
				c := *w.closed
				c.capacity, c.batch = 64, 16
				w.closed = &c
			}
		}
	}
	return ws
}

// repeat is one run of a workload on a fresh node: the host window, the
// node's outputs, and (when traced) its per-layer attribution.
type repeat struct {
	traced bool

	win       window // steady-state host window
	winTxs    int    // txs executed by the epochs inside the window
	winEps    int    // epochs inside the window
	peakHeap  uint64
	fill      float64 // mean transactions per round-boundary drain
	untouched int     // pools Validate flags for the untouched-genesis defect (checkParity)

	attempted, executed int
	execLat, payLat     dist
	gasPerTx            float64
	bytesPerTx          float64
	scPeakMB            float64
	retainedMB          float64
	rootFold            [32]byte

	// Benchmark-timed ingest calls.
	submitUS          []float64
	retries, attempts int

	// Durable-ingest only.
	open, recover time.Duration

	// layers is the per-layer attribution of a traced repeat.
	layers map[string]float64
	tracer *trace.Tracer
}

// dist is a latency distribution reduced to what the report prints.
type dist struct {
	p50, p99 float64
	n        int
}

func newDist(xs []float64) dist {
	return dist{p50: percentile(xs, 50), p99: percentile(xs, 99), n: len(xs)}
}

// nodeConfig is the chain configuration shared by both loop shapes.
func nodeConfig(sp spec, seed int64, tr *trace.Tracer, opts ...chain.Option) chain.Config {
	base := []chain.Option{
		chain.WithSeed(seed),
		chain.WithPools(sp.pools),
		chain.WithCommittee(sp.committee),
		chain.WithEpochRounds(sp.rounds),
		chain.WithPipelineDepth(2),
		chain.WithTracer(tr),
		// Keep every epoch's spans: the window is read back in full.
		chain.WithTraceBuffer(sp.epochs + 2),
	}
	return chain.NewConfig(append(base, opts...)...)
}

// winMarks brackets the steady-state window from the lifecycle hooks.
type winMarks struct {
	start    hostSample
	trStart  time.Duration
	trEnd    time.Duration
	in       bool
	benchRun time.Duration // benchmark hook time on the run loop inside the window
	// Epoch syncs the mainchain confirmed inside the window.
	syncEpochs, syncParts int
	syncGas               uint64
}

// countSync is an OnEvent hook: it counts in-window sync confirmations.
func (m *winMarks) countSync(ev chain.Event) {
	if m.in && ev.Type == chain.EventSyncConfirmed {
		m.syncEpochs++
		m.syncParts += ev.Parts
		m.syncGas += ev.Gas
	}
}

func (m *winMarks) open(tr *trace.Tracer) {
	m.trStart = tr.Since()
	m.in = true
	m.start = sampleHost()
}

func (m *winMarks) close(tr *trace.Tracer) window {
	w := between(m.start, sampleHost())
	m.trEnd = tr.Since()
	m.in = false
	return w
}

// syncLedger records, per epoch, the sync transactions a node got
// confirmed: the mainchain gas and bytes the node itself causes (block
// headers, which the mainchain mines whether or not a node syncs, are
// not counted).
type syncLedger map[uint64]syncCost

type syncCost struct {
	gas   uint64
	bytes int
}

func (l syncLedger) count(ev chain.Event) {
	if ev.Type == chain.EventSyncConfirmed {
		c := l[ev.Epoch]
		c.gas += ev.Gas
		c.bytes += ev.Bytes
		l[ev.Epoch] = c
	}
}

// arrivals is the open-loop schedule: a Poisson process at the daily
// volume's rate in virtual time, drawn from the seed.
type arrivals struct {
	rng    *rand.Rand
	perSec float64
	next   time.Duration
}

func newArrivals(seed int64, dailyVolume int) *arrivals {
	a := &arrivals{rng: rand.New(rand.NewSource(seed ^ 0x0a771ea1)), perSec: float64(dailyVolume) / 86400}
	a.advance()
	return a
}

func (a *arrivals) advance() {
	a.next += time.Duration(a.rng.ExpFloat64() / a.perSec * float64(time.Second))
}

// runOpen runs one open-loop repeat: transactions fall due on the
// virtual clock and are handed to SubmitBatch at the first round
// boundary at or after their due time, so each latency counts the wait
// for that boundary.
func runOpen(sp spec, seed int64, traced bool) (*repeat, error) {
	gen := workload.NewMulti(workload.DefaultMultiConfig(seed, sp.pools))
	arr := newArrivals(seed, sp.dailyVolume)
	r := &repeat{traced: traced}
	var tr *trace.Tracer
	if traced {
		tr = trace.New(sp.epochs + 2)
	}
	ctx := context.Background()
	last := uint64(sp.epochs)
	var (
		marks winMarks
		rcs   []*chain.Receipt
		dues  []time.Duration
	)
	sys, err := core.NewMultiSystem(nodeConfig(sp, seed, tr), gen.Users())
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	sys.OnEpochStart = func(e uint64) {
		switch e {
		case 2:
			marks.open(tr)
		case last:
			r.win = marks.close(tr)
		}
	}
	sys.OnRoundStart = func(e, _ uint64) {
		if h := heapObjectsBytes(); h > r.peakHeap {
			r.peakHeap = h
		}
		if e >= last {
			return // the closing epoch takes no new traffic
		}
		hookStart := time.Now()
		now := sys.Sim().Now()
		var txs []*summary.Tx
		for arr.next <= now {
			txs = append(txs, gen.Next())
			dues = append(dues, arr.next)
			arr.advance()
		}
		if len(txs) == 0 {
			return
		}
		callStart := time.Now()
		res, err := sys.SubmitBatch(ctx, txs)
		r.submitUS = append(r.submitUS, float64(time.Since(callStart).Nanoseconds())/1e3)
		r.attempts += len(txs)
		if err != nil {
			// A whole-batch refusal: every tx counts as failed.
			rcs = append(rcs, make([]*chain.Receipt, len(txs))...)
		} else {
			rcs = append(rcs, res.Receipts...)
		}
		if marks.in {
			marks.benchRun += time.Since(hookStart)
		}
	}
	syncs := syncLedger{}
	sys.OnEvent(marks.countSync)
	sys.OnEvent(syncs.count)
	rep, err := sys.Run(int(last))
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	if r.untouched, err = checkParity(sys); err != nil {
		return nil, fmt.Errorf("validate: %w", err)
	}
	fold, err := foldRoots(rep.SummaryRoots, last)
	if err != nil {
		return nil, err
	}
	r.rootFold = fold
	_, r.fill, _ = sys.Collector().IngestDepth()

	var execLat, payLat []float64
	txsByEpoch := map[uint64]int{}
	for i, rc := range rcs {
		if !executed(rc) {
			continue
		}
		r.executed++
		txsByEpoch[rc.Epoch]++
		execLat = append(execLat, (rc.ExecutedAt - dues[i]).Seconds())
		if rc.SyncedAt > 0 {
			payLat = append(payLat, (rc.SyncedAt - dues[i]).Seconds())
		}
		if rc.Epoch >= 2 && rc.Epoch < last {
			r.winTxs++
		}
	}
	r.attempted = len(rcs)
	r.winEps = int(last) - 2
	r.execLat, r.payLat = newDist(execLat), newDist(payLat)
	r.chainCost(syncs, txsByEpoch, rep.SidechainPeakBytes)
	if traced {
		r.layers = spanLayers(tr, &marks, sys)
		r.addIngest()
		r.tracer = tr
	}
	// Release the benchmark's own receipt copies and generator before
	// measuring what the node itself retains.
	sys.OnEpochStart, sys.OnRoundStart = nil, nil
	rcs, dues, execLat, payLat, txsByEpoch = nil, nil, nil, nil, nil
	r.retainedMB = float64(liveHeapBytes()) / 1e6
	runtime.KeepAlive(sys)
	return r, nil
}

// chainCost records the mainchain gas and bytes per executed
// transaction over the synced epochs that executed any (an epoch's sync
// costs gas even when it carried no traffic, and the open loop's closing
// epoch carries none), and the sidechain's peak unpruned size.
func (r *repeat) chainCost(syncs syncLedger, txsByEpoch map[uint64]int, scPeak int) {
	var gas, bytes float64
	txs := 0
	for e, c := range syncs {
		if txsByEpoch[e] == 0 {
			continue
		}
		gas += float64(c.gas)
		bytes += float64(c.bytes)
		txs += txsByEpoch[e]
	}
	r.gasPerTx = ratio(gas, float64(txs))
	r.bytesPerTx = ratio(bytes, float64(txs))
	r.scPeakMB = float64(scPeak) / 1e6
}

func executed(rc *chain.Receipt) bool {
	return rc != nil && rc.Status >= chain.StatusExecuted && rc.Status <= chain.StatusPruned
}

// foldRoots hashes the per-epoch summary roots 1..last in order; every
// epoch must have one.
func foldRoots(roots map[uint64][32]byte, last uint64) ([32]byte, error) {
	h := sha256.New()
	for e := uint64(1); e <= last; e++ {
		root, ok := roots[e]
		if !ok {
			return [32]byte{}, fmt.Errorf("epoch %d has no summary root", e)
		}
		h.Write(root[:])
	}
	var out [32]byte
	h.Sum(out[:0])
	return out, nil
}

// setupOnly times node construction up to the first epoch start, then
// kills the node: the set-up samples beside the repeats.
func setupOnly(sp spec, seed int64, dataDir string) (time.Duration, error) {
	var users []string
	if sp.closed != nil {
		users = workload.Producers(workload.DefaultMultiConfig(seed, sp.pools), sp.closed.producers)[0].Users()
	} else {
		users = workload.NewMulti(workload.DefaultMultiConfig(seed, sp.pools)).Users()
	}
	var dir string
	if sp.closed != nil {
		d, err := os.MkdirTemp(dataDir, "setup-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(d)
		dir = d
	}
	t0 := time.Now()
	var sys *core.MultiSystem
	if sp.closed != nil {
		c, err := chain.Open(dir, durableConfig(sp, seed, nil, users))
		if err != nil {
			return 0, err
		}
		sys = c.(*core.MultiSystem)
	} else {
		s, err := core.NewMultiSystem(nodeConfig(sp, seed, nil), users)
		if err != nil {
			return 0, err
		}
		sys = s
	}
	var setup time.Duration
	sys.OnEpochStart = func(uint64) {
		setup = time.Since(t0)
		sys.Kill()
	}
	runToKill(sys, sp.epochs)
	sys.Close()
	if setup == 0 {
		return 0, errors.New("setup: node never started its first epoch")
	}
	return setup, nil
}

func durableConfig(sp spec, seed int64, tr *trace.Tracer, users []string) chain.Config {
	return nodeConfig(sp, seed, tr,
		chain.WithUsers(users),
		chain.WithIngestCapacity(sp.closed.capacity),
		chain.WithCompactEvery(sp.closed.compactEvery),
	)
}

// producer is one closed-loop client: it generates transactions, keeps
// every one it handed to the node, and resubmits what a crash lost.
type producer struct {
	gen     *workload.MultiGenerator
	sent    []*summary.Tx
	rcs     []*chain.Receipt // receipt of sent[i] from the node that admitted it
	backlog []int            // indices into sent still to be admitted, in order

	submitUS          []float64
	retries, attempts int
}

// loop submits until stop is set and the backlog is empty, or until the
// node stops taking traffic (killed or finished).
func (p *producer) loop(ctx context.Context, sys *core.MultiSystem, batch int, stop *atomic.Bool) {
	for {
		if len(p.backlog) == 0 {
			if stop.Load() {
				return
			}
			for i := 0; i < batch; i++ {
				p.backlog = append(p.backlog, len(p.sent))
				p.sent = append(p.sent, p.gen.Next())
				p.rcs = append(p.rcs, nil)
			}
		}
		take := p.backlog
		if len(take) > batch {
			take = take[:batch]
		}
		txs := make([]*summary.Tx, len(take))
		for i, idx := range take {
			txs[i] = p.sent[idx]
		}
		callStart := time.Now()
		res, err := sys.SubmitBatch(ctx, txs)
		p.submitUS = append(p.submitUS, float64(time.Since(callStart).Nanoseconds())/1e3)
		p.attempts += len(txs)
		if err != nil {
			if errors.Is(err, chain.ErrThrottled) {
				p.retries += len(txs)
				backoff()
				continue
			}
			return // halted or closed: the backlog waits for the successor
		}
		var keep []int
		gone := false
		for i, idx := range take {
			e := res.Errs[i]
			switch {
			case e == nil:
				p.rcs[idx] = res.Receipts[i]
			case errors.Is(e, chain.ErrMempoolFull):
				keep = append(keep, idx)
			case errors.Is(e, chain.ErrClosed), errors.Is(e, chain.ErrHalted), errors.Is(e, chain.ErrCanceled):
				keep = append(keep, idx)
				gone = true
			default:
				// A validation reject is never retried; it counts as failed.
			}
		}
		p.backlog = append(keep, p.backlog[len(take):]...)
		if gone {
			return
		}
		if len(keep) > 0 {
			p.retries += len(keep)
			backoff()
		}
	}
}

// backoff waits briefly before a backpressure retry. The node's hint
// quotes its 7 s round, but rounds drain in milliseconds of wall clock.
func backoff() { time.Sleep(200 * time.Microsecond) }

// runDurable runs one closed-loop repeat: producers feed a durable node
// through a small mempool, the node is killed at a fixed epoch and
// reopened from its directory, the producers resubmit what the crash
// lost, and every admitted transaction must execute exactly once.
func runDurable(sp spec, seed int64, traced bool, dataDir string) (*repeat, error) {
	cl := sp.closed
	gens := workload.Producers(workload.DefaultMultiConfig(seed, sp.pools), cl.producers)
	users := gens[0].Users()
	dir, err := os.MkdirTemp(dataDir, "durable-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &repeat{traced: traced}
	ps := make([]*producer, cl.producers)
	for i := range ps {
		ps[i] = &producer{gen: gens[i]}
	}
	ctx := context.Background()
	var tr1 *trace.Tracer
	if traced {
		tr1 = trace.New(sp.epochs + 2)
	}

	// Phase 1: fresh store, producers flood the small mempool, kill.
	var marks winMarks
	c1, err := chain.Open(dir, durableConfig(sp, seed, tr1, users))
	if err != nil {
		return nil, err
	}
	sys1 := c1.(*core.MultiSystem)
	sys1.OnEpochStart = func(e uint64) {
		switch e {
		case 2:
			marks.open(tr1)
		case cl.killAt:
			r.win = marks.close(tr1)
			sys1.Kill()
		}
	}
	sys1.OnRoundStart = func(uint64, uint64) {
		if h := heapObjectsBytes(); h > r.peakHeap {
			r.peakHeap = h
		}
	}
	syncs := syncLedger{}
	sys1.OnEvent(marks.countSync)
	sys1.OnEvent(syncs.count)
	var stop atomic.Bool
	runProducers(ctx, sys1, ps, cl.batch, &stop, func() { runToKill(sys1, sp.epochs) })
	if !sys1.Halted() {
		return nil, fmt.Errorf("phase 1 ended without the kill: %v", sys1.Err())
	}
	_, r.fill, _ = sys1.Collector().IngestDepth()
	sys1.Close()
	r.winEps = int(cl.killAt) - 2
	rcs1 := make([][]*chain.Receipt, len(ps))
	txsByEpoch := map[uint64]int{}
	for i, p := range ps {
		rcs1[i] = p.rcs
		for _, rc := range p.rcs {
			if !executed(rc) {
				continue
			}
			txsByEpoch[rc.Epoch]++
			if rc.Epoch >= 2 && rc.Epoch < cl.killAt {
				r.winTxs++
			}
		}
	}
	// Chain cost comes from the epochs phase 1 synced: their epoch cuts
	// are whole, where the resumed run's last epoch is a partial drain.
	r.chainCost(syncs, txsByEpoch, sys1.SidechainLedger().PeakBytes())
	if traced {
		r.layers = spanLayers(tr1, &marks, sys1)
		r.tracer = tr1
	}

	// Phase 2: reopen the killed node's directory and resubmit what the
	// crash lost — everything not in a durable receipt.
	var tr2 *trace.Tracer
	if traced {
		tr2 = trace.New(sp.epochs + 2)
	}
	tOpen := time.Now()
	c2, err := chain.Open(dir, durableConfig(sp, seed, tr2, users))
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	r.open = time.Since(tOpen)
	sys2 := c2.(*core.MultiSystem)
	defer sys2.Close()
	rec := sys2.Recovery()
	if rec == nil {
		return nil, errors.New("reopen restored nothing")
	}
	durable := make(map[string]*chain.Receipt, len(rec.Receipts))
	for _, rc := range rec.Receipts {
		if !executed(rc) {
			continue
		}
		if durable[rc.TxID] != nil {
			return nil, fmt.Errorf("recovered receipts list %s twice", rc.TxID)
		}
		durable[rc.TxID] = rc
	}
	for _, p := range ps {
		p.backlog = p.backlog[:0]
		p.rcs = make([]*chain.Receipt, len(p.sent))
		for i, tx := range p.sent {
			if durable[tx.ID] == nil {
				p.backlog = append(p.backlog, i)
			}
		}
	}
	sys2.OnEvent(func(ev chain.Event) {
		if ev.Type == chain.EventMetaBlock && r.recover == 0 {
			r.recover = time.Since(tOpen)
		}
	})
	stop.Store(false)
	sys2.OnEpochStart = func(e uint64) {
		if e >= uint64(sp.epochs) {
			stop.Store(true)
		}
	}
	runProducers(ctx, sys2, ps, cl.batch, &stop, func() {
		_, err = sys2.Run(sp.epochs)
	})
	if err != nil {
		return nil, fmt.Errorf("resumed run: %w", err)
	}
	if r.untouched, err = checkParity(sys2); err != nil {
		return nil, fmt.Errorf("validate reopened node: %w", err)
	}
	if r.recover == 0 {
		return nil, errors.New("reopened node mined no meta-block")
	}

	// Exactly once: each transaction a producer handed over executed
	// either before the crash (a durable receipt) or after the reopen,
	// never both and never twice.
	var execLat, payLat []float64
	matched := 0
	for pi, p := range ps {
		for i, tx := range p.sent {
			r.attempted++
			n := 0
			var lat, pay time.Duration
			if d := durable[tx.ID]; d != nil {
				n++
				matched++
				lat = d.ExecutedAt - d.SubmittedAt
				if i < len(rcs1[pi]) && rcs1[pi][i] != nil && rcs1[pi][i].SyncedAt > 0 {
					pay = rcs1[pi][i].SyncedAt - d.SubmittedAt
				}
			}
			if rc := p.rcs[i]; executed(rc) {
				n++
				lat = rc.ExecutedAt - rc.SubmittedAt
				pay = rc.SyncedAt - rc.SubmittedAt
			}
			switch n {
			case 0:
				continue // failed: counted as attempted minus executed
			case 2:
				return nil, fmt.Errorf("transaction %s executed both before and after the crash", tx.ID)
			}
			r.executed++
			execLat = append(execLat, lat.Seconds())
			if pay > 0 {
				payLat = append(payLat, pay.Seconds())
			}
		}
	}
	if matched != len(durable) {
		return nil, fmt.Errorf("%d recovered receipts name transactions no producer sent", len(durable)-matched)
	}
	for _, p := range ps {
		r.submitUS = append(r.submitUS, p.submitUS...)
		r.retries += p.retries
		r.attempts += p.attempts
	}
	r.execLat, r.payLat = newDist(execLat), newDist(payLat)
	if peak := float64(sys2.SidechainLedger().PeakBytes()) / 1e6; peak > r.scPeakMB {
		r.scPeakMB = peak
	}
	if traced {
		r.layers["store.open_ms"] = ms(r.open)
		r.layers["store.recover_s"] = r.recover.Seconds()
		r.addIngest()
	}
	// Release the benchmark's own receipt copies and producers before
	// measuring what the node itself retains.
	sys2.OnEpochStart = nil
	ps, rcs1, durable, execLat, payLat, txsByEpoch = nil, nil, nil, nil, nil, nil
	r.retainedMB = float64(liveHeapBytes()) / 1e6
	runtime.KeepAlive(sys2)
	return r, nil
}

// runToKill runs a node whose OnEpochStart hook kills it. Run would
// join the commit pipeline a second time after Kill already joined it
// (and panic), so this drives the simulator directly and skips the
// report.
func runToKill(sys *core.MultiSystem, epochs int) {
	if sys.StartEpochs(epochs) {
		sys.Sim().Run()
	}
}

// runProducers starts the producers, runs body on this goroutine, and
// waits for every producer to return.
func runProducers(ctx context.Context, sys *core.MultiSystem, ps []*producer, batch int, stop *atomic.Bool, body func()) {
	var wg sync.WaitGroup
	for _, p := range ps {
		wg.Add(1)
		go func(p *producer) {
			defer wg.Done()
			p.loop(ctx, sys, batch, stop)
		}(p)
	}
	body()
	// A node that finished or was killed refuses further traffic, so
	// every producer returns once the run is over.
	stop.Store(true)
	wg.Wait()
}
