package main

import (
	"time"

	"ammboost/internal/core"
	"ammboost/internal/trace"
)

// spanLayers attributes a traced repeat's steady-state window to the
// node's layers. It reads the spans the program already records and keeps
// those that started inside the window. A stage runs once per epoch, so
// its per-epoch cost is its in-window time over the distinct epochs
// those spans belong to: the window's edges cut no stage in half.
// Run-level gauges come from the node's metrics collector.
func spanLayers(tr *trace.Tracer, m *winMarks, sys *core.MultiSystem) map[string]float64 {
	var (
		total   [numStageSlots]time.Duration
		bytes   [numStageSlots]int
		txs     [numStageSlots]int
		epochs  [numStageSlots]map[uint64]bool
		execMax = map[uint64]time.Duration{} // per epoch: the slowest shard's busy time
	)
	for _, sp := range tr.Snapshot(0) {
		if sp.Start < m.trStart || sp.Start >= m.trEnd {
			continue
		}
		total[sp.Stage] += sp.Dur
		bytes[sp.Stage] += sp.Bytes
		txs[sp.Stage] += sp.Txs
		if epochs[sp.Stage] == nil {
			epochs[sp.Stage] = map[uint64]bool{}
		}
		epochs[sp.Stage][sp.Epoch] = true
		if sp.Stage == trace.StageExecute && sp.Dur > execMax[sp.Epoch] {
			execMax[sp.Epoch] = sp.Dur
		}
	}
	perEpoch := func(st trace.Stage) float64 { return ratio(ms(total[st]), float64(len(epochs[st]))) }
	fsync := total[trace.StageStoreFsync]

	// The run loop is the simulator goroutine. With pipeline depth 2 the
	// commit stage (build, chunk, sign, encode) runs beside it, so only
	// the stages the loop itself executes or waits on count as covered;
	// execution counts once per epoch, as its slowest shard.
	covered := m.benchRun
	for _, st := range []trace.Stage{
		trace.StageSubmit, trace.StageSeal, trace.StageStoreAppend,
		trace.StageSyncSubmit, trace.StagePrune, trace.StageStall,
	} {
		covered += total[st]
	}
	for _, d := range execMax {
		covered += d
	}
	unattributed := 0.0
	if wall := m.trEnd - m.trStart; wall > 0 && covered < wall {
		unattributed = 100 * float64(wall-covered) / float64(wall)
	}

	col := sys.Collector()
	_, _, peakDrain := col.IngestDepth()
	imbalance, _, _ := col.ShardImbalance()
	sign, store := trace.StageSign, trace.StageStoreAppend
	l := map[string]float64{
		"ingest.peak_occupancy":     float64(peakDrain),
		"ingest.drain_ms_per_epoch": perEpoch(trace.StageSubmit),

		"engine.execute_ms_per_epoch": perEpoch(trace.StageExecute),
		"engine.execute_us_per_tx":    ratio(float64(total[trace.StageExecute].Microseconds()), float64(txs[trace.StageExecute])),
		"engine.seal_ms_per_epoch":    perEpoch(trace.StageSeal),
		"engine.shard_imbalance":      imbalance,

		"core.commit_build_ms_per_epoch":   perEpoch(trace.StageCommitBuild),
		"core.chunk_ms_per_epoch":          perEpoch(trace.StageChunk),
		"core.sign_ms_per_epoch":           perEpoch(sign),
		"core.sign_ms_per_part":            ratio(ms(total[sign]), float64(txs[sign])),
		"core.sync_parts_per_epoch":        ratio(float64(txs[sign]), float64(len(epochs[sign]))),
		"core.pipeline_stall_ms_per_epoch": ratio(ms(total[trace.StageStall]), float64(len(epochs[trace.StageExecute]))),
		"core.pipeline_occupancy":          col.AvgPipelineOccupancy(),
		"core.unattributed_pct":            unattributed,

		"store.encode_ms_per_epoch": perEpoch(trace.StageEncode),
		"store.append_ms_per_epoch": ratio(ms(total[store]-fsync), float64(len(epochs[store]))),
		"store.fsync_ms_per_epoch":  perEpoch(trace.StageStoreFsync),
		"store.bytes_per_epoch":     ratio(float64(bytes[store]), float64(len(epochs[store]))),
		"store.open_ms":             0,
		"store.recover_s":           0,

		"mainchain.sync_submit_ms_per_epoch": perEpoch(trace.StageSyncSubmit),
		"mainchain.sync_txs_per_epoch":       ratio(float64(m.syncParts), float64(m.syncEpochs)),
		"mainchain.gas_per_epoch":            ratio(float64(m.syncGas), float64(m.syncEpochs)),

		"sidechain.prune_ms_per_epoch": perEpoch(trace.StagePrune),
		"sidechain.retained_mb":        float64(sys.SidechainLedger().SizeBytes()) / 1e6,
	}
	return l
}

// addIngest records the benchmark-timed SubmitBatch calls of a traced
// repeat once all of them are in.
func (r *repeat) addIngest() {
	r.layers["ingest.submit_batch_us_p50"] = percentile(r.submitUS, 50)
	r.layers["ingest.submit_batch_us_p99"] = percentile(r.submitUS, 99)
	r.layers["ingest.retry_ratio"] = ratio(float64(r.retries), float64(r.attempts))
}

// numStageSlots bounds trace.Stage values (the package keeps its count
// unexported).
const numStageSlots = 32

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
