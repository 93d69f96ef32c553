// Quickstart: stand up a complete ammBoost deployment — mainchain with
// the bank and ERC20 pair, PBFT sidechain, workload — through the
// unified chain.Chain node API, run three epochs, and print the state
// growth control results. Demonstrates the three pillars of the API:
// receipts (Submit returns a handle that advances through the epoch
// lifecycle), typed errors (Run reports lifecycle faults instead of
// panicking), and event subscriptions.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"ammboost/internal/chain"
	"ammboost/internal/core"
	"ammboost/internal/gasmodel"
	"ammboost/internal/summary"
	"ammboost/internal/u256"
	"ammboost/internal/workload"
)

func main() {
	// The paper's deployment shape, scaled down for a quick run: 30
	// rounds of 7 s per epoch, a 20-member committee, 10x Uniswap's
	// daily volume.
	sysCfg := chain.NewConfig(
		chain.WithSeed(1),
		chain.WithEpochRounds(30),
		chain.WithRoundDuration(7*time.Second),
		chain.WithCommittee(20),
	)
	drvCfg := core.DriverConfig{
		DailyVolume: 500_000,
		Epochs:      3,
		Workload:    workload.DefaultConfig(1),
	}
	node, _, err := core.NewDriver(sysCfg, drvCfg)
	if err != nil {
		log.Fatal(err)
	}

	// Count sync confirmations from the event stream while the run goes.
	syncs := node.Subscribe(chain.MaskSyncConfirmed)
	syncSeen := make(chan int)
	go func() {
		n := 0
		for range syncs {
			n++
		}
		syncSeen <- n
	}()

	// Submission-time validation returns typed errors before anything
	// reaches the queue.
	if _, err := node.Submit(context.Background(), &summary.Tx{ID: "bad", Kind: gasmodel.KindSwap, User: "user-000"}); err == nil {
		log.Fatal("zero-amount swap should be rejected at submission")
	}

	// A well-formed transaction yields a receipt the lifecycle advances:
	// Pending → Executed → Checkpointed → Synced → Pruned.
	rc, err := node.Submit(context.Background(), &summary.Tx{
		ID: "quickstart-swap", Kind: gasmodel.KindSwap, User: "user-000",
		ZeroForOne: true, ExactIn: true, Amount: u256.FromUint64(1000),
	})
	if err != nil {
		log.Fatalf("submit: %v", err)
	}

	rep, err := node.Run(drvCfg.Epochs)
	if err != nil {
		log.Fatalf("lifecycle fault: %v", err)
	}
	if err := node.Validate(); err != nil {
		log.Fatalf("cross-layer invariants: %v", err)
	}
	confirmedSyncs := <-syncSeen

	fmt.Println("ammBoost quickstart — 3 epochs at 10x Uniswap volume")
	fmt.Printf("  processed:            %d transactions (%.2f tx/s)\n",
		rep.Collector.NumProcessed(), rep.Throughput)
	fmt.Printf("  sidechain latency:    %.2f s (avg to meta-block)\n", rep.AvgSCLatency.Seconds())
	fmt.Printf("  payout latency:       %.2f s (avg to Sync confirmation)\n", rep.AvgPayoutLatency.Seconds())
	fmt.Printf("  mainchain growth:     %d B for %d syncs (%d observed via events)\n",
		rep.MainchainBytes, rep.SyncsOK, confirmedSyncs)
	fmt.Printf("  sidechain peak:       %d B\n", rep.SidechainPeakBytes)
	fmt.Printf("  sidechain retained:   %d B after pruning (reclaimed %d B)\n",
		rep.SidechainRetainedBytes, rep.SidechainPrunedBytes)
	fmt.Printf("  bank state:           %d live positions, epoch %d synced\n",
		rep.PositionsLive, node.LastSyncedEpoch())
	fmt.Printf("  sample receipt:       %s %s (executed e%d/r%d at %s, synced at %s, pruned at %s)\n",
		rc.TxID, rc.Status, rc.Epoch, rc.Round,
		rc.ExecutedAt.Round(time.Second), rc.SyncedAt.Round(time.Second), rc.PrunedAt.Round(time.Second))
}
