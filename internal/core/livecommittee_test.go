package core

import (
	"math/rand"
	"testing"
	"time"

	"ammboost/internal/amm"
	"ammboost/internal/crypto/tsig"
	"ammboost/internal/gasmodel"
	"ammboost/internal/netsim"
	"ammboost/internal/sidechain"
	"ammboost/internal/sim"
	"ammboost/internal/summary"
	"ammboost/internal/u256"
)

func liveFixture(t *testing.T, seed int64) (*sim.Simulator, *netsim.Network, *summary.Executor, *sidechain.Ledger) {
	t.Helper()
	s := sim.New()
	net := netsim.New(s, netsim.Config{BaseLatency: 2 * time.Millisecond, BandwidthBps: 1e9})
	pool, err := amm.NewPool("A", "B", 3000, 60, u256.Q96)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Mint("seed", "lp0", -12000, 12000, u256.FromUint64(50_000_000_000)); err != nil {
		t.Fatal(err)
	}
	exec := summary.NewExecutor(1, pool, map[string]summary.Deposit{
		"alice": {Amount0: u256.FromUint64(10_000_000), Amount1: u256.FromUint64(10_000_000)},
		"bob":   {Amount0: u256.FromUint64(10_000_000), Amount1: u256.FromUint64(10_000_000)},
	})
	ledger := sidechain.NewLedger([32]byte{0xaa})
	return s, net, exec, ledger
}

func liveTxs(n int) []*summary.Tx {
	txs := make([]*summary.Tx, n)
	for i := range txs {
		user := "alice"
		if i%2 == 0 {
			user = "bob"
		}
		txs[i] = &summary.Tx{
			ID: string(rune('a'+i%26)) + string(rune('0'+i/26)), Kind: gasmodel.KindSwap,
			User: user, ZeroForOne: i%2 == 0, ExactIn: true,
			Amount: u256.FromUint64(uint64(1000 + i)),
		}
	}
	return txs
}

func TestLiveCommitteeEpoch(t *testing.T) {
	s, net, exec, ledger := liveFixture(t, 1)
	cfg := LiveCommitteeConfig{F: 1, Epoch: 1, Rounds: 3, RoundDur: time.Second, BlockBytes: 1 << 20}
	lc, err := NewLiveCommittee(s, net, rand.New(rand.NewSource(1)), cfg, exec, ledger)
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range liveTxs(12) {
		lc.SubmitTx(tx)
	}
	if err := lc.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if len(lc.Blocks) != 3 {
		t.Fatalf("mined %d meta-blocks, want 3", len(lc.Blocks))
	}
	if lc.Summary == nil || lc.Payload() == nil {
		t.Fatal("no summary block")
	}
	// The TSQC signature over the payload verifies under the committee
	// key — exactly what the bank checks.
	digest := lc.Payload().Digest()
	if err := tsig.Verify(lc.GroupKey, digest[:], lc.SyncSig); err != nil {
		t.Errorf("sync signature invalid: %v", err)
	}
	// All transactions were processed into blocks.
	total := 0
	for _, b := range lc.Blocks {
		total += len(b.Txs)
	}
	if total != 12 {
		t.Errorf("blocks carry %d txs, want 12", total)
	}
	if lc.ViewChanges != 0 {
		t.Errorf("unexpected view changes: %d", lc.ViewChanges)
	}
}

func TestLiveCommitteeViewChangeRecovers(t *testing.T) {
	s, net, exec, ledger := liveFixture(t, 2)
	cfg := LiveCommitteeConfig{F: 1, Epoch: 1, Rounds: 2, RoundDur: time.Second,
		BlockBytes: 1 << 20, SilentLeaderRound: 1}
	lc, err := NewLiveCommittee(s, net, rand.New(rand.NewSource(2)), cfg, exec, ledger)
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range liveTxs(6) {
		lc.SubmitTx(tx)
	}
	if err := lc.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if lc.ViewChanges == 0 {
		t.Error("silent leader should force a view change")
	}
	if len(lc.Blocks) != 2 {
		t.Errorf("mined %d blocks despite fault, want 2", len(lc.Blocks))
	}
	digest := lc.Payload().Digest()
	if err := tsig.Verify(lc.GroupKey, digest[:], lc.SyncSig); err != nil {
		t.Errorf("sync signature invalid after recovery: %v", err)
	}
}

// TestLiveMatchesModelPath runs the same transactions through the live
// message-level committee and through the cost-model executor path used by
// experiments: the resulting summaries must be identical — the model is a
// timing shortcut, never a semantic one.
func TestLiveMatchesModelPath(t *testing.T) {
	mkExec := func() *summary.Executor {
		pool, err := amm.NewPool("A", "B", 3000, 60, u256.Q96)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pool.Mint("seed", "lp0", -12000, 12000, u256.FromUint64(50_000_000_000)); err != nil {
			t.Fatal(err)
		}
		return summary.NewExecutor(1, pool, map[string]summary.Deposit{
			"alice": {Amount0: u256.FromUint64(10_000_000), Amount1: u256.FromUint64(10_000_000)},
			"bob":   {Amount0: u256.FromUint64(10_000_000), Amount1: u256.FromUint64(10_000_000)},
		})
	}

	// Live path.
	s := sim.New()
	net := netsim.New(s, netsim.Config{BaseLatency: time.Millisecond, BandwidthBps: 1e9})
	execLive := mkExec()
	ledger := sidechain.NewLedger([32]byte{})
	cfg := LiveCommitteeConfig{F: 1, Epoch: 1, Rounds: 2, RoundDur: time.Second, BlockBytes: 1 << 20}
	lc, err := NewLiveCommittee(s, net, rand.New(rand.NewSource(3)), cfg, execLive, ledger)
	if err != nil {
		t.Fatal(err)
	}
	txsA := liveTxs(10)
	for _, tx := range txsA {
		lc.SubmitTx(tx)
	}
	if err := lc.Run(cfg); err != nil {
		t.Fatal(err)
	}

	// Model path: apply the same transactions directly (blocks of the
	// same capacity in the same order).
	execModel := mkExec()
	txsB := liveTxs(10)
	for _, tx := range txsB {
		if err := execModel.Apply(tx, 1); err != nil {
			t.Fatal(err)
		}
	}
	modelPayload := execModel.Summary(lc.GroupKey.PK.Bytes())

	livePayload := lc.Payload()
	if livePayload.Digest() != modelPayload.Digest() {
		t.Error("live committee and model path produced different summaries")
	}
}
