package mainchain

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"ammboost/internal/crypto/tsig"
	"ammboost/internal/gasmodel"
	"ammboost/internal/sim"
	"ammboost/internal/summary"
	"ammboost/internal/u256"
)

// testPool is the bank pool the fixture registers.
const testPool = "pool-a"

// bankFixture wires a chain with the ERC20 pair, a MultiBank holding one
// pool's genesis reserves, and a committee.
type bankFixture struct {
	sim    *sim.Simulator
	chain  *Chain
	t0, t1 *ERC20
	bank   *MultiBank
	// committee key material (every epoch of these tests reuses it: each
	// sync registers the same group key as the next epoch's).
	members []tsig.DKGResult
}

func newBankFixture(t *testing.T) *bankFixture {
	t.Helper()
	s := sim.New()
	c := New(s, DefaultConfig())
	t0 := NewERC20("A", Faucet)
	t1 := NewERC20("B", Faucet)
	c.Deploy(t0)
	c.Deploy(t1)
	members, err := tsig.RunDKG(rand.New(rand.NewSource(42)), 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	bank := NewMultiBank(t0, t1, members[0].Group)
	bank.FeePips = 3000
	genesis := summary.PositionEntry{ID: "genesis", Owner: "lp-genesis",
		TickLower: -887220, TickUpper: 887220, Liquidity: u256.FromUint64(1000)}
	if err := bank.RegisterPool(testPool, u256.FromUint64(100_000), u256.FromUint64(100_000), genesis); err != nil {
		t.Fatal(err)
	}
	c.Deploy(bank)
	// Fund users and pre-approve the bank (the approval transactions are
	// exercised in chain_test; here we focus on bank semantics).
	for _, u := range []string{"alice", "bob", "lp"} {
		if err := t0.Ledger.Mint(Faucet, u, u256.FromUint64(1_000_000)); err != nil {
			t.Fatal(err)
		}
		if err := t1.Ledger.Mint(Faucet, u, u256.FromUint64(1_000_000)); err != nil {
			t.Fatal(err)
		}
		t0.Ledger.Approve(u, bank.Name(), u256.Max)
		t1.Ledger.Approve(u, bank.Name(), u256.Max)
	}
	return &bankFixture{sim: s, chain: c, t0: t0, t1: t1, bank: bank, members: members}
}

// syncArgs builds a single-part sync for one epoch, signed by the
// fixture committee.
func (f *bankFixture) syncArgs(epoch uint64, p *summary.SyncPayload) *MultiSyncArgs {
	p.PoolID = testPool
	a := &MultiSyncArgs{Epoch: epoch, Part: 1, NumParts: 1, Payloads: []*summary.SyncPayload{p},
		SummaryRoot: [32]byte{byte(epoch)}, NextKey: f.members[0].Group}
	a.Sig = signWith(f.members, a.Digest())
	return a
}

func signWith(members []tsig.DKGResult, digest [32]byte) tsig.Point {
	partials := make([]tsig.PartialSig, 4)
	for i := 0; i < 4; i++ {
		partials[i] = tsig.PartialSign(members[i].Share, digest[:])
	}
	sig, err := tsig.Combine(members[0].Group, partials)
	if err != nil {
		panic(err)
	}
	return sig
}

func (f *bankFixture) submitAndRun(t *testing.T, tx *Tx, until time.Duration) {
	t.Helper()
	f.sim.After(time.Second, func() { f.chain.Submit(tx) })
	f.sim.RunUntil(until)
}

func (f *bankFixture) deposit(id, user string, a0, a1 uint64) *Tx {
	return &Tx{ID: id, From: user, To: f.bank.Name(), Method: "deposit",
		Args: DepositArgs{Epoch: 1, Amount0: u256.FromUint64(a0), Amount1: u256.FromUint64(a1)}}
}

func TestDepositPullsTokens(t *testing.T) {
	f := newBankFixture(t)
	tx := f.deposit("d1", "alice", 500, 700)
	f.submitAndRun(t, tx, 20*time.Second)
	f.chain.Stop()
	if tx.Status != TxConfirmed {
		t.Fatalf("deposit failed: %v", tx.Err)
	}
	c0, c1 := f.bank.Custody()
	if !c0.Eq(u256.FromUint64(100_500)) || !c1.Eq(u256.FromUint64(100_700)) {
		t.Errorf("custody = %s/%s, want genesis reserves plus the deposit", c0, c1)
	}
	if got := f.t0.Ledger.BalanceOf("alice"); !got.Eq(u256.FromUint64(999_500)) {
		t.Errorf("alice token0 = %s", got)
	}
	if tx.GasUsed < gasmodel.DepositTwoTokensGas {
		t.Errorf("deposit gas = %d, want >= %d", tx.GasUsed, gasmodel.DepositTwoTokensGas)
	}
}

func TestDepositWithoutFundsReverts(t *testing.T) {
	f := newBankFixture(t)
	tx := f.deposit("d1", "alice", 10_000_000, 0)
	f.submitAndRun(t, tx, 20*time.Second)
	f.chain.Stop()
	if tx.Status != TxFailed {
		t.Fatal("over-balance deposit should revert")
	}
	if c0, _ := f.bank.Custody(); !c0.Eq(u256.FromUint64(100_000)) {
		t.Errorf("failed deposit moved tokens: custody %s", c0)
	}
}

func validPayload(epoch uint64) *summary.SyncPayload {
	p := &summary.SyncPayload{
		Epoch: epoch,
		Payouts: []summary.PayoutEntry{
			{User: "alice", Amount0: u256.FromUint64(300), Amount1: u256.FromUint64(700)},
		},
		Positions: []summary.PositionEntry{
			{ID: "pos1", Owner: "lp", TickLower: -60, TickUpper: 60, Liquidity: u256.FromUint64(1000)},
		},
		PoolReserve0: u256.FromUint64(100_200),
		PoolReserve1: u256.FromUint64(100_000),
		NextGroupKey: []byte("vkc-epoch-2"),
	}
	p.SortEntries()
	return p
}

func TestSyncHappyPath(t *testing.T) {
	f := newBankFixture(t)
	// Alice deposits 500/700; the epoch's trading turned that into
	// 300/700 with 200 of token0 moving into the pool.
	f.submitAndRun(t, f.deposit("d1", "alice", 500, 700), 20*time.Second)

	p := validPayload(1)
	syncTx := &Tx{ID: "s1", From: "committee-1", To: f.bank.Name(), Method: "sync",
		Size: p.MainchainBytes(), Args: f.syncArgs(1, p)}
	f.submitAndRun(t, syncTx, 40*time.Second)
	f.chain.Stop()
	if syncTx.Status != TxConfirmed {
		t.Fatalf("sync failed: %v", syncTx.Err)
	}
	// Alice got her payout: original 1M - 500 deposit + 300 payout.
	if got := f.t0.Ledger.BalanceOf("alice"); !got.Eq(u256.FromUint64(999_800)) {
		t.Errorf("alice token0 = %s, want 999800", got)
	}
	if got := f.t1.Ledger.BalanceOf("alice"); !got.Eq(u256.FromUint64(1_000_000)) {
		t.Errorf("alice token1 = %s, want 1000000 (full refund)", got)
	}
	// Custody retains exactly the pool reserves.
	c0, c1 := f.bank.Custody()
	if r0, r1 := f.bank.TotalReserves(); !c0.Eq(r0) || !c1.Eq(r1) {
		t.Errorf("custody %s/%s, reserves %s/%s", c0, c1, r0, r1)
	}
	// Position stored beside the genesis position; epoch-2 key
	// registered.
	if _, ok := f.bank.Positions[testPool]["pos1"]; !ok {
		t.Error("position not stored")
	}
	if _, ok := f.bank.Positions[testPool]["genesis"]; !ok {
		t.Error("genesis position lost")
	}
	if _, ok := f.bank.NextGroupKey(); !ok {
		t.Error("next committee key not registered")
	}
	if f.bank.LastSyncedEpoch != 1 {
		t.Errorf("LastSyncedEpoch = %d", f.bank.LastSyncedEpoch)
	}
	// Gas: itemized model (1 payout, 1 position, auth, pool balance),
	// the summary root word, and the next committee key.
	wantGas := gasmodel.SyncGas(1, 1, p.MainchainBytes()) + gasmodel.SstoreGas(32) +
		gasmodel.SstoreGas(gasmodel.ABIGroupKeyBytes)
	if syncTx.GasUsed != wantGas {
		t.Errorf("sync gas = %d, want %d", syncTx.GasUsed, wantGas)
	}
}

func TestSyncRejectsForgedSignature(t *testing.T) {
	f := newBankFixture(t)
	// A different committee signs: must be rejected.
	mallory, err := tsig.RunDKG(rand.New(rand.NewSource(666)), 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	a := f.syncArgs(1, validPayload(1))
	a.Sig = signWith(mallory, a.Digest())
	tx := &Tx{ID: "s1", From: "mallory", To: f.bank.Name(), Method: "sync", Args: a}
	f.submitAndRun(t, tx, 20*time.Second)
	f.chain.Stop()
	if tx.Status != TxFailed || !errors.Is(tx.Err, ErrBadSyncSignature) {
		t.Fatalf("forged sync: status=%v err=%v", tx.Status, tx.Err)
	}
	if len(f.bank.Positions[testPool]) != 1 {
		t.Error("forged sync must not change state")
	}
}

func TestSyncRejectsUnknownEpoch(t *testing.T) {
	f := newBankFixture(t)
	tx := &Tx{ID: "s1", From: "committee", To: f.bank.Name(), Method: "sync",
		Args: f.syncArgs(7, validPayload(7))}
	f.submitAndRun(t, tx, 20*time.Second)
	f.chain.Stop()
	if tx.Status != TxFailed || !errors.Is(tx.Err, ErrUnknownEpochKey) {
		t.Fatalf("unknown epoch: status=%v err=%v", tx.Status, tx.Err)
	}
}

func TestSyncTamperedPayloadRejected(t *testing.T) {
	f := newBankFixture(t)
	p := validPayload(1)
	a := f.syncArgs(1, p)
	// Tamper after signing.
	p.Payouts[0].Amount0 = u256.FromUint64(999_999)
	tx := &Tx{ID: "s1", From: "committee", To: f.bank.Name(), Method: "sync", Args: a}
	f.submitAndRun(t, tx, 20*time.Second)
	f.chain.Stop()
	if tx.Status != TxFailed || !errors.Is(tx.Err, ErrBadSyncSignature) {
		t.Fatalf("tampered sync: status=%v err=%v", tx.Status, tx.Err)
	}
}

// TestMassSyncAppliesMultipleEpochs submits two epochs' signed syncs
// together, the way a committee recovers a skipped epoch: the earlier
// epoch's completion registers the key the later one verifies against,
// and the dependency orders them into consecutive blocks.
func TestMassSyncAppliesMultipleEpochs(t *testing.T) {
	f := newBankFixture(t)
	f.sim.After(time.Second, func() {
		f.chain.Submit(f.deposit("d1", "alice", 500, 0))
		f.chain.Submit(f.deposit("d2", "bob", 400, 0))
	})
	f.sim.RunUntil(20 * time.Second)

	p1 := &summary.SyncPayload{Epoch: 1,
		Payouts:      []summary.PayoutEntry{{User: "alice", Amount0: u256.FromUint64(450)}},
		PoolReserve0: u256.FromUint64(100_050), PoolReserve1: u256.FromUint64(100_000)}
	p2 := &summary.SyncPayload{Epoch: 2,
		Payouts:      []summary.PayoutEntry{{User: "bob", Amount0: u256.FromUint64(380)}},
		PoolReserve0: u256.FromUint64(100_070), PoolReserve1: u256.FromUint64(100_000)}
	tx1 := &Tx{ID: "ms-e1", From: "committee-2", To: f.bank.Name(), Method: "sync", Args: f.syncArgs(1, p1)}
	tx2 := &Tx{ID: "ms-e2", From: "committee-2", To: f.bank.Name(), Method: "sync", Args: f.syncArgs(2, p2),
		DependsOn: []string{tx1.ID}}
	f.sim.After(time.Second, func() { f.chain.Submit(tx1); f.chain.Submit(tx2) })
	f.sim.RunUntil(60 * time.Second)
	f.chain.Stop()
	if tx1.Status != TxConfirmed || tx2.Status != TxConfirmed {
		t.Fatalf("mass-sync failed: %v / %v", tx1.Err, tx2.Err)
	}
	if f.bank.LastSyncedEpoch != 2 {
		t.Errorf("LastSyncedEpoch = %d, want 2", f.bank.LastSyncedEpoch)
	}
	if c0, _ := f.bank.Custody(); !c0.Eq(u256.FromUint64(100_070)) {
		t.Errorf("custody retains %s, want final pool reserve 100070", c0)
	}
	if _, ok := f.bank.NextGroupKey(); !ok {
		t.Error("mass-sync should register the key for epoch 3")
	}
}

func TestSyncIdempotentPerEpoch(t *testing.T) {
	f := newBankFixture(t)
	f.submitAndRun(t, f.deposit("d1", "alice", 500, 700), 20*time.Second)

	p := validPayload(1)
	mk := func(id string) *Tx {
		return &Tx{ID: id, From: "committee", To: f.bank.Name(), Method: "sync", Args: f.syncArgs(1, p)}
	}
	tx1, tx2 := mk("s1"), mk("s2")
	f.sim.After(time.Second, func() { f.chain.Submit(tx1); f.chain.Submit(tx2) })
	f.sim.RunUntil(40 * time.Second)
	f.chain.Stop()
	if tx1.Status != TxConfirmed {
		t.Fatalf("first sync: %v", tx1.Err)
	}
	if tx2.Status != TxFailed || !errors.Is(tx2.Err, ErrEpochAlreadySync) {
		t.Errorf("duplicate sync: status=%v err=%v, want ErrEpochAlreadySync", tx2.Status, tx2.Err)
	}
	// The duplicate must not pay alice twice: 1M - 500 + 300.
	if got := f.t0.Ledger.BalanceOf("alice"); !got.Eq(u256.FromUint64(999_800)) {
		t.Errorf("alice token0 = %s after duplicate sync", got)
	}
}

// TestSyncRejectsPayoutsBeyondCustody pins token conservation at the
// contract boundary: a sync whose payouts exceed what custody holds
// reverts without touching state.
func TestSyncRejectsPayoutsBeyondCustody(t *testing.T) {
	f := newBankFixture(t)
	p := validPayload(1)
	p.Payouts[0].Amount0 = u256.FromUint64(1_000_000)
	tx := &Tx{ID: "s1", From: "committee", To: f.bank.Name(), Method: "sync", Args: f.syncArgs(1, p)}
	f.submitAndRun(t, tx, 20*time.Second)
	f.chain.Stop()
	if tx.Status != TxFailed || !errors.Is(tx.Err, ErrCustodyShort) {
		t.Fatalf("status=%v err=%v, want ErrCustodyShort", tx.Status, tx.Err)
	}
	if f.bank.LastSyncedEpoch != 0 || len(f.bank.Positions[testPool]) != 1 {
		t.Error("reverted sync changed bank state")
	}
}

func TestFlashLoanOnBank(t *testing.T) {
	f := newBankFixture(t)
	var received u256.Int
	tx := &Tx{ID: "f1", From: "alice", To: f.bank.Name(), Method: "flash",
		Args: FlashArgs{PoolID: testPool, Amount0: u256.FromUint64(10_000),
			Callback: func(a0, a1 u256.Int) (u256.Int, u256.Int) {
				received = a0
				// Repay principal + 0.3% fee.
				return u256.FromUint64(10_030), u256.Zero
			}}}
	f.submitAndRun(t, tx, 20*time.Second)
	f.chain.Stop()
	if tx.Status != TxConfirmed {
		t.Fatalf("flash failed: %v", tx.Err)
	}
	if !received.Eq(u256.FromUint64(10_000)) {
		t.Errorf("callback received %s", received)
	}
	// The fee stays in custody; alice paid it.
	if c0, _ := f.bank.Custody(); !c0.Eq(u256.FromUint64(100_030)) {
		t.Errorf("custody after flash = %s", c0)
	}
	if got := f.t0.Ledger.BalanceOf("alice"); !got.Eq(u256.FromUint64(999_970)) {
		t.Errorf("alice balance = %s", got)
	}
}

func TestFlashLoanNotRepaidReverts(t *testing.T) {
	f := newBankFixture(t)
	tx := &Tx{ID: "f1", From: "alice", To: f.bank.Name(), Method: "flash",
		Args: FlashArgs{PoolID: testPool, Amount0: u256.FromUint64(10_000),
			Callback: func(a0, a1 u256.Int) (u256.Int, u256.Int) {
				return a0, u256.Zero // principal only, no fee
			}}}
	f.run(t, tx)
	unknown := &Tx{ID: "f2", From: "alice", To: f.bank.Name(), Method: "flash",
		Args: FlashArgs{PoolID: "pool-z", Amount0: u256.FromUint64(1)}}
	f.run(t, unknown)
	f.chain.Stop()
	if tx.Status != TxFailed || !errors.Is(tx.Err, ErrFlashNotRepaid) {
		t.Fatalf("status=%v err=%v", tx.Status, tx.Err)
	}
	if c0, _ := f.bank.Custody(); !c0.Eq(u256.FromUint64(100_000)) {
		t.Errorf("custody after inverted flash = %s", c0)
	}
	if unknown.Status != TxFailed || !errors.Is(unknown.Err, ErrUnknownBankPool) {
		t.Errorf("flash on unknown pool: status=%v err=%v", unknown.Status, unknown.Err)
	}
}

// TestReseedCustodyMatchesReserves pins the restore-time re-seed in both
// directions: surplus burns, shortfall mints.
func TestReseedCustodyMatchesReserves(t *testing.T) {
	f := newBankFixture(t)
	if err := f.bank.Fund(u256.FromUint64(7), u256.Zero); err != nil {
		t.Fatal(err)
	}
	f.bank.Reserves[testPool] = PoolReserves{Reserve0: u256.FromUint64(100_000), Reserve1: u256.FromUint64(100_500)}
	if err := f.bank.ReseedCustody(); err != nil {
		t.Fatal(err)
	}
	c0, c1 := f.bank.Custody()
	if !c0.Eq(u256.FromUint64(100_000)) || !c1.Eq(u256.FromUint64(100_500)) {
		t.Errorf("custody = %s/%s after re-seed", c0, c1)
	}
}
