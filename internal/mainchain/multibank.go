package mainchain

import (
	"errors"
	"fmt"

	"ammboost/internal/crypto/tsig"
	"ammboost/internal/gasmodel"
	"ammboost/internal/summary"
	"ammboost/internal/u256"
)

// Bank errors.
var (
	ErrUnknownEpochKey  = errors.New("multibank: no committee key registered for epoch")
	ErrBadSyncSignature = errors.New("multibank: sync signature rejected")
	ErrEpochAlreadySync = errors.New("multibank: epoch already synced")
	ErrFlashNotRepaid   = errors.New("multibank: flash loan not repaid with fee")
	ErrUnknownBankPool  = errors.New("multibank: pool not registered")
	ErrNoSummaryRoot    = errors.New("multibank: sync carries no summary root")
	ErrBadSyncPart      = errors.New("multibank: sync part out of range or repeated")
	ErrRootMismatch     = errors.New("multibank: sync parts disagree on summary root")
	ErrCustodyShort     = errors.New("multibank: custody cannot cover the sync's payouts")
)

// MultiBankAddress is the on-chain account of the multi-pool bank.
const MultiBankAddress = "multibank"

// Faucet is the minter of the deployment's ERC20 pair: genesis liquidity,
// user wallets, and the deposits that reach custody without a mainchain
// transaction are all minted by it.
const Faucet = "genesis"

// BankAddressFor returns the on-chain account a chain's bank deploys at:
// the shared default for the single-tenant case (empty chain ID) and a
// chain-scoped account ("multibank/<chainID>") under federation, where K
// sidechains each deploy their own bank on one shared mainchain.
func BankAddressFor(chainID string) string {
	if chainID == "" {
		return MultiBankAddress
	}
	return MultiBankAddress + "/" + chainID
}

// PoolReserves is one pool's stored balance pair.
type PoolReserves struct {
	Reserve0 u256.Int
	Reserve1 u256.Int
}

// MultiBank is ammBoost's mainchain bank (the paper's Fig. 3 bank contract)
// for any number of pools: it holds the ERC20 pair in custody, accepts
// the users' epoch deposits, stores per-pool reserves and liquidity
// positions, verifies TSQC-authenticated epoch syncs whose payloads span
// every registered pool, pays out each sync's balances, records each
// epoch's folded summary root so any pool's end state can be proven
// against a single on-chain commitment, and serves flash loans (the one
// operation that must stay on the mainchain).
type MultiBank struct {
	token0 *ERC20
	token1 *ERC20
	// FeePips is the pools' fee, charged on flash loans.
	FeePips uint32

	// Reserves[poolID] mirrors the canonical pool balances.
	Reserves map[string]PoolReserves
	// Positions[poolID][positionID] is the stored position list.
	Positions map[string]map[string]summary.PositionEntry
	// SummaryRoots[epoch] is the folded multi-pool root from the sync.
	SummaryRoots map[uint64][32]byte

	groupKeys map[uint64]tsig.GroupKey
	synced    map[uint64]bool
	// partsApplied[epoch] tracks which chunks of a multi-part sync have
	// landed; the epoch is synced once all parts are in.
	partsApplied map[uint64]map[int]bool
	// LastSyncedEpoch is the highest epoch whose summary was fully applied.
	LastSyncedEpoch uint64

	// Retain, when > 0, compacts per-epoch bookkeeping (group keys,
	// synced markers, summary roots) older than LastSyncedEpoch-Retain
	// each time an epoch completes, bounding the bank's footprint on
	// long-running deployments. 0 keeps the full history. Replaying a
	// compacted epoch's sync still fails deterministically — its group
	// key is gone, so verification reports an unknown epoch key.
	Retain int
	// compacted is the highest epoch already compacted away.
	compacted uint64

	// addr is the on-chain account the bank answers to; empty means the
	// single-tenant default (MultiBankAddress). Federated deployments give
	// each chain's bank its own account via WithAddress so K banks coexist
	// on one shared mainchain with independent accounting and retention.
	addr string
}

// NewMultiBank deploys the bank over the ERC20 pair with the epoch-1
// committee key, mirroring the paper's SystemSetup. Pools join with
// RegisterPool.
func NewMultiBank(token0, token1 *ERC20, genesisKey tsig.GroupKey) *MultiBank {
	return &MultiBank{
		token0:       token0,
		token1:       token1,
		Reserves:     make(map[string]PoolReserves),
		Positions:    make(map[string]map[string]summary.PositionEntry),
		SummaryRoots: make(map[uint64][32]byte),
		groupKeys:    map[uint64]tsig.GroupKey{1: genesisKey},
		synced:       make(map[uint64]bool),
		partsApplied: make(map[uint64]map[int]bool),
	}
}

// RegisterPool records a pool at deployment: its genesis reserves, held
// in custody, and its genesis liquidity position. Call after WithAddress
// (custody lives at the bank's account).
func (b *MultiBank) RegisterPool(id string, reserve0, reserve1 u256.Int, genesis summary.PositionEntry) error {
	b.Reserves[id] = PoolReserves{Reserve0: reserve0, Reserve1: reserve1}
	b.Positions[id] = map[string]summary.PositionEntry{genesis.ID: genesis}
	return b.Fund(reserve0, reserve1)
}

// Fund mints tokens straight into custody: deposits that reach the bank
// without a mainchain transaction (genesis liquidity, on-demand funding,
// cross-chain re-credits).
func (b *MultiBank) Fund(amount0, amount1 u256.Int) error {
	if err := b.token0.Ledger.Mint(Faucet, b.Name(), amount0); err != nil {
		return err
	}
	return b.token1.Ledger.Mint(Faucet, b.Name(), amount1)
}

// Custody returns the bank's ERC20 balances.
func (b *MultiBank) Custody() (amount0, amount1 u256.Int) {
	return b.token0.Ledger.BalanceOf(b.Name()), b.token1.Ledger.BalanceOf(b.Name())
}

// TotalReserves sums the stored reserves over every pool: what custody
// must at least hold (token conservation).
func (b *MultiBank) TotalReserves() (reserve0, reserve1 u256.Int) {
	for _, r := range b.Reserves {
		reserve0 = u256.Add(reserve0, r.Reserve0)
		reserve1 = u256.Add(reserve1, r.Reserve1)
	}
	return reserve0, reserve1
}

// ReseedCustody sets custody to exactly the stored reserves. A bank
// restored from the durable store re-derives its pool state from
// authenticated records, but deposits and payouts moved tokens on a
// mainchain that did not survive; re-seeding restores token conservation
// from the restored state alone.
func (b *MultiBank) ReseedCustody() error {
	want0, want1 := b.TotalReserves()
	for _, leg := range []struct {
		tok  *ERC20
		want u256.Int
	}{{b.token0, want0}, {b.token1, want1}} {
		have := leg.tok.Ledger.BalanceOf(b.Name())
		if diff, under := u256.SubUnderflow(leg.want, have); !under {
			if err := leg.tok.Ledger.Mint(Faucet, b.Name(), diff); err != nil {
				return err
			}
			continue
		}
		if err := leg.tok.Ledger.Burn(b.Name(), u256.Sub(have, leg.want)); err != nil {
			return err
		}
	}
	return nil
}

// WithAddress rebinds the bank to a chain-scoped on-chain account (see
// BankAddressFor) and returns the bank. Must be called before Deploy.
func (b *MultiBank) WithAddress(addr string) *MultiBank {
	b.addr = addr
	return b
}

// Name implements Contract.
func (b *MultiBank) Name() string {
	if b.addr != "" {
		return b.addr
	}
	return MultiBankAddress
}

// MultiSyncArgs carries one chunk of an epoch's per-pool summaries, the
// folded summary root over ALL pools, the issuing committee's TSQC
// signature, and the next committee's verification key. An epoch whose
// total payload would exceed a block's gas budget splits into NumParts
// chunks; the epoch counts as synced once every part has been applied.
type MultiSyncArgs struct {
	Epoch       uint64
	Part        int // 1-based chunk index
	NumParts    int
	Payloads    []*summary.SyncPayload // this chunk's pools, PoolID set
	SummaryRoot [32]byte
	Sig         tsig.Point
	NextKey     tsig.GroupKey
}

// Digest is the signed content: the folded summary root bound to the
// epoch and the chunk (each payload's own digest commits to its pool).
func (a *MultiSyncArgs) Digest() [32]byte {
	acc := make([]byte, 0, 24+32+32*len(a.Payloads))
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (56 - 8*i))
		}
		acc = append(acc, buf[:]...)
	}
	put(a.Epoch)
	put(uint64(a.Part))
	put(uint64(a.NumParts))
	acc = append(acc, a.SummaryRoot[:]...)
	for _, p := range a.Payloads {
		d := p.Digest()
		acc = append(acc, d[:]...)
	}
	return sha256Digest(acc)
}

// DepositArgs is one leg of a user's epoch deposit. The user must have
// approved the bank on the corresponding ERC20 beforehand.
type DepositArgs struct {
	Epoch   uint64
	Amount0 u256.Int
	Amount1 u256.Int
}

// FlashArgs requests a flash loan from one pool's reserves, served by the
// callback within the same transaction.
type FlashArgs struct {
	PoolID   string
	Amount0  u256.Int
	Amount1  u256.Int
	Callback func(amount0, amount1 u256.Int) (repay0, repay1 u256.Int)
}

// Execute implements Contract.
func (b *MultiBank) Execute(env *Env, method string, args any) error {
	switch method {
	case "sync":
		a, ok := args.(*MultiSyncArgs)
		if !ok {
			return ErrBadArgs
		}
		return b.applySync(env, a)
	case "deposit":
		a, ok := args.(DepositArgs)
		if !ok {
			return ErrBadArgs
		}
		return b.deposit(env, a)
	case "flash":
		a, ok := args.(FlashArgs)
		if !ok {
			return ErrBadArgs
		}
		return b.flash(env, a)
	default:
		return fmt.Errorf("%w: multibank has no method %q", ErrBadArgs, method)
	}
}

// deposit pulls an approved deposit leg into custody. A full two-token
// deposit costs the measured Table II total; a single-token leg costs
// half, so the split four-transaction deposit flow sums to the same
// figure. The sidechain credits the deposit when its last leg confirms.
func (b *MultiBank) deposit(env *Env, a DepositArgs) error {
	legs := uint64(0)
	if !a.Amount0.IsZero() {
		legs++
	}
	if !a.Amount1.IsZero() {
		legs++
	}
	if legs == 0 {
		return fmt.Errorf("%w: empty deposit", ErrBadArgs)
	}
	if err := env.Gas.Charge(gasmodel.DepositTwoTokensGas / 2 * legs); err != nil {
		return err
	}
	if !a.Amount0.IsZero() {
		if err := b.token0.internalTransferFrom(b.Name(), env.Caller, b.Name(), a.Amount0); err != nil {
			return err
		}
	}
	if !a.Amount1.IsZero() {
		if err := b.token1.internalTransferFrom(b.Name(), env.Caller, b.Name(), a.Amount1); err != nil {
			return err
		}
	}
	return nil
}

// flash lends from a pool's reserves inside one transaction: two
// transfers out, the callback, two transfers back, and the fee check.
// The fee stays in custody; the pool's stored reserves remain the
// sidechain's to report.
func (b *MultiBank) flash(env *Env, a FlashArgs) error {
	res, ok := b.Reserves[a.PoolID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownBankPool, a.PoolID)
	}
	if a.Amount0.Gt(res.Reserve0) || a.Amount1.Gt(res.Reserve1) {
		return fmt.Errorf("multibank: flash exceeds pool %s reserves", a.PoolID)
	}
	if err := env.Gas.Charge(gasmodel.TxBaseGas + 4*gasmodel.SstoreWordGas + gasmodel.KeccakGas(64)); err != nil {
		return err
	}
	fee := func(amount u256.Int) u256.Int {
		return u256.DivRoundingUp(u256.Mul(amount, u256.FromUint64(uint64(b.FeePips))), u256.FromUint64(1_000_000))
	}
	if err := b.token0.internalTransfer(b.Name(), env.Caller, a.Amount0); err != nil {
		return err
	}
	if err := b.token1.internalTransfer(b.Name(), env.Caller, a.Amount1); err != nil {
		return err
	}
	repay0, repay1 := a.Callback(a.Amount0, a.Amount1)
	if repay0.Lt(u256.Add(a.Amount0, fee(a.Amount0))) || repay1.Lt(u256.Add(a.Amount1, fee(a.Amount1))) {
		// Loan inverted: claw the principal back (single-transaction
		// atomicity on the real chain).
		_ = b.token0.internalTransfer(env.Caller, b.Name(), a.Amount0)
		_ = b.token1.internalTransfer(env.Caller, b.Name(), a.Amount1)
		return ErrFlashNotRepaid
	}
	if err := b.token0.internalTransfer(env.Caller, b.Name(), repay0); err != nil {
		return err
	}
	return b.token1.internalTransfer(env.Caller, b.Name(), repay1)
}

// applySync is the one implementation of the sync verification chain —
// epoch key lookup, TSQC signature over the part digest, part
// bookkeeping, root consistency, payload application, completion — used
// by on-chain execution (env != nil: gas charged, payouts transferred)
// and by crash-recovery replay (env == nil: the original execution
// already paid the gas and moved the tokens). One
// body, so the two paths cannot drift: a check added here guards both.
func (b *MultiBank) applySync(env *Env, a *MultiSyncArgs) error {
	key, ok := b.groupKeys[a.Epoch]
	if !ok {
		return fmt.Errorf("%w: epoch %d", ErrUnknownEpochKey, a.Epoch)
	}
	if len(a.Payloads) == 0 {
		return fmt.Errorf("%w: empty sync", ErrBadArgs)
	}
	if a.SummaryRoot == ([32]byte{}) {
		return ErrNoSummaryRoot
	}
	if env != nil {
		sumBytes := 0
		for _, p := range a.Payloads {
			sumBytes += p.MainchainBytes()
		}
		if err := env.Gas.Charge(gasmodel.TxBaseGas + gasmodel.SyncAuthGas(sumBytes)); err != nil {
			return err
		}
	}
	digest := a.Digest()
	if err := tsig.Verify(key, digest[:], a.Sig); err != nil {
		return ErrBadSyncSignature
	}
	if b.synced[a.Epoch] {
		return fmt.Errorf("%w: epoch %d", ErrEpochAlreadySync, a.Epoch)
	}
	part, numParts := a.Part, a.NumParts
	if numParts == 0 {
		part, numParts = 1, 1 // single-chunk sync
	}
	if part < 1 || part > numParts {
		return fmt.Errorf("%w: part %d/%d", ErrBadSyncPart, part, numParts)
	}
	applied := b.partsApplied[a.Epoch]
	if applied == nil {
		applied = make(map[int]bool)
		b.partsApplied[a.Epoch] = applied
	}
	if applied[part] {
		return fmt.Errorf("%w: part %d already applied", ErrBadSyncPart, part)
	}
	if stored, ok := b.SummaryRoots[a.Epoch]; ok && stored != a.SummaryRoot {
		return ErrRootMismatch
	}
	// Validate every payload's pool — and, on-chain, charge the full
	// storage bill — before mutating ANY state. The chain defers a
	// transaction that runs out of the block's remaining gas and
	// re-executes it from scratch in the next block without rolling back
	// contract writes — so a sync part must be atomic: either it fits and
	// applies completely, or it leaves no trace. (The pipelined lifecycle
	// keeps several epochs' sync parts in flight at once, which is when
	// blocks actually fill up and the deferral path starts running.)
	completing := len(applied)+1 == numParts
	var bill uint64
	var pay0, pay1 u256.Int
	for _, p := range a.Payloads {
		if _, ok := b.Positions[p.PoolID]; !ok {
			return fmt.Errorf("%w: %s", ErrUnknownBankPool, p.PoolID)
		}
		bill += uint64(len(p.Payouts)) * gasmodel.PayoutEntryGas
		if env != nil {
			for _, e := range p.Payouts {
				pay0 = u256.Add(pay0, e.Amount0)
				pay1 = u256.Add(pay1, e.Amount1)
			}
		}
		for _, e := range p.Positions {
			if e.Deleted {
				bill += gasmodel.SstoreClearGas
			} else {
				bill += uint64(gasmodel.PositionEntryWords) * gasmodel.SstoreWordGas
			}
		}
		bill += uint64(gasmodel.PoolBalanceWords) * gasmodel.SstoreWordGas
	}
	bill += gasmodel.SstoreGas(32)
	if completing {
		// Next committee key registration (vk_c) on the completing part.
		bill += gasmodel.SstoreGas(gasmodel.ABIGroupKeyBytes)
	}
	if env != nil {
		if have0, have1 := b.Custody(); have0.Lt(pay0) || have1.Lt(pay1) {
			return fmt.Errorf("%w: payouts %s/%s, custody %s/%s", ErrCustodyShort, pay0, pay1, have0, have1)
		}
		if err := env.Gas.Charge(bill); err != nil {
			return err
		}
	}
	for _, p := range a.Payloads {
		if env != nil {
			b.payOut(p)
		}
		b.applyPoolPayload(p)
	}
	applied[part] = true
	b.SummaryRoots[a.Epoch] = a.SummaryRoot
	if !completing {
		return nil // epoch completes when the remaining parts land
	}
	b.complete(a)
	return nil
}

// complete finalizes an epoch whose last sync part just applied:
// registers the next committee key, advances the sync horizon, and
// compacts bookkeeping behind the retention window.
func (b *MultiBank) complete(a *MultiSyncArgs) {
	b.synced[a.Epoch] = true
	delete(b.partsApplied, a.Epoch)
	if a.Epoch > b.LastSyncedEpoch {
		b.LastSyncedEpoch = a.Epoch
	}
	b.groupKeys[a.Epoch+1] = a.NextKey
	if b.Retain > 0 && b.LastSyncedEpoch > uint64(b.Retain) {
		for e := b.compacted + 1; e <= b.LastSyncedEpoch-uint64(b.Retain); e++ {
			delete(b.groupKeys, e)
			delete(b.synced, e)
			delete(b.SummaryRoots, e)
		}
		b.compacted = b.LastSyncedEpoch - uint64(b.Retain)
	}
}

// ReplaySync re-applies a persisted sync part during crash recovery:
// the full verification chain (applySync) runs exactly as on-chain
// execution would, so a recovered bank's state is re-derived from
// authenticated records rather than trusted from disk; only gas
// accounting and payout transfers are skipped (the original execution
// already did both).
// Parts must replay in their original submission order.
func (b *MultiBank) ReplaySync(a *MultiSyncArgs) error {
	return b.applySync(nil, a)
}

// payOut transfers each payout entry's balance out of custody. sync
// checked custody covers the whole part first, so no transfer can fail.
// Crash-recovery replay skips payouts: the tokens moved on a mainchain
// that did not survive, and ReseedCustody restores conservation instead.
func (b *MultiBank) payOut(p *summary.SyncPayload) {
	for _, e := range p.Payouts {
		_ = b.token0.internalTransfer(b.Name(), e.User, e.Amount0)
		_ = b.token1.internalTransfer(b.Name(), e.User, e.Amount1)
	}
}

// applyPoolPayload writes one pool's synced state; gas was charged up
// front by sync, so application cannot fail partway.
func (b *MultiBank) applyPoolPayload(p *summary.SyncPayload) {
	positions := b.Positions[p.PoolID]
	for _, e := range p.Positions {
		if e.Deleted {
			delete(positions, e.ID)
			continue
		}
		positions[e.ID] = e
	}
	b.Reserves[p.PoolID] = PoolReserves{Reserve0: p.PoolReserve0, Reserve1: p.PoolReserve1}
}

func sha256Digest(data []byte) [32]byte {
	var out [32]byte
	copy(out[:], sha256HashPool(data))
	return out
}
