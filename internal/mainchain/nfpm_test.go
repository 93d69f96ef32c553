package mainchain

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"ammboost/internal/crypto/tsig"
	"ammboost/internal/summary"
	"ammboost/internal/u256"
)

// nftFixture wires a bank with one synced position and the NFT wrapper.
func nftFixture(t *testing.T) (*bankFixture, *PositionNFT) {
	t.Helper()
	f := newBankFixture(t)
	f.bank.Positions[testPool]["pos1"] = summary.PositionEntry{
		ID: "pos1", Owner: "lp", TickLower: -60, TickUpper: 60,
		Liquidity: u256.FromUint64(1000),
	}
	nft := NewPositionNFT(f.bank, testPool)
	f.chain.Deploy(nft)
	return f, nft
}

func (f *bankFixture) run(t *testing.T, tx *Tx) {
	t.Helper()
	f.sim.After(time.Second, func() { f.chain.Submit(tx) })
	f.sim.RunUntil(f.sim.Now() + 20*time.Second)
}

func TestNFTMintFromSync(t *testing.T) {
	f, nft := nftFixture(t)
	tx := &Tx{ID: "m1", From: "keeper", To: "position-nft", Method: "mintFromSync"}
	f.run(t, tx)
	f.chain.Stop()
	if tx.Status != TxConfirmed {
		t.Fatalf("mintFromSync failed: %v", tx.Err)
	}
	if !nft.Minted("pos1") {
		t.Error("NFT not minted for synced position")
	}
	owner, err := nft.OwnerOf("pos1")
	if err != nil || owner != "lp" {
		t.Errorf("OwnerOf = %q, %v", owner, err)
	}
	if _, ok := nft.Serial("pos1"); !ok {
		t.Error("no serial assigned")
	}
}

func TestNFTTransferMovesBankOwnership(t *testing.T) {
	f, nft := nftFixture(t)
	f.run(t, &Tx{ID: "m1", From: "keeper", To: "position-nft", Method: "mintFromSync"})
	xfer := &Tx{ID: "t1", From: "lp", To: "position-nft", Method: "transferFrom",
		Args: NFTTransferArgs{PosID: "pos1", To: "carol"}}
	f.run(t, xfer)
	f.chain.Stop()
	if xfer.Status != TxConfirmed {
		t.Fatalf("transfer failed: %v", xfer.Err)
	}
	// The bank is the source of truth: the next SnapshotBank sees carol.
	if got := f.bank.Positions[testPool]["pos1"].Owner; got != "carol" {
		t.Errorf("bank owner = %q, want carol", got)
	}
	if owner, _ := nft.OwnerOf("pos1"); owner != "carol" {
		t.Errorf("nft owner = %q", owner)
	}
}

func TestNFTTransferRequiresOwnershipOrApproval(t *testing.T) {
	f, nft := nftFixture(t)
	f.run(t, &Tx{ID: "m1", From: "keeper", To: "position-nft", Method: "mintFromSync"})
	// Mallory cannot transfer lp's position.
	steal := &Tx{ID: "t1", From: "mallory", To: "position-nft", Method: "transferFrom",
		Args: NFTTransferArgs{PosID: "pos1", To: "mallory"}}
	f.run(t, steal)
	if steal.Status != TxFailed || !errors.Is(steal.Err, ErrNFTNotOwner) {
		t.Fatalf("theft: status=%v err=%v", steal.Status, steal.Err)
	}
	// After approval, the operator can transfer.
	approve := &Tx{ID: "a1", From: "lp", To: "position-nft", Method: "approve",
		Args: NFTApproveArgs{PosID: "pos1", Operator: "broker"}}
	f.run(t, approve)
	if approve.Status != TxConfirmed {
		t.Fatalf("approve failed: %v", approve.Err)
	}
	sale := &Tx{ID: "t2", From: "broker", To: "position-nft", Method: "transferFrom",
		Args: NFTTransferArgs{PosID: "pos1", To: "buyer"}}
	f.run(t, sale)
	f.chain.Stop()
	if sale.Status != TxConfirmed {
		t.Fatalf("approved transfer failed: %v", sale.Err)
	}
	if owner, _ := nft.OwnerOf("pos1"); owner != "buyer" {
		t.Errorf("owner = %q", owner)
	}
	// Approval is consumed.
	steal2 := &Tx{ID: "t3", From: "broker", To: "position-nft", Method: "transferFrom",
		Args: NFTTransferArgs{PosID: "pos1", To: "broker"}}
	_ = steal2
}

func TestNFTUnmintedPositionCannotTransfer(t *testing.T) {
	f, _ := nftFixture(t)
	// No mintFromSync yet (Remark 3: NFT creation waits for the epoch
	// end / sync).
	xfer := &Tx{ID: "t1", From: "lp", To: "position-nft", Method: "transferFrom",
		Args: NFTTransferArgs{PosID: "pos1", To: "carol"}}
	f.run(t, xfer)
	f.chain.Stop()
	if xfer.Status != TxFailed || !errors.Is(xfer.Err, ErrNFTNotMinted) {
		t.Errorf("status=%v err=%v", xfer.Status, xfer.Err)
	}
}

func TestNFTBurnedWithPosition(t *testing.T) {
	f, nft := nftFixture(t)
	f.run(t, &Tx{ID: "m1", From: "keeper", To: "position-nft", Method: "mintFromSync"})
	// A sync deletes the position; the next mintFromSync sweep burns the
	// NFT.
	members, err := tsig.RunDKG(rand.New(rand.NewSource(42)), 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	_ = members
	delete(f.bank.Positions[testPool], "pos1")
	f.run(t, &Tx{ID: "m2", From: "keeper", To: "position-nft", Method: "mintFromSync"})
	f.chain.Stop()
	if nft.Minted("pos1") {
		t.Error("NFT for deleted position should be burned")
	}
	if _, err := nft.OwnerOf("pos1"); !errors.Is(err, ErrNFTUnknownToken) {
		t.Errorf("OwnerOf deleted = %v", err)
	}
}
