package mainchain

import (
	"errors"
	"fmt"

	"ammboost/internal/gasmodel"
)

// PositionNFT errors.
var (
	ErrNFTUnknownToken = errors.New("nfpm: unknown position token")
	ErrNFTNotOwner     = errors.New("nfpm: caller is neither owner nor approved")
	ErrNFTNotMinted    = errors.New("nfpm: position exists but its NFT is not minted yet")
)

// PositionNFT is the paper's Remark 3 extension: an ERC721-style wrapper
// over one pool's liquidity positions in the bank, enabling streamlined verification
// and transfer of position ownership, as Uniswap V3's NFPM does.
//
// Per the remark's caveat, an NFT is only minted when its position reaches
// the mainchain — i.e., after the epoch's Sync — so operations on a
// freshly-created sidechain position must wait an epoch before the token
// exists; the bank remains the source of truth for ownership, and
// transfers through this contract update it.
type PositionNFT struct {
	bank *MultiBank
	pool string
	// minted marks position IDs whose NFT exists.
	minted map[string]bool
	// approvals[posID] = approved operator.
	approvals  map[string]string
	nextSerial uint64
	serials    map[string]uint64
}

// NewPositionNFT deploys the wrapper over one bank pool's positions.
func NewPositionNFT(bank *MultiBank, poolID string) *PositionNFT {
	return &PositionNFT{
		bank:      bank,
		pool:      poolID,
		minted:    make(map[string]bool),
		approvals: make(map[string]string),
		serials:   make(map[string]uint64),
	}
}

// Name implements Contract.
func (n *PositionNFT) Name() string { return "position-nft" }

// NFTTransferArgs transfer a position token.
type NFTTransferArgs struct {
	PosID string
	To    string
}

// NFTApproveArgs approve an operator for one position token.
type NFTApproveArgs struct {
	PosID    string
	Operator string
}

// Execute implements Contract.
func (n *PositionNFT) Execute(env *Env, method string, args any) error {
	switch method {
	case "mintFromSync":
		// Called after a Sync confirms: mint NFTs for synced positions
		// that do not have one yet (Remark 3: creation waits for the
		// epoch end, because it requires mainchain operation).
		if err := env.Gas.Charge(gasmodel.TxBaseGas); err != nil {
			return err
		}
		for id := range n.bank.Positions[n.pool] {
			if n.minted[id] {
				continue
			}
			if err := env.Gas.Charge(2 * gasmodel.SstoreWordGas); err != nil {
				return err
			}
			n.minted[id] = true
			n.nextSerial++
			n.serials[id] = n.nextSerial
		}
		// Burn tokens whose position vanished.
		for id := range n.minted {
			if _, ok := n.bank.Positions[n.pool][id]; !ok {
				delete(n.minted, id)
				delete(n.approvals, id)
			}
		}
		return nil
	case "transferFrom":
		a, ok := args.(NFTTransferArgs)
		if !ok {
			return ErrBadArgs
		}
		return n.transfer(env, a)
	case "approve":
		a, ok := args.(NFTApproveArgs)
		if !ok {
			return ErrBadArgs
		}
		if err := env.Gas.Charge(gasmodel.TxBaseGas + gasmodel.SstoreWordGas); err != nil {
			return err
		}
		pos, ok := n.bank.Positions[n.pool][a.PosID]
		if !ok {
			return ErrNFTUnknownToken
		}
		if pos.Owner != env.Caller {
			return ErrNFTNotOwner
		}
		n.approvals[a.PosID] = a.Operator
		return nil
	default:
		return fmt.Errorf("%w: position-nft has no method %q", ErrBadArgs, method)
	}
}

func (n *PositionNFT) transfer(env *Env, a NFTTransferArgs) error {
	if err := env.Gas.Charge(gasmodel.TxBaseGas + 3*gasmodel.SstoreWordGas); err != nil {
		return err
	}
	pos, ok := n.bank.Positions[n.pool][a.PosID]
	if !ok {
		return ErrNFTUnknownToken
	}
	if !n.minted[a.PosID] {
		return ErrNFTNotMinted
	}
	if env.Caller != pos.Owner && n.approvals[a.PosID] != env.Caller {
		return ErrNFTNotOwner
	}
	// Ownership moves in the bank itself: the next epoch's SnapshotBank
	// sees the new owner, so sidechain burns/collects by the recipient
	// are accepted.
	pos.Owner = a.To
	n.bank.Positions[n.pool][a.PosID] = pos
	delete(n.approvals, a.PosID)
	return nil
}

// OwnerOf returns the position owner via the NFT view.
func (n *PositionNFT) OwnerOf(posID string) (string, error) {
	pos, ok := n.bank.Positions[n.pool][posID]
	if !ok || !n.minted[posID] {
		return "", ErrNFTUnknownToken
	}
	return pos.Owner, nil
}

// Minted reports whether a position's NFT exists.
func (n *PositionNFT) Minted(posID string) bool { return n.minted[posID] }

// Serial returns the ERC721 token serial for a position.
func (n *PositionNFT) Serial(posID string) (uint64, bool) {
	s, ok := n.serials[posID]
	return s, ok
}
