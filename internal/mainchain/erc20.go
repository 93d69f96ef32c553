package mainchain

import (
	"errors"
	"fmt"

	"ammboost/internal/gasmodel"
	"ammboost/internal/token"
	"ammboost/internal/u256"
)

// ErrBadArgs indicates a contract method received the wrong argument type.
var ErrBadArgs = errors.New("mainchain: bad contract arguments")

// ERC20 wraps a token ledger as a deployed contract, charging gas per the
// EVM schedule for the storage slots each method touches.
type ERC20 struct {
	name   string
	Ledger *token.Ledger
}

// NewERC20 deploys a token with the given symbol; minter can create supply.
func NewERC20(symbol, minter string) *ERC20 {
	return &ERC20{name: symbol, Ledger: token.NewLedger(symbol, minter)}
}

// Name implements Contract.
func (e *ERC20) Name() string { return e.name }

// TransferArgs are arguments for transfer and transferFrom.
type TransferArgs struct {
	Owner  string // transferFrom only
	To     string
	Amount u256.Int
}

// ApproveArgs are arguments for approve.
type ApproveArgs struct {
	Spender string
	Amount  u256.Int
}

// MintArgs are arguments for mint.
type MintArgs struct {
	Account string
	Amount  u256.Int
}

// Execute implements Contract.
func (e *ERC20) Execute(env *Env, method string, args any) error {
	switch method {
	case "transfer":
		a, ok := args.(TransferArgs)
		if !ok {
			return ErrBadArgs
		}
		// Two balance slots.
		if err := env.Gas.Charge(gasmodel.TxBaseGas + 2*gasmodel.SstoreWordGas); err != nil {
			return err
		}
		return e.Ledger.Transfer(env.Caller, a.To, a.Amount)
	case "transferFrom":
		a, ok := args.(TransferArgs)
		if !ok {
			return ErrBadArgs
		}
		// Two balance slots plus the allowance slot.
		if err := env.Gas.Charge(gasmodel.TxBaseGas + 3*gasmodel.SstoreWordGas); err != nil {
			return err
		}
		return e.Ledger.TransferFrom(env.Caller, a.Owner, a.To, a.Amount)
	case "approve":
		a, ok := args.(ApproveArgs)
		if !ok {
			return ErrBadArgs
		}
		if err := env.Gas.Charge(gasmodel.TxBaseGas + gasmodel.SstoreWordGas); err != nil {
			return err
		}
		e.Ledger.Approve(env.Caller, a.Spender, a.Amount)
		return nil
	case "mint":
		a, ok := args.(MintArgs)
		if !ok {
			return ErrBadArgs
		}
		if err := env.Gas.Charge(gasmodel.TxBaseGas + 2*gasmodel.SstoreWordGas); err != nil {
			return err
		}
		return e.Ledger.Mint(env.Caller, a.Account, a.Amount)
	default:
		return fmt.Errorf("%w: erc20 has no method %q", ErrBadArgs, method)
	}
}

// internalTransfer moves tokens without a transaction (contract-internal
// call, e.g. the bank dispensing payouts inside a sync). The caller charges
// gas.
func (e *ERC20) internalTransfer(from, to string, amount u256.Int) error {
	return e.Ledger.Transfer(from, to, amount)
}

// internalTransferFrom moves approved tokens inside another contract's
// execution (the bank pulling a deposit).
func (e *ERC20) internalTransferFrom(spender, owner, to string, amount u256.Int) error {
	return e.Ledger.TransferFrom(spender, owner, to, amount)
}
