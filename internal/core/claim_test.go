package core

import (
	"errors"
	"testing"

	"ammboost/internal/chain"
)

// TestClaimSurfaceSinglePool pins the chain.Chain escrow surface on a
// single-tenant paper deployment: never federated, so the claimable
// balance is always zero and ClaimRefund answers ErrNoEscrow.
func TestClaimSurfaceSinglePool(t *testing.T) {
	sys, _, err := NewDriver(smallConfig(1), smallDriver(500_000, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	user := sys.(*MultiSystem).users[0]
	if a0, a1 := sys.Claimable(user); !a0.IsZero() || !a1.IsZero() {
		t.Errorf("claimable = %s/%s, want zero", a0, a1)
	}
	if _, err := sys.ClaimRefund(user); !errors.Is(err, chain.ErrNoEscrow) {
		t.Errorf("ClaimRefund = %v, want ErrNoEscrow", err)
	}
}
