package main

import (
	"ammboost/internal/core"
	"ammboost/internal/engine"
)

// checkParity runs the node's own cross-layer parity check, Validate,
// and returns how many pools it flagged for a known program defect.
//
// The defect: the bank learns a position only from a synced payload in
// which the position changed, and a pool's genesis position changes only
// when a swap, burn or collect touches the pool. A pool that saw no such
// transaction — untraded, or only minted into, as the light
// paper-committee traffic leaves a pool on some seeds — keeps its
// genesis position in the engine while the bank never lists it, so
// Validate reports a parity violation. When Validate fails, this
// re-checks the same parity pool by pool: reserves must match, every
// stored position must be live with equal liquidity, and every live
// position must be stored, except a genesis position missing from the
// bank. Any other mismatch returns Validate's error.
func checkParity(sys *core.MultiSystem) (untouched int, err error) {
	verr := sys.Validate()
	if verr == nil {
		return 0, nil
	}
	eng, bank := sys.Engine(), sys.Bank()
	for _, pid := range eng.PoolIDs() {
		pool := eng.Pool(pid)
		res := bank.Reserves[pid]
		if !res.Reserve0.Eq(pool.Reserve0) || !res.Reserve1.Eq(pool.Reserve1) {
			return 0, verr
		}
		stored := bank.Positions[pid]
		for _, pos := range pool.Positions() {
			e, ok := stored[pos.ID]
			switch {
			case !ok && pos.ID == engine.GenesisPositionID(pid):
				untouched++
			case !ok || !e.Liquidity.Eq(pos.Liquidity):
				return 0, verr
			}
		}
		for id := range stored {
			if pool.Position(id) == nil {
				return 0, verr
			}
		}
	}
	if untouched == 0 {
		return 0, verr
	}
	return untouched, nil
}
