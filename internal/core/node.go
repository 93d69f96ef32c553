package core

import "ammboost/internal/chain"

// New builds the deployment the config describes behind the unified
// chain.Chain node API: cfg.NumPools pools (default 1, the paper's single
// Uniswap pool) on the sharded engine, for the given user set.
func New(cfg chain.Config, users []string) (chain.Chain, error) {
	return NewMultiSystem(cfg, users)
}
