// Package mailbox keeps two names the frozen benchmark still calls. A
// node's mailbox lives in its record in package state, beside its
// embedding; the tests here cover that mail half of the record.
package mailbox

import "apan/internal/state"

// Store is the node store.
//
// Deprecated: use state.Store. Kept only because the frozen benchmark calls
// NewSharded; it goes with the next benchmark change.
type Store = state.Store

// NewSharded returns state.New(numNodes, slots, dim); shards is ignored.
//
// Deprecated: use state.New. Kept only because the frozen benchmark calls
// it; the next benchmark change should call state.New and delete it.
func NewSharded(numNodes, slots, dim, shards int) *Store { return state.New(numNodes, slots, dim) }
