// Package core implements APAN — the Asynchronous Propagation Attention
// Network (Wang et al., SIGMOD 2021). The model splits into a synchronous
// link (attention encoder over the node's mailbox + MLP decoder, no graph
// access) and an asynchronous link (mail generation and k-hop propagation
// along temporal edges). See DESIGN.md §4 for the exact equations and
// docs/architecture.md for the paper-to-package map.
//
// A Model guards its runtime with two locks: one writer lock that every
// mutation (apply, replay, eviction, admission, reset, restore, checkpoint
// load) holds for its whole span, and one store lock that scorers hold
// shared for their gather and the writer holds exclusively only while it
// writes store memory. The store is one state.Store: one record per node,
// its embedding z(t−) and its mailbox. So the serving entry points — Score, ApplyPending,
// Embed, Explain — are safe for any number of concurrent goroutines, and
// EnsureNodes admits previously unseen node IDs at runtime. Training entry
// points are single-threaded.
package core
