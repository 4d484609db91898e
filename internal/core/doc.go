// Package core implements APAN — the Asynchronous Propagation Attention
// Network (Wang et al., SIGMOD 2021). The model splits into a synchronous
// link (attention encoder over the node's mailbox + MLP decoder, no graph
// access) and an asynchronous link (mail generation and k-hop propagation
// along temporal edges). See DESIGN.md §4 for the exact equations and
// docs/architecture.md for the paper-to-package map.
//
// The node-state and mailbox stores behind a Model are sharded and
// lock-striped (Config.Shards), so the serving entry points — Score,
// ApplyPending, Embed, Explain — are safe for any number of concurrent
// goroutines, and EnsureNodes admits previously unseen node IDs at
// runtime. Training entry points are single-threaded.
package core
