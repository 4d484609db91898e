// Package train implements online continual learning for a serving APAN
// model: a background trainer that consumes applied events off the
// propagation path, steps a private copy of the parameters with Adam
// mini-batches drawn from a seeded reservoir/recency replay buffer, and
// publishes new immutable parameter versions through core.Model.SwapParams —
// so a long-running apan-serve process keeps adapting to the interaction
// stream it scores without ever blocking the zero-allocation inference hot
// path.
//
// Safety properties:
//
//   - The trainer owns a private parameter copy; the serving path reads only
//     published nn.ParamSet snapshots, pinned per batch. Publishing is
//     copy-on-write, so a half-finished training step can never be observed.
//   - Observe never blocks the pipeline's applier: events land in a bounded
//     pending queue (oldest dropped under overload, counted in Stats).
//   - Every publish is gated by a holdout average-precision check against
//     the last published version on the same holdout and runtime state; a
//     regressing candidate is withheld, and after RollbackPatience
//     consecutive regressions the private copy is rolled back to the last
//     good version and the optimizer is reset.
//
// Two drive modes: Start launches the background goroutine used in serving;
// Pump drains and trains inline, which is fully deterministic for a given
// seed and event sequence — the scenario harness and tests use it.
//
// See docs/training.md for the architecture and version semantics.
package train
