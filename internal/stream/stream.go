// Package stream implements the continuous micro-batch ingestion mode: the
// adaptive latency controller that sizes micro-batches against a commit
// latency target, and the CDC delta framing shared by the client and the
// virtualizer.
//
// The paper's title promises adaptive real-time virtualization, but its
// legacy pipelines are discrete batch jobs with hand-tuned chunk sizes. This
// package closes that loop: the controller watches observed end-to-end
// commit latency (measured by the server per micro-batch) and resizes the
// knob that governs it, records per micro-batch, so a slow CDW shrinks
// batches toward the target and an idle one grows them for throughput.
// Backpressure stays credit-based (internal/credit): the controller sizes
// batches, credits bound memory.
package stream
