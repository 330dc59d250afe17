// Package cluster is the data-parallel distributed training runtime: it
// plays the role Horovod plays in the paper. P workers (goroutines with
// MPI-style communicators) hold model replicas, compute local gradients on
// their shard of each mini-batch, synchronize through a pluggable
// gradient-synchronization algorithm (A2SGD or any baseline), and apply the
// update with the Table 1 learning-rate policy.
//
// # Gradient pipeline
//
// Each step flows backward → encode → collective → decode → apply: the
// flattened gradient is partitioned at layer granularity into buckets — at
// Config.Schedule's bounds, or of at most Config.BucketBytes
// (nn.PlanBuckets) when no schedule is given — every bucket owns a full
// algorithm instance (compress.Bucketed — per-bucket error feedback, seeds
// and A2SGD means) and is encoded from, and reconstructed into, a view of
// the live layer gradients. One launcher starts every exchange, deepest
// bucket first: after backward, or from inside it with Config.Interleave.
// It runs each collective inline, or with Config.Overlap posts it to the
// communicator's progress worker while the next bucket is encoded.
// Overlapped and interleaved runs are bitwise identical to synchronous ones
// for a fixed seed and bucket plan, because the collectives execute in the
// same order with the same operands.
//
// # Topology
//
// Config.Topology (ranks per node, > 1) switches every collective to the
// two-level hierarchical schedule of comm.SetTopology: intra-node
// reduce/gather, inter-node exchange among node leaders, intra-node
// broadcast. Hierarchical runs are convergence-equivalent to flat runs
// (float tolerance — the reduction order differs) and deterministic for a
// fixed seed and topology. netsim.TwoTier prices the matching two-tier
// fabric; every Result.ModeledIterSec* helper accepts it.
//
// # Cost accounting
//
// The runtime separates the three cost components the paper's evaluation
// analyses: forward/backward compute (measured), compression compute
// (measured — Figure 2's quantity), and synchronization traffic (counted
// exactly, then priced by the α–β network model for Figures 4–5).
package cluster
