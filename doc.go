// Package amstrack tracks approximate join and self-join sizes of
// relations in limited storage, under insertions and deletions, following
// Alon, Gibbons, Matias and Szegedy, "Tracking Join and Self-Join Sizes in
// Limited Storage" (PODS 1999; JCSS 64(3), 2002).
//
// # Self-join sizes
//
// The self-join size of a relation R on an attribute with frequencies f_v
// is SJ(R) = Σ_v f_v² — the second frequency moment, a standard measure of
// skew. Three trackers estimate it in limited storage:
//
//   - NewTugOfWar: the AMS sketch (§2.2). s = S1·S2 counters; O(s) per
//     update; relative error ≤ 4/√S1 with probability ≥ 1−2^(−S2/2) on ANY
//     data distribution (Theorem 2.2). Supports deletions exactly and
//     merging of per-partition sketches.
//   - NewFastTugOfWar: the bucketed Fast-AMS variant (Thorup–Zhang). Same
//     storage, same Theorem 2.2 error bound, but each update touches one
//     bucket per group — O(S2) per update, independent of the accuracy
//     knob S1 — using a tabulation-based four-wise hash whose single
//     evaluation yields both bucket and sign. Supports deletions, merging
//     and batch ingest; see below for when to prefer it.
//   - NewSampleCount: the improved sample-count algorithm (§2.1, Fig. 1).
//     O(1) amortized per update; error bound carries a t^(1/4) domain-size
//     factor (Theorem 2.1). Supports deletions.
//   - NewNaiveSample: the standard sampling baseline (§2.3); needs Ω(√n)
//     samples in the worst case (Lemma 2.3). Insert-only.
//
// All three satisfy Tracker:
//
//	tr, _ := amstrack.NewTugOfWar(amstrack.Config{S1: 64, S2: 8, Seed: 1})
//	for _, v := range values { tr.Insert(v) }
//	est := tr.Estimate() // ≈ SJ within 4/√64 = 50% w.h.p.; see ConfigForError
//
// # Fast-AMS: speed vs the flat sketch
//
// TugOfWar and FastTugOfWar estimate the same quantity with the same
// accuracy guarantee at the same word count; they differ in update cost
// and compatibility. The flat sketch pays O(S1·S2) polynomial evaluations
// per update, so tightening the error bound (growing S1) slows every
// insert; the fast sketch pays O(S2) table-lookup hashes regardless of S1
// (≈1000× faster at S1=1024, S2=16 on commodity hardware), at the price
// of fixed hash tables per group of eight rows, 128 KiB when S1 is a
// power of two up to 2^15 and 512 KiB otherwise (one copy per seed tuple
// per process, shared by every sketch on those seeds), and a counter
// layout that is not bit-compatible with the flat sketch (blobs
// of one kind do not unmarshal as the other). Prefer FastTugOfWar for high-throughput or high-accuracy
// tracking — streams and bulk loads (InsertBatch; the Engine adds
// sharded parallel ingest) — and keep TugOfWar when individual estimator
// counters matter (Fig. 15-style diagnostics) or when sketches must merge
// with existing flat-sketch deployments. DESIGN.md §3 has the analysis.
//
// # Join sizes
//
// For joins, each relation independently maintains a small signature such
// that |F ⋈ G| = Σ_v f_v·g_v can be estimated from any two signatures
// (§4.3). Signatures from the same SignatureFamily share hash functions:
//
//	fam, _ := amstrack.NewSignatureFamily(256, 42)
//	sf, sg := fam.NewSignature(), fam.NewSignature()
//	// feed Insert/Delete as tuples arrive...
//	est, _ := amstrack.EstimateJoin(sf, sg) // error ≤ √(2·SJ(F)·SJ(G)/256) (1σ)
//
// Two signature schemes exist behind one Signature interface: the flat
// k-TW layout above (O(k) per update) and the bucketed FastJoinSignature
// (NewFastSignatureFamily) that touches one counter per row — O(rows) per
// update however large k grows, with the same Lemma 4.4 variance bound at
// equal memory (≈100× faster updates at k=1024). EstimateJoin and
// EstimateJoinRobust accept either.
//
// # The synopsis engine
//
// NewEngine/OpenEngine expose the deployment shape of §4–§5: named
// relations, each carrying a fast join signature plus a Fast-AMS
// self-join sketch behind sharded concurrent ingest, any pair estimable
// at planning time with the Lemma 4.4 σ and Fact 1.1 bounds attached.
// Every read of a relation is one consistent cut (Relation.Cut, the same
// bundle ExportRelation ships), and every join answer — local, against a
// shipped bundle, or at the coordinator — comes from one function over
// two cuts (engine.EstimateJoinBundles), so σ is always computed from the
// same stream as the estimate it bounds.
// OpenEngine adds oplog-backed durability — updates append to
// per-relation logs, Checkpoint folds them into one blob, and reopening
// recovers via checkpoint load plus log replay (torn tails truncated).
// cmd/amsd serves the engine over two surfaces with two audiences: HTTP
// JSON is the control plane — defining relations, asking estimates,
// checkpointing, health — where a request cycle per call is the right
// trade for curl-ability; amswire (-wire-addr, default :7601, always on;
// internal/wire) is the data plane for bulk loaders and continuous
// update streams, a length-prefixed binary framing with pipelined
// acknowledgements that removes the per-batch request cycle (several
// times the HTTP rows/sec at equal batch sizes). It is also the only
// path cmd/amsrouter sends rows over: a fleet member without a wire
// listener is refused at the router's health probe. DESIGN.md §5
// documents the architecture, §10 the wire protocol, §12 the router.
//
// The engine has one write path, a sequencer per relation in front of
// lock-free absorbers: a caller splits its batch by shard, and single
// ops stage in one run per kind, 256 rows each, under the relation's
// mutex; the relation's sequencer logs every batch whole, in arrival
// order, as one checksummed record into the log writer's 4 KiB buffer,
// then hands each shard's absorber its rows to apply under
// single-writer discipline. A torn write drops a whole batch or none of
// it. A read parks a relation's absorbers at one barrier through the
// same queue and merges the quiet shards, so reads always see the
// caller's own writes, and a checkpoint is that same cut with the
// sequencer moving the log onto the next epoch at the barrier — ingest
// never pauses, and recovery stays bit-identical. Ops become OS-owned
// when that buffer fills, or at the next barrier — Relation.Drain, a
// read, Sync, Checkpoint or Close — rather than per call: the barrier
// every acknowledgement waits for is the group commit.
// EngineOptions.SegmentOps additionally caps each oplog file at about N
// rows, rolling onto numbered segments between records (a segment may
// exceed N by less than one record) so no single log file grows without
// bound between checkpoints. The engine's synopses are bit-identical to
// plain sequential synopses fed the same ops, which the engine's tests
// check against an independent reference model; DESIGN.md §7 has the
// architecture and measured numbers.
//
// # Skew-robust skimming
//
// Zipf-skewed streams are where relative error degrades: the variance
// bounds scale with SJ(F)·SJ(G), and on skewed data the self-join sizes
// are dominated by a few heavy values. Defining a relation with
// engine.Schema.SkimHitters > 0 puts a small deterministic space-saving
// table in front of the sketches and answers
// exact(hitters) + sketch(cross + tail) instead — same total memory,
// variance driven by the residual tail. The sketches stay
// ingest-complete (every op flows into them), so the table only ever
// improves the answer: its guaranteed mass (count − err) is what gets
// skimmed, which means unskewed streams gracefully degrade to the plain
// sketch instead of paying for inflated table counts. The trade-off is
// in the merge: the table is the one synopsis here that merges LOSSILY —
// demoted hitters fall back to the sketch estimate, so merged skimmed
// answers agree with single-node ingest within tolerance rather than
// bit-exactly, while the signature and sketch halves remain bit-exact —
// and skimmed bundle exchange requires fleet-wide agreement on Shards
// in addition to Seed. Estimate responses — amsd's and the
// coordinator's — name the estimator that answered ("skimmed",
// "sketch", "signature"), and a join's σ uses each side's own self-join
// answer. DESIGN.md §13 has the decomposition and the merge contract.
//
// # Multi-node estimation
//
// Every synopsis here is a linear function of its relation's frequency
// vector, so synopses built on disjoint partitions of a relation — on
// different nodes — merge into EXACTLY the synopses of the union:
// counters add, nothing is approximated. Engines that share a Seed and
// shape options exchange per-relation bundles (signature + self-join
// sketch + row count) over amsd's /v1/signatures endpoints, and a
// coordinator (cmd/joinctl) that merges per-node bundles answers join
// sizes ACROSS nodes bit-identically to a single node holding all the
// data, Lemma 4.4 σ bounds included. DESIGN.md §6 documents the bundle
// format and merge semantics; examples/distributed walks the flow.
//
// # Chain joins
//
// The engine extends §5's future-work item — three-way CHAIN joins
// F ⋈a G ⋈b H — end to end: relations may declare multi-attribute
// schemas (engine.Schema: an attribute set plus chain-end and
// chain-middle signature declarations), tuple ingest fans every row into
// the declared per-attribute chain synopses (each absorber message as
// per-attribute column batches through one four-wise sign kernel that
// shares each key's powers across the k members), the oplog records
// tuples in a versioned format (old single-attribute logs
// replay unchanged), and Engine.EstimateChainJoin answers with a
// variance-envelope σ (Var ≤ 9·SJ(F)·SJ(G)·SJ(H)/k) and a Cauchy–Schwarz
// upper bound. Chain sections ride the relation bundles, so amsd's
// POST /v1/join/chain and joinctl's -chain mode answer chains ACROSS
// nodes bit-identically to a single node, like the pairwise path.
// DESIGN.md §8 documents the schema layer and the chain wire protocol.
//
// Random sampling signatures (the §4.1 baseline) and the paper's
// lower-bound constructions live in the internal packages and are exercised
// by the experiment harness (cmd/amsbench); the public API exposes the
// schemes a downstream system would deploy.
package amstrack
