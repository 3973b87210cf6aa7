// Package serve turns the single-resolution humo.Session into a served,
// multi-tenant subsystem: a Manager owns many named sessions concurrently,
// partitioned by id hash across independent lock domains, journals every
// answered batch durably, and recovers all live sessions on startup.
// NewHandler exposes the manager over the HTTP JSON API served by
// cmd/humod.
//
// # The recovery contract
//
// Journaled recovery is bit-identical: a Manager reopened on a state
// directory — after a graceful Close or after the process died at ANY
// point — restores every session to exactly the state an uninterrupted
// process would hold, and each resolution then completes with the same
// solution, the same human cost, and the same batch sequence. The contract
// is what lets humod be killed and restarted freely; the e2e tests
// (cmd/humod) and TestManagerRecovery enforce it, and every change to the
// journal format or replay order must keep them passing unchanged.
//
// The on-disk form of one session is three files:
//
//	<id>.spec.json        the creation Spec, written first, atomically
//	<id>.checkpoint.json  the base snapshot (Session.Checkpoint), atomic rewrite
//	<id>.journal.jsonl    answer deltas since the base, one fsynced line per batch
//
// An answered batch appends one delta line — O(batch) disk work — instead
// of rewriting the whole checkpoint. journal.go implements the one journal
// that both this file and a live workload's append journal use. Once CompactEvery deltas accumulate,
// the base is rewritten atomically and the journal truncated. Recovery
// replays base + deltas in order (humo.RestoreSessionDeltas); the replay
// rules make every crash window safe:
//
//   - A torn final journal line (crash mid-append) is dropped AND truncated
//     away: the Answer that wrote it never returned, so nothing acknowledged
//     is lost, and the next append starts on a clean line instead of
//     concatenating onto the fragment.
//   - Deltas surviving a compaction crash (base rewritten, truncate lost)
//     replay idempotently: the final value of every pair id equals the
//     base's.
//   - A spec without a base checkpoint and without deltas (crash inside
//     Create) restarts fresh — no answer was ever acknowledged.
//   - Anything else — a corrupt line mid-file, a version mismatch, deltas
//     with no base — fails Open loudly, naming the session. A server must
//     not silently drop or mangle resolutions it was trusted with.
//
// Sharding (Config.Shards) is a runtime concurrency knob only: it never
// affects results or the on-disk layout, so a state directory written
// under one shard count reopens under any other.
//
// # Live workloads and the append journal
//
// Token- and LSH-blocked workloads built through BuildWorkload are live:
// the manager retains a humo.IncrementalWorkload and accepts record
// appends (AppendRecords, POST /v1/workloads/{name}/records) that grow the
// candidate set and extend every session resolving that workload in place.
// A live workload's on-disk form (the CSV under the data directory, the
// journals under the state directory):
//
//	<name>.build.json     the WorkloadRequest, written before the CSV
//	<name>.csv            the pair list, fingerprint embedded as a leading
//	                      "# fingerprint:" comment — one atomic artifact
//	<name>.appends.jsonl  one fsynced JSON line per accepted append, a
//	                      strict seq chain; NEVER compacted — the file IS
//	                      the epoch history
//
// A static (sorted-neighborhood) build writes the CSV alone. No build
// writes a .fp sidecar: the fingerprint lives in the CSV.
//
// Ordering is journal-before-apply: an append is fsynced to the journal
// first, then applied (tables grow, Sync emits the delta and advances the
// fingerprint chain, the CSV is rewritten from cached rows with only the
// delta newly formatted, sessions are extended and re-checkpointed at the
// new epoch). Appends beyond a bounded in-flight queue are shed with
// ErrOverloaded (429). Recovery replays the build journal, then the append
// journal one Sync epoch per line — reproducing the fingerprint chain
// bit-identically — and truncates a torn final line (that append was never
// acknowledged), through the same replay step as a session's deltas. A session checkpoint whose
// workload hash sits at an older epoch of the chain restores there and is
// caught up through Session.Extend with the missing pair suffix; a hash on
// no epoch of the chain refuses recovery loudly. If applying a journaled
// append fails midway, the workload is marked broken and refuses further
// appends until a restart replays it to a consistent state.
package serve
