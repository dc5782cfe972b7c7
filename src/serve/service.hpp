#pragma once

// EcoService: the long-lived engine behind the ECO server. Owns one
// EcoSession over the caller's design/state/rc triple and serves many
// concurrent edit sessions with crash consistency.
//
// Threading model — single-writer, snapshot readers:
//   * client threads enqueue commands into one bounded queue (the bound is
//     the admission control: a full queue sheds the submit with
//     kUnavailable instead of building unbounded latency),
//   * one worker thread drains the queue in arrival order, coalesces
//     redundant edits within a batch, journals, applies, resolves, and
//     publishes an immutable copy-on-write StateSnapshot,
//   * readers never touch the live engine — queries run against the last
//     published snapshot and never block a resolve.
//
// Durability contract (full failure-semantics table in DESIGN.md):
//   * every mutation is journaled *before* it is applied; because delta
//     application is deterministic, a delta the live engine rejects is
//     rejected identically on replay, so journal and state cannot diverge,
//   * a resolve is bracketed by kResolveStart (fsynced before the solve)
//     and kResolveDone, and always runs to completion with no wall-clock
//     budget (start() refuses a flow guard deadline), so its result depends
//     only on the state and the config; a crash in between leaves a
//     trailing kResolveStart, and recovery completes the resolve
//     deterministically — recovered state is bit-identical to the
//     uncrashed run,
//   * any journal append/fsync failure flips the service to read-only:
//     queries keep working off the snapshot, mutations and resolves are
//     refused, nothing already acknowledged is lost.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/util/mutex.hpp"
#include "src/util/thread_annotations.hpp"

#include "src/core/flow.hpp"
#include "src/eco/eco_session.hpp"
#include "src/grid/design.hpp"
#include "src/serve/journal.hpp"
#include "src/serve/protocol.hpp"
#include "src/timing/rc_table.hpp"
#include "src/util/status.hpp"

namespace cpla::serve {

struct ServeOptions {
  eco::EcoOptions eco;
  std::string journal_path;     // empty = durability off (tests/bench only)
  std::string checkpoint_path;  // empty = no checkpoints
  int checkpoint_every = 0;     // checkpoint every N resolves; 0 = never
  std::size_t max_queue = 1024;  // queued edits beyond this are shed
  int max_sessions = 64;
  bool coalesce = true;  // drop superseded same-key edits within a batch
};

/// Immutable published view for snapshot-isolated reads. `layers` shares
/// unchanged per-net vectors with the previous snapshot (copy-on-write).
struct StateSnapshot {
  std::uint64_t seq = 0;       // deltas folded into this view
  std::uint64_t resolves = 0;  // completed resolves folded in
  std::uint64_t hash = 0;      // hash_state() at publish time
  core::LaMetrics metrics;
  std::vector<std::shared_ptr<const std::vector<int>>> layers;  // per net
};

struct ResolveOutcome {
  Status status;
  std::uint64_t seq = 0;   // edits covered by this resolve
  std::uint64_t hash = 0;  // post-resolve state hash
  core::LaMetrics metrics;
};

struct SessionStats {
  std::uint64_t submitted = 0;
  std::uint64_t shed = 0;
};

struct ServeStats {
  std::uint64_t submitted = 0;
  std::uint64_t applied = 0;
  std::uint64_t rejected = 0;   // journaled but refused by apply (bad input)
  std::uint64_t coalesced = 0;  // dropped as superseded within a batch
  std::uint64_t shed = 0;       // refused at admission (queue full)
  std::uint64_t resolves = 0;
  std::uint64_t batches = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t journal_records = 0;
  int sessions = 0;
  bool read_only = false;
  std::map<int, SessionStats> per_session;
};

class EcoService {
 public:
  /// Borrows the triple (like EcoSession); `design` must be the design
  /// `state` was built on.
  EcoService(grid::Design* design, assign::AssignState* state, const timing::RcTable* rc,
             ServeOptions options = {});
  ~EcoService();
  EcoService(const EcoService&) = delete;
  EcoService& operator=(const EcoService&) = delete;

  /// Recovers (checkpoint restore + journal suffix replay, torn-tail
  /// repair, genesis verification) and starts the worker. On a fresh
  /// journal, writes the genesis record (the base state hash) first.
  /// Refuses (kBadInput) a flow with a guard deadline: a served resolve's
  /// result must depend only on the state and the config, or replay could
  /// not rebuild it.
  Status start();
  /// Drains the queue (every waiter is fulfilled), stops the worker, and
  /// closes the journal. Idempotent.
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  Result<int> open_session();
  void close_session(int session);

  /// Enqueues one delta. Returns its journal sequence number, or
  /// kUnavailable when shed (queue full / read-only / not running).
  Result<std::uint64_t> submit(int session, eco::Delta delta);

  /// Enqueues one edit request (protocol.hpp). Materialization into a
  /// delta is deferred to the worker thread right before journaling — a
  /// reroute reads the live routing tree, which is worker-confined. A
  /// request that fails to materialize is counted as rejected (exactly
  /// like a journaled delta the engine refuses), never journaled.
  Result<std::uint64_t> submit(int session, Request request);

  /// Blocks until every delta submitted before this call is applied,
  /// journaled, and re-optimized.
  ResolveOutcome resolve(int session);

  /// Durability barrier: blocks until everything enqueued before this
  /// call is journaled and fsynced (no resolve).
  Status sync(int session);

  /// The last published snapshot; never null after start(). Lock-free for
  /// the worker, one mutex hop for readers, never blocks on a resolve.
  std::shared_ptr<const StateSnapshot> snapshot() const;

  ServeStats stats() const;
  bool read_only() const { return read_only_.load(std::memory_order_acquire); }

  /// The underlying engine. Only safe to touch while the worker is
  /// stopped (tests inspect it between stop() and restart).
  eco::EcoSession& engine();

  /// Test hook: a paused worker stops draining (commands pile into one
  /// batch), so coalescing and admission tests are deterministic.
  void pause_worker(bool paused);

 private:
  enum class CmdKind { kDelta, kResolve, kSync };
  struct Waiter {
    Mutex mu;
    CondVar cv;
    bool done CPLA_GUARDED_BY(mu) = false;
    ResolveOutcome outcome CPLA_GUARDED_BY(mu);
  };
  struct Cmd {
    CmdKind kind = CmdKind::kDelta;
    int session = -1;
    std::uint64_t seq = 0;
    eco::Delta delta;
    bool needs_materialize = false;  // delta is built from `request` at apply time
    Request request;
    std::shared_ptr<Waiter> waiter;
  };

  bool journal_enabled() const { return !options_.journal_path.empty(); }
  Result<std::uint64_t> enqueue_edit(int session, Cmd cmd);
  Status recover();
  void worker_loop();
  void process_batch(std::vector<Cmd> batch);
  /// Materializes, coalesces, then journals + applies the edit commands.
  void apply_edits(std::vector<Cmd>* edits);
  void enter_read_only(const Status& why);
  Status journal_append(RecordType type, std::uint64_t seq, std::string_view payload);
  void maybe_checkpoint(std::uint64_t state_hash);
  void publish_snapshot(std::uint64_t state_hash);
  static void fulfill(const std::shared_ptr<Waiter>& waiter, ResolveOutcome outcome);

  grid::Design* design_;
  assign::AssignState* state_;
  const timing::RcTable* rc_;
  ServeOptions options_;
  std::unique_ptr<eco::EcoSession> session_;  // worker-confined after start()

  Journal journal_;
  std::uint64_t base_hash_ = 0;  // genesis payload of the open journal
  // Records in the journal's valid prefix. Written by the worker (and by
  // recover() before it starts), read by stats() from client threads.
  std::atomic<std::uint64_t> record_count_{0};
  std::uint64_t applied_seq_ = 0;    // last delta seq folded into the state
  std::uint64_t resolves_total_ = 0;

  mutable Mutex queue_mu_;
  CondVar queue_cv_;
  std::vector<Cmd> queue_ CPLA_GUARDED_BY(queue_mu_);
  std::size_t queued_edits_ CPLA_GUARDED_BY(queue_mu_) = 0;
  // last seq handed to a submit
  std::uint64_t last_seq_ CPLA_GUARDED_BY(queue_mu_) = 0;
  bool stop_requested_ CPLA_GUARDED_BY(queue_mu_) = false;
  bool paused_ CPLA_GUARDED_BY(queue_mu_) = false;
  int next_session_ CPLA_GUARDED_BY(queue_mu_) = 0;
  std::map<int, SessionStats> sessions_ CPLA_GUARDED_BY(queue_mu_);

  std::thread worker_;
  std::atomic<bool> running_{false};
  std::atomic<bool> read_only_{false};

  mutable Mutex snapshot_mu_;
  std::shared_ptr<const StateSnapshot> snapshot_ CPLA_GUARDED_BY(snapshot_mu_);

  // Aggregate counters (mirrored into cpla::obs under serve.*).
  std::atomic<std::uint64_t> submitted_{0}, applied_{0}, rejected_{0}, coalesced_{0},
      shed_{0}, batches_{0}, checkpoints_{0};
};

/// Journal-only reference recovery: replays `path` from its genesis
/// against a freshly prepared base triple (checkpoints ignored) and
/// returns the final state hash. This is the independent second recovery
/// path the chaos harness compares checkpoint+suffix recovery against.
/// A journal whose genesis payload is not exactly the u64 base hash is
/// refused with kBadInput.
Result<std::uint64_t> replay_journal(const std::string& path, grid::Design* design,
                                     assign::AssignState* state, const timing::RcTable* rc,
                                     const eco::EcoOptions& options);

}  // namespace cpla::serve
