#include "src/serve/service.hpp"

#include <algorithm>
#include <exception>
#include <map>
#include <string>
#include <tuple>
#include <utility>

#include "src/obs/metrics.hpp"
#include "src/serve/checkpoint.hpp"
#include "src/serve/codec.hpp"
#include "src/util/logging.hpp"

namespace cpla::serve {

namespace {

struct ReplayCounters {
  std::uint64_t applied = 0;
  std::uint64_t rejected = 0;
  std::uint64_t resolves = 0;
  std::uint64_t last_seq = 0;
};

/// Replays journal records [begin, end) into a session. Deltas that fail
/// to apply are counted, not fatal — apply is deterministic, so a replayed
/// rejection is the same rejection the live run saw. A trailing
/// kResolveStart (crash mid-resolve) is completed at the end.
Status replay_records(const std::vector<Record>& records, std::size_t begin,
                      eco::EcoSession* session, ReplayCounters* counters) {
  bool resolve_pending = false;
  for (std::size_t i = begin; i < records.size(); ++i) {
    const Record& rec = records[i];
    counters->last_seq = std::max(counters->last_seq, rec.seq);
    switch (rec.type) {
      case RecordType::kGenesis:
        return Status(StatusCode::kBadInput, "serve: genesis record inside the journal body");
      case RecordType::kDelta: {
        ByteReader r(rec.payload);
        const eco::Delta delta = read_delta(&r);
        CPLA_CHECK(r.ok() && r.at_end(),
                   Status(StatusCode::kBadInput, "serve: malformed delta record"));
        const Result<int> applied = session->apply(delta);
        if (applied.is_ok()) {
          ++counters->applied;
        } else {
          ++counters->rejected;
        }
        break;
      }
      case RecordType::kResolveStart:
        // The payload is empty; the 8-byte deadline older journals wrote
        // there is ignored.
        resolve_pending = true;
        break;
      case RecordType::kResolveDone: {
        (void)session->resolve();
        resolve_pending = false;
        ++counters->resolves;
        ByteReader r(rec.payload);
        const std::uint64_t recorded = r.u64();
        if (r.ok()) {
          const std::uint64_t now = hash_state(session->state(), session->critical());
          if (now != recorded) {
            // A served resolve depends only on the state and the config
            // (start() refuses a guard deadline), so a mismatch is a
            // determinism bug: surface it loudly.
            LOG_WARN("serve: replayed resolve hash %016llx != recorded %016llx",
                     static_cast<unsigned long long>(now),
                     static_cast<unsigned long long>(recorded));
            obs::metrics().counter("serve.replay.hash_mismatches").add();
          }
        }
        break;
      }
    }
  }
  if (resolve_pending) {
    // Crash between kResolveStart and its outcome: finish the resolve the
    // journal promised. Deterministic, so this matches the uncrashed run.
    (void)session->resolve();
    ++counters->resolves;
  }
  return Status::ok();
}

std::string encode_genesis(std::uint64_t base_hash) {
  ByteWriter w;
  w.u64(base_hash);
  return w.data();
}

/// Decodes records[0] as the genesis record: exactly the u64 base state
/// hash. Refuses (kBadInput) a journal that does not start with one and a
/// payload of any other size.
Result<std::uint64_t> read_genesis(const std::vector<Record>& records) {
  CPLA_CHECK(records[0].type == RecordType::kGenesis,
             Status(StatusCode::kBadInput, "serve: journal does not start with genesis"));
  ByteReader r(records[0].payload);
  const std::uint64_t hash = r.u64();
  CPLA_CHECK(r.ok() && r.at_end(),
             Status(StatusCode::kBadInput, "serve: malformed genesis record"));
  return hash;
}

}  // namespace

EcoService::EcoService(grid::Design* design, assign::AssignState* state,
                       const timing::RcTable* rc, ServeOptions options)
    : design_(design), state_(state), rc_(rc), options_(std::move(options)) {
  CPLA_ASSERT(design_ != nullptr && state_ != nullptr && rc_ != nullptr);
}

EcoService::~EcoService() { stop(); }

Status EcoService::start() {
  CPLA_CHECK(!running(), Status(StatusCode::kInternal, "serve: already running"));
  CPLA_CHECK(options_.eco.flow.guard.deadline_ms <= 0.0,
             Status(StatusCode::kBadInput,
                    "serve: a flow guard deadline would make resolves depend on the wall "
                    "clock, which replay cannot rebuild"));
  CPLA_CHECK_OK(recover());
  publish_snapshot(hash_state(*state_, session_->critical()));

  {
    MutexLock lk(queue_mu_);
    stop_requested_ = false;
  }
  running_.store(true, std::memory_order_release);
  worker_ = std::thread([this] { worker_loop(); });
  return Status::ok();
}

void EcoService::stop() {
  running_.store(false, std::memory_order_release);  // reject new work first
  {
    MutexLock lk(queue_mu_);
    stop_requested_ = true;
    paused_ = false;
  }
  queue_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  journal_.close();
}

Status EcoService::recover() {
  if (!journal_enabled()) {
    session_ = std::make_unique<eco::EcoSession>(design_, state_, rc_, options_.eco);
    return Status::ok();
  }

  Result<Journal::ScanResult> scanned = Journal::scan(options_.journal_path);
  CPLA_CHECK(scanned.is_ok(), scanned.status());
  if (scanned.value().torn_tail) {
    CPLA_CHECK_OK(Journal::repair(options_.journal_path));
    obs::metrics().counter("serve.journal.repairs").add();
  }
  const std::vector<Record>& records = scanned.value().records;
  std::uint64_t genesis_hash = 0;
  if (!records.empty()) {
    Result<std::uint64_t> read = read_genesis(records);
    CPLA_CHECK(read.is_ok(), read.status());
    genesis_hash = read.value();
  }
  session_ = std::make_unique<eco::EcoSession>(design_, state_, rc_, options_.eco);
  const std::uint64_t h0 = hash_state(*state_, session_->critical());

  Result<Checkpoint> ckpt = options_.checkpoint_path.empty()
                                ? Result<Checkpoint>(Status(StatusCode::kBadInput, "disabled"))
                                : load_checkpoint(options_.checkpoint_path);

  if (records.empty()) {
    // Fresh (or deleted) journal. A loadable checkpoint restores first —
    // checkpoint-only recovery — and the new journal's genesis describes
    // the *restored* state; a fresh checkpoint is then written so the
    // journal/checkpoint pair stays self-consistent if we crash again
    // before the next periodic one.
    genesis_hash = h0;
    std::uint64_t seq = 0;
    bool from_checkpoint = false;
    if (ckpt.is_ok()) {
      core::CriticalSet restored;
      CPLA_CHECK_OK(restore_state(ckpt.value().state_blob, design_, state_, &restored));
      session_->restore_critical(std::move(restored));
      const std::uint64_t now = hash_state(*state_, session_->critical());
      CPLA_CHECK(now == ckpt.value().state_hash,
                 Status(StatusCode::kInternal, "serve: restored checkpoint hash mismatch"));
      genesis_hash = now;
      seq = ckpt.value().seq;
      from_checkpoint = true;
      LOG_INFO("serve: checkpoint-only recovery at seq %llu",
               static_cast<unsigned long long>(seq));
    }
    CPLA_CHECK_OK(journal_.open(options_.journal_path));
    CPLA_CHECK_OK(journal_.append(RecordType::kGenesis, seq, encode_genesis(genesis_hash)));
    CPLA_CHECK_OK(journal_.sync());
    base_hash_ = genesis_hash;
    record_count_.store(1, std::memory_order_relaxed);
    applied_seq_ = seq;
    last_seq_ = seq;
    obs::metrics().counter("serve.journal.records").add();
    if (from_checkpoint) {
      Checkpoint fresh;
      fresh.seq = seq;
      fresh.record_count = 1;
      fresh.base_hash = genesis_hash;
      fresh.state_hash = genesis_hash;
      fresh.state_blob = serialize_state(*state_, session_->critical());
      const Status st = write_checkpoint(options_.checkpoint_path, fresh);
      CPLA_CHECK(st.is_ok(),
                 Status(StatusCode::kInternal,
                        "serve: cannot re-pair checkpoint with the new journal: " +
                            st.message()));
      checkpoints_.fetch_add(1, std::memory_order_relaxed);
      obs::metrics().counter("serve.checkpoint.writes").add();
    }
    return Status::ok();
  }

  std::size_t begin = 1;
  ReplayCounters counters;
  counters.last_seq = records[0].seq;
  if (ckpt.is_ok() && ckpt.value().base_hash == genesis_hash &&
      ckpt.value().record_count >= 1 && ckpt.value().record_count <= records.size()) {
    // The checkpoint pairs with this journal: restore, then replay only
    // the suffix past it.
    core::CriticalSet restored;
    CPLA_CHECK_OK(restore_state(ckpt.value().state_blob, design_, state_, &restored));
    session_->restore_critical(std::move(restored));
    CPLA_CHECK(hash_state(*state_, session_->critical()) == ckpt.value().state_hash,
               Status(StatusCode::kInternal, "serve: restored checkpoint hash mismatch"));
    begin = static_cast<std::size_t>(ckpt.value().record_count);
    counters.last_seq = std::max(counters.last_seq, ckpt.value().seq);
    LOG_INFO("serve: recovering from checkpoint (record %zu of %zu)", begin, records.size());
  } else {
    CPLA_CHECK(genesis_hash == h0,
               Status(StatusCode::kBadInput,
                      "serve: journal genesis does not match this base design "
                      "(its checkpoint is required for recovery)"));
  }

  CPLA_CHECK_OK(replay_records(records, begin, session_.get(), &counters));
  applied_seq_ = counters.last_seq;
  last_seq_ = counters.last_seq;
  resolves_total_ = counters.resolves;
  base_hash_ = genesis_hash;
  record_count_.store(records.size(), std::memory_order_relaxed);
  LOG_INFO("serve: recovered %llu deltas (%llu rejected), %llu resolves, seq %llu",
           static_cast<unsigned long long>(counters.applied),
           static_cast<unsigned long long>(counters.rejected),
           static_cast<unsigned long long>(counters.resolves),
           static_cast<unsigned long long>(applied_seq_));
  return journal_.open(options_.journal_path);
}

Result<int> EcoService::open_session() {
  CPLA_CHECK(running(), Status(StatusCode::kUnavailable, "serve: not running"));
  MutexLock lk(queue_mu_);
  CPLA_CHECK(static_cast<int>(sessions_.size()) < options_.max_sessions,
             Status(StatusCode::kUnavailable, "serve: session limit reached"));
  const int id = next_session_++;
  sessions_.emplace(id, SessionStats{});
  obs::metrics().counter("serve.sessions.opened").add();
  obs::metrics().gauge("serve.sessions.active").set(static_cast<double>(sessions_.size()));
  return id;
}

void EcoService::close_session(int session) {
  MutexLock lk(queue_mu_);
  if (sessions_.erase(session) > 0) {
    obs::metrics().counter("serve.sessions.closed").add();
    obs::metrics().gauge("serve.sessions.active").set(static_cast<double>(sessions_.size()));
  }
}

Result<std::uint64_t> EcoService::submit(int session, eco::Delta delta) {
  Cmd cmd;
  cmd.delta = std::move(delta);
  return enqueue_edit(session, std::move(cmd));
}

Result<std::uint64_t> EcoService::submit(int session, Request request) {
  CPLA_CHECK(is_edit(request.kind),
             Status(StatusCode::kBadInput, "serve: request is not an edit"));
  Cmd cmd;
  cmd.needs_materialize = true;
  cmd.request = std::move(request);
  return enqueue_edit(session, std::move(cmd));
}

Result<std::uint64_t> EcoService::enqueue_edit(int session, Cmd cmd) {
  CPLA_CHECK(running(), Status(StatusCode::kUnavailable, "serve: not running"));
  CPLA_CHECK(!read_only(),
             Status(StatusCode::kUnavailable, "serve: read-only after a journal failure"));
  std::uint64_t seq = 0;
  {
    MutexLock lk(queue_mu_);
    auto it = sessions_.find(session);
    CPLA_CHECK(it != sessions_.end(),
               Status(StatusCode::kBadInput, "serve: unknown session"));
    if (queued_edits_ >= options_.max_queue) {
      ++it->second.shed;
      shed_.fetch_add(1, std::memory_order_relaxed);
      obs::metrics().counter("serve.deltas.shed").add();
      return Status(StatusCode::kUnavailable, "serve: queue full, submit shed");
    }
    seq = ++last_seq_;
    cmd.kind = CmdKind::kDelta;
    cmd.session = session;
    cmd.seq = seq;
    queue_.push_back(std::move(cmd));
    ++queued_edits_;
    ++it->second.submitted;
    submitted_.fetch_add(1, std::memory_order_relaxed);
    obs::metrics().counter("serve.deltas.submitted").add();
    obs::metrics().gauge("serve.queue.depth").set(static_cast<double>(queued_edits_));
  }
  queue_cv_.notify_one();
  return seq;
}

ResolveOutcome EcoService::resolve(int session) {
  ResolveOutcome out;
  if (!running()) {
    out.status = Status(StatusCode::kUnavailable, "serve: not running");
    return out;
  }
  auto waiter = std::make_shared<Waiter>();
  {
    MutexLock lk(queue_mu_);
    if (sessions_.find(session) == sessions_.end()) {
      out.status = Status(StatusCode::kBadInput, "serve: unknown session");
      return out;
    }
    Cmd cmd;
    cmd.kind = CmdKind::kResolve;
    cmd.session = session;
    cmd.seq = last_seq_;
    cmd.waiter = waiter;
    queue_.push_back(std::move(cmd));
  }
  obs::metrics().counter("serve.resolve.requests").add();
  queue_cv_.notify_one();
  obs::ScopedPhase wait_phase("serve.resolve.wait");
  MutexLock lk(waiter->mu);
  while (!waiter->done) waiter->cv.wait(waiter->mu);
  return waiter->outcome;
}

Status EcoService::sync(int session) {
  CPLA_CHECK(running(), Status(StatusCode::kUnavailable, "serve: not running"));
  auto waiter = std::make_shared<Waiter>();
  {
    MutexLock lk(queue_mu_);
    CPLA_CHECK(sessions_.find(session) != sessions_.end(),
               Status(StatusCode::kBadInput, "serve: unknown session"));
    Cmd cmd;
    cmd.kind = CmdKind::kSync;
    cmd.session = session;
    cmd.seq = last_seq_;
    cmd.waiter = waiter;
    queue_.push_back(std::move(cmd));
  }
  queue_cv_.notify_one();
  MutexLock lk(waiter->mu);
  while (!waiter->done) waiter->cv.wait(waiter->mu);
  return waiter->outcome.status;
}

std::shared_ptr<const StateSnapshot> EcoService::snapshot() const {
  MutexLock lk(snapshot_mu_);
  return snapshot_;
}

ServeStats EcoService::stats() const {
  ServeStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.applied = applied_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.coalesced = coalesced_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  s.read_only = read_only();
  MutexLock lk(queue_mu_);
  s.sessions = static_cast<int>(sessions_.size());
  s.per_session = sessions_;
  MutexLock sk(snapshot_mu_);
  if (snapshot_) s.resolves = snapshot_->resolves;
  s.journal_records = record_count_.load(std::memory_order_relaxed);
  return s;
}

eco::EcoSession& EcoService::engine() {
  CPLA_ASSERT_MSG(session_ != nullptr, "engine() before start()");
  return *session_;
}

void EcoService::pause_worker(bool paused) {
  {
    MutexLock lk(queue_mu_);
    paused_ = paused;
  }
  queue_cv_.notify_all();
}

void EcoService::fulfill(const std::shared_ptr<Waiter>& waiter, ResolveOutcome outcome) {
  if (!waiter) return;
  MutexLock lk(waiter->mu);
  if (waiter->done) return;
  waiter->outcome = std::move(outcome);
  waiter->done = true;
  waiter->cv.notify_all();
}

void EcoService::enter_read_only(const Status& why) {
  if (!read_only_.exchange(true, std::memory_order_acq_rel)) {
    LOG_ERROR("serve: entering read-only mode: %s", why.to_string().c_str());
    obs::metrics().counter("serve.read_only.entries").add();
  }
}

Status EcoService::journal_append(RecordType type, std::uint64_t seq,
                                  std::string_view payload) {
  const Status st = journal_.append(type, seq, payload);
  if (st.is_ok()) {
    record_count_.fetch_add(1, std::memory_order_relaxed);
    obs::metrics().counter("serve.journal.records").add();
  }
  return st;
}

void EcoService::worker_loop() {
  while (true) {
    std::vector<Cmd> batch;
    {
      MutexLock lk(queue_mu_);
      while (!(stop_requested_ || (!paused_ && !queue_.empty()))) queue_cv_.wait(queue_mu_);
      if (queue_.empty() && stop_requested_) break;
      if (paused_ && !stop_requested_) continue;
      batch.swap(queue_);
      queued_edits_ = 0;
      obs::metrics().gauge("serve.queue.depth").set(0.0);
    }
    // Defensive: process_batch is written not to throw (optimize() never
    // does, journal ops return Status), but a waiter leaked on an escaped
    // exception would hang its client forever.
    std::vector<std::shared_ptr<Waiter>> waiters;
    for (const Cmd& c : batch) {
      if (c.waiter) waiters.push_back(c.waiter);
    }
    try {
      process_batch(std::move(batch));
    } catch (const std::exception& e) {
      LOG_ERROR("serve: worker batch failed: %s", e.what());
      enter_read_only(Status(StatusCode::kInternal, e.what()));
      ResolveOutcome out;
      out.status = Status(StatusCode::kInternal, e.what());
      for (const auto& w : waiters) fulfill(w, out);
    }
  }
}

void EcoService::process_batch(std::vector<Cmd> batch) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  obs::metrics().counter("serve.worker.batches").add();
  obs::ScopedPhase batch_phase("serve.batch");

  std::vector<Cmd> edits, resolves, syncs;
  for (Cmd& c : batch) {
    switch (c.kind) {
      case CmdKind::kDelta: edits.push_back(std::move(c)); break;
      case CmdKind::kResolve: resolves.push_back(std::move(c)); break;
      case CmdKind::kSync: syncs.push_back(std::move(c)); break;
    }
  }
  apply_edits(&edits);

  // Publish before acking syncs: a sync reply promises the caller that a
  // subsequent snapshot() read sees every edit ahead of it, not just that
  // the journal bytes are durable.
  if (!edits.empty()) publish_snapshot(hash_state(*state_, session_->critical()));
  if (!syncs.empty()) {
    ResolveOutcome out;
    if (read_only()) {
      out.status = Status(StatusCode::kUnavailable, "serve: read-only after a journal failure");
    } else if (journal_enabled()) {
      out.status = journal_.sync();
      if (!out.status.is_ok()) enter_read_only(out.status);
    }
    out.seq = applied_seq_;
    for (Cmd& c : syncs) fulfill(c.waiter, out);
  }
  if (resolves.empty()) return;

  // Straight path: journal start → resolve → journal done. Read-only (or a
  // start record that fails to land) refuses the batch's resolves.
  auto refuse = [&] {
    ResolveOutcome out;
    out.status = Status(StatusCode::kUnavailable, "serve: read-only after a journal failure");
    out.seq = applied_seq_;
    for (Cmd& c : resolves) fulfill(c.waiter, out);
    publish_snapshot(hash_state(*state_, session_->critical()));
  };
  if (read_only()) {
    refuse();
    return;
  }

  if (journal_enabled()) {
    Status st = journal_append(RecordType::kResolveStart, applied_seq_, "");
    if (st.is_ok()) st = journal_.sync();
    if (!st.is_ok()) {
      enter_read_only(st);
      refuse();
      return;
    }
  }

  obs::ScopedPhase resolve_phase("serve.resolve");
  const core::OptimizeResult out = session_->resolve();
  resolve_phase.stop();

  const std::uint64_t hash = hash_state(*state_, session_->critical());
  if (journal_enabled()) {
    ByteWriter w;
    w.u64(hash);
    Status st = journal_append(RecordType::kResolveDone, applied_seq_, w.data());
    if (st.is_ok()) st = journal_.sync();
    if (!st.is_ok()) {
      // The resolve outcome itself is durable-equivalent — the fsynced
      // kResolveStart replays it deterministically — but the journal is
      // done accepting records.
      enter_read_only(st);
    }
  }
  ++resolves_total_;
  obs::metrics().counter("serve.resolve.completed").add();
  maybe_checkpoint(hash);
  publish_snapshot(hash);

  ResolveOutcome reply;
  reply.status = out.status;
  reply.seq = applied_seq_;
  reply.hash = hash;
  {
    MutexLock lk(snapshot_mu_);
    reply.metrics = snapshot_->metrics;
  }
  for (Cmd& c : resolves) fulfill(c.waiter, reply);
}

void EcoService::apply_edits(std::vector<Cmd>* edits) {
  if (edits->empty()) return;

  // Materialize request-form edits now that we are on the worker thread (a
  // reroute reads the live routing tree). A request that cannot become a
  // delta is rejected here and never journaled — replay sees neither.
  {
    std::vector<Cmd> live;
    live.reserve(edits->size());
    for (Cmd& c : *edits) {
      if (c.needs_materialize) {
        Result<eco::Delta> d = materialize(c.request, *state_);
        if (!d.is_ok()) {
          rejected_.fetch_add(1, std::memory_order_relaxed);
          obs::metrics().counter("serve.deltas.rejected").add();
          applied_seq_ = std::max(applied_seq_, c.seq);
          continue;
        }
        c.delta = d.take();
        c.needs_materialize = false;
      }
      live.push_back(std::move(c));
    }
    *edits = std::move(live);
  }

  if (options_.coalesce) {
    // Last-wins within the batch for idempotent-overwrite kinds (capacity
    // on one edge, criticality of one net, reroute of one net). Batches
    // containing structural edits (add/remove) are left untouched — net-id
    // aliasing across an add/remove makes last-wins unsafe.
    bool structural = false;
    for (const Cmd& c : *edits) {
      if (c.delta.kind == eco::DeltaKind::kNetAdded ||
          c.delta.kind == eco::DeltaKind::kNetRemoved) {
        structural = true;
        break;
      }
    }
    if (!structural) {
      std::map<std::tuple<int, int, int, int>, std::size_t> last;
      auto key_of = [](const eco::Delta& d, std::tuple<int, int, int, int>* key) {
        switch (d.kind) {
          case eco::DeltaKind::kCapacityAdjusted: *key = {0, d.layer, d.x, d.y}; return true;
          case eco::DeltaKind::kCriticalityChanged: *key = {1, d.net, 0, 0}; return true;
          case eco::DeltaKind::kNetRerouted: *key = {2, d.net, 0, 0}; return true;
          default: return false;
        }
      };
      for (std::size_t i = 0; i < edits->size(); ++i) {
        std::tuple<int, int, int, int> key;
        if (key_of((*edits)[i].delta, &key)) last[key] = i;
      }
      std::vector<Cmd> kept;
      kept.reserve(edits->size());
      for (std::size_t i = 0; i < edits->size(); ++i) {
        std::tuple<int, int, int, int> key;
        if (key_of((*edits)[i].delta, &key) && last[key] != i) continue;
        kept.push_back(std::move((*edits)[i]));
      }
      const std::uint64_t dropped = edits->size() - kept.size();
      if (dropped > 0) {
        coalesced_.fetch_add(dropped, std::memory_order_relaxed);
        obs::metrics().counter("serve.deltas.coalesced").add(static_cast<std::int64_t>(dropped));
      }
      *edits = std::move(kept);
    }
  }

  for (Cmd& c : *edits) {
    if (read_only()) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      obs::metrics().counter("serve.deltas.rejected").add();
      continue;
    }
    if (journal_enabled()) {
      // Journal-first: a journaled delta the engine rejects is rejected
      // identically on replay (apply is deterministic), so the journal can
      // run ahead of the state but never diverge from it.
      ByteWriter w;
      write_delta(&w, c.delta);
      const Status st = journal_append(RecordType::kDelta, c.seq, w.data());
      if (!st.is_ok()) {
        enter_read_only(st);
        rejected_.fetch_add(1, std::memory_order_relaxed);
        obs::metrics().counter("serve.deltas.rejected").add();
        continue;
      }
    }
    const Result<int> r = session_->apply(c.delta);
    if (r.is_ok()) {
      applied_.fetch_add(1, std::memory_order_relaxed);
      obs::metrics().counter("serve.deltas.applied").add();
    } else {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      obs::metrics().counter("serve.deltas.rejected").add();
    }
    applied_seq_ = std::max(applied_seq_, c.seq);
  }
}

void EcoService::maybe_checkpoint(std::uint64_t state_hash) {
  if (!journal_enabled() || options_.checkpoint_path.empty() ||
      options_.checkpoint_every <= 0) {
    return;
  }
  if (resolves_total_ % static_cast<std::uint64_t>(options_.checkpoint_every) != 0) return;
  Checkpoint ckpt;
  ckpt.seq = applied_seq_;
  ckpt.record_count = record_count_.load(std::memory_order_relaxed);
  ckpt.base_hash = base_hash_;
  ckpt.state_hash = state_hash;
  ckpt.state_blob = serialize_state(*state_, session_->critical());
  const Status st = write_checkpoint(options_.checkpoint_path, ckpt);
  if (st.is_ok()) {
    checkpoints_.fetch_add(1, std::memory_order_relaxed);
    obs::metrics().counter("serve.checkpoint.writes").add();
  } else {
    // Never fatal: recovery just replays a longer suffix.
    LOG_WARN("serve: checkpoint skipped: %s", st.to_string().c_str());
    obs::metrics().counter("serve.checkpoint.skips").add();
  }
}

void EcoService::publish_snapshot(std::uint64_t state_hash) {
  auto next = std::make_shared<StateSnapshot>();
  next->seq = applied_seq_;
  next->resolves = resolves_total_;
  next->hash = state_hash;
  next->metrics = core::compute_metrics(*state_, *rc_, session_->critical());

  std::shared_ptr<const StateSnapshot> prev;
  {
    MutexLock lk(snapshot_mu_);
    prev = snapshot_;
  }
  next->layers.resize(static_cast<std::size_t>(state_->num_nets()));
  for (int net = 0; net < state_->num_nets(); ++net) {
    const auto idx = static_cast<std::size_t>(net);
    if (prev != nullptr && idx < prev->layers.size() && prev->layers[idx] != nullptr &&
        *prev->layers[idx] == state_->layers(net)) {
      next->layers[idx] = prev->layers[idx];  // copy-on-write: share unchanged
    } else {
      next->layers[idx] = std::make_shared<const std::vector<int>>(state_->layers(net));
    }
  }
  MutexLock lk(snapshot_mu_);
  snapshot_ = std::move(next);
}

Result<std::uint64_t> replay_journal(const std::string& path, grid::Design* design,
                                     assign::AssignState* state, const timing::RcTable* rc,
                                     const eco::EcoOptions& options) {
  Result<Journal::ScanResult> scanned = Journal::scan(path);
  CPLA_CHECK(scanned.is_ok(), scanned.status());
  const std::vector<Record>& records = scanned.value().records;
  if (records.empty()) {
    const eco::EcoSession session(design, state, rc, options);
    return hash_state(*state, session.critical());
  }

  Result<std::uint64_t> genesis = read_genesis(records);
  CPLA_CHECK(genesis.is_ok(), genesis.status());
  eco::EcoSession session(design, state, rc, options);
  CPLA_CHECK(genesis.value() == hash_state(*state, session.critical()),
             Status(StatusCode::kBadInput,
                    "serve: journal genesis does not match the prepared base"));
  ReplayCounters counters;
  CPLA_CHECK_OK(replay_records(records, 1, &session, &counters));
  return hash_state(*state, session.critical());
}

}  // namespace cpla::serve
