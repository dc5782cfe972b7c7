// Crash-recovery edge cases for the ECO service: empty journals,
// checkpoint-only recovery, torn final records (truncate-and-recover, not
// abort), a trailing kResolveStart completed on replay, restart
// bit-identity, replay determinism across both partitioning shapes
// (quadtree refinement vs pure K x K) and across OpenMP thread counts, and
// the genesis record's exact format.
//
// Every "restart" builds a FRESH base triple from the same generator seed
// — exactly what a real process restart does — and recovery must land the
// fresh triple on the pre-crash state, bit for bit.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <vector>

#include "src/eco/edit_script.hpp"
#include "src/obs/metrics.hpp"
#include "src/serve/checkpoint.hpp"
#include "src/serve/codec.hpp"
#include "src/serve/journal.hpp"
#include "tests/serve/serve_test_util.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace cpla::serve {
namespace {

constexpr std::uint64_t kSeed = 401;

core::Prepared fresh_base() { return eco::make_bench(kSeed, 12, 60); }

/// Submits a deterministic edit stream (eco::make_edit_script) through the
/// service and returns how many deltas went in.
int submit_script(EcoService* service, int session, int count, std::uint64_t seed) {
  // Generate against the *current* service state: pause the worker so the
  // state is quiescent while make_edit_script reads it (callers invoke this
  // only at barriers — after start/resolve/sync — so no batch is in flight).
  service->pause_worker(true);
  eco::EcoSession& engine = service->engine();
  const std::vector<eco::Delta> script =
      eco::make_edit_script(engine.state(), engine.critical(), {.count = count, .seed = seed});
  for (const eco::Delta& d : script) {
    EXPECT_TRUE(service->submit(session, d).is_ok());
  }
  service->pause_worker(false);
  return static_cast<int>(script.size());
}

TEST(RecoveryTest, FreshJournalStartsWithAGenesisRecord) {
  TempDir dir;
  core::Prepared bench = fresh_base();
  EcoService service(bench.design.get(), bench.state.get(), bench.rc.get(),
                     durable_options(dir));
  ASSERT_TRUE(service.start().is_ok());
  const std::uint64_t live_hash = service.snapshot()->hash;
  service.stop();

  Result<Journal::ScanResult> scan = Journal::scan(dir.path("journal.wal"));
  ASSERT_TRUE(scan.is_ok());
  ASSERT_EQ(scan.value().records.size(), 1u);
  EXPECT_EQ(scan.value().records[0].type, RecordType::kGenesis);
  ByteReader r(scan.value().records[0].payload);
  EXPECT_EQ(r.u64(), live_hash);
  EXPECT_TRUE(r.ok() && r.at_end());  // the base hash and nothing else
}

TEST(RecoveryTest, RestartFromTheJournalIsBitIdentical) {
  TempDir dir;
  std::uint64_t final_hash = 0;
  {
    core::Prepared bench = fresh_base();
    EcoService service(bench.design.get(), bench.state.get(), bench.rc.get(),
                       durable_options(dir));
    ASSERT_TRUE(service.start().is_ok());
    const int session = service.open_session().value();
    submit_script(&service, session, 8, 5);
    const ResolveOutcome out = service.resolve(session);
    ASSERT_TRUE(out.status.is_ok());
    submit_script(&service, session, 4, 6);  // un-resolved tail of edits
    ASSERT_TRUE(service.sync(session).is_ok());
    final_hash = service.snapshot()->hash;
    service.stop();
  }
  ASSERT_NE(final_hash, 0u);

  // Path 1: a restarted service recovers the fresh base to the same bits.
  {
    core::Prepared bench = fresh_base();
    EcoService service(bench.design.get(), bench.state.get(), bench.rc.get(),
                       durable_options(dir));
    ASSERT_TRUE(service.start().is_ok());
    EXPECT_EQ(service.snapshot()->hash, final_hash);
    service.stop();
  }
  // Path 2: the journal-only reference replay agrees.
  {
    core::Prepared bench = fresh_base();
    ServeOptions opt = durable_options(dir);
    Result<std::uint64_t> replayed = replay_journal(
        dir.path("journal.wal"), bench.design.get(), bench.state.get(), bench.rc.get(), opt.eco);
    ASSERT_TRUE(replayed.is_ok());
    EXPECT_EQ(replayed.value(), final_hash);
  }
}

TEST(RecoveryTest, TornFinalRecordIsTruncatedAndRecovered) {
  TempDir dir;
  std::uint64_t synced_hash = 0;
  {
    core::Prepared bench = fresh_base();
    EcoService service(bench.design.get(), bench.state.get(), bench.rc.get(),
                       durable_options(dir));
    ASSERT_TRUE(service.start().is_ok());
    const int session = service.open_session().value();
    submit_script(&service, session, 6, 9);
    ASSERT_TRUE(service.sync(session).is_ok());
    synced_hash = service.snapshot()->hash;
    service.stop();
  }

  // Tear the tail: half of a record, as a power cut mid-append leaves it.
  const std::string frame = encode_frame(RecordType::kDelta, 999, "never-finished");
  {
    std::ofstream app(dir.path("journal.wal"), std::ios::binary | std::ios::app);
    app.write(frame.data(), static_cast<std::streamsize>(frame.size() / 2));
  }

  core::Prepared bench = fresh_base();
  EcoService service(bench.design.get(), bench.state.get(), bench.rc.get(),
                     durable_options(dir));
  ASSERT_TRUE(service.start().is_ok());  // truncate-and-recover, not abort
  EXPECT_EQ(service.snapshot()->hash, synced_hash);
  service.stop();

  // The repair was physical: the journal scans clean afterwards.
  Result<Journal::ScanResult> scan = Journal::scan(dir.path("journal.wal"));
  ASSERT_TRUE(scan.is_ok());
  EXPECT_FALSE(scan.value().torn_tail);
}

TEST(RecoveryTest, CheckpointOnlyRecoveryRebuildsFromTheBlob) {
  TempDir dir;
  std::uint64_t resolved_hash = 0;
  {
    core::Prepared bench = fresh_base();
    EcoService service(bench.design.get(), bench.state.get(), bench.rc.get(),
                       durable_options(dir, /*checkpoint_every=*/1));
    ASSERT_TRUE(service.start().is_ok());
    const int session = service.open_session().value();
    submit_script(&service, session, 8, 11);
    ASSERT_TRUE(service.resolve(session).status.is_ok());
    resolved_hash = service.snapshot()->hash;
    EXPECT_EQ(service.stats().checkpoints, 1u);
    service.stop();
  }

  // The journal is gone; only the checkpoint survives.
  std::filesystem::remove(dir.path("journal.wal"));

  {
    core::Prepared bench = fresh_base();
    EcoService service(bench.design.get(), bench.state.get(), bench.rc.get(),
                       durable_options(dir, 1));
    ASSERT_TRUE(service.start().is_ok());
    EXPECT_EQ(service.snapshot()->hash, resolved_hash);
    service.stop();
  }

  // The rebuilt journal must pair with a re-written checkpoint, so a
  // SECOND restart (crashing again before any new checkpoint) still works.
  {
    core::Prepared bench = fresh_base();
    EcoService service(bench.design.get(), bench.state.get(), bench.rc.get(),
                       durable_options(dir, 1));
    ASSERT_TRUE(service.start().is_ok());
    EXPECT_EQ(service.snapshot()->hash, resolved_hash);
    service.stop();
  }
}

TEST(RecoveryTest, CheckpointPlusJournalSuffixReplays) {
  TempDir dir;
  std::uint64_t final_hash = 0;
  {
    core::Prepared bench = fresh_base();
    EcoService service(bench.design.get(), bench.state.get(), bench.rc.get(),
                       durable_options(dir, /*checkpoint_every=*/1));
    ASSERT_TRUE(service.start().is_ok());
    const int session = service.open_session().value();
    submit_script(&service, session, 6, 13);
    ASSERT_TRUE(service.resolve(session).status.is_ok());  // checkpoint here
    submit_script(&service, session, 5, 14);               // suffix past it
    ASSERT_TRUE(service.sync(session).is_ok());
    final_hash = service.snapshot()->hash;
    service.stop();
  }

  core::Prepared bench = fresh_base();
  EcoService service(bench.design.get(), bench.state.get(), bench.rc.get(),
                     durable_options(dir, 1));
  ASSERT_TRUE(service.start().is_ok());
  EXPECT_EQ(service.snapshot()->hash, final_hash);
  service.stop();
}

TEST(RecoveryTest, TrailingResolveStartIsCompletedOnRecovery) {
  TempDir dir;
  {
    core::Prepared bench = fresh_base();
    EcoService service(bench.design.get(), bench.state.get(), bench.rc.get(),
                       durable_options(dir));
    ASSERT_TRUE(service.start().is_ok());
    const int session = service.open_session().value();
    submit_script(&service, session, 8, 17);
    ASSERT_TRUE(service.sync(session).is_ok());
    service.stop();
  }

  // The crash left a fsynced kResolveStart with no outcome record — the
  // exact state a SIGKILL between the marker fsync and kResolveDone leaves.
  // The frame carries the 8-byte f64 deadline payload older journals wrote
  // (the service now writes an empty one): replay ignores the payload, so
  // such a journal still recovers.
  {
    ByteWriter deadline;
    deadline.f64(0.0);
    const std::string frame = encode_frame(RecordType::kResolveStart, 8, deadline.data());
    std::ofstream app(dir.path("journal.wal"), std::ios::binary | std::ios::app);
    app.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  }

  std::uint64_t recovered_hash = 0;
  {
    core::Prepared bench = fresh_base();
    EcoService service(bench.design.get(), bench.state.get(), bench.rc.get(),
                       durable_options(dir));
    ASSERT_TRUE(service.start().is_ok());
    recovered_hash = service.snapshot()->hash;
    EXPECT_EQ(service.snapshot()->resolves, 1u);  // the promised resolve ran
    service.stop();
  }

  // The independent replay path promises the identical completed resolve.
  core::Prepared bench = fresh_base();
  ServeOptions opt = durable_options(dir);
  Result<std::uint64_t> replayed = replay_journal(
      dir.path("journal.wal"), bench.design.get(), bench.state.get(), bench.rc.get(), opt.eco);
  ASSERT_TRUE(replayed.is_ok());
  EXPECT_EQ(replayed.value(), recovered_hash);
}

TEST(RecoveryTest, MismatchedBaseDesignIsRefused) {
  TempDir dir;
  {
    core::Prepared bench = fresh_base();
    EcoService service(bench.design.get(), bench.state.get(), bench.rc.get(),
                       durable_options(dir));
    ASSERT_TRUE(service.start().is_ok());
    service.stop();
  }
  core::Prepared other = eco::make_bench(kSeed + 1, 12, 60);
  EcoService service(other.design.get(), other.state.get(), other.rc.get(),
                     durable_options(dir));
  const Status st = service.start();
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), StatusCode::kBadInput);
  EXPECT_FALSE(service.running());
}

TEST(RecoveryTest, ReplayIsDeterministicUnderBothPartitioningShapes) {
  // Quadtree refinement (the default max_segments) and pure K x K (a
  // budget so large no leaf ever splits) produce different optimization
  // trajectories — each must still replay to its own run bit-identically.
  for (const int max_segments : {10, 1 << 20}) {
    TempDir dir;
    ServeOptions opt = durable_options(dir);
    opt.eco.flow.partition.max_segments = max_segments;

    std::uint64_t final_hash = 0;
    {
      core::Prepared bench = fresh_base();
      EcoService service(bench.design.get(), bench.state.get(), bench.rc.get(), opt);
      ASSERT_TRUE(service.start().is_ok());
      const int session = service.open_session().value();
      submit_script(&service, session, 6, 23);
      ASSERT_TRUE(service.resolve(session).status.is_ok());
      final_hash = service.snapshot()->hash;
      service.stop();
    }

    core::Prepared bench = fresh_base();
    EcoService service(bench.design.get(), bench.state.get(), bench.rc.get(), opt);
    ASSERT_TRUE(service.start().is_ok());
    EXPECT_EQ(service.snapshot()->hash, final_hash) << "max_segments=" << max_segments;
    service.stop();
  }
}

#ifdef _OPENMP

TEST(RecoveryTest, ReplayMatchesTheLiveRunAtAnyThreadCount) {
  // Resolves depend only on their inputs, never on the OpenMP thread
  // count. The journal is written by a service started at 2 threads, then
  // recovered and replayed from a thread running at 1: both must land on
  // the live bits. A denser base than fresh_base(): on it the commit batch
  // changes the resolved assignment, so a thread-count-dependent batch
  // cannot pass.
  auto dense_base = [] { return eco::make_bench(kSeed, 12, 150); };
  const obs::Counter& mismatches = obs::metrics().counter("serve.replay.hash_mismatches");
  const std::int64_t mismatches_before = mismatches.value();
  TempDir dir;
  std::uint64_t final_hash = 0;
  {
    const eco::ScopedOmpThreads threads(2);
    core::Prepared bench = dense_base();
    EcoService service(bench.design.get(), bench.state.get(), bench.rc.get(),
                       durable_options(dir));
    ASSERT_TRUE(service.start().is_ok());
    const int session = service.open_session().value();
    for (std::uint64_t seed : {31, 32, 33}) {
      submit_script(&service, session, 8, seed);
      ASSERT_TRUE(service.resolve(session).status.is_ok());
    }
    final_hash = service.snapshot()->hash;
    service.stop();
  }

  const eco::ScopedOmpThreads threads(1);
  {
    core::Prepared bench = dense_base();
    EcoService service(bench.design.get(), bench.state.get(), bench.rc.get(),
                       durable_options(dir));
    ASSERT_TRUE(service.start().is_ok());
    EXPECT_EQ(service.snapshot()->hash, final_hash);
    service.stop();
  }
  {
    core::Prepared bench = dense_base();
    const ServeOptions opt = durable_options(dir);
    Result<std::uint64_t> replayed = replay_journal(
        dir.path("journal.wal"), bench.design.get(), bench.state.get(), bench.rc.get(), opt.eco);
    ASSERT_TRUE(replayed.is_ok());
    EXPECT_EQ(replayed.value(), final_hash);
  }
  EXPECT_EQ(mismatches.value(), mismatches_before);
}
#endif

TEST(RecoveryTest, GenesisWithACommitBatchIsRefused) {
  TempDir dir;
  {
    core::Prepared bench = fresh_base();
    EcoService service(bench.design.get(), bench.state.get(), bench.rc.get(),
                       durable_options(dir));
    ASSERT_TRUE(service.start().is_ok());
    service.stop();
  }
  // Rewrite the journal with the older 12-byte genesis: the base hash
  // followed by an i32 commit batch. It is refused, never misread.
  {
    Result<Journal::ScanResult> scan = Journal::scan(dir.path("journal.wal"));
    ASSERT_TRUE(scan.is_ok());
    const Record& genesis = scan.value().records[0];
    ASSERT_EQ(genesis.payload.size(), 8u);
    ByteWriter w;
    w.u64(ByteReader(genesis.payload).u64());
    w.i32(1);
    const std::string frame = encode_frame(RecordType::kGenesis, genesis.seq, w.data());
    std::ofstream out(dir.path("journal.wal"), std::ios::binary | std::ios::trunc);
    out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  }

  core::Prepared bench = fresh_base();
  EcoService service(bench.design.get(), bench.state.get(), bench.rc.get(),
                     durable_options(dir));
  const Status st = service.start();
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), StatusCode::kBadInput);
  EXPECT_NE(st.message().find("genesis"), std::string::npos) << st.message();
  EXPECT_FALSE(service.running());

  core::Prepared base = fresh_base();
  Result<std::uint64_t> replayed =
      replay_journal(dir.path("journal.wal"), base.design.get(), base.state.get(),
                     base.rc.get(), durable_options(dir).eco);
  ASSERT_FALSE(replayed.is_ok());
  EXPECT_EQ(replayed.status().code(), StatusCode::kBadInput);
}

}  // namespace
}  // namespace cpla::serve
