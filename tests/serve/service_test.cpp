// EcoService behavior: submit/resolve against the engine contract,
// admission control (shed at the queue bound), within-batch coalescing,
// read-only degradation on journal faults, and snapshot isolation with
// copy-on-write sharing.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include "src/eco/edit_script.hpp"
#include "src/eco/reroute.hpp"
#include "src/serve/codec.hpp"
#include "src/util/fault_inject.hpp"
#include "src/util/fault_sites.hpp"
#include "tests/serve/serve_test_util.hpp"

namespace cpla::serve {
namespace {

core::Prepared small_base() { return eco::make_bench(511, 12, 60); }

eco::Delta capacity_bump(const core::Prepared& bench, int x, int y, int delta_cap) {
  const auto& g = bench.design->grid;
  int layer = 0;
  while (!g.is_horizontal(layer)) ++layer;
  const int cap = g.edge_capacity(layer, g.h_edge_id(x, y));
  return eco::Delta::capacity_adjusted(layer, x, y, cap + delta_cap);
}

TEST(ServiceTest, SubmitAppliesAndResolveReportsTheLiveHash) {
  core::Prepared bench = small_base();
  ServeOptions opt;
  opt.eco.critical_ratio = 0.03;
  EcoService service(bench.design.get(), bench.state.get(), bench.rc.get(), opt);
  ASSERT_TRUE(service.start().is_ok());
  const int session = service.open_session().value();

  ASSERT_TRUE(service.submit(session, capacity_bump(bench, 2, 3, 2)).is_ok());
  const ResolveOutcome out = service.resolve(session);
  ASSERT_TRUE(out.status.is_ok());
  EXPECT_EQ(out.hash, service.snapshot()->hash);
  EXPECT_EQ(out.hash, hash_state(*bench.state, service.engine().critical()));

  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.applied, 1u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.resolves, 1u);
  service.stop();
}

TEST(ServiceTest, InvalidDeltasAreCountedRejectedNotFatal) {
  core::Prepared bench = small_base();
  EcoService service(bench.design.get(), bench.state.get(), bench.rc.get(), ServeOptions{});
  ASSERT_TRUE(service.start().is_ok());
  const int session = service.open_session().value();

  // Out-of-range net: journal-compatible, engine-rejected.
  ASSERT_TRUE(service.submit(session, eco::Delta::net_removed(100000)).is_ok());
  ASSERT_TRUE(service.sync(session).is_ok());
  EXPECT_EQ(service.stats().rejected, 1u);
  EXPECT_EQ(service.stats().applied, 0u);
  EXPECT_FALSE(service.read_only());  // bad input is not a durability failure
  service.stop();
}

TEST(ServiceTest, UnknownSessionsAreRefused) {
  core::Prepared bench = small_base();
  EcoService service(bench.design.get(), bench.state.get(), bench.rc.get(), ServeOptions{});
  ASSERT_TRUE(service.start().is_ok());
  EXPECT_EQ(service.submit(77, eco::Delta::net_removed(0)).status().code(),
            StatusCode::kBadInput);
  EXPECT_EQ(service.resolve(77).status.code(), StatusCode::kBadInput);
  service.stop();
  EXPECT_EQ(service.submit(0, eco::Delta::net_removed(0)).status().code(),
            StatusCode::kUnavailable);
}

// A served resolve must depend only on the state and the config, so that
// replay rebuilds the acknowledged hash: a flow whose guard carries a
// wall-clock deadline is refused before recovery touches the journal.
TEST(ServiceTest, FlowDeadlineIsRefusedAtStart) {
  core::Prepared bench = small_base();
  TempDir dir;
  ServeOptions opt = durable_options(dir);
  opt.eco.flow.guard.deadline_ms = 50.0;
  EcoService service(bench.design.get(), bench.state.get(), bench.rc.get(), opt);
  const Status st = service.start();
  EXPECT_EQ(st.code(), StatusCode::kBadInput) << st.to_string();
  EXPECT_FALSE(service.running());
  EXPECT_FALSE(std::filesystem::exists(dir.path("journal.wal")));
  EXPECT_EQ(service.resolve(0).status.code(), StatusCode::kUnavailable);
}

TEST(ServiceTest, SessionLimitIsTheConnectionAdmissionControl) {
  core::Prepared bench = small_base();
  ServeOptions opt;
  opt.max_sessions = 2;
  EcoService service(bench.design.get(), bench.state.get(), bench.rc.get(), opt);
  ASSERT_TRUE(service.start().is_ok());
  const Result<int> a = service.open_session();
  const Result<int> b = service.open_session();
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(service.open_session().status().code(), StatusCode::kUnavailable);
  service.close_session(a.value());
  EXPECT_TRUE(service.open_session().is_ok());  // slot freed
  service.stop();
}

TEST(ServiceTest, FullQueueShedsSubmitsWithUnavailable) {
  core::Prepared bench = small_base();
  ServeOptions opt;
  opt.max_queue = 3;
  EcoService service(bench.design.get(), bench.state.get(), bench.rc.get(), opt);
  ASSERT_TRUE(service.start().is_ok());
  const int session = service.open_session().value();

  service.pause_worker(true);  // hold the queue so the bound is observable
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service.submit(session, capacity_bump(bench, 1 + i, 1, 1)).is_ok());
  }
  const Result<std::uint64_t> shed = service.submit(session, capacity_bump(bench, 5, 1, 1));
  ASSERT_FALSE(shed.is_ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  service.pause_worker(false);
  ASSERT_TRUE(service.sync(session).is_ok());

  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.applied, 3u);
  ASSERT_EQ(stats.per_session.count(session), 1u);
  EXPECT_EQ(stats.per_session.at(session).shed, 1u);
  EXPECT_EQ(stats.per_session.at(session).submitted, 3u);
  service.stop();
}

TEST(ServiceTest, SameKeyEditsCoalesceWithinABatch) {
  core::Prepared bench = small_base();
  EcoService service(bench.design.get(), bench.state.get(), bench.rc.get(), ServeOptions{});
  ASSERT_TRUE(service.start().is_ok());
  const int session = service.open_session().value();

  const auto& g = bench.design->grid;
  int layer = 0;
  while (!g.is_horizontal(layer)) ++layer;
  const int base_cap = g.edge_capacity(layer, g.h_edge_id(4, 4));

  service.pause_worker(true);  // force all five into one batch
  for (int bump = 1; bump <= 5; ++bump) {
    ASSERT_TRUE(service.submit(session, capacity_bump(bench, 4, 4, bump)).is_ok());
  }
  service.pause_worker(false);
  ASSERT_TRUE(service.sync(session).is_ok());

  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 5u);
  EXPECT_EQ(stats.coalesced, 4u);  // last-wins: only the final bump applies
  EXPECT_EQ(stats.applied, 1u);
  // The surviving write is the LAST one.
  EXPECT_EQ(g.edge_capacity(layer, g.h_edge_id(4, 4)), base_cap + 5);
  service.stop();
}

TEST(ServiceTest, StructuralEditsDisableCoalescingForTheBatch) {
  core::Prepared bench = small_base();
  EcoService service(bench.design.get(), bench.state.get(), bench.rc.get(), ServeOptions{});
  ASSERT_TRUE(service.start().is_ok());
  const int session = service.open_session().value();

  service.pause_worker(true);
  ASSERT_TRUE(service.submit(session, capacity_bump(bench, 2, 2, 1)).is_ok());
  ASSERT_TRUE(service.submit(session, capacity_bump(bench, 2, 2, 2)).is_ok());
  ASSERT_TRUE(
      service.submit(session, eco::Delta::net_added(eco::make_two_pin_tree({1, 1}, {4, 4})))
          .is_ok());
  service.pause_worker(false);
  ASSERT_TRUE(service.sync(session).is_ok());

  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.coalesced, 0u);  // the add made last-wins unsafe
  EXPECT_EQ(stats.applied, 3u);
  service.stop();
}

TEST(ServiceTest, JournalAppendFailureFlipsReadOnlyAndSubsequentWorkIsRefused) {
  TempDir dir;
  core::Prepared bench = small_base();
  EcoService service(bench.design.get(), bench.state.get(), bench.rc.get(),
                     durable_options(dir));
  ASSERT_TRUE(service.start().is_ok());
  const int session = service.open_session().value();

  ASSERT_TRUE(service.submit(session, capacity_bump(bench, 2, 2, 1)).is_ok());
  ASSERT_TRUE(service.sync(session).is_ok());
  const std::uint64_t hash_before = service.snapshot()->hash;

  FaultInjector::instance().arm(fault_sites::kServeJournalAppend, 0);
  ASSERT_TRUE(service.submit(session, capacity_bump(bench, 3, 3, 1)).is_ok());
  while (!service.read_only()) std::this_thread::yield();
  FaultInjector::instance().reset();

  // The failed delta was never applied — acknowledged state is intact.
  EXPECT_EQ(service.snapshot()->hash, hash_before);
  EXPECT_EQ(service.submit(session, capacity_bump(bench, 4, 4, 1)).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(service.resolve(session).status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.sync(session).code(), StatusCode::kUnavailable);
  // Reads keep working off the snapshot.
  EXPECT_NE(service.snapshot(), nullptr);
  EXPECT_TRUE(service.stats().read_only);
  service.stop();

  // Recovery truncates the torn tail and lands on the acknowledged state.
  core::Prepared fresh = eco::make_bench(511, 12, 60);
  EcoService recovered(fresh.design.get(), fresh.state.get(), fresh.rc.get(),
                       durable_options(dir));
  ASSERT_TRUE(recovered.start().is_ok());
  EXPECT_EQ(recovered.snapshot()->hash, hash_before);
  recovered.stop();
}

TEST(ServiceTest, SnapshotsAreImmutableAndShareUnchangedNets) {
  core::Prepared bench = small_base();
  EcoService service(bench.design.get(), bench.state.get(), bench.rc.get(), ServeOptions{});
  ASSERT_TRUE(service.start().is_ok());
  const int session = service.open_session().value();

  const std::shared_ptr<const StateSnapshot> before = service.snapshot();
  int reroutable = -1;
  for (int net = 0; net < bench.state->num_nets(); ++net) {
    if (eco::alternate_route(bench.state->tree(net)).is_ok()) {
      reroutable = net;
      break;
    }
  }
  ASSERT_GE(reroutable, 0);
  Request req;
  req.kind = RequestKind::kReroute;
  req.net = reroutable;
  ASSERT_TRUE(service.submit(session, req).is_ok());
  ASSERT_TRUE(service.sync(session).is_ok());

  const std::shared_ptr<const StateSnapshot> after = service.snapshot();
  ASSERT_NE(after, before);
  EXPECT_NE(after->hash, before->hash);
  // Copy-on-write: untouched nets share storage, the rerouted one does not.
  int shared = 0;
  for (std::size_t net = 0; net < before->layers.size(); ++net) {
    if (after->layers[net] == before->layers[net]) ++shared;
  }
  EXPECT_EQ(shared, static_cast<int>(before->layers.size()) - 1);
  EXPECT_NE(after->layers[static_cast<std::size_t>(reroutable)],
            before->layers[static_cast<std::size_t>(reroutable)]);
  service.stop();
}

TEST(ServiceTest, ResolveMatchesADirectSessionOnTheSameEditStream) {
  // The service (no coalescing, so streams match 1:1) and a bare EcoSession
  // applying the identical deltas must land on identical bits.
  core::Prepared a = small_base();
  core::Prepared b = small_base();
  ServeOptions opt;
  opt.eco.critical_ratio = 0.03;
  opt.coalesce = false;
  EcoService service(a.design.get(), a.state.get(), a.rc.get(), opt);
  ASSERT_TRUE(service.start().is_ok());
  const int session = service.open_session().value();

  eco::EcoSession direct(b.design.get(), b.state.get(), b.rc.get(), opt.eco);
  const std::vector<eco::Delta> script =
      eco::make_edit_script(*b.state, direct.critical(), {.count = 10, .seed = 77});
  for (const eco::Delta& d : script) {
    ASSERT_TRUE(service.submit(session, d).is_ok());
    ASSERT_TRUE(direct.apply(d).is_ok());
  }
  const ResolveOutcome served = service.resolve(session);
  ASSERT_TRUE(served.status.is_ok());
  ASSERT_TRUE(direct.resolve().status.is_ok());

  EXPECT_EQ(served.hash, hash_state(*b.state, direct.critical()));
  eco::expect_assignments_equal(*a.state, *b.state);
  service.stop();
}

}  // namespace
}  // namespace cpla::serve
