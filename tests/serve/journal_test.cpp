// Units of the durability layer: byte codec roundtrips, CRC framing, scan
// semantics over torn and corrupted tails, repair idempotence, and atomic
// checkpoint write/load.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "src/eco/reroute.hpp"
#include "src/serve/checkpoint.hpp"
#include "src/serve/codec.hpp"
#include "src/serve/journal.hpp"
#include "src/util/fault_inject.hpp"
#include "src/util/fault_sites.hpp"
#include "tests/serve/serve_test_util.hpp"

namespace cpla::serve {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// --- codec -------------------------------------------------------------

TEST(CodecTest, Crc32MatchesTheIeeeCheckValue) {
  // The canonical CRC-32 check string.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
  // Chaining through the seed equals one pass over the concatenation.
  const std::uint32_t first = crc32("12345", 5);
  EXPECT_EQ(crc32("6789", 4, first), 0xCBF43926u);
}

TEST(CodecTest, PrimitiveRoundTripIsExact) {
  ByteWriter w;
  w.u8(0xab);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.i32(-42);
  w.f64(-1234.5678e-9);
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.f64(), -1234.5678e-9);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(CodecTest, ReaderOverrunLatchesTheFailFlag) {
  ByteWriter w;
  w.u32(7);
  ByteReader r(w.data());
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_EQ(r.u64(), 0u);  // overrun: zeros out
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u8(), 0u);  // stays failed
  EXPECT_FALSE(r.ok());
}

TEST(CodecTest, TreeAndDeltaRoundTrip) {
  const route::SegTree ell = eco::make_two_pin_tree({1, 2}, {6, 9});
  ByteWriter w;
  write_tree(&w, ell);
  ByteReader r(w.data());
  const route::SegTree back = read_tree(&r);
  ASSERT_TRUE(r.ok() && r.at_end());
  ASSERT_EQ(back.segs.size(), ell.segs.size());
  for (std::size_t i = 0; i < ell.segs.size(); ++i) {
    EXPECT_EQ(back.segs[i].a.x, ell.segs[i].a.x);
    EXPECT_EQ(back.segs[i].b.y, ell.segs[i].b.y);
    EXPECT_EQ(back.segs[i].horizontal, ell.segs[i].horizontal);
    EXPECT_EQ(back.segs[i].parent, ell.segs[i].parent);
  }
  ASSERT_EQ(back.sinks.size(), ell.sinks.size());

  const eco::Delta delta = eco::Delta::net_rerouted(3, ell, {1, 2});
  ByteWriter dw;
  write_delta(&dw, delta);
  ByteReader dr(dw.data());
  const eco::Delta dback = read_delta(&dr);
  ASSERT_TRUE(dr.ok() && dr.at_end());
  EXPECT_EQ(dback.kind, delta.kind);
  EXPECT_EQ(dback.net, delta.net);
  EXPECT_EQ(dback.layers, delta.layers);
  EXPECT_EQ(dback.tree.segs.size(), delta.tree.segs.size());
}

TEST(CodecTest, StateSerializationRoundTripsAndHashesStably) {
  core::Prepared a = eco::make_bench(31, 12, 40);
  core::Prepared b = eco::make_bench(31, 12, 40);
  core::CriticalSet ca = core::select_critical(*a.state, *a.rc, 0.05);
  core::CriticalSet cb;

  // Identical preparations hash identically before any transfer.
  const std::string blob = serialize_state(*a.state, ca);
  ASSERT_TRUE(restore_state(blob, b.design.get(), b.state.get(), &cb).is_ok());
  EXPECT_EQ(hash_state(*b.state, cb), hash_state(*a.state, ca));
  EXPECT_EQ(serialize_state(*b.state, cb), blob);

  // Any state difference moves the hash.
  a.state->set_layers(ca.nets.front(), a.state->layers(ca.nets.front()));
  core::CriticalSet cc = ca;
  cc.nets.pop_back();
  EXPECT_NE(hash_state(*a.state, cc), hash_state(*a.state, ca));
}

// --- journal frames ----------------------------------------------------

TEST(JournalTest, AppendScanRoundTrip) {
  TempDir dir;
  const std::string path = dir.path("j.wal");
  Journal j;
  ASSERT_TRUE(j.open(path).is_ok());
  ByteWriter g;
  g.u64(0x1122334455667788ull);
  ASSERT_TRUE(j.append(RecordType::kGenesis, 0, g.data()).is_ok());
  ASSERT_TRUE(j.append(RecordType::kDelta, 7, "payload").is_ok());
  ASSERT_TRUE(j.append(RecordType::kResolveStart, 7, "").is_ok());
  ASSERT_TRUE(j.sync().is_ok());
  j.close();

  Result<Journal::ScanResult> scan = Journal::scan(path);
  ASSERT_TRUE(scan.is_ok());
  EXPECT_FALSE(scan.value().torn_tail);
  ASSERT_EQ(scan.value().records.size(), 3u);
  EXPECT_EQ(scan.value().records[0].type, RecordType::kGenesis);
  EXPECT_EQ(scan.value().records[1].seq, 7u);
  EXPECT_EQ(scan.value().records[1].payload, "payload");
  EXPECT_EQ(scan.value().records[2].payload, "");
  EXPECT_EQ(scan.value().valid_bytes, std::filesystem::file_size(path));
}

TEST(JournalTest, MissingFileIsAnEmptyJournal) {
  TempDir dir;
  Result<Journal::ScanResult> scan = Journal::scan(dir.path("absent.wal"));
  ASSERT_TRUE(scan.is_ok());
  EXPECT_TRUE(scan.value().records.empty());
  EXPECT_FALSE(scan.value().torn_tail);
}

TEST(JournalTest, TornTailIsDetectedAndRepairTruncatesIt) {
  TempDir dir;
  const std::string path = dir.path("j.wal");
  const std::string good = encode_frame(RecordType::kDelta, 1, "alpha") +
                           encode_frame(RecordType::kDelta, 2, "beta");
  const std::string torn = encode_frame(RecordType::kDelta, 3, "gamma");
  write_file(path, good + torn.substr(0, torn.size() - 3));  // mid-crc cut

  Result<Journal::ScanResult> scan = Journal::scan(path);
  ASSERT_TRUE(scan.is_ok());
  EXPECT_TRUE(scan.value().torn_tail);
  ASSERT_EQ(scan.value().records.size(), 2u);
  EXPECT_EQ(scan.value().valid_bytes, good.size());

  ASSERT_TRUE(Journal::repair(path).is_ok());
  EXPECT_EQ(std::filesystem::file_size(path), good.size());
  ASSERT_TRUE(Journal::repair(path).is_ok());  // idempotent
  Result<Journal::ScanResult> again = Journal::scan(path);
  ASSERT_TRUE(again.is_ok());
  EXPECT_FALSE(again.value().torn_tail);
  EXPECT_EQ(again.value().records.size(), 2u);
}

TEST(JournalTest, CorruptedByteStopsTheScanAtTheBadFrame) {
  TempDir dir;
  const std::string path = dir.path("j.wal");
  std::string bytes = encode_frame(RecordType::kDelta, 1, "alpha") +
                      encode_frame(RecordType::kDelta, 2, "beta");
  bytes[bytes.size() - 6] ^= 0x40;  // flip a payload byte of frame 2
  write_file(path, bytes);

  Result<Journal::ScanResult> scan = Journal::scan(path);
  ASSERT_TRUE(scan.is_ok());
  EXPECT_TRUE(scan.value().torn_tail);
  ASSERT_EQ(scan.value().records.size(), 1u);
  EXPECT_EQ(scan.value().records[0].payload, "alpha");
}

TEST(JournalTest, AbsurdLengthFieldIsATornTailNotAnAllocation) {
  TempDir dir;
  const std::string path = dir.path("j.wal");
  std::string frame = encode_frame(RecordType::kDelta, 1, "x");
  // len field sits after magic+type+seq; patch it to ~4GiB.
  frame[16] = '\xff';
  frame[17] = '\xff';
  frame[18] = '\xff';
  frame[19] = '\x7f';
  write_file(path, frame);
  Result<Journal::ScanResult> scan = Journal::scan(path);
  ASSERT_TRUE(scan.is_ok());
  EXPECT_TRUE(scan.value().torn_tail);
  EXPECT_TRUE(scan.value().records.empty());
}

TEST(JournalTest, ArmedAppendFaultTearsTheTailExactlyOnce) {
  TempDir dir;
  const std::string path = dir.path("j.wal");
  Journal j;
  ASSERT_TRUE(j.open(path).is_ok());
  ASSERT_TRUE(j.append(RecordType::kDelta, 1, "keep").is_ok());

  FaultInjector::instance().arm(fault_sites::kServeJournalAppend, 0);
  EXPECT_FALSE(j.append(RecordType::kDelta, 2, "torn-by-fault").is_ok());
  FaultInjector::instance().reset();
  j.close();

  // The fault wrote a deliberate half-frame: scan sees one record + tear.
  Result<Journal::ScanResult> scan = Journal::scan(path);
  ASSERT_TRUE(scan.is_ok());
  EXPECT_TRUE(scan.value().torn_tail);
  ASSERT_EQ(scan.value().records.size(), 1u);
  EXPECT_EQ(scan.value().records[0].payload, "keep");
}

TEST(JournalTest, ArmedFsyncFaultFailsWithoutKillingTheFile) {
  TempDir dir;
  Journal j;
  ASSERT_TRUE(j.open(dir.path("j.wal")).is_ok());
  ASSERT_TRUE(j.append(RecordType::kDelta, 1, "a").is_ok());
  FaultInjector::instance().arm(fault_sites::kServeJournalFsync, 0);
  EXPECT_FALSE(j.sync().is_ok());
  FaultInjector::instance().reset();
  EXPECT_TRUE(j.sync().is_ok());
}

// --- checkpoints -------------------------------------------------------

Checkpoint sample_checkpoint() {
  Checkpoint c;
  c.seq = 41;
  c.record_count = 17;
  c.base_hash = 0xaaaabbbbccccddddull;
  c.state_hash = 0x1111222233334444ull;
  c.state_blob = std::string("\x00\x01\x02state-bytes\xff", 14);
  return c;
}

TEST(CheckpointTest, WriteLoadRoundTripIsExact) {
  TempDir dir;
  const std::string path = dir.path("c.ckpt");
  const Checkpoint c = sample_checkpoint();
  ASSERT_TRUE(write_checkpoint(path, c).is_ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));  // rename happened

  Result<Checkpoint> back = load_checkpoint(path);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().seq, c.seq);
  EXPECT_EQ(back.value().record_count, c.record_count);
  EXPECT_EQ(back.value().base_hash, c.base_hash);
  EXPECT_EQ(back.value().state_hash, c.state_hash);
  EXPECT_EQ(back.value().state_blob, c.state_blob);
}

TEST(CheckpointTest, CorruptOrTruncatedFilesAreRejected) {
  TempDir dir;
  const std::string path = dir.path("c.ckpt");
  ASSERT_TRUE(write_checkpoint(path, sample_checkpoint()).is_ok());

  std::string bytes = read_file(path);
  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x01;
  write_file(path, flipped);
  EXPECT_FALSE(load_checkpoint(path).is_ok());

  write_file(path, bytes.substr(0, bytes.size() / 2));
  EXPECT_FALSE(load_checkpoint(path).is_ok());

  EXPECT_FALSE(load_checkpoint(dir.path("absent.ckpt")).is_ok());
}

TEST(CheckpointTest, ArmedWriteFaultSkipsTheWriteAndKeepsThePredecessor) {
  TempDir dir;
  const std::string path = dir.path("c.ckpt");
  ASSERT_TRUE(write_checkpoint(path, sample_checkpoint()).is_ok());

  Checkpoint newer = sample_checkpoint();
  newer.seq = 99;
  FaultInjector::instance().arm(fault_sites::kServeCheckpointWrite, 0);
  EXPECT_FALSE(write_checkpoint(path, newer).is_ok());
  FaultInjector::instance().reset();

  Result<Checkpoint> back = load_checkpoint(path);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().seq, 41u);  // previous checkpoint intact
}

}  // namespace
}  // namespace cpla::serve
