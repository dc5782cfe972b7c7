// Seeded mutation fuzz over the three text input surfaces — the ISPD'08
// reader, the RC corner table and the ECO service's request line — and the
// two binary recovery inputs, checkpoints and the delta journal. Valid seed
// inputs are mutated deterministically (byte edits, line edits and
// boundary-value token swaps; for checkpoints and journal records, byte and
// 32-bit field edits with the CRC re-sealed so every mutant reaches the
// decoders) and every mutant must
//
//   * not crash, throw or trip a sanitizer;
//   * if rejected, come back as kBadInput — carrying its 1-based input line
//     for the two line grammars (ISPD'08, corners) and leaving the restored
//     triple untouched for checkpoints;
//   * if an ISPD'08 mutant is accepted, survive write_ispd08 -> re-parse
//     unchanged: same grid, layer directions, edge capacities, via-model
//     geometry and pins, and the rewritten text is a fixpoint;
//   * if a checkpoint mutant is accepted, leave a state the timer can walk
//     and whose own checkpoint restores to the same bytes;
//   * if a journal mutant is accepted, replay to the same state hash every
//     time, through replay_journal and through service recovery alike.
//
// Iteration counts keep the run at a few seconds under ASan+UBSan.
// Crashing inputs found here go into tests/parser/data/ as regression
// cases (see tests/parser/ispd08_test.cpp and the checkpoint and journal
// corpus tests below).

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/critical.hpp"
#include "src/core/pipeline.hpp"
#include "src/eco/delta.hpp"
#include "src/gen/synth.hpp"
#include "src/parser/ispd08.hpp"
#include "src/serve/checkpoint.hpp"
#include "src/serve/codec.hpp"
#include "src/serve/journal.hpp"
#include "src/serve/protocol.hpp"
#include "src/serve/service.hpp"
#include "src/eco/edit_script.hpp"
#include "src/sta/corner.hpp"
#include "src/timing/elmore.hpp"
#include "src/util/rng.hpp"

namespace cpla {
namespace {

// Mutants declaring more cells than this are valid inputs that only cost
// memory (the reader accepts grids up to 1e8 cells); they are skipped to
// keep the fuzz small, and counted so the skip stays visible.
constexpr long long kMaxFuzzCells = 1 << 16;

const char* const kInteresting[] = {
    "0",   "-1",   "1",    "2",    "7",    "2147483647", "2147483648", "-2147483649",
    "1e308", "1e999", "-1e308", "1e-320", "nan", "inf",  "-0",         "0.5",
    "x",   "#",    "",     "99999", "corner", "grid",     "num",        "net",
};
constexpr char kAlphabet[] = " \n\t0123456789-+.eE#xabgridnumetco";

/// Uniform index into a container of `size` (> 0) elements.
std::size_t pick(Rng* rng, std::size_t size) {
  return static_cast<std::size_t>(rng->uniform_int(0, static_cast<std::int64_t>(size) - 1));
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

char random_char(Rng* rng) { return kAlphabet[pick(rng, sizeof(kAlphabet) - 1)]; }

/// Replaces one whitespace-delimited token with a boundary value.
void swap_token(std::string* text, Rng* rng) {
  std::vector<std::pair<std::size_t, std::size_t>> tokens;  // (begin, length)
  for (std::size_t i = 0; i < text->size();) {
    if (std::isspace(static_cast<unsigned char>((*text)[i]))) {
      ++i;
      continue;
    }
    const std::size_t begin = i;
    while (i < text->size() && !std::isspace(static_cast<unsigned char>((*text)[i]))) ++i;
    tokens.push_back({begin, i - begin});
  }
  if (tokens.empty()) return;
  const auto [begin, length] = tokens[pick(rng, tokens.size())];
  text->replace(begin, length, kInteresting[pick(rng, std::size(kInteresting))]);
}

/// One random edit: byte flip/insert/erase, truncation, a boundary-value
/// token swap, or a line duplicate/delete/swap.
void mutate_once(std::string* text, Rng* rng) {
  const std::size_t at = pick(rng, text->size() + 1);
  const std::int64_t op = rng->uniform_int(0, 7);
  if (op == 0 && !text->empty()) {
    (*text)[std::min(at, text->size() - 1)] = random_char(rng);
  } else if (op == 1) {
    text->insert(at, 1, random_char(rng));
  } else if (op == 2) {
    text->erase(at, static_cast<std::size_t>(rng->uniform_int(1, 8)));
  } else if (op == 3) {
    text->resize(at);
  } else if (op == 4) {
    swap_token(text, rng);
  } else if (op >= 5) {
    std::vector<std::string> lines = split_lines(*text);
    if (lines.empty()) return;
    const std::size_t a = pick(rng, lines.size());
    const std::size_t b = pick(rng, lines.size());
    if (op == 5) {
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(a), lines[a]);
    } else if (op == 6) {
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(a));
    } else {
      std::swap(lines[a], lines[b]);
    }
    *text = join_lines(lines);
  }
}

std::string mutate(const std::string& seed, Rng* rng) {
  std::string text = seed;
  const int edits = static_cast<int>(rng->uniform_int(1, 4));
  for (int i = 0; i < edits; ++i) mutate_once(&text, rng);
  return text;
}

// --- ISPD'08 ------------------------------------------------------------

const char* kSample = R"(grid 10 8 4
vertical capacity 0 12 0 12
horizontal capacity 12 0 12 0
minimum width 1 1 1 1
minimum spacing 1 1 1 1
via spacing 1 1 1 1
0 0 10 10

num net 2
netA 0 2 1
15 15 1
85 25 1
netB 1 3 1
5 5 1
5 75 1
95 75 2

2
1 2 1   2 2 1   4
3 3 2   3 4 2   0
)";

std::string read_corpus(const char* name) {
  std::ifstream in(std::string(CPLA_TEST_DATA_DIR) + "/" + name);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<std::string> ispd_seeds() {
  gen::SynthSpec spec;
  spec.xsize = spec.ysize = 6;
  spec.num_nets = 6;
  spec.num_layers = 4;
  spec.seed = 11;
  std::stringstream synth;
  parser::write_ispd08(gen::generate(spec), synth);
  return {kSample, synth.str(), read_corpus("truncated_net.gr"),
          read_corpus("negative_capacity.gr"), read_corpus("pin_out_of_bounds.gr")};
}

/// Cells declared by a "grid X Y L" first line; 0 when it does not parse.
long long declared_cells(const std::string& text) {
  std::istringstream in(text);
  std::string word;
  long long x = 0, y = 0;
  for (std::string line; std::getline(in, line);) {
    std::istringstream fields(line);
    if (!(fields >> word)) continue;
    if (word != "grid" || !(fields >> x >> y) || x <= 0 || y <= 0) return 0;
    return x > kMaxFuzzCells || y > kMaxFuzzCells ? kMaxFuzzCells + 1 : x * y;
  }
  return 0;
}

/// Describes the first difference between two designs, or "" if none.
std::string design_diff(const grid::Design& a, const grid::Design& b) {
  const grid::GridGraph& ga = a.grid;
  const grid::GridGraph& gb = b.grid;
  if (ga.xsize() != gb.xsize() || ga.ysize() != gb.ysize() ||
      ga.num_layers() != gb.num_layers()) {
    return "grid shape";
  }
  const grid::GeomParams& pa = ga.geom();
  const grid::GeomParams& pb = gb.geom();
  if (pa.wire_width != pb.wire_width || pa.wire_spacing != pb.wire_spacing ||
      pa.via_width != pb.via_width || pa.via_spacing != pb.via_spacing ||
      pa.tile_width != pb.tile_width) {
    return "via-model geometry";
  }
  for (int l = 0; l < ga.num_layers(); ++l) {
    if (ga.is_horizontal(l) != gb.is_horizontal(l)) {
      return "direction of layer " + std::to_string(l);
    }
    for (int e = 0; e < ga.num_edges_on_layer(l); ++e) {
      if (ga.edge_capacity(l, e) != gb.edge_capacity(l, e)) {
        return "capacity of layer " + std::to_string(l) + " edge " + std::to_string(e);
      }
    }
  }
  if (a.nets.size() != b.nets.size()) return "net count";
  for (std::size_t n = 0; n < a.nets.size(); ++n) {
    if (a.nets[n].name != b.nets[n].name || a.nets[n].pins != b.nets[n].pins) {
      return "net " + a.nets[n].name;
    }
  }
  return "";
}

TEST(InputFuzz, Ispd08ReaderRejectsCleanlyAndRoundTripsWhatItAccepts) {
  const std::vector<std::string> seeds = ispd_seeds();
  Rng rng(20081);
  int accepted = 0, rejected = 0, skipped = 0;
  for (int iter = 0; iter < 12000; ++iter) {
    const std::string input = mutate(seeds[static_cast<std::size_t>(iter) % seeds.size()], &rng);
    if (declared_cells(input) > kMaxFuzzCells) {
      ++skipped;
      continue;
    }
    std::istringstream in(input);
    Result<grid::Design> parsed = parser::parse_ispd08(in, "fuzz");
    if (!parsed.is_ok()) {
      ++rejected;
      ASSERT_EQ(parsed.status().code(), StatusCode::kBadInput) << input;
      ASSERT_GE(parsed.status().line(), 1) << parsed.status().to_string() << "\n" << input;
      continue;
    }
    ++accepted;
    std::stringstream written;
    parser::write_ispd08(parsed.value(), written);
    const std::string text = written.str();
    std::istringstream again(text);
    Result<grid::Design> reparsed = parser::parse_ispd08(again, "fuzz");
    ASSERT_TRUE(reparsed.is_ok()) << reparsed.status().to_string() << "\ninput:\n"
                                  << input << "\nwritten:\n" << text;
    const std::string diff = design_diff(parsed.value(), reparsed.value());
    ASSERT_EQ(diff, "") << "input:\n" << input << "\nwritten:\n" << text;
    std::stringstream rewritten;
    parser::write_ispd08(reparsed.value(), rewritten);
    ASSERT_EQ(rewritten.str(), text) << "input:\n" << input;
  }
  // The mutation mix must exercise both outcomes, or the test shows nothing.
  RecordProperty("accepted", accepted);
  RecordProperty("rejected", rejected);
  RecordProperty("skipped", skipped);
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
  EXPECT_LT(skipped, 1200);
}

// --- RC corner table ------------------------------------------------------

TEST(InputFuzz, CornerTableRejectsCleanly) {
  const std::vector<std::string> seeds = {
      "corner typ 1 1\n",
      "# name res cap driver required\n"
      "corner slow 1.2 1.1 1.05\n"
      "corner fast 0.8 0.9 0.95 5000\n"
      "\n"
      "corner typ 1 1 1 -1  # derived budget\n",
  };
  Rng rng(20082);
  int accepted = 0, rejected = 0;
  for (int iter = 0; iter < 12000; ++iter) {
    const std::string input = mutate(seeds[static_cast<std::size_t>(iter) % seeds.size()], &rng);
    std::istringstream in(input);
    const Result<std::vector<sta::RcCorner>> parsed = sta::parse_corners(in);
    if (!parsed.is_ok()) {
      ++rejected;
      ASSERT_EQ(parsed.status().code(), StatusCode::kBadInput) << input;
      ASSERT_GE(parsed.status().line(), 1) << parsed.status().to_string() << "\n" << input;
      continue;
    }
    ++accepted;
    for (const sta::RcCorner& c : parsed.value()) {
      EXPECT_TRUE(std::isfinite(c.res_scale) && c.res_scale > 0.0) << input;
      EXPECT_TRUE(std::isfinite(c.cap_scale) && c.cap_scale > 0.0) << input;
      EXPECT_TRUE(std::isfinite(c.driver_scale) && c.driver_scale > 0.0) << input;
      EXPECT_TRUE(std::isfinite(c.required_time)) << input;
    }
  }
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

// --- ECO service request line --------------------------------------------

TEST(InputFuzz, RequestLineRejectsCleanly) {
  const std::vector<std::string> seeds = {
      "capacity 2 3 4 5", "release 7",  "demote 7",      "reroute 3",
      "add 1 2 3 4",      "remove 12",  "resolve",       "resolve 250",
      "sync",             "query hash", "query net 5",   "query metrics",
      "quit",             "# comment",  "",
  };
  Rng rng(20083);
  int accepted = 0, rejected = 0;
  for (int iter = 0; iter < 12000; ++iter) {
    std::string input = mutate(seeds[static_cast<std::size_t>(iter) % seeds.size()], &rng);
    const Result<serve::Request> parsed = serve::parse_request(input);
    if (!parsed.is_ok()) {
      ++rejected;
      ASSERT_EQ(parsed.status().code(), StatusCode::kBadInput) << input;
      continue;
    }
    ++accepted;
  }
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

// --- Checkpoint state codec -----------------------------------------------

/// The base design every checkpoint below restores into.
core::Prepared checkpoint_base() {
  gen::SynthSpec spec;
  spec.xsize = spec.ysize = 10;
  spec.num_nets = 24;
  spec.num_layers = 4;
  spec.seed = 41;
  return core::prepare(gen::generate(spec));
}

/// Two valid state blobs: the routed base, and the base after ECO edits
/// (an added net, a removed net, a capacity change, a promotion).
std::vector<std::string> checkpoint_seeds() {
  core::Prepared base = checkpoint_base();
  core::CriticalSet critical = core::select_critical(*base.state, *base.rc, 0.2);
  std::vector<std::string> seeds = {serve::serialize_state(*base.state, critical)};
  const route::SegTree& donor = base.state->tree(critical.nets.front());
  const eco::Delta edits[] = {
      eco::Delta::net_added(donor),
      eco::Delta::net_removed(critical.nets.back()),
      eco::Delta::capacity_adjusted(0, 2, 3, 0),
      eco::Delta::criticality_changed(base.state->num_nets(), true),
  };
  for (const eco::Delta& edit : edits) {
    const Result<int> applied =
        eco::apply_delta(edit, base.design.get(), base.state.get(), &critical);
    EXPECT_TRUE(applied.is_ok()) << applied.status().to_string();
  }
  seeds.push_back(serve::serialize_state(*base.state, critical));
  return seeds;
}

const std::uint32_t kInterestingWords[] = {
    0u, 1u, 2u, 3u, 0x7fffffffu, 0x80000000u, 0xffffffffu, 0xfffffffeu, 0x10000u, 1000000u,
};

/// One binary edit: a byte set, an aligned 32-bit field set to a boundary
/// value, an insert or erase of 1-8 bytes, a truncation, or a duplicated
/// span.
void mutate_blob(std::string* blob, Rng* rng) {
  const std::size_t at = pick(rng, blob->size() + 1);
  const std::int64_t op = rng->uniform_int(0, 5);
  if (op == 0 && !blob->empty()) {
    (*blob)[std::min(at, blob->size() - 1)] = static_cast<char>(rng->uniform_int(0, 255));
  } else if (op == 1 && blob->size() >= 4) {
    const std::size_t field = pick(rng, blob->size() / 4) * 4;
    const std::uint32_t word = kInterestingWords[pick(rng, std::size(kInterestingWords))];
    for (int b = 0; b < 4; ++b) (*blob)[field + b] = static_cast<char>((word >> (8 * b)) & 0xffu);
  } else if (op == 2) {
    for (std::int64_t n = rng->uniform_int(1, 8); n > 0; --n) {
      blob->insert(at, 1, static_cast<char>(rng->uniform_int(0, 255)));
    }
  } else if (op == 3) {
    blob->erase(at, static_cast<std::size_t>(rng->uniform_int(1, 8)));
  } else if (op == 4) {
    blob->resize(at);
  } else {
    const std::size_t length = static_cast<std::size_t>(rng->uniform_int(1, 32));
    blob->insert(at, blob->substr(at, length));
  }
}

/// Loads the checkpoint at `path` and restores it into a fresh base triple;
/// returns the restore status (or the load status when the frame is bad).
Status restore_checkpoint_file(const std::string& path) {
  const Result<serve::Checkpoint> loaded = serve::load_checkpoint(path);
  if (!loaded.is_ok()) return loaded.status();
  core::Prepared base = checkpoint_base();
  core::CriticalSet critical;
  return serve::restore_state(loaded.value().state_blob, base.design.get(), base.state.get(),
                              &critical);
}

TEST(InputFuzz, CheckpointRestoreRejectsCleanlyAndLeavesTheStateAlone) {
  const std::vector<std::string> seeds = checkpoint_seeds();
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "cpla_fuzz_checkpoint.ckpt").string();
  Rng rng(20084);
  core::Prepared live = checkpoint_base();
  const core::CriticalSet live_critical;
  const std::uint64_t live_hash = serve::hash_state(*live.state, live_critical);
  int accepted = 0, rejected = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    std::string blob = seeds[static_cast<std::size_t>(iter) % seeds.size()];
    const int edits = static_cast<int>(rng.uniform_int(1, 3));
    for (int i = 0; i < edits; ++i) mutate_blob(&blob, &rng);
    // write_checkpoint seals the frame's CRC over the mutant, so the load
    // accepts it and the state parser sees every mutant.
    serve::Checkpoint ckpt;
    ckpt.state_blob = blob;
    ASSERT_TRUE(serve::write_checkpoint(path, ckpt).is_ok());
    const Result<serve::Checkpoint> loaded = serve::load_checkpoint(path);
    ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
    ASSERT_EQ(loaded.value().state_blob, blob);

    core::CriticalSet critical = live_critical;
    const Status st = serve::restore_state(loaded.value().state_blob, live.design.get(),
                                           live.state.get(), &critical);
    if (!st.is_ok()) {
      ++rejected;
      ASSERT_EQ(st.code(), StatusCode::kBadInput) << st.to_string();
      ASSERT_EQ(serve::hash_state(*live.state, critical), live_hash)
          << "a rejected restore changed the state: " << st.to_string();
      continue;
    }
    ++accepted;
    // The accepted state must time cleanly, and its own checkpoint must
    // restore into a fresh base to the same bytes.
    for (int n = 0; n < live.state->num_nets(); ++n) {
      if (live.state->tree(n).segs.empty()) continue;
      const double tcp =
          timing::critical_delay(live.state->tree(n), live.state->layers(n), *live.rc);
      ASSERT_TRUE(std::isfinite(tcp)) << "net " << n;
    }
    const std::string again = serve::serialize_state(*live.state, critical);
    core::Prepared copy = checkpoint_base();
    core::CriticalSet copy_critical;
    ASSERT_TRUE(
        serve::restore_state(again, copy.design.get(), copy.state.get(), &copy_critical).is_ok());
    ASSERT_EQ(serve::serialize_state(*copy.state, copy_critical), again);
    live = checkpoint_base();  // the next mutant restores into a pristine base
  }
  std::filesystem::remove(path);
  RecordProperty("accepted", accepted);
  RecordProperty("rejected", rejected);
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 1000);
}

// Every checkpoint that crashed restore_state before it checked its input:
// tests/parser/data/checkpoint_*.ckpt, each a whole checkpoint file with a
// valid CRC over a malformed state blob for checkpoint_base().
TEST(InputFuzz, CheckpointCorpusIsRejected) {
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(CPLA_TEST_DATA_DIR)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("checkpoint_", 0) != 0 || entry.path().extension() != ".ckpt") continue;
    ++files;
    const Status st = restore_checkpoint_file(entry.path().string());
    EXPECT_EQ(st.code(), StatusCode::kBadInput) << name << ": " << st.to_string();
  }
  EXPECT_EQ(files, 8);
}

// --- Delta journal replay ----------------------------------------------

constexpr double kJournalRatio = 0.2;

serve::ServeOptions journal_options(const std::string& path) {
  serve::ServeOptions opt;
  opt.eco.critical_ratio = kJournalRatio;
  // Cheap serial resolves: replay is the subject, not the engine.
  opt.eco.flow.engine = core::Engine::kLagr;
  opt.eco.flow.parallel = false;
  opt.journal_path = path;
  return opt;
}

/// The records of a valid journal over checkpoint_base(): a short service
/// run (genesis, a delta of every kind, a resolve's start and done records,
/// a tail delta) followed by the trailing start record a crash mid-resolve
/// leaves behind.
std::vector<serve::Record> journal_seed(const std::string& path) {
  std::filesystem::remove(path);
  core::Prepared script_base = checkpoint_base();
  const std::vector<eco::Delta> script = eco::make_edit_script(
      *script_base.state, core::select_critical(*script_base.state, *script_base.rc, kJournalRatio),
      {.count = 8, .seed = 5});
  {
    core::Prepared base = checkpoint_base();
    serve::EcoService service(base.design.get(), base.state.get(), base.rc.get(),
                              journal_options(path));
    EXPECT_TRUE(service.start().is_ok());
    const int session = service.open_session().value();
    for (std::size_t i = 0; i < script.size(); ++i) {
      EXPECT_TRUE(service.submit(session, script[i]).is_ok());
      if (i + 2 == script.size()) {
        EXPECT_TRUE(service.resolve(session).status.is_ok());
      }
    }
    EXPECT_TRUE(service.sync(session).is_ok());
    service.stop();
  }
  const Result<serve::Journal::ScanResult> scanned = serve::Journal::scan(path);
  EXPECT_TRUE(scanned.is_ok() && !scanned.value().torn_tail);
  std::vector<serve::Record> records = scanned.value().records;
  serve::ByteWriter deadline;
  deadline.f64(0.0);
  const std::uint64_t seq = records.back().seq;
  records.push_back({serve::RecordType::kResolveStart, seq, deadline.take()});
  return records;
}

/// Writes `records` to `path` through Journal::append, so every frame
/// carries a valid CRC and recovery decodes every mutant.
void write_journal(const std::string& path, const std::vector<serve::Record>& records) {
  std::filesystem::remove(path);
  serve::Journal journal;
  ASSERT_TRUE(journal.open(path).is_ok());
  for (const serve::Record& rec : records) {
    ASSERT_TRUE(journal.append(rec.type, rec.seq, rec.payload).is_ok());
  }
}

/// One record-level edit: a record's type set to a boundary value (valid or
/// not), its payload edited with mutate_blob or swapped for another
/// record's, its sequence number set to a boundary value, or a whole record
/// duplicated, deleted or moved.
void mutate_records(std::vector<serve::Record>* records, Rng* rng) {
  static const std::uint32_t kTypes[] = {0u, 1u, 2u, 3u, 4u, 5u, 6u, 0xffffffffu};
  static const std::uint64_t kSeqs[] = {0u, 1u, 2u, 7u, 0x7fffffffffffffffu, ~0ull};
  serve::Record& rec = (*records)[pick(rng, records->size())];
  const std::int64_t op = rng->uniform_int(0, 6);
  if (op == 0) {
    rec.type = static_cast<serve::RecordType>(kTypes[pick(rng, std::size(kTypes))]);
  } else if (op <= 2) {
    mutate_blob(&rec.payload, rng);
  } else if (op == 3) {
    rec.payload = (*records)[pick(rng, records->size())].payload;
  } else if (op == 4) {
    rec.seq = kSeqs[pick(rng, std::size(kSeqs))];
  } else {
    const std::size_t a = pick(rng, records->size());
    const std::size_t b = pick(rng, records->size());
    const serve::Record moved = (*records)[a];
    if (op == 5 || records->size() == 1) {
      records->insert(records->begin() + static_cast<std::ptrdiff_t>(b), moved);
    } else {
      records->erase(records->begin() + static_cast<std::ptrdiff_t>(a));
    }
  }
}

/// replay_journal of `path` onto a fresh base.
Result<std::uint64_t> replay_fresh(const std::string& path) {
  core::Prepared base = checkpoint_base();
  return serve::replay_journal(path, base.design.get(), base.state.get(), base.rc.get(),
                               journal_options(path).eco);
}

/// EcoService::start() recovery of `path` onto a fresh base: the recovered
/// state hash, or the status start() refused with.
Result<std::uint64_t> recover_fresh(const std::string& path) {
  core::Prepared base = checkpoint_base();
  serve::EcoService service(base.design.get(), base.state.get(), base.rc.get(),
                            journal_options(path));
  const Status st = service.start();
  if (!st.is_ok()) return st;
  const std::uint64_t hash = service.snapshot()->hash;
  service.stop();
  return hash;
}

TEST(InputFuzz, JournalReplayRejectsCleanly) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "cpla_fuzz_journal.wal").string();
  const std::vector<serve::Record> seed = journal_seed(path);
  ASSERT_GE(seed.size(), 6u);
  Rng rng(20085);
  int accepted = 0, rejected = 0;
  for (int iter = 0; iter < 600; ++iter) {
    std::vector<serve::Record> records = seed;
    const int edits = static_cast<int>(rng.uniform_int(1, 3));
    for (int i = 0; i < edits; ++i) mutate_records(&records, &rng);
    write_journal(path, records);
    // Every frame was appended whole, so none may read as a torn tail.
    const Result<serve::Journal::ScanResult> scanned = serve::Journal::scan(path);
    ASSERT_TRUE(!scanned.is_ok() || !scanned.value().torn_tail) << "iteration " << iter;
    const Result<std::uint64_t> first = replay_fresh(path);
    const Result<std::uint64_t> second = replay_fresh(path);
    const Result<std::uint64_t> recovered = recover_fresh(path);
    if (!first.is_ok()) {
      ++rejected;
      ASSERT_EQ(first.status().code(), StatusCode::kBadInput) << first.status().to_string();
      ASSERT_EQ(second.status().code(), StatusCode::kBadInput);
      ASSERT_FALSE(recovered.is_ok()) << "recovery accepted what replay rejected";
      ASSERT_EQ(recovered.status().code(), StatusCode::kBadInput)
          << recovered.status().to_string();
      continue;
    }
    ++accepted;
    ASSERT_TRUE(second.is_ok());
    ASSERT_EQ(first.value(), second.value()) << "iteration " << iter;
    ASSERT_TRUE(recovered.is_ok()) << recovered.status().to_string();
    ASSERT_EQ(recovered.value(), first.value()) << "iteration " << iter;
  }
  std::filesystem::remove(path);
  RecordProperty("accepted", accepted);
  RecordProperty("rejected", rejected);
  EXPECT_GT(accepted, 20);
  EXPECT_GT(rejected, 20);
}

// Every journal recovery must refuse for its record type:
// tests/parser/data/journal_*.wal, each CRC-valid over checkpoint_base()
// and each one replay and recovery must refuse without touching the file.
//   journal_unknown_record_type.wal: a frame of unknown type 6 between
//   deltas read as a torn tail, and recovery truncated the deltas behind it.
//   journal_resolve_aborted.wal: a resolve start followed by the retired
//   type-5 frame (an aborted resolve), as older services wrote them.
TEST(InputFuzz, JournalCorpusIsRejected) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "cpla_fuzz_journal_corpus.wal").string();
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(CPLA_TEST_DATA_DIR)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("journal_", 0) != 0 || entry.path().extension() != ".wal") continue;
    ++files;
    std::filesystem::copy_file(entry.path(), path,
                               std::filesystem::copy_options::overwrite_existing);
    // Refused for the frame's type, not for anything before it.
    const std::string why = name == "journal_resolve_aborted.wal" ? "unknown type 5"
                                                                  : "unknown type 6";
    const Result<std::uint64_t> replayed = replay_fresh(path);
    EXPECT_EQ(replayed.status().code(), StatusCode::kBadInput) << name;
    EXPECT_NE(replayed.status().message().find(why), std::string::npos)
        << name << ": " << replayed.status().message();
    const Result<std::uint64_t> recovered = recover_fresh(path);
    EXPECT_EQ(recovered.status().code(), StatusCode::kBadInput) << name;
    EXPECT_NE(recovered.status().message().find(why), std::string::npos)
        << name << ": " << recovered.status().message();
    EXPECT_EQ(std::filesystem::file_size(path), std::filesystem::file_size(entry.path()))
        << "recovery rewrote " << name;
  }
  std::filesystem::remove(path);
  EXPECT_EQ(files, 2);
}

}  // namespace
}  // namespace cpla
