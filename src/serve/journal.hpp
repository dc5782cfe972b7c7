#pragma once

// Write-ahead delta journal for the ECO service. One append-only file of
// CRC-framed records:
//
//   [magic u32][type u32][seq u64][len u32][payload len bytes][crc u32]
//
// The CRC covers type..payload. scan() walks frames until the first one
// that fails framing or CRC and reports the byte offset where the valid
// prefix ends — a torn trailing write (power cut, injected fault, SIGKILL
// mid-append) truncates-and-recovers instead of aborting, and repair()
// makes the truncation physical so the file can be appended to again.
//
// Record semantics (see DESIGN.md, "ECO service, journaling, and crash
// recovery"): the journal is written *before* the in-memory apply, which
// is safe because delta application is a deterministic function of
// (state, delta) — a delta the live engine rejected is rejected
// identically on replay, so journal and state can never diverge.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/status.hpp"

namespace cpla::serve {

enum class RecordType : std::uint32_t {
  kGenesis = 1,       // payload: u64 hash_state() at journal birth
  kDelta = 2,         // payload: one write_delta() blob; seq = delta seq
  kResolveStart = 3,  // payload: empty (replay ignores it); covers deltas <= seq
  kResolveDone = 4,   // payload: u64 post-resolve hash_state()
};

const char* to_string(RecordType type);

struct Record {
  RecordType type = RecordType::kDelta;
  std::uint64_t seq = 0;
  std::string payload;
};

/// Builds the on-disk frame for one record (exposed so tests can craft
/// torn and corrupted tails byte-exactly).
std::string encode_frame(RecordType type, std::uint64_t seq, std::string_view payload);

/// Append-side file handle. All reading goes through the static scan().
class Journal {
 public:
  Journal() = default;
  ~Journal() { close(); }
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Opens `path` for appending, creating it when absent.
  Status open(const std::string& path);
  void close();
  bool is_open() const { return fd_ >= 0; }

  /// Appends one CRC-framed record. A fired `serve.journal.append` fault
  /// writes a deliberately torn half-frame and reports kUnavailable — the
  /// service degrades to read-only and the next recovery truncates the
  /// torn tail.
  Status append(RecordType type, std::uint64_t seq, std::string_view payload);

  /// Durability barrier (fsync). A fired `serve.journal.fsync` fault
  /// reports kUnavailable without syncing.
  Status sync();

  struct ScanResult {
    std::vector<Record> records;    // every frame of the valid prefix
    std::uint64_t valid_bytes = 0;  // where that prefix ends
    bool torn_tail = false;         // trailing bytes failed framing or CRC
  };

  /// Reads every valid record of `path`. A missing file is an empty
  /// journal (ok, zero records). A CRC-valid frame of unknown type fails
  /// with kBadInput rather than reading as a torn tail.
  static Result<ScanResult> scan(const std::string& path);

  /// Truncates a torn tail off `path` so the file is appendable again.
  /// Idempotent; a no-op on a clean journal.
  static Status repair(const std::string& path);

 private:
  int fd_ = -1;
};

}  // namespace cpla::serve
