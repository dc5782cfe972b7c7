#include "src/serve/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/serve/codec.hpp"
#include "src/util/fault_inject.hpp"
#include "src/util/str.hpp"
#include "src/util/logging.hpp"

namespace cpla::serve {

namespace {

constexpr std::uint32_t kFrameMagic = 0x414c5043u;  // "CPLA", little-endian
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 4;  // magic, type, seq, len
constexpr std::uint32_t kMaxPayload = 1u << 28;      // corrupt-length guard

Status write_all(int fd, const char* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::write(fd, data + off, size - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status(StatusCode::kInternal,
                    std::string("serve: journal write failed: ") + errno_str(errno));
    }
    off += static_cast<std::size_t>(n);
  }
  return Status::ok();
}

bool valid_type(std::uint32_t t) {
  return t >= static_cast<std::uint32_t>(RecordType::kGenesis) &&
         t <= static_cast<std::uint32_t>(RecordType::kResolveDone);
}

}  // namespace

const char* to_string(RecordType type) {
  switch (type) {
    case RecordType::kGenesis: return "genesis";
    case RecordType::kDelta: return "delta";
    case RecordType::kResolveStart: return "resolve-start";
    case RecordType::kResolveDone: return "resolve-done";
  }
  return "unknown";
}

std::string encode_frame(RecordType type, std::uint64_t seq, std::string_view payload) {
  ByteWriter body;  // the CRC-covered span: type, seq, len, payload
  body.u32(static_cast<std::uint32_t>(type));
  body.u64(seq);
  body.u32(static_cast<std::uint32_t>(payload.size()));
  body.bytes(payload);

  ByteWriter frame;
  frame.u32(kFrameMagic);
  frame.bytes(body.data());
  frame.u32(crc32(body.data().data(), body.data().size()));
  return frame.take();
}

Status Journal::open(const std::string& path) {
  close();
  fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    return Status(StatusCode::kInternal,
                  "serve: cannot open journal " + path + ": " + errno_str(errno));
  }
  return Status::ok();
}

void Journal::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Journal::append(RecordType type, std::uint64_t seq, std::string_view payload) {
  CPLA_CHECK(is_open(), Status(StatusCode::kInternal, "serve: append on a closed journal"));
  const std::string frame = encode_frame(type, seq, payload);
  if (CPLA_FAULT_POINT("serve.journal.append")) {
    // Simulate a torn write: half the frame reaches the disk, then the
    // "device" fails. The half-frame is real — recovery must truncate it.
    (void)write_all(fd_, frame.data(), frame.size() / 2);
    return Status(StatusCode::kInternal, "serve: injected torn journal append");
  }
  return write_all(fd_, frame.data(), frame.size());
}

Status Journal::sync() {
  CPLA_CHECK(is_open(), Status(StatusCode::kInternal, "serve: sync on a closed journal"));
  if (CPLA_FAULT_POINT("serve.journal.fsync")) {
    return Status(StatusCode::kInternal, "serve: injected journal fsync failure");
  }
  if (::fsync(fd_) != 0) {
    return Status(StatusCode::kInternal,
                  std::string("serve: journal fsync failed: ") + errno_str(errno));
  }
  return Status::ok();
}

Result<Journal::ScanResult> Journal::scan(const std::string& path) {
  ScanResult out;
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return out;  // missing file = empty journal
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string data = buf.str();

  std::size_t pos = 0;
  while (pos < data.size()) {
    if (pos + kHeaderBytes + 4 > data.size()) break;  // can't even hold a frame
    ByteReader r(std::string_view(data).substr(pos));
    if (r.u32() != kFrameMagic) break;
    const std::uint32_t type = r.u32();
    const std::uint64_t seq = r.u64();
    const std::uint32_t len = r.u32();
    if (len > kMaxPayload) break;
    const std::size_t frame_size = kHeaderBytes + len + 4;
    if (pos + frame_size > data.size()) break;  // torn mid-payload

    const std::string_view body(data.data() + pos + 4, kHeaderBytes - 4 + len);
    const std::uint32_t stored_crc =
        ByteReader(std::string_view(data.data() + pos + kHeaderBytes + len, 4)).u32();
    if (crc32(body.data(), body.size()) != stored_crc) break;
    // A frame whose CRC checks was written whole: an unknown type is not a
    // torn write, and truncating it would drop every record behind it.
    CPLA_CHECK(valid_type(type),
               Status(StatusCode::kBadInput, "serve: journal record at byte " +
                                                 std::to_string(pos) + " has unknown type " +
                                                 std::to_string(type)));

    Record rec;
    rec.type = static_cast<RecordType>(type);
    rec.seq = seq;
    rec.payload.assign(data.data() + pos + kHeaderBytes, len);
    out.records.push_back(std::move(rec));
    pos += frame_size;
  }
  out.valid_bytes = pos;
  out.torn_tail = pos < data.size();
  return out;
}

Status Journal::repair(const std::string& path) {
  Result<ScanResult> scanned = scan(path);
  CPLA_CHECK(scanned.is_ok(), scanned.status());
  if (!scanned.value().torn_tail) return Status::ok();
  LOG_WARN("serve: truncating torn journal tail of %s at byte %llu", path.c_str(),
           static_cast<unsigned long long>(scanned.value().valid_bytes));
  if (::truncate(path.c_str(), static_cast<off_t>(scanned.value().valid_bytes)) != 0) {
    return Status(StatusCode::kInternal,
                  "serve: cannot truncate journal " + path + ": " + errno_str(errno));
  }
  return Status::ok();
}

}  // namespace cpla::serve
