#include "core/journal/journal.hpp"

#include <filesystem>
#include <iterator>
#include <optional>

#include "core/fault/crash.hpp"
#include "util/file.hpp"
#include "util/hash.hpp"

namespace fraudsim::journal {

const char* to_string(RecordKind k) {
  static constexpr const char* kKindNames[] = {
      "header",           "actor-registered", "browse",
      "hold",             "quote-fare",       "pay",
      "request-otp",      "verify-otp",       "retrieve-booking",
      "boarding-sms",     "boarding-email",   "expiry-sweep",
      "mitigation-sweep", "controller-fit",   "mitigation-action",
      "checkpoint"};
  static_assert(std::size(kKindNames) == static_cast<std::size_t>(RecordKind::Checkpoint));
  const auto i = static_cast<std::size_t>(k);
  return i >= 1 && i <= std::size(kKindNames) ? kKindNames[i - 1] : "?";
}

util::Status JournalWriter::open(const std::string& path, std::uint64_t seed,
                                 std::uint64_t config_digest) {
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_.is_open()) {
    failed_ = true;
    return util::Status::fail(util::ErrorCode::kIoWriteFailed,
                              "journal: cannot open " + path + " for writing");
  }
  failed_ = false;
  frames_ = 0;
  out_.write(kMagic, sizeof(kMagic));
  util::ByteWriter header;
  header(Header{kFormatVersion, seed, config_digest});
  return append(RecordKind::Header, 0, header);
}

util::Status JournalWriter::append(RecordKind kind, sim::SimTime time,
                                   const util::ByteWriter& fields, std::string_view tail) {
  if (failed_) {
    return util::Status::fail(util::ErrorCode::kIoWriteFailed,
                              "journal: writer failed earlier; append refused");
  }
  if (!out_.is_open()) {
    return util::Status::fail(util::ErrorCode::kIoWriteFailed, "journal: writer not open");
  }
  // The payload (kind | time | fields | tail) is never assembled: its CRC
  // continues over the pieces, and the 17-byte head (len | crc | kind |
  // time) and the pieces go to the stream one after another.
  char head[17];
  head[8] = static_cast<char>(kind);
  util::store_le(head + 9, static_cast<std::uint64_t>(time), 8);
  const std::string_view prefix(head + 8, 9);
  util::store_le(head, prefix.size() + fields.size() + tail.size(), 4);
  util::store_le(head + 4,
                 util::crc32_append(util::crc32_append(util::crc32(prefix), fields.bytes()), tail),
                 4);
  const std::string_view pieces[] = {std::string_view(head, sizeof(head)), fields.bytes(), tail};

  const char* crash_point = kind == RecordKind::Checkpoint ? fault::kCrashJournalCheckpoint
                                                           : fault::kCrashJournalFrame;
  if (fault::crash_due(crash_point, time)) {
    // Simulated kill mid-append: a torn prefix of the frame reaches disk and
    // the writer latches failed so a catch-and-continue cannot keep going.
    std::string frame;
    for (const std::string_view piece : pieces) frame += piece;
    const auto& point = fault::FaultRegistry::global().point(crash_point);
    const std::size_t cut = fault::torn_prefix(frame.size(), point.hits());
    out_.write(frame.data(), static_cast<std::streamsize>(cut));
    out_.flush();
    failed_ = true;
    throw fault::SimCrash(crash_point, time);
  }

  for (const std::string_view piece : pieces) {
    out_.write(piece.data(), static_cast<std::streamsize>(piece.size()));
  }
  if (out_.fail()) {
    failed_ = true;
    return util::Status::fail(util::ErrorCode::kIoWriteFailed,
                              std::string("journal: write failed on frame ") +
                                  std::to_string(frames_) + " (" + to_string(kind) + ")");
  }
  ++frames_;
  // Surface deferred stream errors (disk full past the stdio buffer) while
  // the run can still react, not only at close: flush every checkpoint
  // boundary and every 64th frame.
  if (kind == RecordKind::Checkpoint || frames_ % 64 == 0) {
    out_.flush();
    if (out_.fail()) {
      failed_ = true;
      return util::Status::fail(util::ErrorCode::kIoWriteFailed,
                                std::string("journal: flush failed after frame ") +
                                    std::to_string(frames_ - 1) + " (" + to_string(kind) + ")");
    }
  }
  return util::Status::ok();
}

util::Status JournalWriter::close() {
  if (!out_.is_open()) return util::Status::ok();
  out_.flush();
  const bool flush_failed = out_.fail();
  out_.close();
  if (failed_ || flush_failed) {
    return util::Status::fail(util::ErrorCode::kIoWriteFailed, "journal: close/flush failed");
  }
  return util::Status::ok();
}

namespace {

constexpr std::size_t kFrameHeader = 8;  // u32 payload_len | u32 crc32(payload)
constexpr std::size_t kRecordPrefix = 9;  // u8 kind | i64 sim_time_ms

// A journal's frames as walked: the scan, the header and every record after
// it (views into the walked bytes), and what is wrong where the walk stopped
// on corruption.
struct Walk {
  JournalScan scan;
  Header header;
  std::vector<Record> records;
  std::string damage;
};

// Takes one checksummed payload into `walk`; returns why it is no record, or
// "" when it is one.
std::string take_record(std::string_view payload, Walk& walk) {
  if (payload.size() < kRecordPrefix) return "short payload";
  util::ByteReader prefix(payload);
  Record record;
  record.kind = static_cast<RecordKind>(prefix.u8());
  record.time = prefix.i64();
  record.fields = payload.substr(kRecordPrefix);
  if (record.kind < RecordKind::Header || record.kind > RecordKind::Checkpoint) {
    return "unknown record kind " + std::to_string(static_cast<int>(record.kind));
  }
  const bool first = walk.scan.frames == 0;
  if (!first) {
    if (record.kind == RecordKind::Header) return "second header";
    walk.records.push_back(record);
    return {};
  }
  if (record.kind != RecordKind::Header) return "first frame is not a header";
  util::ByteReader fields(record.fields);
  fields(walk.header);
  if (!fields.ok() || walk.header.version != kFormatVersion) {
    return "unsupported header (version " + std::to_string(walk.header.version) + ")";
  }
  walk.scan.has_header = true;
  return {};
}

// Bytes the frame walk verifies between two drop-behind calls: verifying a
// journal keeps about this much of its mapping resident, not the whole file.
constexpr std::size_t kDropBehindStep = std::size_t{4} << 20;

// The one frame walk: maps `path` into `file`, checks the magic, then takes
// frames until the first bad one, dropping the pages it has passed every
// kDropBehindStep bytes. Torn-tail rule: a frame cut short by end-of-file, or
// a final frame failing its CRC, is the crash residue of the last append. A
// CRC failure anywhere earlier is damage inside the file, and so is a
// checksummed frame that is no record, wherever it sits.
util::Result<Walk> walk_journal(const std::string& path, util::MappedFile& file) {
  using R = util::Result<Walk>;
  std::optional<util::MappedFile> mapped = util::MappedFile::open(path);
  if (!mapped) return R::fail(util::ErrorCode::kNotFound, "journal: cannot open " + path);
  file = std::move(*mapped);
  const std::string_view all = file.bytes();
  if (all.substr(0, sizeof(kMagic)) != std::string_view(kMagic, sizeof(kMagic))) {
    return R::fail(util::ErrorCode::kJournalCorrupt, "journal: bad magic in " + path);
  }

  Walk walk;
  std::size_t pos = sizeof(kMagic);
  std::size_t dropped = 0;
  while (pos < all.size()) {
    const std::string_view rest = all.substr(pos);
    util::ByteReader head(rest.substr(0, kFrameHeader));
    const std::uint32_t len = head.u32();
    const std::uint32_t crc = head.u32();
    if (!head.ok() || rest.size() - kFrameHeader < len) break;
    const std::string_view payload = rest.substr(kFrameHeader, len);
    if (util::crc32(payload) != crc) {
      if (rest.size() != kFrameHeader + len) walk.damage = "CRC mismatch mid-file";
      break;
    }
    walk.damage = take_record(payload, walk);
    if (!walk.damage.empty()) break;
    ++walk.scan.frames;
    pos += kFrameHeader + len;
    if (pos - dropped >= kDropBehindStep) {
      file.drop_before(pos);
      dropped = pos;
    }
  }
  walk.scan.total_bytes = all.size();
  walk.scan.intact_bytes = pos;
  walk.scan.corrupt_mid_file = !walk.damage.empty();
  walk.scan.torn_tail = !walk.scan.corrupt_mid_file && pos < all.size();
  if (walk.scan.corrupt_mid_file) {
    walk.damage = "journal: " + walk.damage + " at offset " + std::to_string(pos);
  }
  return R::ok(std::move(walk));
}

}  // namespace

util::Status JournalReader::open(const std::string& path) {
  recovered_ = false;
  records_.clear();
  file_ = util::MappedFile();
  auto walked = walk_journal(path, file_);
  if (!walked) return util::Status::fail(walked.code(), walked.error());
  Walk& walk = walked.value();
  if (walk.scan.corrupt_mid_file) {
    return util::Status::fail(util::ErrorCode::kJournalCorrupt, walk.damage);
  }
  if (!walk.scan.has_header) {
    return util::Status::fail(util::ErrorCode::kJournalCorrupt,
                              "journal: no intact header frame in " + path);
  }
  header_ = walk.header;
  recovered_ = walk.scan.torn_tail;
  records_ = std::move(walk.records);
  return util::Status::ok();
}

util::Result<JournalScan> scan_journal(const std::string& path) {
  util::MappedFile file;
  auto walked = walk_journal(path, file);
  if (!walked) return util::Result<JournalScan>::fail(walked.code(), walked.error());
  return util::Result<JournalScan>::ok(walked.value().scan);
}

util::Result<JournalScan> truncate_torn_tail(const std::string& path,
                                             const std::string& quarantine_path) {
  using R = util::Result<JournalScan>;
  util::MappedFile file;
  auto walked = walk_journal(path, file);
  if (!walked) return R::fail(walked.code(), walked.error());
  const JournalScan scan = walked.value().scan;
  if (scan.corrupt_mid_file) {
    return R::fail(util::ErrorCode::kJournalCorrupt,
                   "journal: mid-file corruption in " + path + " — tail truncation cannot help");
  }
  if (!scan.torn_tail) return R::ok(scan);

  {
    const std::string_view tail = file.bytes().substr(scan.intact_bytes);
    std::ofstream out(quarantine_path, std::ios::binary | std::ios::app);
    if (!out.is_open()) {
      return R::fail(util::ErrorCode::kIoWriteFailed,
                     "journal: cannot quarantine tail to " + quarantine_path);
    }
    out.write(tail.data(), static_cast<std::streamsize>(tail.size()));
    out.flush();
    if (out.fail()) {
      return R::fail(util::ErrorCode::kIoWriteFailed,
                     "journal: quarantine write failed for " + quarantine_path);
    }
  }
  file = util::MappedFile();  // no mapping may outlive the bytes cut away
  std::error_code ec;
  std::filesystem::resize_file(path, scan.intact_bytes, ec);
  if (ec) {
    return R::fail(util::ErrorCode::kIoWriteFailed,
                   "journal: truncate failed for " + path + ": " + ec.message());
  }
  return R::ok(scan);
}

}  // namespace fraudsim::journal
