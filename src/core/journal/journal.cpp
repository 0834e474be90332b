#include "core/journal/journal.hpp"

#include <filesystem>
#include <optional>

#include "core/fault/crash.hpp"
#include "util/file.hpp"
#include "util/hash.hpp"

namespace fraudsim::journal {

const char* to_string(RecordKind k) {
  switch (k) {
    case RecordKind::Header:
      return "header";
    case RecordKind::ActorRegistered:
      return "actor-registered";
    case RecordKind::Browse:
      return "browse";
    case RecordKind::Hold:
      return "hold";
    case RecordKind::QuoteFare:
      return "quote-fare";
    case RecordKind::Pay:
      return "pay";
    case RecordKind::RequestOtp:
      return "request-otp";
    case RecordKind::VerifyOtp:
      return "verify-otp";
    case RecordKind::RetrieveBooking:
      return "retrieve-booking";
    case RecordKind::BoardingSms:
      return "boarding-sms";
    case RecordKind::BoardingEmail:
      return "boarding-email";
    case RecordKind::ExpirySweep:
      return "expiry-sweep";
    case RecordKind::MitigationSweep:
      return "mitigation-sweep";
    case RecordKind::ControllerFit:
      return "controller-fit";
    case RecordKind::MitigationAction:
      return "mitigation-action";
    case RecordKind::Checkpoint:
      return "checkpoint";
  }
  return "?";
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
  header.u32(kFormatVersion);
  header.u64(seed);
  header.u64(config_digest);
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

util::Status JournalReader::open(const std::string& path) {
  recovered_ = false;
  records_.clear();

  const std::optional<std::string> file = util::read_file(path);
  if (!file) {
    return util::Status::fail(util::ErrorCode::kNotFound, "journal: cannot open " + path);
  }
  const std::string& bytes = *file;

  if (bytes.size() < sizeof(kMagic) ||
      std::string_view(bytes.data(), sizeof(kMagic)) != std::string_view(kMagic, sizeof(kMagic))) {
    return util::Status::fail(util::ErrorCode::kJournalCorrupt,
                              "journal: bad magic in " + path);
  }

  constexpr std::size_t kFrameHeader = 8;  // u32 len + u32 crc
  std::size_t pos = sizeof(kMagic);
  bool saw_header = false;
  while (pos < bytes.size()) {
    // Torn-tail rule: anything that cannot be a complete, checksummed frame
    // at end-of-file is the crash residue of the last append — drop it. The
    // same defect anywhere earlier means the middle of the file was damaged.
    if (bytes.size() - pos < kFrameHeader) {
      recovered_ = true;
      break;
    }
    util::ByteReader prefix(std::string_view(bytes).substr(pos, kFrameHeader));
    const std::uint32_t len = prefix.u32();
    const std::uint32_t crc = prefix.u32();
    if (bytes.size() - pos - kFrameHeader < len) {
      recovered_ = true;
      break;
    }
    const std::string_view payload = std::string_view(bytes).substr(pos + kFrameHeader, len);
    if (util::crc32(payload) != crc) {
      if (pos + kFrameHeader + len == bytes.size()) {
        recovered_ = true;
        break;
      }
      return util::Status::fail(
          util::ErrorCode::kJournalCorrupt,
          "journal: CRC mismatch mid-file at offset " + std::to_string(pos));
    }
    util::ByteReader body(payload);
    Record record;
    record.kind = static_cast<RecordKind>(body.u8());
    record.time = body.i64();
    record.fields = std::string(payload.substr(payload.size() - body.remaining()));
    if (!body.ok()) {
      return util::Status::fail(util::ErrorCode::kJournalCorrupt,
                                "journal: short payload at offset " + std::to_string(pos));
    }
    if (!saw_header) {
      if (record.kind != RecordKind::Header) {
        return util::Status::fail(util::ErrorCode::kJournalCorrupt,
                                  "journal: first frame is not a header");
      }
      util::ByteReader header(record.fields);
      version_ = header.u32();
      seed_ = header.u64();
      config_digest_ = header.u64();
      if (!header.ok() || version_ != kFormatVersion) {
        return util::Status::fail(util::ErrorCode::kJournalCorrupt,
                                  "journal: unsupported header (version " +
                                      std::to_string(version_) + ")");
      }
      saw_header = true;
    } else {
      records_.push_back(std::move(record));
    }
    pos += kFrameHeader + len;
  }
  if (!saw_header) {
    return util::Status::fail(util::ErrorCode::kJournalCorrupt,
                              "journal: no intact header frame in " + path);
  }
  return util::Status::ok();
}

util::Result<JournalScan> scan_journal(const std::string& path) {
  using R = util::Result<JournalScan>;
  const std::optional<std::string> file = util::read_file(path);
  if (!file) {
    return R::fail(util::ErrorCode::kNotFound, "journal: cannot open " + path);
  }
  const std::string& bytes = *file;

  if (bytes.size() < sizeof(kMagic) ||
      std::string_view(bytes.data(), sizeof(kMagic)) != std::string_view(kMagic, sizeof(kMagic))) {
    return R::fail(util::ErrorCode::kJournalCorrupt, "journal: bad magic in " + path);
  }

  JournalScan scan;
  scan.total_bytes = bytes.size();
  constexpr std::size_t kFrameHeader = 8;
  std::size_t pos = sizeof(kMagic);
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kFrameHeader) break;
    util::ByteReader prefix(std::string_view(bytes).substr(pos, kFrameHeader));
    const std::uint32_t len = prefix.u32();
    const std::uint32_t crc = prefix.u32();
    if (bytes.size() - pos - kFrameHeader < len) break;
    const std::string_view payload = std::string_view(bytes).substr(pos + kFrameHeader, len);
    if (util::crc32(payload) != crc) {
      // CRC-bad frame that is not the file tail = damage inside the file.
      scan.corrupt_mid_file = pos + kFrameHeader + len != bytes.size();
      break;
    }
    if (scan.frames == 0 && !payload.empty() &&
        static_cast<RecordKind>(static_cast<std::uint8_t>(payload[0])) == RecordKind::Header) {
      scan.has_header = true;
    }
    ++scan.frames;
    pos += kFrameHeader + len;
  }
  scan.intact_bytes = pos;
  scan.torn_tail = !scan.corrupt_mid_file && scan.intact_bytes < scan.total_bytes;
  return R::ok(scan);
}

util::Result<JournalScan> truncate_torn_tail(const std::string& path,
                                             const std::string& quarantine_path) {
  using R = util::Result<JournalScan>;
  auto scanned = scan_journal(path);
  if (!scanned) return scanned;
  JournalScan scan = scanned.value();
  if (scan.corrupt_mid_file) {
    return R::fail(util::ErrorCode::kJournalCorrupt,
                   "journal: mid-file corruption in " + path + " — tail truncation cannot help");
  }
  if (!scan.torn_tail) return R::ok(scan);

  {
    std::ifstream in(path, std::ios::binary);
    in.seekg(static_cast<std::streamoff>(scan.intact_bytes));
    std::string tail(static_cast<std::size_t>(scan.tail_bytes()), '\0');
    in.read(tail.data(), static_cast<std::streamsize>(tail.size()));
    std::ofstream out(quarantine_path, std::ios::binary | std::ios::app);
    if (!in.good() || !out.is_open()) {
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
  std::error_code ec;
  std::filesystem::resize_file(path, scan.intact_bytes, ec);
  if (ec) {
    return R::fail(util::ErrorCode::kIoWriteFailed,
                   "journal: truncate failed for " + path + ": " + ec.message());
  }
  return R::ok(scan);
}

}  // namespace fraudsim::journal
