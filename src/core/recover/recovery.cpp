#include "core/recover/recovery.hpp"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <sstream>

#include "core/journal/journal.hpp"
#include "core/recover/manifest.hpp"
#include "util/archive.hpp"
#include "util/file.hpp"
#include "util/hash.hpp"

namespace fraudsim::recover {

namespace fs = std::filesystem;

std::string checkpoint_sidecar_path(const std::string& run_dir, sim::SimTime time) {
  char name[64];
  std::snprintf(name, sizeof(name), "cp-%012lld.fsc", static_cast<long long>(time));
  return (fs::path(run_dir) / kCheckpointDir / name).string();
}

util::Result<WrittenArtifact> write_checkpoint_sidecar(const std::string& path,
                                                       const SidecarCheckpoint& cp) {
  util::ByteWriter w;
  w.raw(std::string_view(kCheckpointMagic, sizeof(kCheckpointMagic)));
  w.u32(kCheckpointVersion);
  w.u64(cp.seed);
  w.u64(cp.config_digest);
  w.i64(cp.time);
  w.u32(static_cast<std::uint32_t>(cp.blob.size()));
  w.u32(util::crc32(cp.blob));
  w.raw(cp.blob);
  return AtomicFile::write(path, w.bytes(), cp.time);
}

util::Result<SidecarCheckpoint> read_checkpoint_sidecar(const std::string& path) {
  using R = util::Result<SidecarCheckpoint>;
  const std::optional<util::MappedFile> file = util::MappedFile::open(path);
  if (!file) {
    return R::fail(util::ErrorCode::kNotFound, "checkpoint: cannot open " + path);
  }
  const std::string_view bytes = file->bytes();

  const auto bad = [&path](const std::string& why) {
    return R::fail(util::ErrorCode::kCheckpointMismatch, "checkpoint: " + why + " in " + path);
  };
  if (bytes.size() < sizeof(kCheckpointMagic) ||
      std::string_view(bytes.data(), sizeof(kCheckpointMagic)) !=
          std::string_view(kCheckpointMagic, sizeof(kCheckpointMagic))) {
    return bad("bad magic");
  }
  util::ByteReader r(bytes.substr(sizeof(kCheckpointMagic)));
  const std::uint32_t version = r.u32();
  SidecarCheckpoint cp;
  cp.seed = r.u64();
  cp.config_digest = r.u64();
  cp.time = r.i64();
  const std::uint32_t len = r.u32();
  const std::uint32_t crc = r.u32();
  if (!r.ok() || version != kCheckpointVersion) return bad("bad header");
  if (r.remaining() != len) return bad("torn blob");
  // Fixed header: 4 magic + 4 version + 8 seed + 8 digest + 8 time + 4 len
  // + 4 crc = 40 bytes; the blob is everything after it.
  cp.blob = std::string(bytes.substr(40));
  if (util::crc32(cp.blob) != crc) return bad("blob CRC mismatch");
  return R::ok(std::move(cp));
}

std::string RecoveryReport::render() const {
  std::ostringstream out;
  out << "recovery report\n";
  out << "  run complete:    " << (run_complete ? "yes" : "no") << "\n";
  out << "  manifest:        "
      << (!manifest_found ? "missing" : manifest_valid ? "valid" : "corrupt (quarantined)")
      << "\n";
  out << "  journal:         ";
  if (!journal_found) {
    out << "missing\n";
  } else if (journal_corrupt_mid_file) {
    out << "corrupt mid-file (quarantined whole)\n";
  } else {
    out << (journal_salvaged ? "salvaged" : "unusable") << ", " << frames_salvaged
        << " frames intact";
    if (tail_bytes_quarantined > 0) {
      out << ", " << tail_bytes_quarantined << " torn tail bytes quarantined";
    }
    out << "\n";
  }
  out << "  checkpoint used: "
      << (checkpoint_used.empty()
              ? "none (cold start)"
              : checkpoint_used + " @ " + sim::format_time(checkpoint_time))
      << "\n";
  out << "  artifacts:       " << intact_artifacts.size() << " intact, "
      << damaged_artifacts.size() << " damaged\n";
  for (const auto& a : damaged_artifacts) out << "    damaged: " << a << "\n";
  for (const auto& q : quarantined) out << "    quarantined: " << q << "\n";
  return out.str();
}

RecoveryManager::RecoveryManager(std::string run_dir) : run_dir_(std::move(run_dir)) {}

util::Result<RecoveryReport> RecoveryManager::scan() const { return run(/*mutate=*/false); }
util::Result<RecoveryReport> RecoveryManager::repair() const { return run(/*mutate=*/true); }

util::Result<RecoveryReport> RecoveryManager::run(bool mutate) const {
  using R = util::Result<RecoveryReport>;
  const fs::path root(run_dir_);
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    return R::fail(util::ErrorCode::kNotFound, "recovery: no run directory " + run_dir_);
  }

  RecoveryReport report;
  const fs::path quarantine = root / kQuarantineDir;

  // Moves `rel` (relative to the run dir) into quarantine/, preserving the
  // relative layout. Records the move either way so scan() previews it.
  const auto quarantine_file = [&](const std::string& rel) {
    report.quarantined.push_back(rel);
    if (!mutate) return;
    const fs::path dest = quarantine / rel;
    std::error_code move_ec;
    fs::create_directories(dest.parent_path(), move_ec);
    fs::rename(root / rel, dest, move_ec);
  };

  // Deterministic directory listing: sorted relative paths, one level of
  // checkpoints/ nesting (the only subdirectory a run writes besides
  // quarantine/, which is never rescanned).
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    if (entry.is_directory()) {
      if (entry.path().filename() == kQuarantineDir) continue;
      for (const auto& sub : fs::directory_iterator(entry.path(), ec)) {
        if (sub.is_regular_file()) {
          files.push_back((entry.path().filename() / sub.path().filename()).string());
        }
      }
    } else if (entry.is_regular_file()) {
      files.push_back(entry.path().filename().string());
    }
  }
  std::sort(files.begin(), files.end());

  // 1. `.tmp` residue: a crash between open and rename. Always quarantined.
  for (const auto& rel : files) {
    if (rel.size() > 4 && rel.compare(rel.size() - 4, 4, kTmpSuffix) == 0) {
      quarantine_file(rel);
    }
  }

  // 2. Manifest: decides whether this directory is a completed run.
  const std::string manifest_path = (root / kManifestFilename).string();
  auto manifest = Manifest::load(manifest_path);
  if (manifest) {
    report.manifest_found = true;
    report.manifest_valid = true;
    const ManifestAudit audit = audit_artifacts(manifest.value(), run_dir_);
    report.intact_artifacts = audit.intact;
    report.damaged_artifacts = audit.missing;
    for (const auto& rel : audit.mismatched) {
      report.damaged_artifacts.push_back(rel);
      quarantine_file(rel);
    }
    std::sort(report.damaged_artifacts.begin(), report.damaged_artifacts.end());
    report.run_complete = audit.clean();
  } else if (manifest.code() == util::ErrorCode::kManifestMismatch) {
    report.manifest_found = true;
    quarantine_file(kManifestFilename);
  }

  // 3. Journal: truncate a torn tail to the last good frame; mid-file
  // corruption (or a destroyed header) voids the file entirely.
  const std::string journal_path = (root / kJournalFilename).string();
  auto scanned = journal::scan_journal(journal_path);
  if (scanned || scanned.code() == util::ErrorCode::kJournalCorrupt) {
    report.journal_found = true;
  }
  if (scanned) {
    const journal::JournalScan& scan = scanned.value();
    report.frames_salvaged = scan.frames;
    report.journal_salvaged = scan.has_header && !scan.corrupt_mid_file;
    report.journal_corrupt_mid_file = scan.corrupt_mid_file;
    if (scan.corrupt_mid_file || (!scan.has_header && scan.frames == 0 && scan.torn_tail)) {
      // Unrecoverable at frame level (even the header is gone): keep the
      // whole file for forensics, recovery falls back to a full re-record.
      report.journal_salvaged = false;
      report.frames_salvaged = 0;
      quarantine_file(kJournalFilename);
    } else if (scan.torn_tail && !report.run_complete) {
      report.tail_bytes_quarantined = scan.tail_bytes();
      if (mutate) {
        const fs::path tail = quarantine / (std::string(kJournalFilename) + ".tail");
        std::error_code dir_ec;
        fs::create_directories(quarantine, dir_ec);
        auto repaired = journal::truncate_torn_tail(journal_path, tail.string());
        if (!repaired) return R::fail(repaired.code(), repaired.error());
        report.quarantined.push_back(std::string(kJournalFilename) + ".tail");
      }
    }
  } else if (scanned.code() == util::ErrorCode::kJournalCorrupt) {
    // Not even the magic survived.
    report.journal_corrupt_mid_file = true;
    quarantine_file(kJournalFilename);
  }

  // 4. Checkpoint sidecars: validate all, keep the newest intact one.
  for (const auto& rel : files) {
    if (rel.rfind(std::string(kCheckpointDir) + "/", 0) != 0) continue;
    if (rel.size() < 4 || rel.compare(rel.size() - 4, 4, ".fsc") != 0) continue;
    auto cp = read_checkpoint_sidecar((root / rel).string());
    if (!cp) {
      quarantine_file(rel);
      continue;
    }
    if (cp.value().time >= report.checkpoint_time || report.checkpoint_used.empty()) {
      report.checkpoint_used = rel;
      report.checkpoint_time = cp.value().time;
    }
  }

  return R::ok(std::move(report));
}

}  // namespace fraudsim::recover
