#include "core/recover/manifest.hpp"

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "core/fault/crash.hpp"
#include "util/file.hpp"
#include "util/hash.hpp"

namespace fraudsim::recover {

namespace {

constexpr char kHeaderLine[] = "fraudsim-manifest v1";

bool parse_u64(std::string_view text, std::uint64_t& out) {
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

bool parse_hex32(std::string_view text, std::uint32_t& out) {
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), out, 16);
  return ec == std::errc() && ptr == text.data() + text.size();
}

// Splits on single spaces; manifests never contain empty fields.
std::vector<std::string_view> split_fields(std::string_view line) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  while (start <= line.size()) {
    const std::size_t space = line.find(' ', start);
    if (space == std::string_view::npos) {
      fields.push_back(line.substr(start));
      break;
    }
    fields.push_back(line.substr(start, space - start));
    start = space + 1;
  }
  return fields;
}

}  // namespace

void Manifest::add(std::string rel_path, std::uint64_t size, std::uint32_t crc) {
  artifacts.push_back(ManifestEntry{std::move(rel_path), size, crc});
}

void Manifest::add(const WrittenArtifact& written, std::string rel_path) {
  add(std::move(rel_path), written.size, written.crc);
}

const ManifestEntry* Manifest::find(std::string_view rel_path) const {
  for (const auto& entry : artifacts) {
    if (entry.path == rel_path) return &entry;
  }
  return nullptr;
}

std::string Manifest::render() const {
  std::ostringstream out;
  out << kHeaderLine << "\n";
  out << "seed " << seed << "\n";
  out << "config " << config_digest << "\n";
  for (const auto& entry : artifacts) {
    char crc_hex[16];
    std::snprintf(crc_hex, sizeof(crc_hex), "%08x", entry.crc);
    out << "artifact " << entry.path << " " << entry.size << " " << crc_hex << "\n";
  }
  std::string body = out.str();
  char self_hex[16];
  std::snprintf(self_hex, sizeof(self_hex), "%08x", util::crc32(body));
  body += "crc ";
  body += self_hex;
  body += "\n";
  return body;
}

util::Result<Manifest> Manifest::parse(std::string_view text) {
  using R = util::Result<Manifest>;
  const auto fail = [](const std::string& why) {
    return R::fail(util::ErrorCode::kManifestMismatch, "manifest: " + why);
  };

  // The self-CRC covers every byte before the final "crc ..." line.
  if (text.empty() || text.back() != '\n') return fail("missing trailing newline");
  const std::size_t last_line_start = text.rfind('\n', text.size() - 2);
  const std::size_t crc_line_start = last_line_start == std::string_view::npos
                                         ? 0
                                         : last_line_start + 1;
  std::string_view crc_line = text.substr(crc_line_start);
  crc_line.remove_suffix(1);  // '\n'
  const auto crc_fields = split_fields(crc_line);
  std::uint32_t declared = 0;
  if (crc_fields.size() != 2 || crc_fields[0] != "crc" || !parse_hex32(crc_fields[1], declared)) {
    return fail("missing self-CRC line");
  }
  const std::string_view body = text.substr(0, crc_line_start);
  if (util::crc32(body) != declared) return fail("self-CRC mismatch (torn or edited)");

  Manifest m;
  std::size_t pos = 0;
  int line_no = 0;
  bool saw_seed = false;
  bool saw_config = false;
  while (pos < body.size()) {
    const std::size_t eol = body.find('\n', pos);
    std::string_view line = body.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line_no == 1) {
      if (line != kHeaderLine) return fail("bad header line");
      continue;
    }
    const auto fields = split_fields(line);
    if (fields.size() == 2 && fields[0] == "seed") {
      if (!parse_u64(fields[1], m.seed)) return fail("bad seed line");
      saw_seed = true;
    } else if (fields.size() == 2 && fields[0] == "config") {
      if (!parse_u64(fields[1], m.config_digest)) return fail("bad config line");
      saw_config = true;
    } else if (fields.size() == 4 && fields[0] == "artifact") {
      ManifestEntry entry;
      entry.path = std::string(fields[1]);
      if (entry.path.empty() || !parse_u64(fields[2], entry.size) ||
          !parse_hex32(fields[3], entry.crc)) {
        return fail("bad artifact line " + std::to_string(line_no));
      }
      m.artifacts.push_back(std::move(entry));
    } else {
      return fail("unrecognised line " + std::to_string(line_no));
    }
  }
  if (!saw_seed || !saw_config) return fail("seed/config lines missing");
  return R::ok(std::move(m));
}

util::Result<Manifest> Manifest::load(const std::string& path) {
  const std::optional<util::MappedFile> text = util::MappedFile::open(path);
  if (!text) {
    return util::Result<Manifest>::fail(util::ErrorCode::kNotFound,
                                        "manifest: cannot open " + path);
  }
  return parse(text->bytes());
}

util::Status Manifest::write(const std::string& dir, sim::SimTime now) const {
  const std::string path = (std::filesystem::path(dir) / kManifestFilename).string();
  const std::string text = render();

  if (fault::crash_due(fault::kCrashManifestWrite, now)) {
    // Worst-case residue: a torn manifest under its FINAL name. The self-CRC
    // is what stops recovery from trusting it.
    const auto& point = fault::FaultRegistry::global().point(fault::kCrashManifestWrite);
    const std::size_t cut = fault::torn_prefix(text.size(), point.hits());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (out.is_open()) {
      out.write(text.data(), static_cast<std::streamsize>(cut));
      out.flush();
    }
    throw fault::SimCrash(fault::kCrashManifestWrite, now);
  }

  auto written = AtomicFile::write(path, text, now);
  if (!written) return util::Status::fail(written.code(), written.error());
  return util::Status::ok();
}

ManifestAudit audit_artifacts(const Manifest& manifest, const std::string& dir) {
  ManifestAudit audit;
  for (const auto& entry : manifest.artifacts) {
    const std::string path = (std::filesystem::path(dir) / entry.path).string();
    const std::optional<util::MappedFile> content = util::MappedFile::open(path);
    if (!content) {
      audit.missing.push_back(entry.path);
      continue;
    }
    if (content->bytes().size() != entry.size || util::crc32(content->bytes()) != entry.crc) {
      audit.mismatched.push_back(entry.path);
      continue;
    }
    audit.intact.push_back(entry.path);
  }
  return audit;
}

}  // namespace fraudsim::recover
