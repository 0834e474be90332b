#include "app/export.hpp"

#include "util/format.hpp"

namespace fraudsim::app {

namespace {

// Failbit/badbit check shared by all exporters.
util::Status stream_status(const std::ostream& out, const char* what) {
  if (out.fail()) {
    return util::Status::fail(util::ErrorCode::kIoWriteFailed,
                              std::string("export: write failed in ") + what);
  }
  return util::Status::ok();
}

// Mid-write check: stop at the first failed row instead of formatting the
// rest of the table into a dead stream, and report WHERE the write died.
util::Status row_status(const std::ostream& out, const char* what, std::size_t row) {
  if (out.fail()) {
    return util::Status::fail(util::ErrorCode::kIoWriteFailed,
                              std::string("export: write failed in ") + what + " at row " +
                                  std::to_string(row));
  }
  return util::Status::ok();
}

// Final check flushes first so deferred buffer errors (disk full behind the
// stream buffer) surface here, not at some later close().
util::Status finish_status(std::ostream& out, const char* what) {
  out.flush();
  return stream_status(out, what);
}

}  // namespace

std::string csv_escape(const std::string& field) {
  const bool needs_quotes = field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void write_csv_row(std::ostream& out, const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) out << ',';
    out << csv_escape(fields[i]);
  }
  out << '\n';
}

util::Status export_weblog_csv(std::ostream& out, std::span<const web::HttpRequest> requests,
                               const ComponentLookup& component) {
  std::vector<std::string> header = {"time_ms", "endpoint", "method", "status", "ip", "session",
                                     "fp_hash", "flight", "booking_ref", "nip", "trace_id"};
  if (component) header.push_back("component_id");
  write_csv_row(out, header);
  std::size_t row = 0;
  for (const auto& r : requests) {
    std::vector<std::string> fields = {std::to_string(r.time), web::endpoint_path(r.endpoint),
                                       web::to_string(r.method), std::to_string(r.status_code),
                                       r.ip.str(), r.session.str(), r.fp_hash.str(),
                                       r.flight_id ? std::to_string(*r.flight_id) : "",
                                       r.booking_ref.value_or(""),
                                       r.nip ? std::to_string(*r.nip) : "",
                                       r.trace_id != 0 ? std::to_string(r.trace_id) : ""};
    if (component) {
      const std::uint64_t cid = component(r);
      fields.push_back(cid != 0 ? std::to_string(cid) : "");
    }
    write_csv_row(out, fields);
    if (auto s = row_status(out, "export_weblog_csv", row++); !s.is_ok()) return s;
  }
  return finish_status(out, "export_weblog_csv");
}

util::Status export_reservations_csv(std::ostream& out,
                             const std::vector<airline::Reservation>& reservations) {
  write_csv_row(out, {"pnr", "flight", "nip", "state", "created_ms", "hold_expiry_ms",
                      "lead_name", "source_ip", "fp_hash"});
  std::size_t row = 0;
  for (const auto& r : reservations) {
    write_csv_row(out, {r.pnr, r.flight.str(), std::to_string(r.nip()),
                        airline::to_string(r.state), std::to_string(r.created),
                        std::to_string(r.hold_expiry),
                        r.passengers.empty() ? "" : r.passengers.front().name_key(),
                        r.source_ip.str(), r.source_fp.str()});
    if (auto s = row_status(out, "export_reservations_csv", row++); !s.is_ok()) return s;
  }
  return finish_status(out, "export_reservations_csv");
}

util::Status export_sms_csv(std::ostream& out, const std::vector<sms::SmsRecord>& records) {
  write_csv_row(out, {"time_ms", "type", "country", "delivered", "app_cost_micros",
                      "attacker_revenue_micros", "booking_ref"});
  std::size_t row = 0;
  for (const auto& r : records) {
    write_csv_row(out, {std::to_string(r.time), sms::to_string(r.type),
                        r.destination.country.str(), r.delivered ? "1" : "0",
                        std::to_string(r.app_cost.micros()),
                        std::to_string(r.attacker_revenue.micros()),
                        r.booking_ref.value_or("")});
    if (auto s = row_status(out, "export_sms_csv", row++); !s.is_ok()) return s;
  }
  return finish_status(out, "export_sms_csv");
}

util::Status export_overload_csv(std::ostream& out, const overload::OverloadSnapshot& snapshot) {
  write_csv_row(out, {"row", "class_or_state", "offered", "admitted", "shed_queue",
                      "shed_fail_fast", "deadline_missed", "p50_ms", "p99_ms", "dwell_ms"});
  std::size_t row = 0;
  for (std::size_t i = 0; i < overload::kRequestClasses; ++i) {
    const auto& c = snapshot.cls[i];
    write_csv_row(out, {"class", overload::to_string(static_cast<overload::RequestClass>(i)),
                        std::to_string(c.offered), std::to_string(c.admitted),
                        std::to_string(c.shed_queue), std::to_string(c.shed_fail_fast),
                        std::to_string(c.deadline_missed), util::format_fixed(c.p50_latency_ms, 6),
                        util::format_fixed(c.p99_latency_ms, 6), ""});
    if (auto s = row_status(out, "export_overload_csv", row++); !s.is_ok()) return s;
  }
  for (std::size_t i = 0; i < overload::kBrownoutStates; ++i) {
    write_csv_row(out, {"brownout", overload::to_string(static_cast<overload::BrownoutState>(i)),
                        "", "", "", "", "", "", "", std::to_string(snapshot.dwell[i])});
    if (auto s = row_status(out, "export_overload_csv", row++); !s.is_ok()) return s;
  }
  return finish_status(out, "export_overload_csv");
}

}  // namespace fraudsim::app
