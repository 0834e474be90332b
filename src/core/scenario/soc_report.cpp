#include "core/scenario/soc_report.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "analytics/report.hpp"
#include "util/table.hpp"

namespace fraudsim::scenario {

std::string render_soc_report(const SocReportInputs& inputs) {
  std::ostringstream out;
  const auto& app = inputs.application;
  out << "==================== SOC WEEKLY REPORT ====================\n";
  out << "window: " << sim::format_time(inputs.from) << " .. " << sim::format_time(inputs.to)
      << "\n\n";

  // --- Traffic & business ----------------------------------------------------
  std::uint64_t requests = 0;
  std::uint64_t blocked = 0;
  std::uint64_t challenged = 0;
  std::uint64_t limited = 0;
  std::uint64_t shed = 0;
  for (const auto& r : app.weblog().all()) {
    if (r.time < inputs.from || r.time >= inputs.to) continue;
    ++requests;
    if (r.status_code == 403) ++blocked;
    if (r.status_code == 401) ++challenged;
    if (r.status_code == 429) ++limited;
    if (r.status_code == 503) ++shed;
  }
  std::uint64_t holds = 0;
  std::uint64_t ticketed = 0;
  for (const auto& r : app.inventory().reservations()) {
    if (r.created < inputs.from || r.created >= inputs.to) continue;
    ++holds;
    if (r.state == airline::ReservationState::Ticketed) ++ticketed;
  }
  util::Money sms_cost;
  std::uint64_t sms_count = 0;
  std::uint64_t sms_abuse = 0;
  for (const auto& r : app.sms_gateway().log()) {
    if (!r.delivered || r.time < inputs.from || r.time >= inputs.to) continue;
    ++sms_count;
    sms_cost += r.app_cost;
    if (inputs.actors.abuser(r.actor)) ++sms_abuse;
  }

  util::AsciiTable traffic({"Traffic & business", "count"});
  traffic.add_row({"HTTP requests", util::format_count(requests)});
  traffic.add_row({"sessions analysed", util::format_count(inputs.detection.sessions.size())});
  traffic.add_row({"holds created", util::format_count(holds)});
  traffic.add_row({"holds ticketed", util::format_count(ticketed)});
  traffic.add_row({"SMS delivered", util::format_count(sms_count)});
  traffic.add_row({"SMS spend", sms_cost.str()});
  traffic.add_row({"SMS to flagged abusers", util::format_count(sms_abuse)});
  out << traffic.render() << "\n";

  // --- Policy outcomes ----------------------------------------------------------
  util::AsciiTable policy({"Policy outcome", "count"});
  policy.add_row({"blocked (403)", util::format_count(blocked)});
  policy.add_row({"challenged (401)", util::format_count(challenged)});
  policy.add_row({"rate limited (429)", util::format_count(limited)});
  if (app.overload().enabled()) {
    policy.add_row({"shed (503)", util::format_count(shed)});
  }
  out << policy.render() << "\n";
  // Overload control section (renders empty with the subsystem disabled).
  out << analytics::render_overload_report(app.overload().snapshot(inputs.to));
  if (!app.rule_hits().empty()) {
    util::AsciiTable rules({"Rule", "hits"});
    std::map<std::string, std::uint64_t> ordered(app.rule_hits().begin(), app.rule_hits().end());
    for (const auto& [rule, hits] : ordered) {
      rules.add_row({rule, util::format_count(hits)});
    }
    out << rules.render() << "\n";
  }

  // --- Detection ------------------------------------------------------------------
  util::AsciiTable detect_table({"Detector", "alerts", "precision", "recall"});
  for (const auto& report : inputs.detection.reports) {
    detect_table.add_row({report.detector, util::format_count(report.alerts),
                          util::format_percent(report.score.confusion.precision(), 0),
                          util::format_percent(report.score.confusion.recall(), 0)});
  }
  out << detect_table.render() << "\n";
  if (!inputs.detection.skipped.empty()) {
    util::AsciiTable skipped({"Detector skipped", "reason"});
    for (const auto& s : inputs.detection.skipped) {
      skipped.add_row({s.family, s.reason});
    }
    out << skipped.render() << "\n";
  }

  // --- Top suspicious components --------------------------------------------------
  // Rendered only with the entity graph attached; ordered by amplification
  // score (desc), canonical id breaking ties, capped at 10 rows.
  if (inputs.graph != nullptr) {
    auto verdicts = inputs.graph->scored_components(inputs.to);
    std::stable_sort(verdicts.begin(), verdicts.end(),
                     [](const auto& a, const auto& b) { return a.score > b.score; });
    util::AsciiTable components(
        {"Component", "size", "sessions", "fps", "ips", "tokens", "score", "flagged"});
    std::size_t shown = 0;
    for (const auto& v : verdicts) {
      if (v.score <= 0.0 && !v.flagged) continue;
      if (shown++ >= 10) break;
      components.add_row({std::to_string(v.summary.id), util::format_count(v.summary.size),
                          util::format_count(v.summary.sessions),
                          util::format_count(v.summary.fingerprints),
                          util::format_count(v.summary.ips),
                          util::format_count(v.summary.tokens),
                          util::format_double(v.score, 1), v.flagged ? "RING" : ""});
    }
    out << "Top suspicious components (" << verdicts.size() << " total, "
        << inputs.graph->graph().node_count() << " nodes/"
        << inputs.graph->graph().edge_count() << " edges live):\n";
    out << components.render() << "\n";
  }

  // --- Platform metrics ----------------------------------------------------------
  // The registry is the platform's single source of truth: every subsystem
  // tally (app.*, overload.*, sms.*, otp.*, mitigate.*, detect.*) lands here.
  if (!app.metrics().empty()) {
    out << app.metrics().snapshot().render_table("Platform metrics") << "\n";
  }

  // --- Enforcement timeline ----------------------------------------------------------
  if (!inputs.actions.empty()) {
    out << "Enforcement actions (" << inputs.actions.size() << "):\n";
    std::size_t shown = 0;
    for (const auto& action : inputs.actions) {
      if (shown++ >= 15) {
        out << "  ... " << inputs.actions.size() - 15 << " more\n";
        break;
      }
      out << "  " << sim::format_time(action.time) << "  " << action.kind << "  "
          << action.detail << "\n";
    }
  }
  out << "============================================================\n";
  return out.str();
}

}  // namespace fraudsim::scenario
