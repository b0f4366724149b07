#include "obs/topview.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"

namespace rrf::obs::top {

std::size_t parse_head(const std::string& raw, Response* out) {
  const std::size_t end = raw.find("\r\n\r\n");
  if (end == std::string::npos) return std::string::npos;
  std::istringstream head(raw.substr(0, end));
  std::string http;
  head >> http >> out->status;
  std::string line;
  std::getline(head, line);  // rest of the status line
  while (std::getline(head, line)) {
    for (char& c : line) c = static_cast<char>(std::tolower(c));
    if (line.rfind("transfer-encoding:", 0) == 0 &&
        line.find("chunked") != std::string::npos) {
      out->chunked = true;
    }
  }
  return end + 4;
}

bool dechunk(std::string* raw, std::string* body) {
  for (;;) {
    const std::size_t eol = raw->find("\r\n");
    if (eol == std::string::npos) return false;
    const std::size_t size =
        static_cast<std::size_t>(std::strtoul(raw->c_str(), nullptr, 16));
    if (raw->size() < eol + 2 + size + 2) return false;  // partial chunk
    if (size == 0) {
      raw->clear();
      return true;
    }
    body->append(*raw, eol + 2, size);
    raw->erase(0, eol + 2 + size + 2);
  }
}

namespace {

/// A non-negative integral member of `object`, or nullopt when it is
/// absent or malformed (negative, fractional, mistyped): rrf_top shows
/// only counts it can vouch for.
std::optional<std::size_t> count_field(const json::Value& object,
                                       std::string_view key) {
  try {
    const json::Reader r(object, "rrf_top");
    if (r.has(key)) return r.size(key);
  } catch (const DomainError&) {
  }
  return std::nullopt;
}

}  // namespace

void Feed::push_line(const std::string& line) {
  json::Value value;
  try {
    value = json::Value::parse(line);
  } catch (...) {
    return;  // tolerate foreign lines
  }
  const json::Value* tag = value.find("t");
  if (tag == nullptr || !tag->is_string()) return;
  if (tag->as_string() == "gap") {
    const std::optional<std::size_t> dropped = count_field(value, "dropped");
    MutexLock lock(mu);
    if (dropped.has_value()) gap_dropped += *dropped;
    return;
  }
  if (tag->as_string() != "round") return;
  RoundSummary summary;
  try {
    summary = round_summary_from_json(value);
  } catch (...) {
    return;
  }
  MutexLock lock(mu);
  history.push_back(std::move(summary));
  while (history.size() > window_limit) history.pop_front();
  ++rounds_seen;
  arrivals.push_back(std::chrono::steady_clock::now());
  while (arrivals.size() > 32) arrivals.pop_front();
}

std::string bar(double fill, std::size_t width) {
  const double clamped = std::clamp(fill, 0.0, 1.0);
  const auto full = static_cast<std::size_t>(
      std::lround(clamped * static_cast<double>(width)));
  std::string out;
  for (std::size_t i = 0; i < width; ++i) out += i < full ? "█" : "░";
  return out;
}

std::string sparkline(const std::vector<double>& values, double lo,
                      double hi) {
  static const char* kBlocks[] = {"▁", "▂", "▃", "▄", "▅", "▆", "▇", "█"};
  std::string out;
  for (const double v : values) {
    const double t = hi > lo ? std::clamp((v - lo) / (hi - lo), 0.0, 1.0)
                             : 0.0;
    out += kBlocks[static_cast<std::size_t>(std::lround(t * 7.0))];
  }
  return out;
}

std::string format_num(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.*f", precision, value);
  return buffer;
}

std::string render_incidents(const std::string& body) {
  json::Value doc;
  try {
    doc = json::Value::parse(body);
  } catch (...) {
    return {};
  }
  const json::Value* incidents = doc.find("incidents");
  if (incidents == nullptr || !incidents->is_array() ||
      incidents->as_array().empty()) {
    return {};
  }
  const auto count_text = [&doc](std::string_view key) {
    const std::optional<std::size_t> count = count_field(doc, key);
    return count.has_value() ? std::to_string(*count) : std::string("?");
  };
  std::string out = "incidents: " + count_text("open") + " open, " +
                    count_text("total") + " total";
  // Open incidents first, newest first within each group.
  std::vector<const json::Value*> order;
  order.reserve(incidents->as_array().size());
  for (const json::Value& entry : incidents->as_array()) {
    order.push_back(&entry);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const json::Value* a, const json::Value* b) {
                     const json::Value* sa = a->find("state");
                     const json::Value* sb = b->find("state");
                     const bool oa = sa != nullptr && sa->is_string() &&
                                     sa->as_string() == "open";
                     const bool ob = sb != nullptr && sb->is_string() &&
                                     sb->as_string() == "open";
                     return oa && !ob;
                   });
  std::size_t shown = 0;
  for (const json::Value* entry : order) {
    if (shown++ == 4) {
      out += "\n  …";
      break;
    }
    const json::Value* id = entry->find("id");
    const json::Value* state = entry->find("state");
    const json::Value* severity = entry->find("severity");
    const json::Value* kinds = entry->find("kinds");
    const json::Value* tenants = entry->find("tenants");
    out += "\n  ";
    const bool is_open = state != nullptr && state->is_string() &&
                         state->as_string() == "open";
    out += is_open ? "🔥 " : "✔ ";
    out += id != nullptr && id->is_string() ? id->as_string() : "?";
    if (severity != nullptr && severity->is_string()) {
      out += " [" + severity->as_string() + "]";
    }
    if (const auto window = count_field(*entry, "opened_window")) {
      out += " w" + std::to_string(*window);
    }
    if (kinds != nullptr && kinds->is_array() && !kinds->as_array().empty()) {
      out += " ";
      for (std::size_t i = 0; i < kinds->as_array().size(); ++i) {
        const json::Value& k = kinds->as_array()[i];
        if (i > 0) out += "+";
        out += k.is_string() ? k.as_string() : "?";
      }
    }
    if (tenants != nullptr && tenants->is_array() &&
        !tenants->as_array().empty()) {
      out += " tenants=";
      for (std::size_t i = 0;
           i < std::min<std::size_t>(3, tenants->as_array().size()); ++i) {
        const json::Value& t = tenants->as_array()[i];
        if (i > 0) out += ",";
        out += t.is_string() ? t.as_string() : "?";
      }
      if (tenants->as_array().size() > 3) out += ",…";
    }
  }
  return out;
}

std::string render_profile(const std::string& body, std::size_t top_n) {
  std::vector<std::pair<std::string, double>> sites;
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const double self_us = std::strtod(line.c_str() + space + 1, nullptr);
    std::string path = line.substr(0, space);
    const std::size_t leaf = path.rfind(';');
    if (leaf != std::string::npos) path.erase(0, leaf + 1);
    sites.emplace_back(std::move(path), self_us);
  }
  if (sites.empty()) return {};
  std::partial_sort(sites.begin(),
                    sites.begin() +
                        static_cast<std::ptrdiff_t>(
                            std::min(top_n, sites.size())),
                    sites.end(), [](const auto& a, const auto& b) {
                      return a.second > b.second;
                    });
  std::string out = "top self-time:";
  for (std::size_t i = 0; i < std::min(top_n, sites.size()); ++i) {
    out += " " + sites[i].first + " " +
           format_num(sites[i].second / 1000.0, 1) + "ms";
    if (i + 1 < std::min(top_n, sites.size())) out += ",";
  }
  return out;
}

std::string render_frame(Feed& feed, const std::string& endpoint,
                         const std::string& profile_body,
                         const std::string& incidents_body) {
  MutexLock lock(feed.mu);
  std::ostringstream out;
  out << "rrf_top — " << endpoint;
  if (feed.history.empty()) {
    out << "\n(no rounds received yet)\n";
    return out.str();
  }
  const RoundSummary& latest = feed.history.back();
  out << "  window " << latest.window << "  t=" << format_num(latest.time, 0)
      << "s  jain " << format_num(latest.jain, 3);

  // Allocation throughput: round arrival rate × slots per round.
  if (feed.arrivals.size() >= 2) {
    const double span =
        std::chrono::duration<double>(feed.arrivals.back() -
                                      feed.arrivals.front())
            .count();
    if (span > 0.0) {
      const double rounds_per_s =
          static_cast<double>(feed.arrivals.size() - 1) / span;
      out << "  allocs/s "
          << format_num(rounds_per_s * static_cast<double>(latest.slots), 0);
    }
  }
  out << "  rounds " << feed.rounds_seen;
  if (feed.gap_dropped > 0) out << " (" << feed.gap_dropped << " dropped)";
  out << "\n\n";

  // Per-tenant share bars.  Bars are normalized to the largest ratio so
  // an over-entitled tenant still fits the row.
  double max_ratio = 1.0;
  for (const TenantRoundStat& t : latest.tenants) {
    max_ratio = std::max({max_ratio, t.share, t.demand});
  }
  std::size_t name_width = 6;
  for (const TenantRoundStat& t : latest.tenants) {
    name_width = std::max(name_width, t.name.size());
  }
  out << "tenant shares (S'/S, ▏=1.0):\n";
  for (const TenantRoundStat& t : latest.tenants) {
    out << "  " << t.name << std::string(name_width - t.name.size(), ' ')
        << " [" << bar(t.share / max_ratio, 24) << "] "
        << format_num(t.share, 2) << "  demand " << format_num(t.demand, 2)
        << "  gave " << format_num(t.contributed, 1) << "  took "
        << format_num(t.gained, 1) << "\n";
  }
  out << "\n";

  // Sparklines over the retained history.
  std::vector<double> jain_series;
  std::vector<double> drift_series;
  jain_series.reserve(feed.history.size());
  for (const RoundSummary& round : feed.history) {
    jain_series.push_back(round.jain);
    double drift = 0.0;
    for (const TenantRoundStat& t : round.tenants) {
      drift = std::max(drift, std::abs(t.share - 1.0));
    }
    drift_series.push_back(drift);
  }
  const auto [jain_lo, jain_hi] =
      std::minmax_element(jain_series.begin(), jain_series.end());
  const auto drift_hi =
      std::max_element(drift_series.begin(), drift_series.end());
  out << "jain  " << sparkline(jain_series, *jain_lo, *jain_hi) << "  ["
      << format_num(*jain_lo, 3) << ", " << format_num(*jain_hi, 3) << "]\n";
  out << "drift " << sparkline(drift_series, 0.0, *drift_hi) << "  [max "
      << format_num(*drift_hi, 3) << "]\n\n";

  const std::string incidents = render_incidents(incidents_body);
  if (!incidents.empty()) out << incidents << "\n";
  const std::string profile = render_profile(profile_body, 5);
  if (!profile.empty()) out << profile << "\n";
  return out.str();
}

}  // namespace rrf::obs::top
