#include "obs/journal.hpp"

#include <cstdio>
#include <iterator>
#include <utility>

#include "common/build_info.hpp"
#include "common/error.hpp"

namespace rrf::obs {

namespace {

constexpr std::string_view kPrefix = "journal";

[[noreturn]] void fail(const std::string& message) {
  throw DomainError(std::string(kPrefix) + ": " + message);
}

std::vector<std::string> strings_from_json(const json::Reader& r,
                                           std::string_view key,
                                           std::string_view what) {
  std::vector<std::string> out;
  for (const json::Value& v : r.array(key)) out.push_back(r.string(v, what));
  return out;
}

std::string rotated_path(const std::string& path) { return path + ".1"; }

}  // namespace

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

json::Value journal_header_to_json(const JournalHeader& header) {
  json::Object out;
  out.emplace_back("schema", kJournalSchemaName);
  out.emplace_back("version", header.version);
  out.emplace_back("kind", header.kind);
  out.emplace_back("policy", header.policy);
  json::Array tenants;
  tenants.reserve(header.tenants.size());
  for (const std::string& t : header.tenants) tenants.emplace_back(t);
  out.emplace_back("tenants", std::move(tenants));
  out.emplace_back("segment", header.segment);
  out.emplace_back("continued", header.continued);
  if (header.build.is_object()) out.emplace_back("build", header.build);
  return out;
}

JournalHeader journal_header_from_json(const json::Value& value) {
  const json::Reader r(value, kPrefix, "header");
  if (r.string("schema") != kJournalSchemaName) {
    fail("not a telemetry journal (schema tag '" + r.string("schema") + "')");
  }
  JournalHeader header;
  const std::int64_t version = r.int64("version");
  if (version != kJournalSchemaVersion) {
    fail("unsupported version " + std::to_string(version) +
         " (this build reads version " +
         std::to_string(kJournalSchemaVersion) + ")");
  }
  header.version = kJournalSchemaVersion;
  header.kind = r.string("kind");
  header.policy = r.string("policy");
  header.tenants = strings_from_json(r, "tenants", "tenant name");
  header.segment = r.size("segment");
  header.continued = r.boolean("continued");
  // Additive: journals written before the build stamp existed lack it.
  if (r.has("build")) header.build = r.object("build").value();
  return header;
}

json::Value journal_incident_to_json(const JournalIncident& incident) {
  json::Object out;
  out.emplace_back("t", "incident");
  out.emplace_back("state", incident.opened ? "opened" : "resolved");
  out.emplace_back("id", incident.id);
  out.emplace_back("window", incident.window);
  out.emplace_back("severity", incident.severity);
  json::Array kinds;
  kinds.reserve(incident.kinds.size());
  for (const std::string& k : incident.kinds) kinds.emplace_back(k);
  out.emplace_back("kinds", std::move(kinds));
  out.emplace_back("dir", incident.dir);
  return out;
}

JournalIncident journal_incident_from_json(const json::Value& value) {
  const json::Reader r(value, kPrefix, "incident record");
  if (r.string("t") != "incident") fail("record tag is not 'incident'");
  JournalIncident incident;
  const std::string& state = r.string("state");
  if (state != "opened" && state != "resolved") {
    fail("incident state '" + state + "' is neither 'opened' nor 'resolved'");
  }
  incident.opened = state == "opened";
  incident.id = r.string("id");
  incident.window = r.size("window");
  incident.severity = r.string("severity");
  incident.kinds = strings_from_json(r, "kinds", "incident kind");
  incident.dir = r.string("dir");
  return incident;
}

// ---------------------------------------------------------------------------
// Loading
// ---------------------------------------------------------------------------

namespace {

struct Segment {
  JournalHeader header;
  std::vector<RoundSummary> rounds;
  std::vector<JournalIncident> incidents;
  std::optional<JournalEnd> end;
  bool truncated_tail{false};
};

/// Parses one segment file.  A final line that fails to parse as JSON is
/// the expected kill signature and sets truncated_tail; everything else
/// throws.
Segment load_segment(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot open " + path);
  Segment seg;
  std::string line;
  bool have_header = false;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    json::Value value;
    try {
      value = json::Value::parse(line);
    } catch (const DomainError& e) {
      if (in.peek() == std::char_traits<char>::eof()) {
        seg.truncated_tail = true;
        break;
      }
      fail(path + " line " + std::to_string(line_no) + ": " + e.what());
    }
    try {
      if (!have_header) {
        seg.header = journal_header_from_json(value);
        have_header = true;
        continue;
      }
      if (seg.end.has_value()) {
        fail("record after the end record");
      }
      const json::Reader r(value, kPrefix);
      const std::string& tag = r.string("t");
      if (tag == "round") {
        seg.rounds.push_back(round_summary_from_json(value));
      } else if (tag == "incident") {
        seg.incidents.push_back(journal_incident_from_json(value));
      } else if (tag == "end") {
        JournalEnd end;
        end.rounds = r.size("rounds");
        end.incidents = r.size("incidents");
        seg.end = end;
      } else {
        fail("unknown record tag '" + tag + "'");
      }
    } catch (const DomainError& e) {
      fail(path + " line " + std::to_string(line_no) + ": " + e.what());
    }
  }
  if (!have_header) fail(path + ": empty journal (no header line)");
  return seg;
}

}  // namespace

JournalData JournalData::load_file(const std::string& path) {
  {
    // SIGKILL can land inside the rotation window — after the active
    // segment was renamed to `<path>.1` but before the next one opened.
    // Only the rotated file exists then; it holds the whole surviving
    // history and is the forensic trail, not an error.
    std::ifstream active_probe(path);
    if (!active_probe) {
      std::ifstream rotated_probe(rotated_path(path));
      if (rotated_probe) {
        rotated_probe.close();
        Segment only = load_segment(rotated_path(path));
        JournalData data;
        data.header = only.header;
        data.rounds = std::move(only.rounds);
        data.incidents = std::move(only.incidents);
        data.end = only.end;
        data.truncated_tail = only.truncated_tail;
        data.notes.push_back(path +
                             " is missing but its rotated segment exists — "
                             "the run was killed mid-rotation");
        return data;
      }
    }
  }
  Segment active = load_segment(path);
  JournalData data;
  data.header = active.header;
  data.end = active.end;
  data.truncated_tail = active.truncated_tail;

  if (active.header.continued && active.header.segment > 0) {
    const std::string prev_path = rotated_path(path);
    std::ifstream probe(prev_path);
    if (!probe) {
      data.notes.push_back("rotated segment " + prev_path +
                           " is missing; older records were lost");
    } else {
      probe.close();
      try {
        Segment prev = load_segment(prev_path);
        if (prev.header.segment + 1 != active.header.segment ||
            prev.header.kind != active.header.kind ||
            prev.header.policy != active.header.policy) {
          data.notes.push_back("ignoring " + prev_path +
                               ": its header does not chain to the active "
                               "segment");
        } else {
          data.header = prev.header;
          data.rounds = std::move(prev.rounds);
          data.incidents = std::move(prev.incidents);
          if (prev.truncated_tail) {
            data.notes.push_back(prev_path +
                                 ": rotated segment has a truncated final "
                                 "line");
          }
        }
      } catch (const DomainError& e) {
        data.notes.push_back("ignoring " + prev_path + ": " + e.what());
      }
    }
  }

  data.rounds.insert(data.rounds.end(),
                     std::make_move_iterator(active.rounds.begin()),
                     std::make_move_iterator(active.rounds.end()));
  data.incidents.insert(data.incidents.end(),
                        std::make_move_iterator(active.incidents.begin()),
                        std::make_move_iterator(active.incidents.end()));
  return data;
}

// ---------------------------------------------------------------------------
// TelemetryJournal
// ---------------------------------------------------------------------------

TelemetryJournal::TelemetryJournal(Options options)
    : options_(std::move(options)) {
  if (options_.path.empty()) fail("journal path is empty");
  // A `.1` segment left behind by a previous run must not merge into
  // this run's history.
  std::remove(rotated_path(options_.path).c_str());
  MutexLock lock(mu_);
  open_segment();
}

TelemetryJournal::~TelemetryJournal() {
  try {
    finish();
  } catch (...) {
    // Destructors must not throw; a failed final flush surfaces through
    // the stream's state, which callers own.
  }
}

void TelemetryJournal::open_segment() {
  out_.open(options_.path, std::ios::trunc);
  if (!out_) fail("cannot open " + options_.path);
  segment_bytes_ = 0;
  JournalHeader header;
  header.kind = options_.kind;
  header.policy = options_.policy;
  header.tenants = options_.tenants;
  header.segment = segment_;
  header.continued = segment_ > 0;
  header.build = common::build_info_json();
  write_line(journal_header_to_json(header).dump());
}

void TelemetryJournal::write_line(const std::string& line) {
  out_ << line << '\n';
  out_.flush();  // durability beats throughput: lose at most one line
  segment_bytes_ += line.size() + 1;
  bytes_written_ += line.size() + 1;
}

void TelemetryJournal::maybe_rotate() {
  if (options_.max_bytes == 0) return;
  if (segment_bytes_ <= options_.max_bytes / 2) return;
  out_.close();
  // rename() is atomic on POSIX: a crash mid-rotation leaves either the
  // old layout or the new one, never a half file.
  std::rename(options_.path.c_str(), rotated_path(options_.path).c_str());
  ++segment_;
  open_segment();
}

void TelemetryJournal::record_round(const std::string& line) {
  MutexLock lock(mu_);
  if (finished_) fail("record_round after finish");
  maybe_rotate();
  write_line(line);
  ++rounds_;
}

void TelemetryJournal::record_incident(const JournalIncident& incident) {
  MutexLock lock(mu_);
  if (finished_) fail("record_incident after finish");
  maybe_rotate();
  write_line(journal_incident_to_json(incident).dump());
  ++incidents_;
}

void TelemetryJournal::finish() {
  MutexLock lock(mu_);
  finish_locked();
}

void TelemetryJournal::finish_locked() {
  if (finished_) return;
  finished_ = true;
  json::Object end;
  end.emplace_back("t", "end");
  end.emplace_back("rounds", rounds_);
  end.emplace_back("incidents", incidents_);
  write_line(json::Value(std::move(end)).dump());
  out_.close();
}

std::size_t TelemetryJournal::rounds_recorded() const {
  MutexLock lock(mu_);
  return rounds_;
}

std::size_t TelemetryJournal::incidents_recorded() const {
  MutexLock lock(mu_);
  return incidents_;
}

std::size_t TelemetryJournal::segment() const {
  MutexLock lock(mu_);
  return segment_;
}

std::uint64_t TelemetryJournal::bytes_written() const {
  MutexLock lock(mu_);
  return bytes_written_;
}

}  // namespace rrf::obs
