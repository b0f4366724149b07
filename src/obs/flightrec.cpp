#include "obs/flightrec.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "common/float_eq.hpp"
#include "common/types.hpp"
#include "obs/metrics.hpp"

namespace rrf::obs {

namespace {

constexpr std::string_view kPrefix = "flightrec";
/// Buffered bytes before the recorder flushes to its stream.
constexpr std::size_t kFlushBytes = 256 * 1024;

[[noreturn]] void fail(const std::string& message) {
  throw DomainError(std::string(kPrefix) + ": " + message);
}

json::Value vec_to_json(const ResourceVector& v) {
  json::Array out;
  out.reserve(v.size());
  for (std::size_t k = 0; k < v.size(); ++k) out.emplace_back(v[k]);
  return out;
}

std::vector<double> doubles_from_json(const json::Reader& r,
                                      const json::Value& value,
                                      std::string_view what) {
  if (!value.is_array()) r.fail(std::string(what) + " is not an array");
  std::vector<double> out;
  out.reserve(value.as_array().size());
  for (const json::Value& e : value.as_array()) {
    out.push_back(r.number(e, what));
  }
  return out;
}

ResourceVector vec_from_json(const json::Reader& r, const json::Value& value,
                             std::string_view what) {
  const std::vector<double> values = doubles_from_json(r, value, what);
  if (values.empty()) r.fail(std::string(what) + " is an empty array");
  return ResourceVector(std::span<const double>(values));
}

ResourceVector vec_field(const json::Reader& r, std::string_view key) {
  return vec_from_json(r, r.at(key), key);
}

json::Value doubles_to_json(const std::vector<double>& values) {
  json::Array out;
  out.reserve(values.size());
  for (const double v : values) out.emplace_back(v);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

json::Value flight_header_to_json(const FlightHeader& header) {
  json::Object out;
  out.emplace_back("schema", kFlightSchemaName);
  out.emplace_back("version", header.version);
  out.emplace_back("kind", header.kind);
  out.emplace_back("policy", header.policy);
  out.emplace_back("window", header.window);
  out.emplace_back("duration", header.duration);
  out.emplace_back("pricing", vec_to_json(header.pricing));
  json::Array hosts;
  hosts.reserve(header.hosts.size());
  for (const ResourceVector& h : header.hosts) hosts.push_back(vec_to_json(h));
  out.emplace_back("hosts", std::move(hosts));
  json::Array tenants;
  tenants.reserve(header.tenants.size());
  for (const FlightTenant& t : header.tenants) {
    json::Object to;
    to.emplace_back("name", t.name);
    to.emplace_back("metric", t.metric);
    json::Array vms;
    vms.reserve(t.vms.size());
    for (const FlightVm& vm : t.vms) {
      json::Object vo;
      vo.emplace_back("name", vm.name);
      vo.emplace_back("vcpus", vm.vcpus);
      vo.emplace_back("provisioned", vec_to_json(vm.provisioned));
      vo.emplace_back("max_mem_gb", vm.max_mem_gb);
      vo.emplace_back("host", vm.host);
      vms.emplace_back(std::move(vo));
    }
    to.emplace_back("vms", std::move(vms));
    tenants.emplace_back(std::move(to));
  }
  out.emplace_back("tenants", std::move(tenants));
  json::Array unplaced;
  for (const auto& [t, v] : header.unplaced) {
    unplaced.emplace_back(json::Array{json::Value(t), json::Value(v)});
  }
  out.emplace_back("unplaced", std::move(unplaced));
  out.emplace_back("engine", header.engine);
  if (header.build.is_object()) out.emplace_back("build", header.build);
  return out;
}

FlightHeader flight_header_from_json(const json::Value& value) {
  const json::Reader r(value, kPrefix, "header");
  if (r.string("schema") != kFlightSchemaName) {
    fail("not a " + std::string(kFlightSchemaName) + " recording");
  }
  FlightHeader header;
  const double version = r.number("version");
  if (version != static_cast<double>(kFlightSchemaVersion)) {
    fail("unsupported schema version " + json::format_number(version) +
         " (this build reads " + std::to_string(kFlightSchemaVersion) + ")");
  }
  header.version = kFlightSchemaVersion;
  header.kind = r.string("kind");
  if (header.kind != "sim" && header.kind != "alloc") {
    fail("unknown recording kind '" + header.kind + "'");
  }
  header.policy = r.string("policy");
  header.window = r.number("window");
  header.duration = r.number("duration");
  header.pricing = vec_field(r, "pricing");
  for (const json::Value& h : r.array("hosts")) {
    header.hosts.push_back(vec_from_json(r, h, "host capacity"));
  }
  if (header.hosts.empty()) fail("recording has no hosts");
  for (const json::Value& t : r.array("tenants")) {
    const json::Reader tr(t, kPrefix, "tenant entry");
    FlightTenant tenant;
    tenant.name = tr.string("name");
    tenant.metric = tr.string("metric");
    for (const json::Value& vm : tr.array("vms")) {
      const json::Reader vr(vm, kPrefix, "vm entry");
      FlightVm out;
      out.name = vr.string("name");
      out.vcpus = vr.size("vcpus");
      out.provisioned = vec_field(vr, "provisioned");
      out.max_mem_gb = vr.number("max_mem_gb");
      out.host = vr.size("host");
      if (out.host >= header.hosts.size()) fail("vm placed on unknown host");
      tenant.vms.push_back(std::move(out));
    }
    header.tenants.push_back(std::move(tenant));
  }
  if (header.tenants.empty()) fail("recording has no tenants");
  for (const json::Value& u : r.array("unplaced")) {
    if (!u.is_array() || u.as_array().size() != 2) {
      fail("unplaced entry is not a [tenant, vm] pair");
    }
    header.unplaced.emplace_back(r.size(u.as_array()[0], "unplaced tenant"),
                                 r.size(u.as_array()[1], "unplaced vm"));
  }
  header.engine = r.at("engine");
  // Additive: recordings written before the build stamp existed lack it.
  if (r.has("build")) header.build = r.object("build").value();
  return header;
}

json::Value flight_round_to_json(const FlightRound& round) {
  json::Object out;
  out.emplace_back("round", round.round);
  out.emplace_back("time", round.time);
  if (!round.migrations.empty()) {
    json::Array migrations;
    for (const FlightMigration& m : round.migrations) {
      json::Object mo;
      mo.emplace_back("tenant", m.tenant);
      mo.emplace_back("vm", m.vm);
      mo.emplace_back("from", m.from);
      mo.emplace_back("to", m.to);
      mo.emplace_back("cost_gb", m.cost_gb);
      migrations.emplace_back(std::move(mo));
    }
    out.emplace_back("migrations", std::move(migrations));
  }
  if (!round.pressure_before.empty()) {
    out.emplace_back("pressure_before", doubles_to_json(round.pressure_before));
    out.emplace_back("pressure_after", doubles_to_json(round.pressure_after));
  }
  json::Array nodes;
  nodes.reserve(round.nodes.size());
  for (const FlightNode& node : round.nodes) {
    json::Object no;
    no.emplace_back("node", node.node);
    json::Array slots;
    slots.reserve(node.slots.size());
    for (const FlightSlot& s : node.slots) {
      json::Object so;
      so.emplace_back("t", s.tenant);
      so.emplace_back("v", s.vm);
      so.emplace_back("share", vec_to_json(s.share));
      so.emplace_back("demand", vec_to_json(s.demand));
      so.emplace_back("forecast", vec_to_json(s.forecast));
      so.emplace_back("grant", vec_to_json(s.entitlement));
      if (s.credit_weight >= 0.0) {
        so.emplace_back("credit_weight", s.credit_weight);
        so.emplace_back("credit_cap", s.credit_cap);
        so.emplace_back("mem_target", s.mem_target);
      }
      if (!is_exact_zero(s.weight)) so.emplace_back("weight", s.weight);
      if (!is_exact_zero(s.banked)) so.emplace_back("banked", s.banked);
      slots.emplace_back(std::move(so));
    }
    no.emplace_back("slots", std::move(slots));
    const ProvenanceRound& prov = node.prov;
    RRF_REQUIRE(node.tenants.size() >=
                    std::max(prov.irt_lambda.size(), prov.iwa.size()),
                "flightrec: a provenance group has no tenant id");
    if (prov.has_irt) {
      json::Object irt;
      json::Array tenants;
      tenants.reserve(prov.irt_lambda.size());
      for (std::size_t g = 0; g < prov.irt_lambda.size(); ++g) {
        json::Object to;
        to.emplace_back("t", node.tenants[g]);
        to.emplace_back("lambda", prov.irt_lambda[g]);
        to.emplace_back("share", vec_to_json(prov.irt_share[g]));
        to.emplace_back("demand", vec_to_json(prov.irt_demand[g]));
        to.emplace_back("grant", vec_to_json(prov.irt_grant[g]));
        tenants.emplace_back(std::move(to));
      }
      irt.emplace_back("tenants", std::move(tenants));
      json::Array types;
      types.reserve(prov.irt_types.size());
      for (const ProvenanceIrtType& k : prov.irt_types) {
        json::Object ko;
        ko.emplace_back("contributors", k.contributors);
        ko.emplace_back("capped", k.capped);
        ko.emplace_back("redistributed", k.redistributed);
        types.emplace_back(std::move(ko));
      }
      irt.emplace_back("types", std::move(types));
      no.emplace_back("irt", json::Value(std::move(irt)));
    }
    if (!prov.iwa.empty()) {
      json::Array iwa;
      iwa.reserve(prov.iwa.size());
      for (std::size_t g = 0; g < prov.iwa.size(); ++g) {
        const ProvenanceIwa& w = prov.iwa[g];
        json::Object wo;
        wo.emplace_back("t", node.tenants[g]);
        json::Array grants;
        grants.reserve(w.vm_grant.size());
        for (const ResourceVector& g : w.vm_grant) {
          grants.push_back(vec_to_json(g));
        }
        wo.emplace_back("grant", std::move(grants));
        wo.emplace_back("headroom", vec_to_json(w.headroom));
        iwa.emplace_back(std::move(wo));
      }
      no.emplace_back("iwa", std::move(iwa));
    }
    nodes.emplace_back(std::move(no));
  }
  out.emplace_back("nodes", std::move(nodes));
  return out;
}

FlightRound flight_round_from_json(const json::Value& value) {
  const json::Reader r(value, kPrefix, "round");
  FlightRound round;
  round.round = r.size("round");
  round.time = r.number("time");
  if (r.has("migrations")) {
    for (const json::Value& e : r.array("migrations")) {
      const json::Reader mr(e, kPrefix, "migration entry");
      FlightMigration out;
      out.tenant = mr.size("tenant");
      out.vm = mr.size("vm");
      out.from = mr.size("from");
      out.to = mr.size("to");
      out.cost_gb = mr.number("cost_gb");
      round.migrations.push_back(out);
    }
  }
  if (r.has("pressure_before")) {
    round.pressure_before =
        doubles_from_json(r, r.at("pressure_before"), "pressure_before");
    round.pressure_after =
        doubles_from_json(r, r.at("pressure_after"), "pressure_after");
  }
  for (const json::Value& n : r.array("nodes")) {
    const json::Reader nr(n, kPrefix, "node entry");
    FlightNode node;
    node.node = nr.size("node");
    for (const json::Value& s : nr.array("slots")) {
      const json::Reader sr(s, kPrefix, "slot entry");
      FlightSlot slot;
      slot.tenant = sr.size("t");
      slot.vm = sr.size("v");
      slot.share = vec_field(sr, "share");
      slot.demand = vec_field(sr, "demand");
      slot.forecast = vec_field(sr, "forecast");
      slot.entitlement = vec_field(sr, "grant");
      slot.credit_weight = sr.number_or("credit_weight", -1.0);
      slot.credit_cap = sr.number_or("credit_cap", -1.0);
      slot.mem_target = sr.number_or("mem_target", -1.0);
      slot.weight = sr.number_or("weight", 0.0);
      slot.banked = sr.number_or("banked", 0.0);
      node.slots.push_back(std::move(slot));
    }
    ProvenanceRound& prov = node.prov;
    if (nr.has("irt")) {
      const json::Reader irt = nr.object("irt");
      prov.has_irt = true;
      for (const json::Value& t : irt.array("tenants")) {
        const json::Reader tr(t, kPrefix, "IRT tenant entry");
        node.tenants.push_back(tr.size("t"));
        prov.irt_lambda.push_back(tr.number("lambda"));
        prov.irt_share.push_back(vec_field(tr, "share"));
        prov.irt_demand.push_back(vec_field(tr, "demand"));
        prov.irt_grant.push_back(vec_field(tr, "grant"));
      }
      for (const json::Value& k : irt.array("types")) {
        const json::Reader kr(k, kPrefix, "IRT type entry");
        ProvenanceIrtType out;
        out.contributors = kr.size("contributors");
        out.capped = kr.size("capped");
        out.redistributed = kr.number("redistributed");
        prov.irt_types.push_back(out);
      }
    }
    if (nr.has("iwa")) {
      for (const json::Value& w : nr.array("iwa")) {
        const json::Reader wr(w, kPrefix, "IWA entry");
        // IWA entry g distributes group g's grant: its tenant is the IRT
        // entity g's when IRT ran, and new otherwise.
        const std::size_t g = prov.iwa.size();
        const std::size_t tenant = wr.size("t");
        if (g == node.tenants.size()) {
          node.tenants.push_back(tenant);
        } else if (node.tenants[g] != tenant) {
          wr.fail("tenant " + std::to_string(tenant) +
                  " disagrees with IRT group " + std::to_string(g) +
                  "'s tenant " + std::to_string(node.tenants[g]));
        }
        ProvenanceIwa& out = prov.iwa.emplace_back();
        for (const json::Value& grant : wr.array("grant")) {
          out.vm_grant.push_back(vec_from_json(wr, grant, "iwa grant"));
        }
        out.headroom = vec_field(wr, "headroom");
      }
    }
    round.nodes.push_back(std::move(node));
  }
  return round;
}

// ---------------------------------------------------------------------------
// Loading
// ---------------------------------------------------------------------------

FlightRecording FlightRecording::load(std::istream& in) {
  FlightRecording recording;
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
      fail("line " + std::to_string(line_no) + ": " + e.what());
    }
    if (!have_header) {
      recording.header = flight_header_from_json(value);
      have_header = true;
      continue;
    }
    if (recording.trailer.has_value()) {
      fail("line " + std::to_string(line_no) + ": data after the trailer");
    }
    if (value.find("trailer") != nullptr) {
      const json::Reader t = json::Reader(value, kPrefix).object("trailer");
      FlightTrailer trailer;
      trailer.rounds = t.size("rounds");
      trailer.bytes = t.size("bytes");
      recording.trailer = trailer;
      continue;
    }
    recording.rounds.push_back(flight_round_from_json(value));
  }
  if (!have_header) fail("empty recording (no header line)");
  if (recording.trailer.has_value() &&
      recording.trailer->rounds != recording.rounds.size()) {
    fail("trailer claims " + std::to_string(recording.trailer->rounds) +
         " rounds but the stream holds " +
         std::to_string(recording.rounds.size()));
  }
  return recording;
}

FlightRecording FlightRecording::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot open " + path);
  return load(in);
}

// ---------------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------------

FlightRecorder::FlightRecorder(std::ostream& out) : out_(out) {
  buffer_.reserve(kFlushBytes + 4096);
}

FlightRecorder::~FlightRecorder() {
  try {
    finish();
  } catch (...) {
    // Destructors must not throw; a failed final flush surfaces through
    // the stream's state, which callers own.
  }
}

void FlightRecorder::write_header(const FlightHeader& header) {
  RRF_REQUIRE(!header_written_, "flightrec: header written twice");
  const auto start = std::chrono::steady_clock::now();
  buffer_line(flight_header_to_json(header).dump() + "\n");
  header_written_ = true;
  record_seconds_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
}

void FlightRecorder::record_round(const FlightRound& round) {
  RRF_REQUIRE(header_written_, "flightrec: record_round before write_header");
  RRF_REQUIRE(!finished_, "flightrec: record_round after finish");
  const auto start = std::chrono::steady_clock::now();
  buffer_line(flight_round_to_json(round).dump() + "\n");
  ++rounds_recorded_;
  const double dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  record_seconds_ += dt;
  if (metrics_enabled()) {
    static Histogram& record_time = metrics().histogram(
        "flightrec.record_seconds", default_seconds_bounds());
    record_time.observe(dt);
  }
}

void FlightRecorder::finish() {
  if (finished_ || !header_written_) {
    finished_ = true;
    return;
  }
  finished_ = true;
  json::Object trailer;
  trailer.emplace_back("rounds", rounds_recorded_);
  // The byte count covers everything *before* the trailer line, so a
  // reader can cross-check the payload it received.
  trailer.emplace_back("bytes", bytes_written_ + buffer_.size());
  json::Object line;
  line.emplace_back("trailer", std::move(trailer));
  buffer_line(json::Value(std::move(line)).dump() + "\n");
  flush_buffer();
  out_.flush();
  publish_metrics();
}

void FlightRecorder::write_recording(const FlightRecording& recording) {
  write_header(recording.header);
  for (const FlightRound& round : recording.rounds) record_round(round);
  finish();
}

void FlightRecorder::buffer_line(std::string line) {
  buffer_ += line;
  if (buffer_.size() >= kFlushBytes) flush_buffer();
}

void FlightRecorder::flush_buffer() {
  if (buffer_.empty()) return;
  out_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
  bytes_written_ += buffer_.size();
  buffer_.clear();
}

void FlightRecorder::publish_metrics() {
  if (!metrics_enabled()) return;
  metrics().counter("flightrec.bytes_written").add(bytes_written_);
  metrics().counter("flightrec.rounds").add(rounds_recorded_);
  metrics().gauge("flightrec.record_seconds_total").set(record_seconds_);
}

// ---------------------------------------------------------------------------
// Diff
// ---------------------------------------------------------------------------

namespace {

bool near(double a, double b, double epsilon) {
  if (epsilon <= 0.0) return a == b;
  return std::abs(a - b) <= epsilon;
}

struct DiffWalk {
  FlightDiffResult result;
  double epsilon{0.0};

  void note(std::string text) {
    result.identical = false;
    result.notes.push_back(std::move(text));
  }

  void diverge(std::size_t round, std::string what) {
    result.identical = false;
    if (!result.first_divergent_round.has_value()) {
      result.first_divergent_round = round;
      result.first_divergence = std::move(what);
    }
  }

  bool check(std::size_t round, const std::string& where, const char* field_n,
             double a, double b) {
    if (near(a, b, epsilon)) return true;
    diverge(round, where + " " + field_n + ": " + json::format_number(a) +
                       " vs " + json::format_number(b));
    return false;
  }

  bool check_vec(std::size_t round, const std::string& where,
                 const char* field_n, const ResourceVector& a,
                 const ResourceVector& b) {
    if (a.size() != b.size()) {
      diverge(round, where + " " + field_n + ": arity " +
                         std::to_string(a.size()) + " vs " +
                         std::to_string(b.size()));
      return false;
    }
    bool ok = true;
    for (std::size_t k = 0; k < a.size(); ++k) {
      if (near(a[k], b[k], epsilon)) continue;
      diverge(round, where + " " + field_n + "[" + std::to_string(k) +
                         "]: " + json::format_number(a[k]) + " vs " +
                         json::format_number(b[k]));
      ok = false;
    }
    return ok;
  }
};

}  // namespace

FlightDiffResult diff_recordings(const FlightRecording& a,
                                 const FlightRecording& b, double epsilon) {
  DiffWalk walk;
  walk.epsilon = epsilon;

  if (a.header.kind != b.header.kind) {
    walk.note("kind mismatch: " + a.header.kind + " vs " + b.header.kind);
  }
  if (a.header.policy != b.header.policy) {
    walk.note("policy mismatch: " + a.header.policy + " vs " +
              b.header.policy);
  }
  if (a.header.window != b.header.window) {
    walk.note("window mismatch: " + json::format_number(a.header.window) +
              " vs " + json::format_number(b.header.window));
  }
  if (a.rounds.size() != b.rounds.size()) {
    walk.note("round count mismatch: " + std::to_string(a.rounds.size()) +
              " vs " + std::to_string(b.rounds.size()) +
              " (comparing the common prefix)");
  }

  walk.result.tenant_deltas.resize(a.header.tenants.size());
  for (std::size_t t = 0; t < a.header.tenants.size(); ++t) {
    walk.result.tenant_deltas[t].tenant = t;
    walk.result.tenant_deltas[t].name = a.header.tenants[t].name;
  }
  auto delta = [&](std::size_t tenant, double d) {
    if (tenant >= walk.result.tenant_deltas.size()) return;
    FlightTenantDelta& td = walk.result.tenant_deltas[tenant];
    td.total_abs += d;
    td.max_abs = std::max(td.max_abs, d);
  };

  const std::size_t rounds = std::min(a.rounds.size(), b.rounds.size());
  for (std::size_t r = 0; r < rounds; ++r) {
    const FlightRound& ra = a.rounds[r];
    const FlightRound& rb = b.rounds[r];
    ++walk.result.rounds_compared;
    const std::string round_tag = "round " + std::to_string(ra.round);
    if (ra.round != rb.round) {
      walk.diverge(ra.round, round_tag + " index mismatch vs " +
                                 std::to_string(rb.round));
      break;
    }
    if (ra.migrations.size() != rb.migrations.size()) {
      walk.diverge(ra.round,
                   round_tag + " migration count: " +
                       std::to_string(ra.migrations.size()) + " vs " +
                       std::to_string(rb.migrations.size()));
    } else {
      for (std::size_t m = 0; m < ra.migrations.size(); ++m) {
        const FlightMigration& ma = ra.migrations[m];
        const FlightMigration& mb = rb.migrations[m];
        if (ma.tenant != mb.tenant || ma.vm != mb.vm || ma.from != mb.from ||
            ma.to != mb.to || !near(ma.cost_gb, mb.cost_gb, epsilon)) {
          walk.diverge(ra.round,
                       round_tag + " migration #" + std::to_string(m) +
                           " differs");
        }
      }
    }
    if (ra.nodes.size() != rb.nodes.size()) {
      walk.diverge(ra.round, round_tag + " node count: " +
                                 std::to_string(ra.nodes.size()) + " vs " +
                                 std::to_string(rb.nodes.size()));
      continue;
    }
    for (std::size_t ni = 0; ni < ra.nodes.size(); ++ni) {
      const FlightNode& na = ra.nodes[ni];
      const FlightNode& nb = rb.nodes[ni];
      const std::string node_tag =
          round_tag + " node " + std::to_string(na.node);
      if (na.node != nb.node || na.slots.size() != nb.slots.size()) {
        walk.diverge(ra.round, node_tag + " slot layout differs");
        continue;
      }
      for (std::size_t i = 0; i < na.slots.size(); ++i) {
        const FlightSlot& sa = na.slots[i];
        const FlightSlot& sb = nb.slots[i];
        const std::string slot_tag = node_tag + " tenant " +
                                     std::to_string(sa.tenant) + " vm " +
                                     std::to_string(sa.vm);
        if (sa.tenant != sb.tenant || sa.vm != sb.vm) {
          walk.diverge(ra.round, node_tag + " slot #" + std::to_string(i) +
                                     " identity differs");
          continue;
        }
        walk.check_vec(ra.round, slot_tag, "share", sa.share, sb.share);
        walk.check_vec(ra.round, slot_tag, "demand", sa.demand, sb.demand);
        walk.check_vec(ra.round, slot_tag, "forecast", sa.forecast,
                       sb.forecast);
        walk.check_vec(ra.round, slot_tag, "entitlement", sa.entitlement,
                       sb.entitlement);
        walk.check(ra.round, slot_tag, "credit_weight", sa.credit_weight,
                   sb.credit_weight);
        walk.check(ra.round, slot_tag, "credit_cap", sa.credit_cap,
                   sb.credit_cap);
        walk.check(ra.round, slot_tag, "mem_target", sa.mem_target,
                   sb.mem_target);
        const std::size_t arity =
            std::min(sa.entitlement.size(), sb.entitlement.size());
        for (std::size_t k = 0; k < arity; ++k) {
          delta(sa.tenant, std::abs(sa.entitlement[k] - sb.entitlement[k]));
        }
      }
      const ProvenanceRound& pa = na.prov;
      const ProvenanceRound& pb = nb.prov;
      if (pa.has_irt != pb.has_irt ||
          pa.irt_lambda.size() != pb.irt_lambda.size()) {
        walk.diverge(ra.round, node_tag + " IRT section differs");
        continue;
      }
      for (std::size_t g = 0; g < pa.irt_lambda.size(); ++g) {
        const std::string irt_tag =
            node_tag + " IRT tenant " + std::to_string(na.tenants[g]);
        walk.check(ra.round, irt_tag, "lambda", pa.irt_lambda[g],
                   pb.irt_lambda[g]);
        walk.check_vec(ra.round, irt_tag, "grant", pa.irt_grant[g],
                       pb.irt_grant[g]);
      }
      for (std::size_t k = 0;
           k < std::min(pa.irt_types.size(), pb.irt_types.size()); ++k) {
        walk.check(ra.round, node_tag + " IRT type " + std::to_string(k),
                   "redistributed", pa.irt_types[k].redistributed,
                   pb.irt_types[k].redistributed);
      }
    }
  }
  return walk.result;
}

// ---------------------------------------------------------------------------
// Explain
// ---------------------------------------------------------------------------

namespace {

std::string num6(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string vec6(const ResourceVector& v) {
  std::string out = "<";
  for (std::size_t k = 0; k < v.size(); ++k) {
    if (k > 0) out += ", ";
    out += num6(v[k]);
  }
  out += ">";
  return out;
}

std::string signed6(double v) {
  return (v >= 0.0 ? "+" : "") + num6(v);
}

std::string resource_name(std::size_t k) {
  if (k < kDefaultResourceCount) {
    return to_string(static_cast<Resource>(k));
  }
  return "R" + std::to_string(k);
}

}  // namespace

std::string explain_decision(const FlightRecording& recording,
                             const ExplainQuery& query) {
  const FlightHeader& header = recording.header;

  // Resolve the tenant: by name first, then as a numeric index.
  std::size_t tenant = header.tenants.size();
  for (std::size_t t = 0; t < header.tenants.size(); ++t) {
    if (header.tenants[t].name == query.tenant) {
      tenant = t;
      break;
    }
  }
  if (tenant == header.tenants.size()) {
    try {
      const std::size_t parsed = std::stoul(query.tenant);
      if (parsed < header.tenants.size()) tenant = parsed;
    } catch (...) {
      // fall through to the error below
    }
  }
  if (tenant == header.tenants.size()) {
    fail("unknown tenant '" + query.tenant + "'");
  }
  const std::string& tenant_name = header.tenants[tenant].name;

  const FlightRound* round = nullptr;
  for (const FlightRound& r : recording.rounds) {
    if (r.round == query.round) {
      round = &r;
      break;
    }
  }
  if (round == nullptr) {
    fail("round " + std::to_string(query.round) +
         " is not in the recording (" +
         std::to_string(recording.rounds.size()) + " rounds)");
  }

  const bool alloc_kind = header.kind == "alloc";
  std::ostringstream os;
  os << "recording: kind " << header.kind << ", policy " << header.policy
     << ", schema v" << header.version << "\n";
  os << "round " << round->round << " (t=" << num6(round->time)
     << "s), tenant '" << tenant_name << "' (#" << tenant << ")\n";

  for (const FlightMigration& m : round->migrations) {
    if (m.tenant != tenant) continue;
    os << "[migration] vm " << m.vm << " moved node " << m.from << " -> "
       << m.to << " this round (" << num6(m.cost_gb) << " GB copied)\n";
  }

  bool found = false;
  for (const FlightNode& node : round->nodes) {
    if (query.node.has_value() && node.node != *query.node) continue;
    std::vector<const FlightSlot*> slots;
    for (const FlightSlot& s : node.slots) {
      if (s.tenant == tenant) slots.push_back(&s);
    }
    const ProvenanceRound& prov = node.prov;
    const auto group = static_cast<std::size_t>(
        std::find(node.tenants.begin(), node.tenants.end(), tenant) -
        node.tenants.begin());
    const bool irt = group < prov.irt_lambda.size();
    const ProvenanceIwa* iwa =
        group < prov.iwa.size() ? &prov.iwa[group] : nullptr;
    if (slots.empty() && !irt) continue;
    found = true;

    os << "\nnode " << node.node << ":\n";

    // ---- demand -> prediction ----
    os << "  [input · demand -> forecast]\n";
    for (const FlightSlot* s : slots) {
      os << "    vm " << s->vm << ": demand " << vec6(s->demand)
         << (alloc_kind ? " shares" : " (capacity units)")
         << " -> allocator saw " << vec6(s->forecast)
         << " shares; initial share " << vec6(s->share) << "\n";
    }

    // ---- IRT (Algorithm 1) ----
    if (irt) {
      const ResourceVector& share = prov.irt_share[group];
      const ResourceVector& demand = prov.irt_demand[group];
      const ResourceVector& grant = prov.irt_grant[group];
      const double lambda = prov.irt_lambda[group];
      double lambda_total = 0.0;
      for (const double l : prov.irt_lambda) lambda_total += l;
      os << "  [IRT Alg.1 l.1-8 · contribution accounting]\n";
      ResourceVector contribution(share.size());
      for (std::size_t k = 0; k < share.size(); ++k) {
        contribution[k] = std::max(0.0, share[k] - demand[k]);
      }
      os << "    tenant-level share S = " << vec6(share) << ", demand D = "
         << vec6(demand) << "\n";
      os << "    contribution C = max(0, S-D) = " << vec6(contribution)
         << "; Lambda = " << num6(lambda);
      if (lambda_total > 0.0) {
        os << " (" << num6(100.0 * lambda / lambda_total)
           << "% of node total " << num6(lambda_total) << ")";
      }
      os << "\n";
      os << "  [IRT Alg.1 l.9-15 · ordering + boundary search]\n";
      for (std::size_t k = 0; k < prov.irt_types.size(); ++k) {
        const ProvenanceIrtType& type = prov.irt_types[k];
        os << "    " << resource_name(k) << ": " << type.contributors
           << " contributor(s), boundary capped " << type.capped
           << " entity(ies) at demand, psi redistributed = "
           << num6(type.redistributed) << " shares\n";
      }
      os << "  [IRT Alg.1 l.16-20 · grant]\n";
      for (std::size_t k = 0; k < grant.size(); ++k) {
        const double gain = grant[k] - share[k];
        os << "    " << resource_name(k) << ": grant " << num6(grant[k])
           << " (" << signed6(gain) << " vs share";
        const double psi =
            k < prov.irt_types.size() ? prov.irt_types[k].redistributed : 0.0;
        if (gain > 0.0 && psi > 0.0) {
          os << "; " << num6(100.0 * gain / psi) << "% of the " << num6(psi)
             << " redistributed, in proportion to Lambda " << num6(lambda);
        }
        os << ")\n";
      }
    } else if (!slots.empty()) {
      os << "  [inter-tenant] policy '" << header.policy
         << "' ran no IRT trading stage\n";
    }

    // ---- IWA (Algorithm 2) ----
    if (iwa != nullptr) {
      os << "  [IWA Alg.2 · intra-tenant flows]\n";
      for (std::size_t j = 0; j < iwa->vm_grant.size(); ++j) {
        os << "    vm slot " << j << ": grant " << vec6(iwa->vm_grant[j]);
        if (j < slots.size()) {
          ResourceVector d = iwa->vm_grant[j];
          d -= slots[j]->share;
          os << " (delta " << vec6(d) << " vs initial share)";
        }
        os << "\n";
      }
      os << "    headroom returned to the tenant: " << vec6(iwa->headroom)
         << "\n";
    }

    // ---- final entitlement + actuators ----
    if (!slots.empty()) {
      os << "  [final entitlement]\n";
      for (std::size_t j = 0; j < slots.size(); ++j) {
        const FlightSlot* s = slots[j];
        os << "    vm " << s->vm << ": " << vec6(s->entitlement) << " shares";
        if (iwa != nullptr && j < iwa->vm_grant.size()) {
          ResourceVector d = s->entitlement;
          d -= iwa->vm_grant[j];
          os << " (work-conserving surplus " << vec6(d) << ")";
        }
        os << "\n";
      }
      bool any_actuator = false;
      for (const FlightSlot* s : slots) {
        if (s->credit_weight >= 0.0) any_actuator = true;
      }
      if (any_actuator) {
        os << "  [actuate]\n";
        for (const FlightSlot* s : slots) {
          if (s->credit_weight < 0.0) continue;
          os << "    vm " << s->vm << ": credit weight "
             << num6(s->credit_weight) << ", cap " << num6(s->credit_cap)
             << " GHz, memory target " << num6(s->mem_target) << " GB\n";
        }
      }
    }
  }

  if (!found) {
    fail("tenant '" + tenant_name + "' has no slots in round " +
         std::to_string(query.round) +
         (query.node ? " on node " + std::to_string(*query.node)
                     : std::string()));
  }
  return os.str();
}

}  // namespace rrf::obs
