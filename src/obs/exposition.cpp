#include "obs/exposition.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <ostream>
#include <sstream>

#include "common/build_info.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/incident.hpp"
#include "obs/ops.hpp"
#include "obs/profiler.hpp"

namespace rrf::obs {

namespace {

bool valid_name_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}

std::string mangle_base(std::string_view raw) {
  std::string out;
  out.reserve(raw.size() + 4);
  if (raw.rfind("rrf_", 0) != 0 && raw.rfind("rrf.", 0) != 0) out = "rrf_";
  for (const char c : raw) {
    out += valid_name_char(c) ? c : '_';
  }
  return out;
}

/// Characters that would confuse the `{k=v,...}` registry-key framing;
/// labeled() escapes them, prometheus_name() unescapes.
bool structural_label_char(char c) {
  return c == '\\' || c == ',' || c == '=' || c == '{' || c == '}';
}

/// Escapes per the Prometheus exposition-format spec: backslash, double
/// quote and newline inside a quoted label value.
void write_label_value(std::ostream& os, const std::string& v) {
  os << '"';
  for (const char c : v) {
    if (c == '\\' || c == '"') {
      os << '\\' << c;
    } else if (c == '\n') {
      os << "\\n";
    } else {
      os << c;
    }
  }
  os << '"';
}

void write_labels(
    std::ostream& os,
    const std::vector<std::pair<std::string, std::string>>& labels,
    const char* extra_key = nullptr, const std::string& extra_value = {}) {
  if (labels.empty() && extra_key == nullptr) return;
  os << '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) os << ',';
    first = false;
    os << k << '=';
    write_label_value(os, v);
  }
  if (extra_key != nullptr) {
    if (!first) os << ',';
    os << extra_key << '=';
    write_label_value(os, extra_value);
  }
  os << '}';
}

/// Emits the `# TYPE` header once per metric family (families arrive
/// contiguously because the registry map is name-ordered).
void maybe_type_line(std::ostream& os, std::string& last_base,
                     const std::string& base, const char* type) {
  if (base == last_base) return;
  os << "# TYPE " << base << ' ' << type << '\n';
  last_base = base;
}

/// Sample values and le/quantile labels: the JSON codec's number form,
/// with non-finite values spelled as the exposition format requires.
std::string format_sample(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0.0 ? "+Inf" : "-Inf";
  return json::format_number(v);
}

// ---------------------------------------------------------------------------
// HTTP plumbing
// ---------------------------------------------------------------------------

/// send(2) until the buffer is drained: a large /metrics body routinely
/// exceeds one socket buffer, and send may accept a prefix.
bool send_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t sent = ::send(fd, data.data() + off, data.size() - off,
                                MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (sent == 0) return false;
    off += static_cast<std::size_t>(sent);
  }
  return true;
}

std::string simple_response(int status, const char* status_text,
                            std::string_view content_type,
                            std::string_view body) {
  std::ostringstream out;
  out << "HTTP/1.1 " << status << ' ' << status_text << "\r\n"
      << "Content-Type: " << content_type << "\r\n"
      << "Content-Length: " << body.size() << "\r\n"
      << "Connection: close\r\n\r\n"
      << body;
  return out.str();
}

/// One chunk of a chunked-transfer body.
std::string chunk(std::string_view data) {
  std::ostringstream out;
  out << std::hex << data.size() << "\r\n" << data << "\r\n";
  return out.str();
}

/// True once the peer closed its end (streaming subscribers going away).
bool peer_closed(int fd) {
  char probe = 0;
  const ssize_t r = ::recv(fd, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
  if (r == 0) return true;
  return r < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR;
}

struct Request {
  /// 0 = parsed fine; else the HTTP status to answer (400/408), with -1
  /// meaning "peer closed before sending anything, just hang up".
  int error = 0;
  std::string method;
  std::string target;
};

/// Reads until the end of the request head or `timeout_ms`, polling in
/// short slices so server shutdown never waits out a slow client.
Request read_request(int fd, int timeout_ms,
                     const std::atomic<bool>& stop_requested) {
  constexpr std::size_t kMaxHead = 8192;
  Request req;
  std::string data;
  int waited_ms = 0;
  while (data.find("\r\n\r\n") == std::string::npos &&
         data.find('\n') == std::string::npos) {
    if (stop_requested.load(std::memory_order_acquire)) {
      req.error = -1;
      return req;
    }
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready < 0 && errno != EINTR) {
      req.error = -1;
      return req;
    }
    if (ready <= 0) {
      waited_ms += 100;
      if (waited_ms >= timeout_ms) {
        req.error = 408;  // the client was too slow to ask
        return req;
      }
      continue;
    }
    char buf[2048];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      req.error = -1;
      return req;
    }
    if (n == 0) {  // EOF before a complete request line
      req.error = data.empty() ? -1 : 400;
      return req;
    }
    data.append(buf, static_cast<std::size_t>(n));
    if (data.size() > kMaxHead) {
      req.error = 400;
      return req;
    }
  }
  std::istringstream line(data);
  std::string version;
  line >> req.method >> req.target >> version;
  if (req.method.empty() || req.target.empty() || req.target[0] != '/' ||
      version.rfind("HTTP/", 0) != 0) {
    req.error = 400;
  }
  return req;
}

/// Value of `key` in the target's query string, if present.
std::optional<std::string> query_param(const std::string& target,
                                       std::string_view key) {
  const std::size_t qmark = target.find('?');
  if (qmark == std::string::npos) return std::nullopt;
  std::string_view query = std::string_view(target).substr(qmark + 1);
  while (!query.empty()) {
    const std::size_t amp = query.find('&');
    const std::string_view pair = query.substr(0, amp);
    const std::size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      return std::string(pair.substr(eq + 1));
    }
    if (amp == std::string_view::npos) break;
    query.remove_prefix(amp + 1);
  }
  return std::nullopt;
}

/// The route part of a target ("/rounds?n=5" → "/rounds").
std::string_view route_of(const std::string& target) {
  const std::size_t qmark = target.find('?');
  return std::string_view(target).substr(0, qmark);
}

}  // namespace

std::string labeled(
    std::string_view name,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels) {
  std::string out(name);
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += '=';
    for (const char c : v) {
      if (structural_label_char(c)) out += '\\';
      out += c;
    }
  }
  out += '}';
  return out;
}

PrometheusName prometheus_name(const std::string& registry_name) {
  PrometheusName out;
  const std::size_t brace = registry_name.find('{');
  out.base = mangle_base(std::string_view(registry_name).substr(0, brace));
  if (brace == std::string::npos) return out;
  std::string_view rest = std::string_view(registry_name).substr(brace + 1);
  if (!rest.empty() && rest.back() == '}') rest.remove_suffix(1);
  std::string key;
  std::string value;
  bool in_value = false;
  const auto flush_pair = [&] {
    if (in_value) {
      std::string mangled = mangle_base(key);
      // Label keys need no "rrf_" prefix — undo the base mangling's one.
      if (mangled.rfind("rrf_", 0) == 0) mangled.erase(0, 4);
      out.labels.emplace_back(std::move(mangled), std::move(value));
    }
    key.clear();
    value.clear();
    in_value = false;
  };
  for (std::size_t i = 0; i < rest.size(); ++i) {
    const char c = rest[i];
    if (c == '\\' && i + 1 < rest.size()) {  // labeled()'s escape
      (in_value ? value : key) += rest[++i];
    } else if (c == ',') {
      flush_pair();
    } else if (c == '=' && !in_value) {
      in_value = true;
    } else {
      (in_value ? value : key) += c;
    }
  }
  flush_pair();
  return out;
}

void write_prometheus(std::ostream& os, const MetricsSnapshot& snapshot) {
  std::string last_base;
  for (const auto& [name, value] : snapshot.counters) {
    const PrometheusName pn = prometheus_name(name);
    maybe_type_line(os, last_base, pn.base, "counter");
    os << pn.base;
    write_labels(os, pn.labels);
    os << ' ' << value << '\n';
  }
  last_base.clear();
  for (const auto& [name, value] : snapshot.gauges) {
    const PrometheusName pn = prometheus_name(name);
    maybe_type_line(os, last_base, pn.base, "gauge");
    os << pn.base;
    write_labels(os, pn.labels);
    os << ' ' << format_sample(value) << '\n';
  }
  last_base.clear();
  for (const auto& [name, h] : snapshot.histograms) {
    const PrometheusName pn = prometheus_name(name);
    maybe_type_line(os, last_base, pn.base, "histogram");
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      cumulative += h.buckets[i];
      os << pn.base << "_bucket";
      write_labels(os, pn.labels, "le",
                   i < h.bounds.size() ? format_sample(h.bounds[i]) : "+Inf");
      os << ' ' << cumulative << '\n';
    }
    os << pn.base << "_sum";
    write_labels(os, pn.labels);
    os << ' ' << format_sample(h.sum) << '\n';
    os << pn.base << "_count";
    write_labels(os, pn.labels);
    os << ' ' << h.count << '\n';
  }
  // Companion summary family per histogram: pre-computed p50/p95/p99 so
  // dashboards get quantiles without a histogram_quantile() PromQL hop.
  last_base.clear();
  for (const auto& [name, h] : snapshot.histograms) {
    const PrometheusName pn = prometheus_name(name);
    const std::string base = pn.base + "_summary";
    maybe_type_line(os, last_base, base, "summary");
    for (const double q : {0.5, 0.95, 0.99}) {
      os << base;
      write_labels(os, pn.labels, "quantile", format_sample(q));
      os << ' ' << format_sample(h.quantile(q)) << '\n';
    }
    os << base << "_sum";
    write_labels(os, pn.labels);
    os << ' ' << format_sample(h.sum) << '\n';
    os << base << "_count";
    write_labels(os, pn.labels);
    os << ' ' << h.count << '\n';
  }
}

void write_prometheus(std::ostream& os, const MetricsRegistry& registry) {
  write_prometheus(os, registry.snapshot());
}

ExpositionServer::ExpositionServer(Config config,
                                   const MetricsRegistry* registry)
    : config_(std::move(config)),
      registry_(registry != nullptr ? registry : &metrics()) {}

ExpositionServer::~ExpositionServer() { stop(); }

void ExpositionServer::start() {
  if (running()) return;
  stop_requested_.store(false, std::memory_order_release);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  RRF_REQUIRE(listen_fd_ >= 0, "exposition: cannot create socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw DomainError("exposition: bad bind address " + config_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw DomainError("exposition: cannot bind " + config_.bind_address + ":" +
                      std::to_string(config_.port) + " (" +
                      std::strerror(err) + ")");
  }
  if (::listen(listen_fd_, 16) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw DomainError("exposition: listen failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  start_time_ = std::chrono::steady_clock::now();
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { serve_loop(); });
  log_info("exposition: serving ops plane on http://", config_.bind_address,
           ":", port_, "/metrics");
}

void ExpositionServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  stop_requested_.store(true, std::memory_order_release);
  // The serve loop polls with a short timeout, so closing the listener here
  // races benignly with an accept(); shutdown() unblocks any straggler.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Handlers poll stop_requested_ in bounded waits; let them all drain.
  MutexLock lock(conn_mu_);
  // Predicate runs under conn_mu_ from a lambda the analysis cannot see
  // through; assert_held() marks the boundary.
  conn_cv_.wait(lock, [this] {
    conn_mu_.assert_held();
    return open_conns_ == 0;
  });
}

std::string ExpositionServer::respond(const std::string& method,
                                      const std::string& target) const {
  int status = 200;
  const char* status_text = "OK";
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  const std::string_view route = route_of(target);
  if (method != "GET") {
    status = 405;
    status_text = "Method Not Allowed";
    body = "method not allowed\n";
  } else if (route == "/metrics") {
    std::ostringstream ss;
    write_prometheus(ss, *registry_);
    body = ss.str();
    content_type = "text/plain; version=0.0.4; charset=utf-8";
  } else if (route == "/metrics.json") {
    std::ostringstream ss;
    registry_->write_json(ss);
    body = ss.str();
    content_type = "application/json";
  } else if (route == "/healthz" || route == "/") {
    body = "ok " + common::build_info_line() + "\n";
  } else if (route == "/readyz") {
    bool ready = true;
    std::string why;
    if (config_.ops != nullptr && config_.stall_deadline_seconds > 0.0) {
      // Startup grace: before the first round, measure from server start.
      const double since_start =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start_time_)
              .count();
      const double idle =
          std::min(config_.ops->seconds_since_round(), since_start);
      if (idle > config_.stall_deadline_seconds) {
        ready = false;
        std::ostringstream ss;
        ss << "stalled: no allocation round for " << idle
           << " s (deadline " << config_.stall_deadline_seconds << " s)\n";
        why = ss.str();
      }
    }
    if (ready) {
      body = "ready\n";
    } else {
      status = 503;
      status_text = "Service Unavailable";
      body = why;
    }
  } else if (route == "/rounds") {
    // Only reachable without an OpsHub (streaming handles the rest).
    status = 503;
    status_text = "Service Unavailable";
    body = "no ops hub attached (run with --serve-ops)\n";
  } else if (route == "/incidents") {
    content_type = "application/json";
    body = (config_.incidents != nullptr
                ? config_.incidents->incidents_json()
                : std::string(R"({"schema":"rrf-incidents","version":1,)"
                              R"("open":0,"total":0,"incidents":[]})")) +
           "\n";
  } else if (route.rfind("/incidents/", 0) == 0) {
    const std::string id(route.substr(std::string_view("/incidents/").size()));
    std::optional<std::string> doc;
    if (config_.incidents != nullptr) doc = config_.incidents->incident_json(id);
    if (doc.has_value()) {
      content_type = "application/json";
      body = *doc + "\n";
    } else {
      status = 404;
      status_text = "Not Found";
      body = "unknown incident id\n";
    }
  } else if (route == "/profile") {
    if (!profiling_enabled()) {
      status = 503;
      status_text = "Service Unavailable";
      body = "profiling disabled (enable the profiler to snapshot)\n";
    } else {
      std::ostringstream ss;
      write_collapsed(ss, profile_snapshot());
      body = ss.str();
    }
  } else {
    status = 404;
    status_text = "Not Found";
    body = "not found\n";
  }
  return simple_response(status, status_text, content_type, body);
}

void ExpositionServer::stream_rounds(int fd, const std::string& target) {
  OpsHub& hub = *config_.ops;
  bool follow = true;
  if (const auto f = query_param(target, "follow")) follow = *f != "0";
  std::size_t max_lines = 0;  // 0 = unlimited
  if (const auto n = query_param(target, "n")) {
    max_lines = static_cast<std::size_t>(std::strtoull(n->c_str(), nullptr, 10));
  }

  if (!send_all(fd,
                "HTTP/1.1 200 OK\r\n"
                "Content-Type: application/x-ndjson\r\n"
                "Transfer-Encoding: chunked\r\n"
                "Connection: close\r\n\r\n")) {
    return;
  }

  std::uint64_t cursor = hub.oldest_seq();
  const std::uint64_t backlog_end = hub.next_seq();
  std::uint64_t dropped = 0;
  std::size_t sent_lines = 0;
  while (!stop_requested_.load(std::memory_order_acquire)) {
    std::vector<std::string> lines;
    const std::uint64_t dropped_before = dropped;
    hub.wait_lines(&cursor, &lines, std::chrono::milliseconds(250), &dropped);
    std::string batch;
    if (dropped > dropped_before) {
      // The subscriber fell behind the ring; make the gap explicit.
      batch += "{\"t\":\"gap\",\"dropped\":" +
               std::to_string(dropped - dropped_before) + "}\n";
    }
    for (std::string& line : lines) {
      batch += line;
      batch += '\n';
      ++sent_lines;
      if (max_lines != 0 && sent_lines >= max_lines) break;
    }
    if (!batch.empty() && !send_all(fd, chunk(batch))) return;
    if (max_lines != 0 && sent_lines >= max_lines) break;
    if (!follow && cursor >= backlog_end) break;
    if (lines.empty() && peer_closed(fd)) return;
  }
  send_all(fd, "0\r\n\r\n");  // terminal chunk: the stream ended cleanly
}

void ExpositionServer::handle_client(int fd) {
  const Request req =
      read_request(fd, config_.read_timeout_ms, stop_requested_);
  if (req.error == -1) {
    ::close(fd);
    return;
  }
  if (req.error == 408) {
    send_all(fd, simple_response(408, "Request Timeout",
                                 "text/plain; charset=utf-8",
                                 "request read timed out\n"));
  } else if (req.error == 400) {
    send_all(fd, simple_response(400, "Bad Request",
                                 "text/plain; charset=utf-8",
                                 "malformed request\n"));
  } else if (req.method == "GET" && route_of(req.target) == "/rounds" &&
             config_.ops != nullptr) {
    stream_rounds(fd, req.target);
  } else {
    send_all(fd, respond(req.method, req.target));
  }
  // Count before closing: the close is what a synchronous client observes
  // (EOF ends its read), so incrementing afterwards would let the client
  // read a stale total.
  requests_.fetch_add(1, std::memory_order_relaxed);
  ::close(fd);
}

void ExpositionServer::serve_loop() {
  while (!stop_requested_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;
    if ((pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) break;

    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;

    // One short-lived thread per connection: a following /rounds
    // subscriber or a slow scrape must not block other clients.
    {
      MutexLock lock(conn_mu_);
      ++open_conns_;
    }
    std::thread([this, client] {
      handle_client(client);
      MutexLock lock(conn_mu_);
      --open_conns_;
      conn_cv_.notify_all();
    }).detach();
  }
}

}  // namespace rrf::obs
