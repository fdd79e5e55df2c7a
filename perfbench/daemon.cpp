// daemon-tenants: the real confanond binary as a child process, driven
// over loopback by a closed loop of 2 clients, one tenant each. Each
// client POSTs its tenant's next config to /v1/anonymize and waits for
// the reply before sending the next. confanond answers every request
// with "Connection: close", so each request opens its own connection.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common.h"
#include "core/anonymizer.h"
#include "junos/anonymizer.h"
#include "pipeline/pipeline.h"
#include "replay.h"

namespace perfbench {

using namespace confanon;

namespace {

constexpr int kTenants = 2;
constexpr int kNetworksPerTenant = 20;
constexpr int kRoutersPerNetwork = 100;
constexpr int kSetupRepeats = 9;
/// Requests per tenant sent before the window: session creation and
/// first-request memo fills are paid once per daemon lifetime.
constexpr int kWarmupPerTenant = 10;

std::string TenantName(int tenant) { return "tenant-" + std::to_string(tenant); }

/// A confanond child process; killed and reaped on destruction.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& salt) {
    int out[2];
    if (pipe(out) != 0) throw std::runtime_error("pipe failed");
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      dup2(out[1], STDOUT_FILENO);
      close(out[0]);
      close(out[1]);
      // --threads 1 --workers 2: with the 2 client threads, 4 in total.
      // No --profile: the daemon runs with its default hooks only.
      execl(binary.c_str(), binary.c_str(), "--salt", salt.c_str(),
            "--listen", "127.0.0.1:0", "--threads", "1", "--workers", "2",
            static_cast<char*>(nullptr));
      _exit(127);
    }
    close(out[1]);
    stdout_fd_ = out[0];
    port_ = ReadPort();
  }

  ~Daemon() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    if (stdout_fd_ >= 0) close(stdout_fd_);
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// SIGTERM and wait (up to 20 s); true on a clean exit 0.
  bool Stop() {
    kill(pid_, SIGTERM);
    for (int i = 0; i < 2000; ++i) {
      int status = 0;
      const pid_t done = waitpid(pid_, &status, WNOHANG);
      if (done == pid_) {
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      usleep(10000);
    }
    return false;
  }

 private:
  /// Parses "confanond listening on http://127.0.0.1:PORT/" (30 s limit).
  int ReadPort() {
    std::string text;
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (Clock::now() < deadline) {
      pollfd fd{stdout_fd_, POLLIN, 0};
      if (poll(&fd, 1, 100) <= 0) continue;
      char buffer[256];
      const ssize_t n = read(stdout_fd_, buffer, sizeof buffer);
      if (n <= 0) break;
      text.append(buffer, static_cast<std::size_t>(n));
      const std::size_t at = text.find("127.0.0.1:");
      if (at != std::string::npos && text.find('/', at) != std::string::npos) {
        return std::atoi(text.c_str() + at + 10);
      }
    }
    throw std::runtime_error("confanond did not report its port: " + text);
  }

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = 0;
};

struct HttpReply {
  bool ok = false;  // a complete response arrived
  int status = 0;
  std::string body;  // de-chunked
};

/// One request on a fresh loopback connection; reads to EOF.
HttpReply Exchange(int port, const std::string& request) {
  HttpReply reply;
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  timeval timeout{30, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  std::string raw;
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
    std::size_t sent = 0;
    while (sent < request.size()) {
      const ssize_t n = send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    char buffer[1 << 16];
    for (;;) {
      const ssize_t n = recv(fd, buffer, sizeof buffer, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      raw.append(buffer, static_cast<std::size_t>(n));
    }
  }
  close(fd);

  const std::size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos || raw.compare(0, 9, "HTTP/1.1 ") != 0) {
    return reply;
  }
  reply.status = std::atoi(raw.c_str() + 9);
  const std::string head = raw.substr(0, head_end);
  const std::size_t payload = head_end + 4;
  if (head.find("Transfer-Encoding: chunked") == std::string::npos) {
    reply.body = raw.substr(payload);
    reply.ok = true;
    return reply;
  }
  std::size_t pos = payload;
  for (;;) {
    const std::size_t eol = raw.find("\r\n", pos);
    if (eol == std::string::npos) return reply;  // truncated
    const std::size_t size =
        std::strtoul(raw.substr(pos, eol - pos).c_str(), nullptr, 16);
    if (size == 0) break;
    if (eol + 2 + size > raw.size()) return reply;
    reply.body.append(raw, eol + 2, size);
    pos = eol + 2 + size + 2;
  }
  reply.ok = true;
  return reply;
}

HttpReply Get(int port, const std::string& path) {
  return Exchange(port, "GET " + path +
                            " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n");
}

/// Polls /healthz until it answers 200 (30 s limit).
void AwaitHealthy(int port) {
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (Clock::now() < deadline) {
    if (Get(port, "/healthz").status == 200) return;
    usleep(1000);
  }
  throw std::runtime_error("confanond never became healthy");
}

/// user+system CPU seconds of `pid`, all threads (/proc/PID/stat).
double ChildCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::istringstream fields(text.substr(text.rfind(')') + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14 || i == 15) ticks += std::stod(field);  // utime, stime
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Peak resident set of `pid` in MiB (VmHWM).
double ChildPeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  }
  return 0;
}

struct Request {
  std::size_t file = 0;  // index into the tenant's corpus
  std::int64_t id = 0;   // send order across both clients
  double seconds = 0;
  bool in_window = false;
  HttpReply reply;
};

struct Load {
  std::vector<std::vector<config::ConfigFile>> corpora;
  std::vector<std::vector<std::string>> bodies;  // corpora as request text
  std::string salt;
};

/// The closed loop: one client thread per tenant; tenant t's j-th request
/// carries file j mod n of its corpus. Warm-up requests come first, then
/// the window runs for `seconds`, sampled into one-second slices of the
/// daemon's CPU and the requests completed. Returns every request in
/// send order per tenant.
std::vector<std::vector<Request>> Drive(const Load& load, const Daemon& daemon,
                                        double seconds, Window& window) {
  std::atomic<std::int64_t> next_id{0};
  std::atomic<std::uint64_t> done_ops{0};
  std::atomic<std::uint64_t> done_lines{0};
  std::vector<std::vector<Request>> requests(kTenants);
  const auto client = [&](int tenant, int count, Clock::time_point deadline,
                          bool in_window) {
    const auto& corpus = load.corpora[static_cast<std::size_t>(tenant)];
    auto& out = requests[static_cast<std::size_t>(tenant)];
    for (int i = 0; count < 0 ? Clock::now() < deadline : i < count; ++i) {
      Request request;
      request.file = out.size() % corpus.size();
      request.id = next_id.fetch_add(1);
      request.in_window = in_window;
      const std::string& body =
          load.bodies[static_cast<std::size_t>(tenant)][request.file];
      const std::string text =
          "POST /v1/anonymize HTTP/1.1\r\nHost: 127.0.0.1\r\n"
          "Content-Length: " + std::to_string(body.size()) +
          "\r\nX-Confanon-Tenant: " + TenantName(tenant) +
          "\r\nX-Confanon-Name: " + corpus[request.file].name() +
          ".cfg\r\n\r\n" + body;
      const auto start = Clock::now();
      request.reply = Exchange(daemon.port(), text);
      request.seconds = SecondsBetween(start, Clock::now());
      const bool served = request.reply.ok && request.reply.status == 200;
      if (in_window && served) {
        done_lines.fetch_add(corpus[request.file].LineCount());
        done_ops.fetch_add(1);
      }
      out.push_back(std::move(request));
      if (!served) break;  // a failed run; CheckResponses reports it
    }
  };
  const auto start_all = [&](int count, Clock::time_point deadline,
                             bool in_window) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kTenants; ++t) {
      threads.emplace_back(client, t, count, deadline, in_window);
    }
    return threads;
  };
  for (auto& thread : start_all(kWarmupPerTenant, Clock::now(), false)) {
    thread.join();
  }
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto threads = start_all(-1, deadline, true);
  auto tick = start;
  double cpu = ChildCpuSeconds(daemon.pid());
  std::uint64_t ops = 0, lines = 0;
  while (tick < deadline) {
    const auto next = std::min(deadline, tick + std::chrono::seconds(1));
    std::this_thread::sleep_until(next);
    const double cpu_now = ChildCpuSeconds(daemon.pid());
    const std::uint64_t ops_now = done_ops.load(), lines_now = done_lines.load();
    window.slices.push_back({SecondsBetween(tick, next), cpu_now - cpu,
                             lines_now - lines, ops_now - ops});
    tick = next;
    cpu = cpu_now;
    ops = ops_now;
    lines = lines_now;
  }
  for (auto& thread : threads) thread.join();
  // A last slice shorter than half a second is mostly rounding.
  if (window.slices.size() > 1 && window.slices.back().wall_s < 0.5) {
    window.slices.pop_back();
  }
  return requests;
}

/// The sequential-engine reference for one tenant: a standalone IOS
/// engine and a JunOS engine over one fresh state salted "base:tenant",
/// fed the tenant's requests in order.
std::vector<std::string> Reference(const Load& load, int tenant,
                                   const std::vector<Request>& requests) {
  core::AnonymizerOptions ios_options;
  ios_options.salt = load.salt + ":" + TenantName(tenant);
  core::Anonymizer ios(ios_options);
  junos::JunosAnonymizerOptions junos_options;
  junos_options.salt = ios_options.salt;
  junos::JunosAnonymizer junos(junos_options, ios.state());
  const auto& corpus = load.corpora[static_cast<std::size_t>(tenant)];
  std::vector<std::string> out;
  out.reserve(requests.size());
  for (const Request& request : requests) {
    const config::ConfigFile& file = corpus[request.file];
    core::AnonymizerEngine& engine =
        core::DetectDialect(file) == core::ConfigDialect::kJunos
            ? static_cast<core::AnonymizerEngine&>(junos)
            : ios;
    out.push_back(engine.AnonymizeFile(file).ToText());
  }
  return out;
}

/// Checks every response against the reference, /v1/sessions against
/// the requests sent, and fills attempted/failed for window requests.
/// Returns the 429 count.
std::uint64_t CheckResponses(const Load& load,
                             const std::vector<std::vector<Request>>& requests,
                             const std::string& sessions, Result& result) {
  std::uint64_t rejected = 0;
  for (int t = 0; t < kTenants; ++t) {
    const auto& sent = requests[static_cast<std::size_t>(t)];
    const std::vector<std::string> want = Reference(load, t, sent);
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < sent.size(); ++i) {
      const HttpReply& reply = sent[i].reply;
      if (reply.status == 429) ++rejected;
      const bool good = reply.ok && reply.status == 200 && reply.body == want[i];
      if (!good) {
        ++bad;
        if (bad <= 3) {
          result.Fail(TenantName(t) + " request " + std::to_string(i) +
                      ": status " + std::to_string(reply.status) +
                      (reply.ok ? ", body differs from the reference"
                                : ", broken reply"));
        }
      }
      if (sent[i].in_window) {
        ++result.attempted;
        if (!good) ++result.failed;
      }
    }
    const std::string entry = "\"tenant\":\"" + TenantName(t) +
                              "\",\"requests\":" + std::to_string(sent.size());
    if (sessions.find(entry) == std::string::npos) {
      result.Fail("/v1/sessions lacks " + entry + ": " + sessions);
    }
  }
  return rejected;
}

std::string DaemonBinary() {
  std::string self(4096, '\0');
  const ssize_t n = readlink("/proc/self/exe", self.data(), self.size());
  if (n <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  self.resize(static_cast<std::size_t>(n));
  return self.substr(0, self.rfind('/')) + "/confanond";
}

struct Served {
  std::vector<std::vector<Request>> requests;
  Window window;
  std::vector<double> latency_s;  // of the window's requests
  double peak_rss_mb = 0;
  std::uint64_t rejected = 0;
};

/// Runs the load against `daemon`, stops it, and checks every response.
Served Serve(const Load& load, double seconds, Daemon& daemon,
             Result& result) {
  Served served;
  served.requests = Drive(load, daemon, seconds, served.window);
  for (const auto& tenant : served.requests) {
    for (const Request& request : tenant) {
      if (request.in_window) served.latency_s.push_back(request.seconds);
    }
  }
  served.peak_rss_mb = ChildPeakRssMb(daemon.pid());
  const HttpReply sessions = Get(daemon.port(), "/v1/sessions");
  if (sessions.status != 200) result.Fail("GET /v1/sessions failed");
  if (!daemon.Stop()) result.Fail("confanond did not exit 0 on SIGTERM");
  served.rejected = CheckResponses(load, served.requests, sessions.body, result);
  return served;
}

void RunUntraced(const Options& options, const Load& load,
                 const std::string& binary, Result& result) {
  std::vector<double> setup;
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (daemon != nullptr && !daemon->Stop()) {
      result.Fail("confanond did not exit 0 on SIGTERM");
    }
    const auto start = Clock::now();
    daemon = std::make_unique<Daemon>(binary, load.salt);
    AwaitHealthy(daemon->port());
    setup.push_back(SecondsBetween(start, Clock::now()));
  }
  const Served served = Serve(load, options.seconds, *daemon, result);
  AddEndToEnd(result, Median(setup), served.window, served.peak_rss_mb);
}

void RunTraced(const Options& options, const Load& load,
               const std::string& binary, Result& result) {
  LayerValues values;
  // Cold vs warm: tenant 0's first request in this fresh process (empty
  // asn::EnumerateLanguage memo), then again on a fresh session.
  for (const char* key : {"asn.cold_network_ms", "asn.warm_network_ms"}) {
    const auto context = UntracedContext(1);
    pipeline::CorpusPipeline pipe(
        context, context->CreateSession(load.salt + ":" + TenantName(0)));
    const auto start = Clock::now();
    pipe.AnonymizeCorpus({load.corpora[0][0]});
    values[key] = SecondsBetween(start, Clock::now()) * 1e3;
  }

  Daemon daemon(binary, load.salt);
  AwaitHealthy(daemon.port());
  // A quarter of the window: every request served is replayed twice in
  // process below, which costs more than serving it.
  const Served served = Serve(load, options.seconds / 4, daemon, result);
  values["service.rejected"] = static_cast<double>(served.rejected);

  // The request sequence in process: untraced through the pipeline (the
  // overhead baseline and service.pipeline_us_p50), then replayed.
  std::vector<double> pipeline_us;
  std::vector<std::vector<config::ConfigFile>> untraced(kTenants);
  std::vector<core::LeakRecord> leaks(kTenants);
  double untraced_s = 0;
  {
    auto begin = Clock::now();
    const auto context = UntracedContext(1);
    std::vector<std::shared_ptr<core::Session>> sessions;
    for (int t = 0; t < kTenants; ++t) {
      sessions.push_back(
          context->CreateSession(load.salt + ":" + TenantName(t)));
    }
    untraced_s += SecondsBetween(begin, Clock::now());
    for (int t = 0; t < kTenants; ++t) {
      const auto& session = sessions[static_cast<std::size_t>(t)];
      for (const Request& request : served.requests[static_cast<std::size_t>(t)]) {
        const std::vector<config::ConfigFile> one = {
            load.corpora[static_cast<std::size_t>(t)][request.file]};
        begin = Clock::now();
        pipeline::CorpusPipeline pipe(context, session);
        untraced[static_cast<std::size_t>(t)].push_back(
            std::move(pipe.AnonymizeCorpus(one).front()));
        pipeline_us.push_back(SecondsBetween(begin, Clock::now()) * 1e6);
        untraced_s += pipeline_us.back() / 1e6;
        leaks[static_cast<std::size_t>(t)].Merge(pipe.leak_record());
      }
    }
  }

  SpanLog log;
  Replayer replayer(log);
  std::vector<std::vector<config::ConfigFile>> replayed(kTenants);
  {
    std::shared_ptr<core::ServiceContext> context;
    std::vector<std::shared_ptr<core::Session>> sessions;
    {
      const SpanLog::Scope root(log, kRootSpan);
      context = replayer.MakeContext();
      for (int t = 0; t < kTenants; ++t) {
        sessions.push_back(
            replayer.CreateSession(*context, load.salt + ":" + TenantName(t)));
      }
    }
    for (int t = 0; t < kTenants; ++t) {
      for (const Request& request : served.requests[static_cast<std::size_t>(t)]) {
        const std::vector<config::ConfigFile> one = {
            load.corpora[static_cast<std::size_t>(t)][request.file]};
        {
          const SpanLog::Scope root(log, kRootSpan, request.id);
          replayed[static_cast<std::size_t>(t)].push_back(std::move(
              replayer
                  .AnonymizeCorpus(*context,
                                   *sessions[static_cast<std::size_t>(t)], one)
                  .front()));
        }
      }
    }
  }
  std::uint64_t bad = 0;
  for (int t = 0; t < kTenants; ++t) {
    const auto& sent = served.requests[static_cast<std::size_t>(t)];
    for (std::size_t i = 0; i < sent.size(); ++i) {
      const std::string& body = sent[i].reply.body;
      if (untraced[static_cast<std::size_t>(t)][i].ToText() != body ||
          replayed[static_cast<std::size_t>(t)][i].ToText() != body) {
        ++bad;
      }
    }
  }
  if (bad > 0) {
    result.Fail(std::to_string(bad) +
                " in-process or replayed requests differ from the daemon");
    result.failed += bad;
  }
  // Pair audit + leak scan over each tenant's first pass through its
  // corpus (later passes repeat the same files).
  for (int t = 0; t < kTenants; ++t) {
    const auto& corpus = load.corpora[static_cast<std::size_t>(t)];
    const auto& sent = served.requests[static_cast<std::size_t>(t)];
    const std::size_t count = std::min(corpus.size(), sent.size());
    std::vector<config::ConfigFile> pre(corpus.begin(),
                                        corpus.begin() + static_cast<long>(count));
    std::vector<config::ConfigFile> post;
    for (std::size_t i = 0; i < count; ++i) {
      post.push_back(config::ConfigFile::FromText(
          "response-" + std::to_string(i), sent[i].reply.body));
    }
    const Defects defects =
        FindDefects(pre, post, leaks[static_cast<std::size_t>(t)]);
    values["audit.pair_errors"] += static_cast<double>(defects.pair_errors);
    values["core.textual_leaks"] += static_cast<double>(defects.textual_leaks);
  }

  replayer.Collect(untraced_s, values);
  // Client-observed latency and throughput: wall clock, so reported here
  // rather than gated (see AddEndToEnd).
  const double client_p50_us = Median(served.latency_s) * 1e6;
  values["service.client_requests"] =
      static_cast<double>(served.latency_s.size());
  values["service.client_p50_ms"] = client_p50_us / 1e3;
  values["service.client_p99_ms"] = Quantile(served.latency_s, 0.99) * 1e3;
  values["service.req_per_s"] =
      static_cast<double>(served.latency_s.size()) / served.window.WallSeconds();
  values["service.pipeline_us_p50"] = Median(pipeline_us);
  values["obs.http_us_p50"] = client_p50_us - Median(pipeline_us);
  double pipeline_s = 0;
  for (const double us : pipeline_us) pipeline_s += us / 1e6;
  values["pipeline.anonymize_s"] = pipeline_s;
  values["pipeline.parallel_efficiency"] =
      (values["core.anonymize_s"] + values["junos.anonymize_s"]) / pipeline_s;
  std::vector<config::ConfigFile> all;
  for (const auto& corpus : load.corpora) {
    all.insert(all.end(), corpus.begin(), corpus.end());
  }
  TokenizePass(all, values);
  log.WriteJsonl(options.work_dir + "/spans-daemon-tenants.jsonl");
  EmitLayerMetrics(values, result);
}

}  // namespace

void RunDaemonTenants(const Options& options, Result& result) {
  Load load;
  load.salt = "daemon-" + std::to_string(options.seed);
  for (int t = 0; t < kTenants; ++t) {
    // Several networks per tenant: the mean request size then varies
    // little from seed to seed.
    load.corpora.emplace_back();
    for (int n = 0; n < kNetworksPerTenant; ++n) {
      for (auto& file : RenderNetwork(options.seed, n * kTenants + t,
                                      kRoutersPerNetwork, /*mixed=*/true)) {
        load.corpora.back().push_back(std::move(file));
      }
    }
    load.bodies.emplace_back();
    for (const auto& file : load.corpora.back()) {
      load.bodies.back().push_back(file.ToText());
    }
  }
  const std::string binary = DaemonBinary();
  if (access(binary.c_str(), X_OK) != 0) {
    throw std::runtime_error("no confanond next to perfbench: " + binary);
  }
  if (options.trace) {
    RunTraced(options, load, binary, result);
  } else {
    RunUntraced(options, load, binary, result);
  }
}

}  // namespace perfbench
