// The daemon's determinism and admission-control contracts.
//
// confanond's promise (docs/DAEMON.md) is that putting HTTP, tenant
// sessions, and handler concurrency between the caller and the engines
// changes NOTHING about the bytes:
//
//  1. A tenant session fed successive single-file requests produces
//     exactly what a sequential standalone engine fed the same files in
//     order produces, and the first request on a fresh tenant matches a
//     fresh CLI-style batch run byte-for-byte.
//  2. Many tenants (the acceptance bar is >= 8) with different salts can
//     anonymize interleaved, concurrent request streams and each stream
//     is still byte-identical to its tenant's reference run.
//  3. Two tenants' outputs differ only by renaming — pair-isomorphic
//     under the map-free audit (reusing the metamorphic-suite check).
//  4. Beyond the bounded queue the server answers 429 immediately
//     instead of queueing unboundedly.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "audit/audit.h"
#include "config/document.h"
#include "core/anonymizer.h"
#include "core/session.h"
#include "gen/config_writer.h"
#include "gen/network_gen.h"
#include "junos/writer.h"
#include "obs/exposition.h"
#include "pipeline/pipeline.h"
#include "service/service.h"

namespace confanon {
namespace {

std::vector<config::ConfigFile> IosCorpus(std::uint64_t seed, int routers) {
  gen::GeneratorParams params;
  params.seed = seed;
  params.router_count = routers;
  return gen::WriteNetworkConfigs(
      gen::GenerateNetwork(params, static_cast<int>(seed)));
}

std::vector<config::ConfigFile> JunosCorpus(std::uint64_t seed, int routers) {
  gen::GeneratorParams params;
  params.seed = seed;
  params.router_count = routers;
  return junos::WriteJunosNetworkConfigs(
      gen::GenerateNetwork(params, static_cast<int>(seed)));
}

/// Sends `request` verbatim and returns the raw response (headers+body).
std::string RawHttp(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return {};
  }
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::write(fd, request.data() + sent, request.size() - sent);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::read(fd, buffer, sizeof buffer)) > 0) {
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string BuildPost(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& headers,
    const std::string& body) {
  std::string request = "POST " + path + " HTTP/1.1\r\nHost: localhost\r\n";
  for (const auto& [name, value] : headers) {
    request += name + ": " + value + "\r\n";
  }
  request += "Content-Length: " + std::to_string(body.size()) +
             "\r\nConnection: close\r\n\r\n" + body;
  return request;
}

struct ParsedResponse {
  int status = 0;
  std::string head;
  std::string body;  // de-chunked when Transfer-Encoding: chunked
};

ParsedResponse ParseResponse(const std::string& raw) {
  ParsedResponse out;
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) return out;
  out.head = raw.substr(0, head_end);
  out.status = std::atoi(out.head.c_str() + sizeof "HTTP/1.1 " - 1);
  std::string payload = raw.substr(head_end + 4);
  if (out.head.find("Transfer-Encoding: chunked") == std::string::npos) {
    out.body = std::move(payload);
    return out;
  }
  std::size_t pos = 0;
  for (;;) {
    const std::size_t eol = payload.find("\r\n", pos);
    if (eol == std::string::npos) break;
    const std::size_t size =
        std::strtoul(payload.substr(pos, eol - pos).c_str(), nullptr, 16);
    if (size == 0) break;
    out.body += payload.substr(eol + 2, size);
    pos = eol + 2 + size + 2;  // chunk data + trailing CRLF
  }
  return out;
}

/// The reference for one tenant: a private session fed the same files
/// one request at a time (the documented sequential-engine equivalence).
std::vector<std::string> ReferenceStream(
    const std::string& salt, const std::vector<config::ConfigFile>& files) {
  core::ServiceOptions options;
  options.base.salt = salt;
  const auto context = pipeline::MakeServiceContext(std::move(options));
  const auto session = context->CreateSession();
  std::vector<std::string> out;
  for (const auto& file : files) {
    pipeline::CorpusPipeline pipeline(context, session);
    out.push_back(pipeline.AnonymizeCorpus({file}).front().ToText());
  }
  return out;
}

// --- 1. session streaming == the sequential engine ----------------------

TEST(ServiceSession, StreamedRequestsMatchSequentialEngineStream) {
  const auto files = IosCorpus(71, 6);

  core::ServiceOptions options;
  options.base.salt = "svc-seq";
  const auto context = pipeline::MakeServiceContext(std::move(options));
  const auto session = context->CreateSession();

  core::AnonymizerOptions standalone_options;
  standalone_options.salt = "svc-seq";
  core::Anonymizer standalone(standalone_options);

  for (const auto& file : files) {
    pipeline::CorpusPipeline pipeline(context, session);
    const auto via_session = pipeline.AnonymizeCorpus({file});
    const auto via_engine = standalone.AnonymizeFile(file);
    ASSERT_EQ(via_session.size(), 1u);
    EXPECT_EQ(via_session.front().ToText(), via_engine.ToText())
        << file.name();
  }
  EXPECT_EQ(session->salt(), "svc-seq");
}

TEST(ServiceSession, FirstRequestMatchesFreshCliRun) {
  const auto files = IosCorpus(72, 3);

  // CLI equivalent: confanon_tool --salt svc-base:tenant-x builds its own
  // context with that salt and anonymizes the file in a fresh session.
  core::ServiceOptions cli_options;
  cli_options.base.salt = "svc-base:tenant-x";
  const auto cli_context = pipeline::MakeServiceContext(std::move(cli_options));
  pipeline::CorpusPipeline cli(cli_context, cli_context->CreateSession());
  const auto expected = cli.AnonymizeCorpus({files[0]});

  // Daemon shape: one context salted "svc-base" serves every tenant, and
  // another tenant's session has already served a request on it.
  core::ServiceOptions options;
  options.base.salt = "svc-base";
  const auto context = pipeline::MakeServiceContext(std::move(options));
  pipeline::CorpusPipeline(context, context->CreateSession("svc-base:tenant-y"))
      .AnonymizeCorpus({files[1], files[2]});
  pipeline::CorpusPipeline first(context,
                                 context->CreateSession("svc-base:tenant-x"));
  const auto actual = first.AnonymizeCorpus({files[0]});

  ASSERT_EQ(actual.size(), expected.size());
  EXPECT_EQ(actual.front().ToText(), expected.front().ToText());
}

// --- 2. >= 8 concurrent tenants over real HTTP --------------------------

TEST(AnonymizationService, ConcurrentTenantsMatchPerSaltReferenceRuns) {
  constexpr int kTenants = 8;
  constexpr int kFilesPerTenant = 3;

  core::ServiceOptions options;
  options.base.salt = "svc-base";
  const auto context = pipeline::MakeServiceContext(std::move(options));
  service::AnonymizationService anonymization(context);

  obs::ExpositionServer::Options server_options;  // 127.0.0.1:0
  server_options.handler_threads = kTenants;
  server_options.max_pending = 64;
  server_options.overload_status = 429;
  obs::ExpositionServer server(server_options, [] { return std::string(); });
  anonymization.RegisterRoutes(server);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // Per-tenant corpora (alternating dialects) and reference streams.
  std::vector<std::vector<config::ConfigFile>> corpora;
  std::vector<std::vector<std::string>> expected;
  for (int t = 0; t < kTenants; ++t) {
    corpora.push_back(t % 2 == 0
                          ? IosCorpus(200 + t, kFilesPerTenant)
                          : JunosCorpus(200 + t, kFilesPerTenant));
    expected.push_back(ReferenceStream(
        "svc-base:t" + std::to_string(t), corpora.back()));
  }

  std::vector<std::vector<ParsedResponse>> responses(kTenants);
  {
    std::vector<std::thread> clients;
    clients.reserve(kTenants);
    for (int t = 0; t < kTenants; ++t) {
      clients.emplace_back([&, t] {
        const std::string tenant = "t" + std::to_string(t);
        for (const auto& file : corpora[static_cast<std::size_t>(t)]) {
          responses[static_cast<std::size_t>(t)].push_back(
              ParseResponse(RawHttp(
                  server.port(),
                  BuildPost("/v1/anonymize",
                            {{"X-Confanon-Tenant", tenant},
                             {"X-Confanon-Name", file.name()}},
                            file.ToText()))));
        }
      });
    }
    for (auto& client : clients) client.join();
  }

  for (int t = 0; t < kTenants; ++t) {
    const auto& stream = responses[static_cast<std::size_t>(t)];
    ASSERT_EQ(stream.size(), static_cast<std::size_t>(kFilesPerTenant));
    for (int i = 0; i < kFilesPerTenant; ++i) {
      const ParsedResponse& response = stream[static_cast<std::size_t>(i)];
      EXPECT_EQ(response.status, 200) << "tenant " << t << " file " << i;
      EXPECT_NE(response.head.find("Transfer-Encoding: chunked"),
                std::string::npos);
      EXPECT_EQ(response.body,
                expected[static_cast<std::size_t>(t)]
                        [static_cast<std::size_t>(i)])
          << "tenant " << t << " file " << i;
    }
  }

  // The sessions endpoint reflects every tenant with its request count.
  const ParsedResponse sessions =
      ParseResponse(RawHttp(server.port(), "GET /v1/sessions HTTP/1.1\r\n"
                                           "Host: localhost\r\n"
                                           "Connection: close\r\n\r\n"));
  EXPECT_EQ(sessions.status, 200);
  for (int t = 0; t < kTenants; ++t) {
    EXPECT_NE(
        sessions.body.find("\"tenant\":\"t" + std::to_string(t) + "\""),
        std::string::npos)
        << sessions.body;
  }
  EXPECT_NE(sessions.body.find("\"requests\":3"), std::string::npos);
  EXPECT_EQ(anonymization.session_count(), static_cast<std::size_t>(kTenants));
  server.Stop();
}

// --- 3. tenants differ only by renaming ---------------------------------

TEST(AnonymizationService, TenantOutputsArePairIsomorphic) {
  const auto files = IosCorpus(88, 5);
  // Two tenants of the same daemon anonymize the SAME corpus under
  // different derived salts; the audit must see identical structure.
  std::vector<config::ConfigFile> tenant_a, tenant_b;
  for (const auto& [salt, out] :
       {std::pair<std::string, std::vector<config::ConfigFile>*>{
            "svc-base:tenant-a", &tenant_a},
        {"svc-base:tenant-b", &tenant_b}}) {
    core::ServiceOptions options;
    options.base.salt = salt;
    const auto context = pipeline::MakeServiceContext(std::move(options));
    const auto session = context->CreateSession();
    for (const auto& file : files) {
      pipeline::CorpusPipeline pipeline(context, session);
      out->push_back(pipeline.AnonymizeCorpus({file}).front());
    }
  }
  const audit::AuditResult result = audit::ComparePair(tenant_a, tenant_b);
  EXPECT_FALSE(result.HasErrors()) << result.ToText();
  EXPECT_EQ(result.files_scanned, tenant_a.size() + tenant_b.size());
}

// --- 4. admission control -----------------------------------------------

TEST(AnonymizationService, OverloadedQueueAnswers429) {
  obs::ExpositionServer::Options server_options;
  server_options.handler_threads = 1;
  server_options.max_pending = 1;
  server_options.overload_status = 429;
  obs::ExpositionServer server(server_options, [] { return std::string(); });

  std::promise<void> handler_entered;
  std::promise<void> release;
  std::shared_future<void> release_future(release.get_future());
  bool entered = false;  // only the first request signals the promise
  server.AddRoute("GET", "/slow",
                  [&](const obs::HttpRequest&, obs::HttpResponseWriter& out) {
                    if (!entered) {
                      entered = true;
                      handler_entered.set_value();
                    }
                    release_future.wait();
                    out.Send(200, "text/plain", "done\n");
                  });
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  const std::string slow_request =
      "GET /slow HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
  // First request occupies the only handler thread...
  auto first = std::async(std::launch::async,
                          [&] { return RawHttp(server.port(), slow_request); });
  handler_entered.get_future().wait();
  // ...the second parks in the queue (capacity 1)...
  auto second = std::async(std::launch::async,
                           [&] { return RawHttp(server.port(), slow_request); });
  // ...give the accept loop time to enqueue it, then overflow.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const ParsedResponse rejected =
      ParseResponse(RawHttp(server.port(), slow_request));
  EXPECT_EQ(rejected.status, 429) << rejected.head;
  EXPECT_GE(server.rejected(), 1u);

  release.set_value();
  EXPECT_EQ(ParseResponse(first.get()).status, 200);
  EXPECT_EQ(ParseResponse(second.get()).status, 200);
  server.Stop();
}

// --- request validation -------------------------------------------------

TEST(AnonymizationService, RejectsMalformedRequests) {
  core::ServiceOptions options;
  options.base.salt = "svc-base";
  const auto context = pipeline::MakeServiceContext(std::move(options));
  service::AnonymizationService anonymization(context);

  obs::ExpositionServer::Options server_options;
  server_options.handler_threads = 2;
  server_options.max_body_bytes = 1024;
  obs::ExpositionServer server(server_options, [] { return std::string(); });
  anonymization.RegisterRoutes(server);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // Empty body.
  EXPECT_EQ(ParseResponse(RawHttp(server.port(),
                                  BuildPost("/v1/anonymize", {}, "")))
                .status,
            400);
  // Tenant name with a space.
  EXPECT_EQ(ParseResponse(
                RawHttp(server.port(),
                        BuildPost("/v1/anonymize",
                                  {{"X-Confanon-Tenant", "a b"}}, "x\n")))
                .status,
            400);
  // Body beyond max_body_bytes.
  EXPECT_EQ(ParseResponse(RawHttp(server.port(),
                                  BuildPost("/v1/anonymize", {},
                                            std::string(2048, 'x'))))
                .status,
            413);
  // Wrong method on a registered path.
  EXPECT_EQ(ParseResponse(
                RawHttp(server.port(), "GET /v1/anonymize HTTP/1.1\r\n"
                                       "Host: localhost\r\n"
                                       "Connection: close\r\n\r\n"))
                .status,
            405);
  server.Stop();
}

// --- 5. per-tenant pass-lists gate on static verification ---------------

TEST(AnonymizationService, PassListRouteVerifiesBeforeInstalling) {
  core::ServiceOptions options;
  options.base.salt = "svc-base";
  const auto context = pipeline::MakeServiceContext(std::move(options));
  service::AnonymizationService anonymization(context);

  obs::ExpositionServer::Options server_options;
  server_options.handler_threads = 2;
  obs::ExpositionServer server(server_options, [] { return std::string(); });
  anonymization.RegisterRoutes(server);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  const std::vector<std::pair<std::string, std::string>> tenant = {
      {"X-Confanon-Tenant", "acme"}};

  // A provably leaky list (an IPv4 literal) is refused with the
  // verifier's finding rendered in the body, before any session exists.
  const ParsedResponse leaky = ParseResponse(RawHttp(
      server.port(), BuildPost("/v1/passlist", tenant, "10.0.0.1\n")));
  EXPECT_EQ(leaky.status, 422);
  EXPECT_NE(leaky.body.find("VER-001"), std::string::npos) << leaky.body;
  EXPECT_EQ(anonymization.FindSession("acme"), nullptr);

  // A clean list installs and reports its verification counts.
  const ParsedResponse clean = ParseResponse(RawHttp(
      server.port(),
      BuildPost("/v1/passlist", tenant, "# corp words\nzephyrix\n")));
  EXPECT_EQ(clean.status, 200) << clean.body;
  EXPECT_NE(clean.body.find("\"entries\":1"), std::string::npos)
      << clean.body;

  // The installed extras shape this tenant's output: the token survives
  // where an unknown word would hash.
  const ParsedResponse anonymized = ParseResponse(RawHttp(
      server.port(), BuildPost("/v1/anonymize", tenant,
                               "interface zephyrix\n")));
  EXPECT_EQ(anonymized.status, 200);
  EXPECT_NE(anonymized.body.find("zephyrix"), std::string::npos)
      << anonymized.body;

  // Once the tenant has served traffic the list is immutable: 409.
  const ParsedResponse late = ParseResponse(RawHttp(
      server.port(), BuildPost("/v1/passlist", tenant, "quorvane\n")));
  EXPECT_EQ(late.status, 409) << late.body;
  server.Stop();
}

}  // namespace
}  // namespace confanon
