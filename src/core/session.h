// The service-shaped public API: process-lifetime context, per-tenant
// session.
//
// Everything long-lived and tenant-independent — the pass-list automaton,
// the dialect engine factories, the observability hooks, the worker
// thread budget — lives in one immutable ServiceContext built once per
// process. Everything salted — the word-hash memo, the prefix-preserving
// IP trie, the ASN/community permutations, the regexp rewrite memo — is a
// core::NetworkState wrapped in a Session, created per tenant (or per
// network in batch mode) and kept warm across requests.
//
// The split follows the batch tools' own shape: a CorpusPipeline always
// was "shared immutable configuration + one NetworkState"; this header
// names those halves so a long-running daemon (confanond), the CLI, and
// the benches all construct the same two objects and differ only in how
// long they keep them alive.
//
// Concurrency contract:
//   * ServiceContext is immutable after setup (RegisterEngineFactory and
//     install_hooks are setup-time calls); any thread may read it.
//   * Session::state() is the internally synchronized NetworkState (see
//     network_state.h); MergeRequest/report() are mutex-guarded, so
//     concurrent requests may merge their accounting freely.
//   * Determinism across requests of one session requires the requests
//     themselves to be serialized (the daemon holds a per-session lock):
//     the trie's address mappings depend on insertion history, so two
//     interleaved requests of the SAME tenant would race randomness
//     consumption. Different sessions never share state and need no
//     ordering.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "config/document.h"
#include "core/anonymizer.h"
#include "core/engine.h"
#include "core/leak_detector.h"
#include "core/network_state.h"
#include "core/report.h"
#include "obs/hooks.h"

namespace confanon::core {

/// Outcome of the static policy verification pass (src/verify) over a
/// context's anonymization policy. Core only carries the verdict — the
/// analyses live in verify, and pipeline::MakeServiceContext runs them —
/// so a context built directly (verified == false) gates nothing.
struct PolicyVerdict {
  /// True once a verification pass actually ran and filled the counts.
  bool verified = false;
  std::size_t errors = 0;
  std::size_t warnings = 0;
  std::size_t notes = 0;
  /// "VER-001 <message>" of the most severe finding, for error text.
  std::string first_finding;

  bool Clean() const { return errors == 0 && warnings == 0; }
};

/// Thrown by ServiceContext::CreateSession when the verified policy has
/// error findings (or warnings without allow_policy_warnings): a session
/// over a provably leaky policy must never come into existence.
class PolicyError : public std::runtime_error {
 public:
  PolicyError(const std::string& message, PolicyVerdict verdict)
      : std::runtime_error(message), verdict_(std::move(verdict)) {}
  const PolicyVerdict& verdict() const { return verdict_; }

 private:
  PolicyVerdict verdict_;
};

/// Which rule pack handles a config file. kAuto defers to the per-file
/// brace-structure heuristic (DetectDialect).
enum class ConfigDialect {
  kAuto,
  kIos,
  kJunos,
};

/// Brace-structure heuristic: JunOS configs open blocks with a trailing
/// '{' and close them with a bare '}'; IOS configs never do. Returns
/// kJunos when any line matches, kIos otherwise.
ConfigDialect DetectDialect(const config::ConfigFile& file);

/// Opt-in post-anonymization fingerprint defense (src/defense): inject
/// decoy subnets/interfaces/peering stubs until every router's joint
/// (subnet-size histogram, peering degree) fingerprint is shared by at
/// least k routers of its corpus. Plain data here — the algorithm lives
/// in defense; the pipeline runs it as a profiled "defend" phase when
/// k > 0. Decoys are deterministic per (session salt, seed).
struct DefenseOptions {
  /// Target anonymity-set size; 0 disables the pass.
  int k = 0;
  /// Decoy randomness seed, mixed with the session salt.
  std::uint64_t seed = 0;
  /// Maximum decoy-line overhead as a fraction of the corpus's line
  /// count; padding groups beyond the budget are left untouched (the
  /// report then shows achieved k < target k).
  double budget = 0.35;
};

/// What the defense pass reports back through the Session (and the
/// daemon's /v1/sessions): how anonymous the served corpora actually are.
struct DefenseSummary {
  std::size_t target_k = 0;
  /// Smallest fingerprint class size after padding (min across requests
  /// when merged).
  std::size_t achieved_k = 0;
  std::uint64_t decoy_lines = 0;
  /// decoy_lines / pre-defense corpus lines, of the latest merged run.
  double overhead = 0.0;
};

/// The one options struct consumed by ServiceContext: engine
/// configuration, thread budget, work batching, and dialect routing.
struct ServiceOptions {
  /// Engine options (salt, regexp form, rule toggles, pass-list, known
  /// entities). `base.salt` is the context-wide base secret; sessions
  /// derive their own salt from it (daemon: "base:tenant") or override
  /// it outright via CreateSession(salt).
  AnonymizerOptions base;
  /// Worker threads per corpus/request. 0 picks
  /// std::thread::hardware_concurrency(); 1 runs on the calling thread.
  int threads = 0;
  /// Files per work-queue batch (amortizes the cursor fetch_add).
  std::size_t batch_size = 4;
  /// Dialect routing; kAuto detects per file.
  ConfigDialect dialect = ConfigDialect::kAuto;
  /// Run the static policy verifier (src/verify) at context build time
  /// (honored by pipeline::MakeServiceContext; plain ServiceContext
  /// construction never verifies) and gate CreateSession on the verdict.
  bool verify_policy = true;
  /// Permit sessions when verification produced warnings (never errors).
  bool allow_policy_warnings = false;
  /// Opt-in decoy fingerprint defense (k == 0 leaves output untouched).
  DefenseOptions defense;
};

class Session;

/// Process-lifetime, tenant-independent half of the API. Immutable after
/// setup; every session, pipeline, and daemon request reads the same
/// context. Engine construction is routed through registered per-dialect
/// factories so callers that only see core (no junos link) still drive
/// mixed corpora once the factories are in place —
/// pipeline::MakeServiceContext registers both built-in dialects.
class ServiceContext {
 public:
  /// Builds a dialect engine over a session's shared state. The options
  /// are the context's engine options with the session's salt resolved.
  using EngineFactory = std::function<std::unique_ptr<AnonymizerEngine>(
      const AnonymizerOptions& options,
      std::shared_ptr<NetworkState> state)>;

  /// The IOS factory (core::Anonymizer) is registered by the
  /// constructor; JunOS needs a registration from a layer that links it.
  explicit ServiceContext(ServiceOptions options);

  ServiceContext(const ServiceContext&) = delete;
  ServiceContext& operator=(const ServiceContext&) = delete;

  const ServiceOptions& options() const { return options_; }
  const passlist::PassList& pass_list() const {
    return *options_.base.pass_list;
  }

  /// Effective worker count for `items` units of work: <= 0 asks the
  /// hardware, more workers than items just idle.
  int ResolveThreads(std::size_t items) const;

  /// Setup-time: replaces the factory for `dialect` (kAuto is invalid —
  /// resolve it per file first).
  void RegisterEngineFactory(ConfigDialect dialect, EngineFactory factory);

  /// Constructs a dialect engine over `session`'s state, with the
  /// context's engine options re-salted for the session. Throws
  /// std::invalid_argument for kAuto or an unregistered dialect.
  std::unique_ptr<AnonymizerEngine> MakeEngine(ConfigDialect dialect,
                                               const Session& session) const;

  /// The context engine options with `session`'s salt substituted.
  AnonymizerOptions EngineOptions(const Session& session) const;

  /// Setup-time: observability shared by everything built on this
  /// context (all substrates are thread-safe; see obs/hooks.h).
  void install_hooks(const obs::Hooks& hooks) { hooks_ = hooks; }
  const obs::Hooks& hooks() const { return hooks_; }

  /// Setup-time: records the static verifier's verdict over this
  /// context's policy (pipeline::MakeServiceContext calls this when
  /// options.verify_policy is set). Until called, the verdict is
  /// unverified and CreateSession gates nothing.
  void SetPolicyVerdict(PolicyVerdict verdict) {
    policy_verdict_ = std::move(verdict);
  }
  const PolicyVerdict& policy_verdict() const { return policy_verdict_; }

  /// A fresh session salted with `salt` (or the base salt). Throws
  /// PolicyError when a recorded policy verdict has errors, or warnings
  /// without options().allow_policy_warnings.
  std::shared_ptr<Session> CreateSession(std::string_view salt) const;
  std::shared_ptr<Session> CreateSession() const;

 private:
  ServiceOptions options_;
  obs::Hooks hooks_;
  PolicyVerdict policy_verdict_;
  std::array<EngineFactory, 3> factories_;  // indexed by ConfigDialect
};

/// Per-tenant half of the API: one salted NetworkState plus the
/// accounting merged across every request served against it. Keeping a
/// Session alive is what keeps a tenant's hash memo, IP trie, and
/// rewrite memo warm between requests — and what gives a multi-request
/// stream the same referential integrity as a batch corpus run.
class Session {
 public:
  Session(const ServiceContext& context, std::string_view salt);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const std::string& salt() const { return salt_; }
  const std::shared_ptr<NetworkState>& state() const { return state_; }

  /// Installs this session's extra pass-list entries (the daemon's
  /// per-tenant pass-list), merged into every engine's options on top of
  /// the context's own extras. Must be called before the first request —
  /// changing the pass-list mid-stream would break referential
  /// integrity — and throws std::logic_error afterwards. Callers are
  /// expected to verify the combined policy (verify::VerifyPolicy)
  /// before installing.
  void SetExtraPassList(passlist::PassList extras);
  const passlist::PassList& extra_pass_list() const { return extras_; }

  /// Merges one request's (or corpus run's) accounting into the
  /// session-lifetime totals. Thread-safe.
  void MergeRequest(const AnonymizationReport& report,
                    const LeakRecord& leaks);

  /// Merges one defense pass's outcome: decoy lines accumulate,
  /// achieved k takes the minimum across runs (the conservative
  /// "weakest corpus served" reading), target/overhead take the latest
  /// run's values. Thread-safe.
  void MergeDefense(const DefenseSummary& summary);

  /// Session-lifetime copies (mutex-guarded snapshot).
  AnonymizationReport report() const;
  LeakRecord leak_record() const;
  DefenseSummary defense() const;

  /// Requests merged so far.
  std::uint64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  std::string salt_;
  std::shared_ptr<NetworkState> state_;
  passlist::PassList extras_;
  mutable std::mutex mutex_;
  AnonymizationReport report_;
  LeakRecord leak_record_;
  DefenseSummary defense_;
  std::atomic<std::uint64_t> requests_{0};
};

}  // namespace confanon::core
