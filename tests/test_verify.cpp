// The static policy verifier's contract (docs/VERIFY.md): a clean
// verdict on the builtin policies, one finding per seeded contradiction,
// and — the load-bearing bit — every VER-001 witness string, fed through
// the REAL anonymizer, actually leaks. The file-name channel is the
// demonstration vehicle: core::Anonymizer passes a file name verbatim
// iff the whole name is pass-listed, so a witness-named file keeps its
// name under the bad policy and is hashed under the builtin one.
#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "audit/finding.h"
#include "audit/sarif.h"
#include "config/document.h"
#include "core/anonymizer.h"
#include "core/session.h"
#include "junos/anonymizer.h"
#include "passlist/passlist.h"
#include "pipeline/pipeline.h"
#include "verify/policy.h"
#include "verify/recognizer.h"
#include "verify/verify.h"

namespace confanon {
namespace {

using audit::AuditResult;
using audit::Finding;
using audit::Severity;

/// Options with one extra pass-list token on top of the builtins — the
/// daemon's per-tenant shape, and the smallest seeded contradiction.
core::AnonymizerOptions WithExtra(std::string_view token) {
  core::AnonymizerOptions options;
  options.extra_pass_list.Add(token);
  return options;
}

/// The findings with `rule_id`, in report order.
std::vector<const Finding*> FindAll(const AuditResult& result,
                                    std::string_view rule_id) {
  std::vector<const Finding*> out;
  for (const Finding& finding : result.findings) {
    if (finding.rule_id == rule_id) out.push_back(&finding);
  }
  return out;
}

/// Extracts the quoted witness from a VER-001 message ("shortest witness
/// of the intersection: '...'").
std::string WitnessOf(const Finding& finding) {
  const std::string_view marker = "shortest witness of the intersection: '";
  const std::size_t start = finding.message.find(marker);
  if (start == std::string::npos) return {};
  const std::size_t from = start + marker.size();
  const std::size_t end = finding.message.find('\'', from);
  if (end == std::string::npos) return {};
  return finding.message.substr(from, end - from);
}

/// The file-name the real anonymizer emits for a file named `name` under
/// `options` — the whole-identifier pass-list channel VER-001 is about.
std::string AnonymizedName(const core::AnonymizerOptions& options,
                           const std::string& name) {
  core::Anonymizer engine(options);
  return engine.AnonymizeFile(config::ConfigFile(name, {"interface x"}))
      .name();
}

/// Asserts the witness leaks under `bad` (name survives verbatim) and
/// does NOT leak under the builtin policy (name is hashed) — i.e. the
/// verifier's proof corresponds to a real end-to-end behavior.
void ExpectWitnessLeaks(const core::AnonymizerOptions& bad,
                        const std::string& witness) {
  ASSERT_FALSE(witness.empty());
  core::AnonymizerOptions salted_bad = bad;
  salted_bad.salt = "witness-check";
  EXPECT_EQ(AnonymizedName(salted_bad, witness), witness)
      << "witness '" << witness << "' should survive the bad policy";
  core::AnonymizerOptions builtin;
  builtin.salt = "witness-check";
  EXPECT_NE(AnonymizedName(builtin, witness), witness)
      << "witness '" << witness << "' should hash under the builtin policy";
}

// --- clean baselines ----------------------------------------------------

TEST(VerifyPolicy, BuiltinPoliciesAreClean) {
  const AuditResult result = verify::VerifyEngineOptions({});
  EXPECT_TRUE(result.findings.empty()) << result.ToText();
  EXPECT_GT(result.stats.at("verify.entries"), 1000u);
  EXPECT_GT(result.stats.at("verify.dfa_states"), 0u);
  const core::PolicyVerdict verdict = verify::VerdictOf(result);
  EXPECT_TRUE(verdict.verified);
  EXPECT_TRUE(verdict.Clean());
  EXPECT_EQ(verdict.notes, 0u);
}

TEST(VerifyPolicy, BothDialectsModeledAndClean) {
  const verify::PolicySpec spec = verify::BuiltinPolicy();
  ASSERT_EQ(spec.dialects.size(), 2u);
  EXPECT_EQ(spec.dialects[0].dialect, verify::Dialect::kIos);
  EXPECT_EQ(spec.dialects[1].dialect, verify::Dialect::kJunos);
  // Every builtin entry is baseline — nothing custom to flag.
  for (const verify::DialectPolicy& policy : spec.dialects) {
    EXPECT_EQ(policy.baseline_count, policy.entries.size());
  }
  EXPECT_TRUE(verify::VerifyPolicy(spec).findings.empty());
}

// --- seeded contradictions: one per sensitive recognizer ----------------

TEST(VerifyPolicy, Ipv4EntryYieldsLeakWitness) {
  const core::AnonymizerOptions bad = WithExtra("10.0.0.1");
  const AuditResult result = verify::VerifyEngineOptions(bad);
  const auto findings = FindAll(result, "VER-001");
  // Both dialects inherit the extras, so both report the channel.
  ASSERT_EQ(findings.size(), 2u) << result.ToText();
  for (const Finding* finding : findings) {
    EXPECT_EQ(finding->severity, Severity::kError);
    EXPECT_NE(finding->message.find("ipv4-literal"), std::string::npos);
  }
  ExpectWitnessLeaks(bad, WitnessOf(*findings.front()));
}

TEST(VerifyPolicy, PublicAsnEntryYieldsLeakWitness) {
  const core::AnonymizerOptions bad = WithExtra("64000");
  const AuditResult result = verify::VerifyEngineOptions(bad);
  const auto findings = FindAll(result, "VER-001");
  ASSERT_FALSE(findings.empty()) << result.ToText();
  EXPECT_NE(findings.front()->message.find("asn-public-literal"),
            std::string::npos);
  ExpectWitnessLeaks(bad, WitnessOf(*findings.front()));
}

TEST(VerifyPolicy, CommunityEntryYieldsLeakWitness) {
  const core::AnonymizerOptions bad = WithExtra("64496:100");
  const AuditResult result = verify::VerifyEngineOptions(bad);
  const auto findings = FindAll(result, "VER-001");
  ASSERT_FALSE(findings.empty()) << result.ToText();
  EXPECT_NE(findings.front()->message.find("community-literal"),
            std::string::npos);
  ExpectWitnessLeaks(bad, WitnessOf(*findings.front()));
}

TEST(VerifyPolicy, HashShapedEntryYieldsLeakWitness) {
  // An entry shaped like the engine's own output ("h" + 10 hex digits)
  // would let a forged mapping ride through verbatim.
  const core::AnonymizerOptions bad = WithExtra("h0123456789");
  const AuditResult result = verify::VerifyEngineOptions(bad);
  const auto findings = FindAll(result, "VER-001");
  ASSERT_FALSE(findings.empty()) << result.ToText();
  EXPECT_NE(findings.front()->message.find("hash-token"), std::string::npos);
  ExpectWitnessLeaks(bad, WitnessOf(*findings.front()));
}

TEST(VerifyPolicy, SpecialAddressesAreExemptFromIpv4Findings) {
  // Netmasks/wildcards pass through legitimately under rule I2; listing
  // one is redundant but not a leak channel.
  const AuditResult result =
      verify::VerifyEngineOptions(WithExtra("255.255.255.0"));
  EXPECT_TRUE(FindAll(result, "VER-001").empty()) << result.ToText();
}

// --- reachability / shadowing -------------------------------------------

TEST(VerifyPolicy, DeadNonAlphaEntryReported) {
  // T1 segmentation only ever tests alphabetic runs, so "loopback0" can
  // never match a word; the entry is live only for whole-identifier
  // exemptions.
  const AuditResult result =
      verify::VerifyEngineOptions(WithExtra("loopback0"));
  const auto findings = FindAll(result, "VER-002");
  ASSERT_FALSE(findings.empty()) << result.ToText();
  EXPECT_EQ(findings.front()->severity, Severity::kWarning);
  EXPECT_NE(findings.front()->message.find("loopback0"), std::string::npos);
}

TEST(VerifyPolicy, ShadowedEntryAnchorsBothLoads) {
  // "loopback" is already in the builtin corpus; the tenant's re-add is
  // inert and the finding points back at the first load.
  const AuditResult result =
      verify::VerifyEngineOptions(WithExtra("loopback"));
  const auto findings = FindAll(result, "VER-003");
  ASSERT_FALSE(findings.empty()) << result.ToText();
  const Finding& finding = *findings.front();
  EXPECT_EQ(finding.severity, Severity::kWarning);
  EXPECT_EQ(finding.anchor.file, verify::kOriginExtra);
  EXPECT_NE(finding.message.find(verify::kOriginBuiltin), std::string::npos);
}

TEST(VerifyPolicy, CrossDialectConflictReported) {
  // Replacing the IOS pass-list outright (not extending it) leaves the
  // JunOS engine — which ignores options.pass_list — without the custom
  // token: passed in IOS, hashed in JunOS.
  auto custom = std::make_shared<passlist::PassList>(
      passlist::PassList::Builtin());
  custom->Add("zephyrix");
  core::AnonymizerOptions options;
  options.pass_list = std::move(custom);
  const AuditResult result = verify::VerifyEngineOptions(options);
  const auto findings = FindAll(result, "VER-004");
  ASSERT_EQ(findings.size(), 1u) << result.ToText();
  EXPECT_NE(findings.front()->message.find("zephyrix"), std::string::npos);
  EXPECT_NE(findings.front()->message.find("junos"), std::string::npos);
}

TEST(VerifyPolicy, SamePolicyInputsTracksWhatTheVerifierReads) {
  const core::AnonymizerOptions builtin;
  // Salt and rendering options are not verifier inputs, and an equal
  // copy of the builtin list is the same policy as the shared one.
  core::AnonymizerOptions other_salt;
  other_salt.salt = "other";
  other_salt.strip_comments = false;
  other_salt.pass_list = std::make_shared<const passlist::PassList>(
      passlist::PassList::Builtin());
  EXPECT_TRUE(verify::SamePolicyInputs(builtin, other_salt));

  EXPECT_FALSE(verify::SamePolicyInputs(builtin, WithExtra("zephyrix")));
  core::AnonymizerOptions disabled;
  disabled.disabled_rules.emplace(core::RuleName(core::Rule::kSnmpStrings));
  EXPECT_FALSE(verify::SamePolicyInputs(builtin, disabled));
  core::AnonymizerOptions truncated;
  truncated.pass_list = std::make_shared<const passlist::PassList>(
      passlist::PassList::Builtin().Truncated(0.5, 7));
  EXPECT_FALSE(verify::SamePolicyInputs(builtin, truncated));
}

// --- taint closure over the disable surface ----------------------------

TEST(VerifyPolicy, DisablingWordHashUncoversEverySymbolSpace) {
  core::AnonymizerOptions options;
  options.disabled_rules.emplace(core::RuleName(core::Rule::kPasslistHash));
  const AuditResult result = verify::VerifyEngineOptions(options);
  const auto findings = FindAll(result, "VER-005");
  // Nine refgraph symbol spaces, IOS only (JunOS has no disable surface).
  EXPECT_EQ(findings.size(), 9u) << result.ToText();
  for (const Finding* finding : findings) {
    EXPECT_EQ(finding->severity, Severity::kError);
  }
}

TEST(VerifyPolicy, DisabledTransformRuleMapsToValueClass) {
  core::AnonymizerOptions options;
  options.disabled_rules.emplace(core::RuleName(core::Rule::kSnmpStrings));
  const AuditResult result = verify::VerifyEngineOptions(options);
  const auto findings = FindAll(result, "VER-006");
  ASSERT_EQ(findings.size(), 1u) << result.ToText();
  EXPECT_EQ(findings.front()->severity, Severity::kError);
  EXPECT_NE(findings.front()->message.find("SNMP"), std::string::npos);
}

TEST(VerifyPolicy, UnknownDisabledRuleNameIsFlagged) {
  core::AnonymizerOptions options;
  options.disabled_rules.insert("M9.no-such-rule");
  const AuditResult result = verify::VerifyEngineOptions(options);
  const auto findings = FindAll(result, "VER-007");
  ASSERT_EQ(findings.size(), 1u) << result.ToText();
  EXPECT_EQ(findings.front()->severity, Severity::kWarning);
}

// JunOS rules cannot be disabled (the JunOS engine has no disable
// surface), so a J.* name in disabled_rules is as inert as a misspelled
// one: each raises VER-007, and neither dialect's output moves.
TEST(VerifyPolicy, JunosAndMisspelledDisablesAreFlaggedAndInert) {
  core::ServiceOptions crippled;
  crippled.base.salt = "inert";
  crippled.base.disabled_rules = {"J.passlist-hash", "T1.segmnet-words"};
  crippled.allow_policy_warnings = true;

  const AuditResult result = verify::VerifyEngineOptions(crippled.base);
  const auto findings = FindAll(result, "VER-007");
  ASSERT_EQ(findings.size(), 2u) << result.ToText();
  EXPECT_NE(findings[0]->message.find("'J.passlist-hash'"), std::string::npos);
  EXPECT_NE(findings[1]->message.find("'T1.segmnet-words'"),
            std::string::npos);
  EXPECT_EQ(result.findings.size(), 2u) << result.ToText();

  const std::vector<config::ConfigFile> corpus = {
      config::ConfigFile::FromText(
          "r1", "hostname core\nroute-map UUNET-import permit 10\n"
                "interface Ethernet0\n ip address 12.34.56.78 255.255.255.0\n"),
      config::ConfigFile::FromText(
          "r2", "system {\n    host-name core-fra-1;\n}\n"
                "policy-options {\n    policy-statement UUNET-import {\n"
                "    }\n}\n"
                "interfaces {\n    lo0 {\n        unit 0 {\n"
                "            family inet {\n"
                "                address 10.9.8.7/32;\n"
                "            }\n        }\n    }\n}\n")};
  const auto run = [&](core::ServiceOptions options) {
    const auto context = pipeline::MakeServiceContext(std::move(options));
    pipeline::CorpusPipeline pipeline(context, context->CreateSession());
    std::string text;
    for (const auto& file : pipeline.AnonymizeCorpus(corpus)) {
      text += file.ToText();
    }
    return text;
  };
  core::ServiceOptions plain;
  plain.base.salt = "inert";
  const std::string expected = run(plain);
  EXPECT_EQ(run(crippled), expected);
  EXPECT_EQ(expected.find("UUNET"), std::string::npos) << expected;
}

// --- SARIF --------------------------------------------------------------

TEST(VerifySarif, FindingsFlowThroughTheSharedEmitter) {
  const AuditResult result =
      verify::VerifyEngineOptions(WithExtra("10.0.0.1"));
  ASSERT_FALSE(result.findings.empty());
  const std::string sarif = audit::ToSarif(result);
  EXPECT_NE(sarif.find("\"VER-001\""), std::string::npos);
  EXPECT_NE(sarif.find("\"2.1.0\""), std::string::npos);
  // Balanced structure (the full JSON grammar is covered by the audit
  // suite's checker; the verifier reuses that emitter verbatim).
  std::ptrdiff_t depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < sarif.size(); ++i) {
    const char c = sarif[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
  // The VER-* catalogue rides along in the driver descriptor.
  for (const char* id :
       {"VER-001", "VER-002", "VER-003", "VER-004", "VER-005", "VER-006",
        "VER-007"}) {
    EXPECT_NE(sarif.find(id), std::string::npos) << id;
  }
}

// --- the ServiceContext gate --------------------------------------------

TEST(PolicyGate, LeakyPolicyRefusesSessionCreation) {
  core::ServiceOptions options;
  options.base.salt = "gate";
  options.base.extra_pass_list.Add("10.0.0.1");
  const auto context = pipeline::MakeServiceContext(std::move(options));
  EXPECT_GT(context->policy_verdict().errors, 0u);
  EXPECT_THROW((void)context->CreateSession(), core::PolicyError);
  try {
    (void)context->CreateSession();
  } catch (const core::PolicyError& error) {
    EXPECT_NE(std::string(error.what()).find("VER-001"), std::string::npos);
    EXPECT_GT(error.verdict().errors, 0u);
  }
}

TEST(PolicyGate, WarningsGateUnlessAllowed) {
  core::ServiceOptions options;
  options.base.salt = "gate";
  options.base.extra_pass_list.Add("loopback0");  // VER-002 warning
  {
    core::ServiceOptions strict = options;
    const auto context = pipeline::MakeServiceContext(std::move(strict));
    EXPECT_THROW((void)context->CreateSession(), core::PolicyError);
  }
  {
    core::ServiceOptions relaxed = options;
    relaxed.allow_policy_warnings = true;
    const auto context = pipeline::MakeServiceContext(std::move(relaxed));
    EXPECT_NO_THROW((void)context->CreateSession());
  }
}

TEST(PolicyGate, UnverifiedContextGatesNothing) {
  core::ServiceOptions options;
  options.base.salt = "gate";
  options.base.extra_pass_list.Add("10.0.0.1");
  options.verify_policy = false;
  const auto context = pipeline::MakeServiceContext(std::move(options));
  EXPECT_FALSE(context->policy_verdict().verified);
  EXPECT_NO_THROW((void)context->CreateSession());
}

TEST(PolicyGate, SessionExtrasAreImmutableAfterFirstRequest) {
  core::ServiceOptions options;
  options.base.salt = "gate";
  const auto context = pipeline::MakeServiceContext(std::move(options));
  const auto session = context->CreateSession();

  passlist::PassList extras;
  extras.Add("zephyrix");
  session->SetExtraPassList(std::move(extras));

  // The session's extras reach the engines built over it.
  pipeline::CorpusPipeline pipeline(context, session);
  const auto out = pipeline.AnonymizeCorpus(
      {config::ConfigFile("r1", {"interface zephyrix"})});
  session->MergeRequest(core::AnonymizationReport{}, core::LeakRecord{});
  EXPECT_NE(out.front().lines()[0].find("zephyrix"), std::string::npos);

  passlist::PassList late;
  late.Add("quorvane");
  EXPECT_THROW(session->SetExtraPassList(std::move(late)), std::logic_error);
}

// --- the gate in a network set ------------------------------------------

/// One single-file network per salt, each task carrying `options`.
std::vector<pipeline::NetworkTask> NetworkTasks(
    const core::ServiceOptions& options, std::size_t count) {
  std::vector<pipeline::NetworkTask> tasks(count);
  for (std::size_t i = 0; i < count; ++i) {
    tasks[i].options = options;
    tasks[i].options.base.salt = "net-" + std::to_string(i);
    tasks[i].files = {config::ConfigFile("r1", {"hostname r1"})};
  }
  return tasks;
}

TEST(PolicyGate, LeakySetPolicyMakesNetworkSetThrow) {
  // The tasks carry the set's policy, so they take over its VER-001
  // verdict instead of verifying again — and are gated on it.
  core::ServiceOptions leaky;
  leaky.base.extra_pass_list.Add("10.0.0.1");
  const auto set_context = pipeline::MakeServiceContext(leaky);
  ASSERT_GT(set_context->policy_verdict().errors, 0u);
  try {
    (void)pipeline::AnonymizeNetworkSet(NetworkTasks(leaky, 3), *set_context);
    ADD_FAILURE() << "a leaky network set ran";
  } catch (const core::PolicyError& error) {
    EXPECT_NE(std::string(error.what()).find("VER-001"), std::string::npos);
  }
}

TEST(PolicyGate, LeakyTaskInCleanSetThrows) {
  // A task whose policy differs from the set's is verified on its own.
  const auto set_context = pipeline::MakeServiceContext({});
  auto tasks = NetworkTasks({}, 3);
  tasks[1].options.base.extra_pass_list.Add("10.0.0.1");
  EXPECT_THROW((void)pipeline::AnonymizeNetworkSet(tasks, *set_context),
               core::PolicyError);
}

TEST(PolicyGate, NetworkSetTakesOverTheSetVerdict) {
  // Recording an error verdict on a clean set context shows which
  // verdict gates each task: a task with the set's policy inputs gets
  // the set's verdict, a task with other inputs gets its own.
  const auto set_context = pipeline::MakeServiceContext({});
  core::PolicyVerdict recorded;
  recorded.verified = true;
  recorded.errors = 1;
  recorded.first_finding = "VER-001 recorded on the set context";
  set_context->SetPolicyVerdict(recorded);
  EXPECT_THROW((void)pipeline::AnonymizeNetworkSet(NetworkTasks({}, 2),
                                                   *set_context),
               core::PolicyError);

  core::ServiceOptions own_policy;
  own_policy.base.extra_pass_list.Add("zephyrix");
  const auto out =
      pipeline::AnonymizeNetworkSet(NetworkTasks(own_policy, 2), *set_context);
  EXPECT_EQ(out.size(), 2u);
}

// --- builtin pass-lists shared process-wide -----------------------------

TEST(SharedPassList, EnginesWithoutExtrasBorrowOneList) {
  const auto context = pipeline::MakeServiceContext({});
  const auto first = context->MakeEngine(core::ConfigDialect::kIos,
                                         *context->CreateSession("a"));
  const auto second = context->MakeEngine(core::ConfigDialect::kIos,
                                          *context->CreateSession("b"));
  const auto& a = dynamic_cast<const core::Anonymizer&>(*first);
  const auto& b = dynamic_cast<const core::Anonymizer&>(*second);
  EXPECT_EQ(&a.pass_list(), &b.pass_list());
  EXPECT_EQ(&a.pass_list(), passlist::PassList::SharedBuiltin().get());
}

TEST(SharedPassList, TenantExtrasStayInTheirSession) {
  // Two tenants on one context; only one installs `zephyrix`. Its
  // engines are built first, so an extras merge that wrote into the
  // shared builtin lists would show up in the other tenant's output.
  const auto context = pipeline::MakeServiceContext({});
  const auto with_extras = context->CreateSession("tenant-a");
  const auto plain = context->CreateSession("tenant-b");
  passlist::PassList extras;
  extras.Add("zephyrix");
  with_extras->SetExtraPassList(std::move(extras));

  const config::ConfigFile ios("r1", {"interface zephyrix"});
  const config::ConfigFile junos(
      "r2", {"interfaces {", "    zephyrix {", "    }", "}"});
  const auto anonymize = [&](const core::Session& session) {
    std::string text =
        context->MakeEngine(core::ConfigDialect::kIos, session)
            ->AnonymizeFile(ios)
            .ToText();
    text += context->MakeEngine(core::ConfigDialect::kJunos, session)
                ->AnonymizeFile(junos)
                .ToText();
    return text;
  };
  const std::string passed = anonymize(*with_extras);
  const std::string hashed = anonymize(*plain);
  EXPECT_NE(passed.find("interface zephyrix"), std::string::npos) << passed;
  EXPECT_NE(passed.find("    zephyrix {"), std::string::npos) << passed;
  EXPECT_EQ(hashed.find("zephyrix"), std::string::npos) << hashed;
  EXPECT_FALSE(passlist::PassList::SharedBuiltin()->Contains("zephyrix"));
  EXPECT_FALSE(junos::SharedJunosPassList()->Contains("zephyrix"));
}

}  // namespace
}  // namespace confanon
