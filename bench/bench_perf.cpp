// PERF — microbenchmarks of the design choices the paper weighs:
//   * Section 4.3: tree-based (Minshall-style) vs cryptographic (Xu /
//     Crypto-PAn style) prefix-preserving address mapping;
//   * Section 4.1: salted SHA-1 hashing, the per-word cost of the
//     conservative hash-everything-unknown policy;
//   * Section 4.4: regexp rewriting cost, alternation vs minimized-DFA
//     output (the extension path the paper mentions);
//   * the static policy verifier every context build runs, and its
//     literal-set automaton;
//   * end-to-end anonymization throughput (lines/s), which determined
//     whether the paper's 4.3M-line corpus was tractable.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "asn/regex_rewrite.h"
#include "bench_json.h"
#include "core/anonymizer.h"
#include "core/leak_detector.h"
#include "gen/config_writer.h"
#include "gen/network_gen.h"
#include "junos/anonymizer.h"
#include "junos/writer.h"
#include "ipanon/cryptopan.h"
#include "ipanon/ip_anonymizer.h"
#include "config/tokenizer.h"
#include "net/ipv4.h"
#include "obs/hooks.h"
#include "passlist/passlist.h"
#include "pipeline/pipeline.h"
#include "regex/dfa.h"
#include "regex/nfa.h"
#include "util/aho_corasick.h"
#include "util/charscan.h"
#include "util/rng.h"
#include "util/sha1.h"
#include "verify/policy.h"
#include "verify/verify.h"

namespace {

using namespace confanon;

void BM_Sha1Throughput(benchmark::State& state) {
  const std::string block(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::Sha1::Hash(block));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha1Throughput)->Arg(64)->Arg(1024)->Arg(65536);

void BM_SaltedToken(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::SaltedHexToken("salt", "UUNET-import"));
  }
}
BENCHMARK(BM_SaltedToken);

void BM_TreeIpMap(benchmark::State& state) {
  ipanon::IpAnonymizer anonymizer("bench-salt");
  util::Rng rng(1);
  std::vector<net::Ipv4Address> addresses;
  for (int i = 0; i < 4096; ++i) {
    addresses.emplace_back(static_cast<std::uint32_t>(rng.Next()));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        anonymizer.Map(addresses[i++ & 4095]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TreeIpMap);

void BM_TreeIpMapColdAddresses(benchmark::State& state) {
  // Every address fresh: measures trie growth rather than memo hits.
  ipanon::IpAnonymizer anonymizer("bench-salt-cold");
  util::Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        anonymizer.Map(net::Ipv4Address(static_cast<std::uint32_t>(rng.Next()))));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TreeIpMapColdAddresses);

void BM_CryptoPanMap(benchmark::State& state) {
  const ipanon::CryptoPan pan("bench-key");
  util::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pan.Map(net::Ipv4Address(static_cast<std::uint32_t>(rng.Next()))));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CryptoPanMap);

void BM_AsnPermutationBuild(benchmark::State& state) {
  int i = 0;
  for (auto _ : state) {
    asn::AsnMap map("salt-" + std::to_string(i++));
    benchmark::DoNotOptimize(map.Map(701));
  }
}
BENCHMARK(BM_AsnPermutationBuild);

void BM_TokenLanguageEnumerate(benchmark::State& state) {
  // The Section 4.4 language computation: compile the pattern, then walk
  // its DFA over decimal strings digit by digit (the paper applies the
  // regexp to all 2^16 ASNs instead).
  for (auto _ : state) {
    const asn::TokenLanguage language =
        asn::TokenLanguage::Compile("_70[1-5]_");
    benchmark::DoNotOptimize(language.Enumerate());
  }
}
BENCHMARK(BM_TokenLanguageEnumerate);

void BM_RewriteAlternation(benchmark::State& state) {
  const asn::AsnMap map("bench-salt");
  for (auto _ : state) {
    // Fresh rewriter per iteration: measures the full language
    // computation, not the rewrite memo (see BM_RewriteMemoHit).
    const asn::AsnRegexRewriter rewriter(map);
    benchmark::DoNotOptimize(
        rewriter.Rewrite("_7[0-9][0-9]_", asn::RewriteForm::kAlternation));
  }
}
BENCHMARK(BM_RewriteAlternation);

void BM_RewriteMinimizedDfa(benchmark::State& state) {
  const asn::AsnMap map("bench-salt");
  for (auto _ : state) {
    const asn::AsnRegexRewriter rewriter(map);
    benchmark::DoNotOptimize(
        rewriter.Rewrite("_7[0-9][0-9]_", asn::RewriteForm::kMinimizedDfa));
  }
}
BENCHMARK(BM_RewriteMinimizedDfa);

void BM_RewriteMemoHit(benchmark::State& state) {
  // The repeated-pattern path: after the first call every Rewrite of the
  // same (pattern, form) is an LRU lookup under a mutex.
  const asn::AsnMap map("bench-salt");
  const asn::AsnRegexRewriter rewriter(map);
  benchmark::DoNotOptimize(
      rewriter.Rewrite("_7[0-9][0-9]_", asn::RewriteForm::kAlternation));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rewriter.Rewrite("_7[0-9][0-9]_", asn::RewriteForm::kAlternation));
  }
  state.counters["memo_hits"] =
      static_cast<double>(rewriter.memo().hits());
}
BENCHMARK(BM_RewriteMemoHit);

/// The builtin IOS pass-list's distinct tokens in load order, the literal
/// language the policy verifier intersects with its recognizers.
std::vector<std::string> BuiltinIosTokens() {
  const verify::PolicySpec spec = verify::BuiltinPolicy();
  std::vector<std::string> tokens;
  std::unordered_set<std::string> seen;
  for (const auto& entry : spec.dialects.front().entries) {
    if (seen.insert(entry.text).second) tokens.push_back(entry.text);
  }
  return tokens;
}

void BM_LiteralSetDfa(benchmark::State& state) {
  // Subset construction and minimization of the builtin IOS list's
  // literal NFA (about 12,750 NFA states, 3,455 DFA states, 1,270
  // minimal): the verifier's expensive automaton.
  const std::vector<std::string> tokens = BuiltinIosTokens();
  regex::Ast ast;
  std::vector<regex::NodeId> branches;
  for (const std::string& token : tokens) {
    std::vector<regex::NodeId> chars;
    for (const char c : token) {
      chars.push_back(ast.AddCharSet(regex::CharSet::Single(c)));
    }
    branches.push_back(ast.AddConcat(std::move(chars)));
  }
  ast.set_root(ast.AddAlternate(std::move(branches)));
  const regex::Nfa nfa = regex::Nfa::Build(ast);
  int states = 0;
  for (auto _ : state) {
    const regex::Dfa minimal = regex::Dfa::FromNfa(nfa).Minimize();
    states = minimal.StateCount();
    benchmark::DoNotOptimize(states);
  }
  state.counters["tokens"] = static_cast<double>(tokens.size());
  state.counters["min_states"] = static_cast<double>(states);
}
BENCHMARK(BM_LiteralSetDfa)->Unit(benchmark::kMillisecond);

void BM_VerifyBuiltinPolicy(benchmark::State& state) {
  // One static verification of the default options: what every context
  // build (confanond start-up, each confanon_tool run) pays.
  const core::AnonymizerOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify::VerifyEngineOptions(options));
  }
}
BENCHMARK(BM_VerifyBuiltinPolicy)->Unit(benchmark::kMillisecond);

void BM_TokenizeLine(benchmark::State& state) {
  // The tokenizer hot path over representative IOS lines, using the
  // buffer-reusing *Into form the engines use (zero allocations once
  // the vectors reach capacity).
  const std::vector<std::string> lines = {
      " ip address 203.0.113.77 255.255.255.0",
      " neighbor 198.51.100.9 route-map UUNET-import in",
      "interface GigabitEthernet0/0/1.503",
      "  description\t\tcore uplink  (  do not touch  )",
      "snmp-server community s3cr3t RO 99",
  };
  std::size_t bytes = 0;
  for (const auto& line : lines) bytes += line.size();
  config::LineTokens tokens;
  std::size_t i = 0;
  for (auto _ : state) {
    config::TokenizeLineInto(lines[i++ % lines.size()], tokens);
    benchmark::DoNotOptimize(tokens.words.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes / lines.size()));
  state.SetLabel(util::CharScanImplName());
}
BENCHMARK(BM_TokenizeLine);

void BM_SegmentWord(benchmark::State& state) {
  // Rule T1 segmentation of the identifiers the pass-list check sees.
  const std::vector<std::string> words = {
      "ethernet0/0", "GigabitEthernet0/0/1.503", "UUNET-import",
      "h38c2cc71c4", "255.255.255.0",
  };
  std::vector<config::Segment> segments;
  std::size_t i = 0;
  for (auto _ : state) {
    config::SegmentWordInto(words[i++ % words.size()], segments);
    benchmark::DoNotOptimize(segments.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(util::CharScanImplName());
}
BENCHMARK(BM_SegmentWord);

void BM_Ipv4AddressToString(benchmark::State& state) {
  // Dotted-quad rendering of the addresses rules I1/I3 map, with one-,
  // two- and three-digit octets mixed.
  util::Rng rng(4);
  std::vector<net::Ipv4Address> addresses;
  for (int i = 0; i < 4096; ++i) {
    addresses.emplace_back(static_cast<std::uint32_t>(rng.Next()));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(addresses[i++ & 4095].ToString());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Ipv4AddressToString);

void BM_PassListContains(benchmark::State& state) {
  // The rule T2 membership test on the builtin list: keywords in mixed
  // case, and identifiers it does not hold.
  const passlist::PassList& list = *passlist::PassList::SharedBuiltin();
  const std::vector<std::string> tokens = {
      "interface", "GigabitEthernet", "neighbor", "UUNET", "remote",
      "route",     "map",             "import",   "acme", "Loopback",
  };
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(list.Contains(tokens[i++ % tokens.size()]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PassListContains);

std::vector<config::ConfigFile> BenchCorpus(int routers) {
  gen::GeneratorParams params;
  params.seed = 99;
  params.router_count = routers;
  // Force the policy-regex features on so the rewriters (and the memo
  // behind asn.rewrite_memo_hits) run on every bench corpus.
  params.p_public_range_regex = 1.0;
  params.p_alternation_regex = 1.0;
  params.p_community_regex = 1.0;
  return gen::WriteNetworkConfigs(gen::GenerateNetwork(params, 0));
}

void BM_AnonymizeNetwork(benchmark::State& state) {
  const auto pre = BenchCorpus(static_cast<int>(state.range(0)));
  std::size_t lines = 0;
  for (const auto& file : pre) lines += file.LineCount();
  for (auto _ : state) {
    core::AnonymizerOptions options;
    options.salt = "perf-salt";
    core::Anonymizer anonymizer(std::move(options));
    benchmark::DoNotOptimize(anonymizer.AnonymizeNetwork(pre));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lines));
  state.counters["lines"] = static_cast<double>(lines);
}
BENCHMARK(BM_AnonymizeNetwork)->Arg(8)->Arg(24)->Arg(48)->Unit(benchmark::kMillisecond);

void BM_AnonymizeJunosNetwork(benchmark::State& state) {
  gen::GeneratorParams params;
  params.seed = 99;
  params.router_count = static_cast<int>(state.range(0));
  const auto pre =
      junos::WriteJunosNetworkConfigs(gen::GenerateNetwork(params, 0));
  std::size_t lines = 0;
  for (const auto& file : pre) lines += file.LineCount();
  for (auto _ : state) {
    junos::JunosAnonymizerOptions options;
    options.salt = "perf-salt";
    junos::JunosAnonymizer anonymizer(std::move(options));
    benchmark::DoNotOptimize(anonymizer.AnonymizeNetwork(pre));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lines));
  state.counters["lines"] = static_cast<double>(lines);
}
BENCHMARK(BM_AnonymizeJunosNetwork)->Arg(24)->Unit(benchmark::kMillisecond);

void BM_LeakScan(benchmark::State& state) {
  const auto pre = BenchCorpus(24);
  core::AnonymizerOptions options;
  options.salt = "perf-salt";
  core::Anonymizer anonymizer(std::move(options));
  const auto post = anonymizer.AnonymizeNetwork(pre);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::LeakDetector::Scan(post, anonymizer.leak_record()));
  }
}
BENCHMARK(BM_LeakScan)->Unit(benchmark::kMillisecond);

void BM_AhoCorasickBuild(benchmark::State& state) {
  std::vector<std::string> patterns;
  util::Rng rng(13);
  for (int i = 0; i < 2000; ++i) {
    patterns.push_back(std::to_string(rng.Below(65536)));
  }
  for (auto _ : state) {
    util::AhoCorasick automaton(patterns);
    benchmark::DoNotOptimize(automaton.PatternCount());
  }
  state.SetLabel("2000 patterns");
}
BENCHMARK(BM_AhoCorasickBuild)->Unit(benchmark::kMillisecond);

void BM_AhoCorasickScanLine(benchmark::State& state) {
  std::vector<std::string> patterns;
  util::Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    patterns.push_back(std::to_string(rng.Below(65536)));
  }
  const util::AhoCorasick automaton(patterns);
  const std::string line =
      " neighbor 203.0.113.77 route-map h38c2cc71c4 in";
  for (auto _ : state) {
    benchmark::DoNotOptimize(automaton.FindAll(line));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AhoCorasickScanLine);

void BM_ExportImportMappings(benchmark::State& state) {
  ipanon::IpAnonymizer anonymizer("bench-salt");
  util::Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    anonymizer.Map(net::Ipv4Address(static_cast<std::uint32_t>(rng.Next())));
  }
  for (auto _ : state) {
    std::stringstream stream;
    anonymizer.ExportMappings(stream);
    ipanon::IpAnonymizer replica("other");
    replica.ImportMappings(stream);
    benchmark::DoNotOptimize(replica.NodeCount());
  }
  state.SetLabel("2000 addresses");
}
BENCHMARK(BM_ExportImportMappings)->Unit(benchmark::kMillisecond);

/// The pipeline alone: the context (and its policy verification) is
/// built once, and each iteration anonymizes the corpus on a fresh
/// session. Process CPU covers the workers, not only the calling thread.
void BM_PipelineAnonymizeCorpus(benchmark::State& state) {
  const auto pre = BenchCorpus(24);
  std::size_t lines = 0;
  for (const auto& file : pre) lines += file.LineCount();
  core::ServiceOptions options;
  options.base.salt = "perf-salt";
  options.threads = static_cast<int>(state.range(0));
  const auto context = pipeline::MakeServiceContext(std::move(options));
  for (auto _ : state) {
    pipeline::CorpusPipeline pipeline(context, context->CreateSession());
    benchmark::DoNotOptimize(pipeline.AnonymizeCorpus(pre));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lines));
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_PipelineAnonymizeCorpus)
    ->Arg(1)->Arg(2)->Arg(4)
    ->MeasureProcessCPUTime()->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// One fully instrumented end-to-end run (sequential baseline, then the
/// parallel pipeline at `threads` workers, then a leak scan) whose
/// registry snapshot and report become BENCH_perf.json. Kept separate
/// from the timed benchmarks above, which run with observability off —
/// except the wall-clock comparison, which times both paths with hooks
/// uninstalled on the sequential side and only metrics on the pipeline.
bool WritePerfJson(const std::string& path, int threads) {
  const auto pre = BenchCorpus(24);
  std::int64_t lines = 0;
  for (const auto& file : pre) lines += static_cast<std::int64_t>(file.LineCount());

  // Sequential baseline: the classic single-threaded engine.
  core::AnonymizerOptions options;
  options.salt = "perf-salt";
  const auto seq_start = std::chrono::steady_clock::now();
  core::Anonymizer sequential(options);
  const auto seq_post = sequential.AnonymizeNetwork(pre);
  const auto seq_end = std::chrono::steady_clock::now();

  // Parallel pipeline over the same corpus, instrumented: its snapshot
  // (including asn.rewrite_memo_hits and the shared-trie counters) is
  // what lands in the JSON.
  obs::MetricsRegistry registry;
  core::ServiceOptions popts;
  popts.base = options;
  popts.threads = threads;
  const auto context = pipeline::MakeServiceContext(std::move(popts));
  context->install_hooks(obs::Hooks{.metrics = &registry});
  pipeline::CorpusPipeline pipe(context, context->CreateSession());
  const auto par_start = std::chrono::steady_clock::now();
  const auto post = pipe.AnonymizeCorpus(pre);
  const auto par_end = std::chrono::steady_clock::now();

  // The determinism guarantee, asserted on every bench run.
  bool identical = seq_post.size() == post.size();
  for (std::size_t i = 0; identical && i < post.size(); ++i) {
    identical = seq_post[i].ToText() == post[i].ToText();
  }
  if (!identical) {
    std::fprintf(stderr,
                 "bench_perf: parallel output DIVERGED from sequential\n");
  }

  core::LeakDetector::Scan(post, pipe.leak_record(), &registry);

  const auto us = [](auto start, auto end) {
    return std::chrono::duration_cast<std::chrono::microseconds>(end - start)
        .count();
  };
  const std::int64_t seq_us = us(seq_start, seq_end);
  const std::int64_t par_us = std::max<std::int64_t>(us(par_start, par_end), 1);
  const int resolved_threads =
      threads > 0 ? threads
                  : std::max(1u, std::thread::hardware_concurrency());
  std::printf("pipeline threads=%d: sequential %lld us, parallel %lld us "
              "(speedup %.2fx, outputs %s)\n",
              resolved_threads, static_cast<long long>(seq_us),
              static_cast<long long>(par_us),
              static_cast<double>(seq_us) / static_cast<double>(par_us),
              identical ? "identical" : "DIVERGED");

  const bool wrote = bench::WriteBenchJson(
      path, "bench_perf",
      {{"routers", static_cast<std::int64_t>(pre.size())},
       {"lines", lines},
       {"threads", resolved_threads},
       {"sequential_us", seq_us},
       {"parallel_us", par_us},
       {"speedup_x100", seq_us * 100 / par_us},
       {"outputs_identical", identical ? 1 : 0}},
      registry.Snapshot(), pipe.report());
  return wrote && identical;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      confanon::bench::BenchOutPath(argc, argv, "BENCH_perf.json");
  const int threads = confanon::bench::BenchThreads(argc, argv, 1);
  // Strip our flags before handing argv to google-benchmark.
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--bench-out=", 0) == 0) continue;
    if (arg.rfind("--threads=", 0) == 0) continue;
    args.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(args.size());
  ::benchmark::Initialize(&bench_argc, args.data());
  if (::benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return WritePerfJson(out_path, threads) ? 0 : 1;
}
