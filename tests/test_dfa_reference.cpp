// Pins the automata Dfa::FromNfa and Dfa::Minimize return, state for
// state, against plain reference implementations kept here: a subset
// construction keyed by std::map with a LIFO worklist, and Moore's
// refinement. Both are written against the public Nfa and Dfa accessors
// only. The numbering matters beyond the language: DfaToRegex's output
// depends on it, and so do the `--minimized-regexps` rewrites.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "asn/asn_map.h"
#include "asn/regex_rewrite.h"
#include "policy_patterns.h"
#include "regex/dfa.h"
#include "regex/dfa_to_regex.h"
#include "regex/nfa.h"
#include "regex/parser.h"
#include "regex/regex.h"
#include "util/rng.h"
#include "verify/policy.h"
#include "verify/recognizer.h"

namespace confanon::regex {
namespace {

/// A DFA as plain data, so automata from the library and from the
/// references below compare field by field.
struct Automaton {
  int start = 0;
  int num_classes = 0;
  std::array<int, 256> byte_class{};
  std::vector<int> transitions;  // state-major, num_classes per state
  std::vector<bool> accepting;

  int StateCount() const { return static_cast<int>(accepting.size()); }
  int At(int state, int byte_class_id) const {
    return transitions[static_cast<std::size_t>(state * num_classes +
                                                byte_class_id)];
  }
};

Automaton Snapshot(const Dfa& dfa) {
  Automaton out;
  out.start = dfa.start();
  out.num_classes = dfa.NumClasses();
  for (int b = 0; b < 256; ++b) {
    out.byte_class[static_cast<std::size_t>(b)] =
        dfa.ClassOf(static_cast<char>(b));
  }
  for (int s = 0; s < dfa.StateCount(); ++s) {
    for (int k = 0; k < dfa.NumClasses(); ++k) {
      out.transitions.push_back(dfa.TransitionByClass(s, k));
    }
    out.accepting.push_back(dfa.IsAccepting(s));
  }
  return out;
}

/// Empty when `got` equals `want`, else the first difference.
std::string FirstDifference(const Automaton& got, const Automaton& want) {
  if (got.StateCount() != want.StateCount()) {
    return "state count " + std::to_string(got.StateCount()) + " != " +
           std::to_string(want.StateCount());
  }
  if (got.num_classes != want.num_classes) {
    return "class count " + std::to_string(got.num_classes) + " != " +
           std::to_string(want.num_classes);
  }
  if (got.start != want.start) {
    return "start " + std::to_string(got.start) + " != " +
           std::to_string(want.start);
  }
  for (int b = 0; b < 256; ++b) {
    if (got.byte_class[static_cast<std::size_t>(b)] !=
        want.byte_class[static_cast<std::size_t>(b)]) {
      return "class of byte " + std::to_string(b);
    }
  }
  for (int s = 0; s < got.StateCount(); ++s) {
    if (got.accepting[static_cast<std::size_t>(s)] !=
        want.accepting[static_cast<std::size_t>(s)]) {
      return "acceptance of state " + std::to_string(s);
    }
    for (int k = 0; k < got.num_classes; ++k) {
      if (got.At(s, k) != want.At(s, k)) {
        return "transition (" + std::to_string(s) + ", " + std::to_string(k) +
               ") -> " + std::to_string(got.At(s, k)) + " != " +
               std::to_string(want.At(s, k));
      }
    }
  }
  return "";
}

/// Byte classes: two bytes share a class iff every NFA edge set holds both
/// or neither; classes are numbered in the order of their lowest byte.
void ReferenceByteClasses(const Nfa& nfa, Automaton& out) {
  std::map<std::vector<bool>, int> ids;
  for (int b = 0; b < 256; ++b) {
    std::vector<bool> signature;
    for (std::size_t s = 0; s < nfa.StateCount(); ++s) {
      for (const auto& edge : nfa.At(static_cast<StateId>(s)).edges) {
        signature.push_back(edge.first.Contains(static_cast<char>(b)));
      }
    }
    const auto [it, inserted] =
        ids.emplace(std::move(signature), static_cast<int>(ids.size()));
    out.byte_class[static_cast<std::size_t>(b)] = it->second;
  }
  out.num_classes = static_cast<int>(ids.size());
}

/// The sorted epsilon closure of `seeds`.
std::vector<StateId> ReferenceClosure(const Nfa& nfa, std::set<StateId> set) {
  std::vector<StateId> stack(set.begin(), set.end());
  while (!stack.empty()) {
    const StateId s = stack.back();
    stack.pop_back();
    for (const StateId t : nfa.At(s).epsilon) {
      if (set.insert(t).second) stack.push_back(t);
    }
  }
  return {set.begin(), set.end()};
}

/// Subset construction: subsets keyed in a std::map, a LIFO worklist from
/// the start subset (id 0), each popped subset stepped on its classes in
/// id order, and every new subset numbered on discovery (the empty subset
/// included, as the dead state).
Automaton ReferenceFromNfa(const Nfa& nfa) {
  Automaton out;
  ReferenceByteClasses(nfa, out);
  std::vector<char> lowest(static_cast<std::size_t>(out.num_classes), 0);
  for (int b = 255; b >= 0; --b) {
    lowest[static_cast<std::size_t>(out.byte_class[static_cast<std::size_t>(b)])] =
        static_cast<char>(b);
  }
  std::map<std::vector<StateId>, int> ids;
  std::vector<std::vector<StateId>> subsets;
  const auto add = [&](std::vector<StateId> subset) {
    const auto [it, inserted] =
        ids.emplace(subset, static_cast<int>(subsets.size()));
    if (inserted) {
      subsets.push_back(std::move(subset));
      out.transitions.resize(subsets.size() *
                                 static_cast<std::size_t>(out.num_classes),
                             -1);
    }
    return std::pair{it->second, inserted};
  };
  out.start = add(ReferenceClosure(nfa, {nfa.start()})).first;
  std::vector<int> worklist{out.start};
  while (!worklist.empty()) {
    const int id = worklist.back();
    worklist.pop_back();
    for (int k = 0; k < out.num_classes; ++k) {
      std::set<StateId> next;
      for (const StateId s : subsets[static_cast<std::size_t>(id)]) {
        for (const auto& [chars, target] : nfa.At(s).edges) {
          if (chars.Contains(lowest[static_cast<std::size_t>(k)])) {
            next.insert(target);
          }
        }
      }
      const auto [target, inserted] = add(ReferenceClosure(nfa, next));
      if (inserted) worklist.push_back(target);
      out.transitions[static_cast<std::size_t>(id * out.num_classes + k)] =
          target;
    }
  }
  for (const auto& subset : subsets) {
    out.accepting.push_back(
        std::binary_search(subset.begin(), subset.end(), nfa.accept()));
  }
  return out;
}

/// Moore's refinement: start from acceptance, and each round give every
/// state the block of its signature (own block, then the block behind
/// each class), numbering blocks by first appearance over states 0..n-1,
/// until a round splits nothing.
Automaton ReferenceMinimize(const Automaton& dfa) {
  const int n = dfa.StateCount();
  std::vector<int> block(static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s) {
    block[static_cast<std::size_t>(s)] =
        dfa.accepting[static_cast<std::size_t>(s)] ? 1 : 0;
  }
  int num_blocks = -1;
  for (;;) {
    std::map<std::vector<int>, int> ids;
    std::vector<int> next(static_cast<std::size_t>(n));
    for (int s = 0; s < n; ++s) {
      std::vector<int> signature{block[static_cast<std::size_t>(s)]};
      for (int k = 0; k < dfa.num_classes; ++k) {
        signature.push_back(
            block[static_cast<std::size_t>(dfa.At(s, k))]);
      }
      next[static_cast<std::size_t>(s)] =
          ids.emplace(std::move(signature), static_cast<int>(ids.size()))
              .first->second;
    }
    block.swap(next);
    if (static_cast<int>(ids.size()) == num_blocks) break;
    num_blocks = static_cast<int>(ids.size());
  }
  Automaton out;
  out.start = block[static_cast<std::size_t>(dfa.start)];
  out.num_classes = dfa.num_classes;
  out.byte_class = dfa.byte_class;
  out.transitions.assign(
      static_cast<std::size_t>(num_blocks * dfa.num_classes), -1);
  out.accepting.assign(static_cast<std::size_t>(num_blocks), false);
  for (int s = 0; s < n; ++s) {
    const int b = block[static_cast<std::size_t>(s)];
    out.accepting[static_cast<std::size_t>(b)] =
        dfa.accepting[static_cast<std::size_t>(s)];
    for (int k = 0; k < dfa.num_classes; ++k) {
      out.transitions[static_cast<std::size_t>(b * dfa.num_classes + k)] =
          block[static_cast<std::size_t>(dfa.At(s, k))];
    }
  }
  return out;
}

/// FromNfa and Minimize each equal their reference, and Minimize of the
/// minimal DFA returns it unchanged.
void ExpectMatchesReference(const Nfa& nfa, const std::string& label) {
  const Dfa dfa = Dfa::FromNfa(nfa);
  const Automaton subset = Snapshot(dfa);
  EXPECT_EQ(FirstDifference(subset, ReferenceFromNfa(nfa)), "")
      << "FromNfa of " << label;
  const Dfa minimal = dfa.Minimize();
  const Automaton minimal_snapshot = Snapshot(minimal);
  EXPECT_EQ(FirstDifference(minimal_snapshot, ReferenceMinimize(subset)), "")
      << "Minimize of " << label;
  EXPECT_EQ(FirstDifference(Snapshot(minimal.Minimize()), minimal_snapshot),
            "")
      << "Minimize of minimal " << label;
}

/// The alternation of `words` as literal strings, the automaton
/// BuildDfaFromStrings builds.
Nfa LiteralNfa(const std::vector<std::string>& words) {
  Ast ast;
  std::vector<NodeId> branches;
  for (const std::string& word : words) {
    std::vector<NodeId> chars;
    for (const char c : word) chars.push_back(ast.AddCharSet(CharSet::Single(c)));
    branches.push_back(chars.empty() ? ast.AddEmpty()
                                     : ast.AddConcat(std::move(chars)));
  }
  ast.set_root(ast.AddAlternate(std::move(branches)));
  return Nfa::Build(ast);
}

void ExpectLiteralSetMatchesReference(const std::vector<std::string>& words,
                                      const std::string& label) {
  const Nfa nfa = LiteralNfa(words);
  ExpectMatchesReference(nfa, label);
  EXPECT_EQ(FirstDifference(Snapshot(BuildDfaFromStrings(words)),
                            Snapshot(Dfa::FromNfa(nfa))),
            "")
      << "BuildDfaFromStrings of " << label;
}

enum class Framing { kFullMatch, kToken, kSearch };

/// The NFA of `pattern` as a full match, as TokenLanguage::Compile frames
/// it (sentinels only around the body) and as Regex::Compile frames it
/// (anything around the body). Throws ParseError.
Nfa FramedNfa(const std::string& pattern, Framing framing) {
  Ast ast;
  const NodeId body = ParsePattern(pattern, ParseOptions{}, ast);
  if (framing == Framing::kFullMatch) {
    ast.set_root(body);
    return Nfa::Build(ast);
  }
  CharSet around = CharSet::Any();
  if (framing == Framing::kToken) {
    around = CharSet();
    around.Add(kBeginSentinel);
    around.Add(kEndSentinel);
  }
  const NodeId left = ast.AddRepeat(ast.AddCharSet(around), 0, kUnbounded);
  const NodeId right = ast.AddRepeat(ast.AddCharSet(around), 0, kUnbounded);
  ast.set_root(ast.AddConcat({left, body, right}));
  return Nfa::Build(ast);
}

/// Checks `pattern` in all three framings; false when it does not parse.
bool ExpectPatternMatchesReference(const std::string& pattern) {
  try {
    for (const auto& [framing, name] :
         {std::pair{Framing::kFullMatch, "full-match "},
          std::pair{Framing::kToken, "token "},
          std::pair{Framing::kSearch, "search "}}) {
      ExpectMatchesReference(FramedNfa(pattern, framing), name + pattern);
    }
  } catch (const ParseError&) {
    return false;
  }
  // The search DFA Regex::Compile keeps is the same construction.
  const Regex re = Regex::Compile(pattern);
  EXPECT_EQ(FirstDifference(Snapshot(re.dfa()), ReferenceFromNfa(re.nfa())),
            "")
      << "Regex::Compile of " << pattern;
  return true;
}

TEST(DfaReference, BuiltinPassListsMatchReference) {
  const verify::PolicySpec spec = verify::BuiltinPolicy();
  ASSERT_EQ(spec.dialects.size(), 2u);
  for (const verify::DialectPolicy& policy : spec.dialects) {
    std::set<std::string> seen;
    std::vector<std::string> tokens;
    for (const verify::PolicyEntry& entry : policy.entries) {
      if (seen.insert(entry.text).second) tokens.push_back(entry.text);
    }
    ASSERT_GT(tokens.size(), 1000u);
    const std::string name = verify::DialectName(policy.dialect);
    ExpectLiteralSetMatchesReference(tokens, name + " pass-list");
    // Sorted order builds a different NFA over the same language.
    ExpectLiteralSetMatchesReference({seen.begin(), seen.end()},
                                     name + " pass-list, sorted");
  }
}

TEST(DfaReference, RecognizersMatchReference) {
  // The verify::SensitiveRecognizers() patterns, compiled as
  // regex::CompileFullMatchDfa does ('_' a literal).
  const std::string octet =
      "(25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9][0-9]|[0-9])";
  const std::string public_asn =
      "([1-9][0-9]{0,3}|[1-5][0-9]{4}|6[0-3][0-9]{3}|64[0-4][0-9]{2}"
      "|6450[0-9]|6451[01])";
  const std::string uint16 =
      "(6553[0-5]|655[0-2][0-9]|65[0-4][0-9]{2}|6[0-4][0-9]{3}"
      "|[1-5][0-9]{4}|[1-9][0-9]{0,3}|0)";
  const std::vector<std::string> patterns = {
      octet + "\\." + octet + "\\." + octet + "\\." + octet, public_asn,
      public_asn + ":" + uint16, "h[0-9a-f]{10}"};
  const auto& recognizers = verify::SensitiveRecognizers();
  ASSERT_EQ(recognizers.size(), patterns.size());
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    Ast ast;
    ParseOptions options;
    options.cisco_underscore = false;
    ast.set_root(ParsePattern(patterns[i], options, ast));
    const Nfa nfa = Nfa::Build(ast);
    ExpectMatchesReference(nfa, recognizers[i].name);
    EXPECT_EQ(FirstDifference(Snapshot(recognizers[i].dfa),
                              ReferenceMinimize(ReferenceFromNfa(nfa))),
              "")
        << recognizers[i].name;
  }
}

TEST(DfaReference, CorpusPatternsMatchReferenceInEveryFraming) {
  const std::set<std::string> patterns = test_patterns::CorpusPatterns();
  ASSERT_GT(patterns.size(), 30u);
  for (const std::string& pattern : patterns) {
    EXPECT_TRUE(ExpectPatternMatchesReference(pattern)) << pattern;
  }
}

TEST(DfaReference, RandomPatternsMatchReferenceInEveryFraming) {
  util::Rng rng(33);
  int parsed = 0;
  for (int i = 0; i < 320; ++i) {
    if (ExpectPatternMatchesReference(test_patterns::RandomPattern(rng, 2))) {
      ++parsed;
    }
  }
  EXPECT_GT(parsed, 250);
}

TEST(DfaReference, RandomAsnValueSetsMatchReference) {
  util::Rng rng(4451);
  for (int trial = 0; trial < 120; ++trial) {
    std::vector<std::string> words;
    const auto count = rng.Between(1, 60);
    // Dense sets share prefixes and collapse under minimization; sparse
    // ones stay trie-shaped.
    const std::uint64_t span = rng.Chance(0.5) ? 65536 : 400;
    const std::uint64_t base = rng.Below(65536 - span + 1);
    for (std::int64_t i = 0; i < count; ++i) {
      words.push_back(std::to_string(base + rng.Below(span)));
    }
    ExpectLiteralSetMatchesReference(words, "value set " +
                                                std::to_string(trial));
  }
}

TEST(DfaReference, EpsilonLiteralSetsMatchReference) {
  ExpectLiteralSetMatchesReference({""}, "{\"\"}");
  ExpectLiteralSetMatchesReference({"", "7", "77"}, "{\"\", 7, 77}");
}

/// DfaToRegex over the minimal DFA of a value set, the rendering
/// RewriteForm::kMinimizedDfa emits.
std::string Rendered(const std::vector<std::uint32_t>& values) {
  std::vector<std::string> words;
  for (const std::uint32_t value : values) words.push_back(std::to_string(value));
  return DfaToRegex(BuildDfaFromStrings(words).Minimize()).value();
}

std::vector<std::uint32_t> Range(std::uint32_t lo, std::uint32_t hi) {
  std::vector<std::uint32_t> values;
  for (std::uint32_t v = lo; v <= hi; ++v) values.push_back(v);
  return values;
}

TEST(DfaRendering, MinimizedValueSetsRenderExactly) {
  std::vector<std::uint32_t> split = Range(100, 199);
  for (const std::uint32_t v : Range(300, 309)) split.push_back(v);
  util::Rng rng(1239);
  std::vector<std::uint32_t> random;
  for (int i = 0; i < 12; ++i) {
    random.push_back(static_cast<std::uint32_t>(rng.Below(65536)));
  }
  const std::vector<std::pair<std::vector<std::uint32_t>, std::string>>
      golden = {
          {{701, 702, 703}, "70[1-3]"},
          {{1, 22, 333}, "1|22|333"},
          {{13, 1300, 9999, 42}, "13|42|9999|1300"},
          {{65535, 64512}, "6(5535|4512)"},
          {{0, 10, 100, 1000, 10000}, "0|10|100|10000?"},
          {{174, 701, 1239, 2914, 3257, 3356, 6453, 7018}, "701|6453|7018|3(356|257)|2914|1(239|74)"},
          {{64510, 64511}, "6451[01]"},
          {Range(7100, 7599), "7[1-5][0-9][0-9]"},
          {split, "(1[0-9]|30)[0-9]"},
          {random, "34212|16427|3476|60100|4(4793|2737)|26985|2(02|66)16|5(3023|9920|2716)"},
      };
  for (const auto& [values, expected] : golden) {
    EXPECT_EQ(Rendered(values), expected) << values.size() << " values";
  }
}

TEST(DfaRendering, MinimizedRewritesAtFixedSaltRenderExactly) {
  const asn::AsnMap asn_map("rewrite-salt");
  const asn::Uint16Permutation values("rewrite-salt", "community-values");
  const asn::AsnRegexRewriter rewriter(asn_map);
  const asn::CommunityRegexRewriter community(asn_map, values);
  const std::vector<std::pair<std::string, std::string>> as_paths = {
      {"_70[1-5]_", "(57093|39089|23018|4(7966|6184))"},
      {"(_1239_|_70[2-5]_)", "(57093|39089|23018|4(7966|1875))"},
      {"6451[0-3]", "(6451[23]|41487|31838)"},
      {"_3[0-9]_", "(9049|8124|42893|2552|60(167|235)|5(9027|4855)|1(1390|3835))"},
      {"(_174_|_209_|_3356_)", "(54716|42042|13883)"},
  };
  for (const auto& [pattern, expected] : as_paths) {
    EXPECT_EQ(rewriter.Rewrite(pattern, asn::RewriteForm::kMinimizedDfa).pattern,
              expected)
        << pattern;
  }
  EXPECT_EQ(community.Rewrite("701:710[0-9]", asn::RewriteForm::kMinimizedDfa)
                .pattern,
            "46184:(3374|5(4113|9(647|474))|26(825|558)|4(2569|7997|(66|479)0))");
}

}  // namespace
}  // namespace confanon::regex
