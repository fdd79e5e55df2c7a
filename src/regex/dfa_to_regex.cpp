#include "regex/dfa_to_regex.h"

#include <algorithm>
#include <cassert>
#include <map>

#include "regex/nfa.h"
#include "regex/parser.h"

namespace confanon::regex {

Dfa BuildDfaFromStrings(const std::vector<std::string>& words) {
  // Build the language as an AST alternation of literal strings and reuse
  // the NFA/DFA pipeline; subset construction of a trie-shaped NFA yields a
  // trie-shaped DFA, and callers typically Minimize() afterwards.
  Ast ast;
  std::vector<NodeId> branches;
  branches.reserve(words.size());
  for (const std::string& word : words) {
    std::vector<NodeId> chars;
    chars.reserve(word.size());
    for (char c : word) {
      chars.push_back(ast.AddCharSet(CharSet::Single(c)));
    }
    if (chars.empty()) {
      branches.push_back(ast.AddEmpty());
    } else {
      branches.push_back(ast.AddConcat(std::move(chars)));
    }
  }
  // The empty set: one byte from the empty CharSet, which nothing matches.
  ast.set_root(branches.empty() ? ast.AddCharSet(CharSet())
                                : ast.AddAlternate(std::move(branches)));
  return Dfa::FromNfa(Nfa::Build(ast));
}

std::string EscapeRegexChar(char c) {
  switch (c) {
    case '.':
    case '*':
    case '+':
    case '?':
    case '(':
    case ')':
    case '[':
    case ']':
    case '{':
    case '}':
    case '|':
    case '^':
    case '$':
    case '\\':
    case '_':  // Cisco metacharacter in this dialect
      return std::string("\\") + c;
    default:
      return std::string(1, c);
  }
}

std::string CharSetToRegex(const CharSet& set) {
  assert(!set.Empty());
  std::vector<char> members;
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    if (set.Contains(c)) {
      assert(c != kBeginSentinel && c != kEndSentinel);
      members.push_back(c);
    }
  }
  if (members.size() == 1) {
    return EscapeRegexChar(members[0]);
  }
  // Render as a class with ranges.
  std::string body;
  std::size_t i = 0;
  while (i < members.size()) {
    std::size_t j = i;
    while (j + 1 < members.size() && members[j + 1] == members[j] + 1) ++j;
    auto class_escape = [](char c) -> std::string {
      if (c == ']' || c == '\\' || c == '^' || c == '-') {
        return std::string("\\") + c;
      }
      return std::string(1, c);
    };
    if (j - i >= 2) {
      body += class_escape(members[i]);
      body += '-';
      body += class_escape(members[j]);
    } else {
      for (std::size_t k = i; k <= j; ++k) body += class_escape(members[k]);
    }
    i = j + 1;
  }
  return "[" + body + "]";
}

namespace {

/// True if `re` contains an alternation bar at nesting depth zero.
bool HasTopLevelAlternation(const std::string& re) {
  int depth = 0;
  bool in_class = false;
  for (std::size_t i = 0; i < re.size(); ++i) {
    const char c = re[i];
    if (c == '\\') {
      ++i;
      continue;
    }
    if (in_class) {
      if (c == ']') in_class = false;
      continue;
    }
    if (c == '[') {
      in_class = true;
    } else if (c == '(') {
      ++depth;
    } else if (c == ')') {
      --depth;
    } else if (c == '|' && depth == 0) {
      return true;
    }
  }
  return false;
}

/// True if `re` is one atomic unit (single possibly-escaped char, one
/// class, or one fully parenthesized group).
bool IsSingleUnit(const std::string& re) {
  if (re.empty()) return false;
  if (re.size() == 1) return true;
  if (re[0] == '\\' && re.size() == 2) return true;
  if (re.front() == '[') {
    // Exactly one class.
    bool escaped = false;
    for (std::size_t i = 1; i < re.size(); ++i) {
      if (escaped) {
        escaped = false;
        continue;
      }
      if (re[i] == '\\') {
        escaped = true;
      } else if (re[i] == ']') {
        return i == re.size() - 1;
      }
    }
    return false;
  }
  if (re.front() == '(') {
    int depth = 0;
    bool in_class = false;
    for (std::size_t i = 0; i < re.size(); ++i) {
      const char c = re[i];
      if (c == '\\') {
        ++i;
        continue;
      }
      if (in_class) {
        if (c == ']') in_class = false;
        continue;
      }
      if (c == '[') in_class = true;
      if (c == '(') ++depth;
      if (c == ')') {
        --depth;
        if (depth == 0) return i == re.size() - 1;
      }
    }
  }
  return false;
}

std::string Group(const std::string& re) {
  if (IsSingleUnit(re)) return re;
  return "(" + re + ")";
}

/// re1 . re2 with correct precedence.
std::string Concat(const std::string& a, const std::string& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  const std::string left = HasTopLevelAlternation(a) ? "(" + a + ")" : a;
  const std::string right = HasTopLevelAlternation(b) ? "(" + b + ")" : b;
  return left + right;
}

/// re1 | re2 over optional (absent = empty language) operands.
std::optional<std::string> Alternate(const std::optional<std::string>& a,
                                     const std::optional<std::string>& b) {
  if (!a) return b;
  if (!b) return a;
  if (*a == *b) return a;
  // Epsilon on either side renders as an optional group.
  if (a->empty()) return Group(*b) + "?";
  if (b->empty()) return Group(*a) + "?";
  return *a + "|" + *b;
}

std::string Star(const std::string& re) {
  if (re.empty()) return "";
  return Group(re) + "*";
}

}  // namespace

std::optional<std::string> DfaToRegex(const Dfa& dfa) {
  if (dfa.IsEmptyLanguage()) return std::nullopt;

  const int n = dfa.StateCount();
  // GNFA with super-start n and super-accept n+1.
  const int super_start = n;
  const int super_accept = n + 1;
  const int total = n + 2;

  // edge[i][j]: regex for i->j, nullopt if absent.
  std::vector<std::vector<std::optional<std::string>>> edge(
      static_cast<std::size_t>(total),
      std::vector<std::optional<std::string>>(
          static_cast<std::size_t>(total)));

  // Collapse class transitions into per-(i,j) CharSets.
  for (int i = 0; i < n; ++i) {
    std::map<int, CharSet> by_target;
    for (int k = 0; k < dfa.NumClasses(); ++k) {
      const int j = dfa.TransitionByClass(i, k);
      CharSet chars = dfa.ClassChars(k);
      // Sentinels can only appear in DFAs built over framed subjects;
      // finite-language DFAs (our callers) never transition on them from
      // reachable states, but the dead state has self-loops on everything.
      // Drop sentinel bytes: they are outside the output alphabet.
      CharSet cleaned;
      for (int b = 0; b < 256; ++b) {
        const char c = static_cast<char>(b);
        if (c == kBeginSentinel || c == kEndSentinel) continue;
        if (chars.Contains(c)) cleaned.Add(c);
      }
      if (cleaned.Empty()) continue;
      by_target[j] |= cleaned;
    }
    for (const auto& [j, chars] : by_target) {
      edge[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          CharSetToRegex(chars);
    }
  }

  edge[static_cast<std::size_t>(super_start)]
      [static_cast<std::size_t>(dfa.start())] = std::string();
  for (int s = 0; s < n; ++s) {
    if (dfa.IsAccepting(s)) {
      edge[static_cast<std::size_t>(s)]
          [static_cast<std::size_t>(super_accept)] = std::string();
    }
  }

  // Eliminate the original states in an order that prefers low-degree
  // states first (keeps intermediate expressions small).
  std::vector<int> order;
  for (int s = 0; s < n; ++s) order.push_back(s);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    auto degree = [&](int s) {
      int d = 0;
      for (int t = 0; t < total; ++t) {
        if (edge[static_cast<std::size_t>(s)][static_cast<std::size_t>(t)])
          ++d;
        if (edge[static_cast<std::size_t>(t)][static_cast<std::size_t>(s)])
          ++d;
      }
      return d;
    };
    return degree(a) < degree(b);
  });

  std::vector<bool> eliminated(static_cast<std::size_t>(total), false);
  for (int q : order) {
    eliminated[static_cast<std::size_t>(q)] = true;
    const std::optional<std::string> self =
        edge[static_cast<std::size_t>(q)][static_cast<std::size_t>(q)];
    const std::string loop = self ? Star(*self) : std::string();
    for (int i = 0; i < total; ++i) {
      if (eliminated[static_cast<std::size_t>(i)]) continue;
      const auto& in =
          edge[static_cast<std::size_t>(i)][static_cast<std::size_t>(q)];
      if (!in) continue;
      for (int j = 0; j < total; ++j) {
        if (eliminated[static_cast<std::size_t>(j)]) continue;
        const auto& out =
            edge[static_cast<std::size_t>(q)][static_cast<std::size_t>(j)];
        if (!out) continue;
        const std::string through = Concat(Concat(*in, loop), *out);
        edge[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
            Alternate(
                edge[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)],
                through);
      }
    }
    for (int t = 0; t < total; ++t) {
      edge[static_cast<std::size_t>(q)][static_cast<std::size_t>(t)].reset();
      edge[static_cast<std::size_t>(t)][static_cast<std::size_t>(q)].reset();
    }
  }

  return edge[static_cast<std::size_t>(super_start)]
             [static_cast<std::size_t>(super_accept)];
}

}  // namespace confanon::regex
