#include "regex/intersect.h"

#include <array>
#include <cstdint>
#include <deque>
#include <unordered_set>

#include "regex/nfa.h"
#include "regex/parser.h"

namespace confanon::regex {

namespace {

/// Byte order used by the BFS so witnesses come out readable: digits,
/// then lowercase letters, then the punctuation config identifiers use,
/// then everything else ascending. Computed once.
const std::array<unsigned char, 256>& WitnessByteOrder() {
  static const std::array<unsigned char, 256> order = [] {
    std::array<unsigned char, 256> out{};
    std::array<bool, 256> used{};
    std::size_t n = 0;
    const auto add = [&](unsigned char c) {
      if (!used[c]) {
        used[c] = true;
        out[n++] = c;
      }
    };
    for (unsigned char c = '0'; c <= '9'; ++c) add(c);
    for (unsigned char c = 'a'; c <= 'z'; ++c) add(c);
    for (const unsigned char c : {'.', ':', '-', '_', '/'}) add(c);
    for (unsigned char c = 'A'; c <= 'Z'; ++c) add(c);
    for (int c = 0; c < 256; ++c) add(static_cast<unsigned char>(c));
    return out;
  }();
  return order;
}

/// One explored product state: the (a, b) state pair plus the BFS tree
/// edge that discovered it, for witness reconstruction.
struct ProductNode {
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t parent = -1;  // index into the node arena
  unsigned char byte = 0;    // edge label from parent
};

std::uint64_t PairKey(std::int32_t a, std::int32_t b) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
         static_cast<std::uint32_t>(b);
}

std::string ReconstructWitness(const std::vector<ProductNode>& nodes,
                               std::int32_t index) {
  std::string witness;
  for (std::int32_t at = index; nodes[static_cast<std::size_t>(at)].parent >= 0;
       at = nodes[static_cast<std::size_t>(at)].parent) {
    witness += static_cast<char>(nodes[static_cast<std::size_t>(at)].byte);
  }
  return {witness.rbegin(), witness.rend()};
}

}  // namespace

std::optional<std::string> ShortestIntersectionWitness(const Dfa& a,
                                                       const Dfa& b) {
  // Breadth-first over the product automaton, expanding each state pair
  // once: the first accepting pair reached ends the shortest witness.
  // Stop expanding past this many pairs so a runaway product terminates.
  constexpr std::size_t kMaxNodes = std::size_t{1} << 22;
  const std::array<unsigned char, 256>& order = WitnessByteOrder();
  const std::vector<bool> alive_a = a.AliveStates();
  const std::vector<bool> alive_b = b.AliveStates();
  if (!alive_a[static_cast<std::size_t>(a.start())] ||
      !alive_b[static_cast<std::size_t>(b.start())]) {
    return std::nullopt;  // one side's whole language is empty
  }

  std::vector<ProductNode> nodes;
  std::unordered_set<std::uint64_t> visited;
  std::deque<std::int32_t> queue;

  nodes.push_back({a.start(), b.start(), -1, 0});
  visited.insert(PairKey(a.start(), b.start()));
  queue.push_back(0);

  while (!queue.empty()) {
    const std::int32_t index = queue.front();
    queue.pop_front();
    const ProductNode node = nodes[static_cast<std::size_t>(index)];
    if (a.IsAccepting(node.a) && b.IsAccepting(node.b)) {
      return ReconstructWitness(nodes, index);
    }
    if (nodes.size() >= kMaxNodes) continue;
    for (const unsigned char byte : order) {
      const char c = static_cast<char>(byte);
      const std::int32_t na = a.Transition(node.a, c);
      const std::int32_t nb = b.Transition(node.b, c);
      if (!alive_a[static_cast<std::size_t>(na)] ||
          !alive_b[static_cast<std::size_t>(nb)]) {
        continue;  // no witness can extend through a dead side
      }
      if (!visited.insert(PairKey(na, nb)).second) continue;
      nodes.push_back({na, nb, index, byte});
      queue.push_back(static_cast<std::int32_t>(nodes.size() - 1));
    }
  }
  return std::nullopt;
}

Dfa CompileFullMatchDfa(std::string_view pattern) {
  Ast ast;
  ParseOptions options;
  options.cisco_underscore = false;
  ast.set_root(ParsePattern(pattern, options, ast));
  return Dfa::FromNfa(Nfa::Build(ast)).Minimize();
}

}  // namespace confanon::regex
