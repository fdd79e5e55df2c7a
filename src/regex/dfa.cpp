#include "regex/dfa.h"

#include <algorithm>
#include <deque>
#include <map>
#include <numeric>
#include <set>

namespace confanon::regex {

namespace {

/// Computes byte-equivalence classes: two bytes are equivalent if every
/// CharSet appearing on any NFA edge either contains both or neither.
/// Returns the number of classes and fills `byte_class`.
int ComputeByteClasses(const Nfa& nfa, std::array<std::int16_t, 256>& byte_class) {
  // Signature of a byte: the membership bit vector across all edge sets.
  // We refine incrementally: start with one class, split by each set. A
  // split class's new ids are handed out in byte order.
  std::vector<int> cls(256, 0);
  int num_classes = 1;
  std::vector<int> remap;  // indexed 2 * class + in_set
  for (std::size_t s = 0; s < nfa.StateCount(); ++s) {
    for (const auto& [chars, target] : nfa.At(static_cast<StateId>(s)).edges) {
      (void)target;
      remap.assign(2 * static_cast<std::size_t>(num_classes), -1);
      int next_classes = 0;
      for (int b = 0; b < 256; ++b) {
        int& id = remap[2 * static_cast<std::size_t>(cls[b]) +
                        (chars.Contains(static_cast<char>(b)) ? 1 : 0)];
        if (id < 0) id = next_classes++;
        cls[b] = id;
      }
      num_classes = next_classes;
    }
  }
  for (int b = 0; b < 256; ++b) {
    byte_class[static_cast<std::size_t>(b)] =
        static_cast<std::int16_t>(cls[static_cast<std::size_t>(b)]);
  }
  return num_classes;
}

void Closure(const Nfa& nfa, std::vector<StateId>& set,
             std::vector<char>& member) {
  std::vector<StateId> stack(set);
  while (!stack.empty()) {
    const StateId s = stack.back();
    stack.pop_back();
    for (StateId t : nfa.At(s).epsilon) {
      if (!member[static_cast<std::size_t>(t)]) {
        member[static_cast<std::size_t>(t)] = 1;
        set.push_back(t);
        stack.push_back(t);
      }
    }
  }
  std::sort(set.begin(), set.end());
}

}  // namespace

Dfa Dfa::FromNfa(const Nfa& nfa) {
  Dfa dfa;
  dfa.num_classes_ = ComputeByteClasses(nfa, dfa.byte_class_);

  // Pick one representative byte per class for transition evaluation.
  std::vector<char> representative(static_cast<std::size_t>(dfa.num_classes_));
  for (int b = 255; b >= 0; --b) {
    representative[static_cast<std::size_t>(dfa.byte_class_[static_cast<std::size_t>(b)])] =
        static_cast<char>(b);
  }

  std::map<std::vector<StateId>, int> ids;
  std::vector<std::vector<StateId>> sets;

  std::vector<char> member(nfa.StateCount(), 0);
  std::vector<StateId> start_set{nfa.start()};
  member[static_cast<std::size_t>(nfa.start())] = 1;
  Closure(nfa, start_set, member);

  ids.emplace(start_set, 0);
  sets.push_back(start_set);
  dfa.start_ = 0;

  // The dead state is materialized lazily as the empty set.
  std::vector<int> worklist{0};
  while (!worklist.empty()) {
    const int id = worklist.back();
    worklist.pop_back();
    const std::vector<StateId> current = sets[static_cast<std::size_t>(id)];
    if (static_cast<std::size_t>(id + 1) * static_cast<std::size_t>(dfa.num_classes_) >
        dfa.transitions_.size()) {
      dfa.transitions_.resize(
          (static_cast<std::size_t>(id) + 1) *
              static_cast<std::size_t>(dfa.num_classes_),
          -1);
    }
    for (int k = 0; k < dfa.num_classes_; ++k) {
      const char c = representative[static_cast<std::size_t>(k)];
      std::fill(member.begin(), member.end(), 0);
      std::vector<StateId> next;
      for (StateId s : current) {
        for (const auto& [chars, target] : nfa.At(s).edges) {
          if (chars.Contains(c) && !member[static_cast<std::size_t>(target)]) {
            member[static_cast<std::size_t>(target)] = 1;
            next.push_back(target);
          }
        }
      }
      Closure(nfa, next, member);
      auto [it, inserted] = ids.emplace(next, static_cast<int>(sets.size()));
      if (inserted) {
        sets.push_back(next);
        worklist.push_back(it->second);
      }
      dfa.transitions_[static_cast<std::size_t>(id) *
                           static_cast<std::size_t>(dfa.num_classes_) +
                       static_cast<std::size_t>(k)] = it->second;
    }
  }

  dfa.num_states_ = static_cast<int>(sets.size());
  dfa.transitions_.resize(static_cast<std::size_t>(dfa.num_states_) *
                              static_cast<std::size_t>(dfa.num_classes_),
                          -1);
  dfa.accepting_.assign(static_cast<std::size_t>(dfa.num_states_), false);
  for (int id = 0; id < dfa.num_states_; ++id) {
    const auto& set = sets[static_cast<std::size_t>(id)];
    dfa.accepting_[static_cast<std::size_t>(id)] =
        std::binary_search(set.begin(), set.end(), nfa.accept());
  }
  return dfa;
}

bool Dfa::FullMatch(std::string_view subject) const {
  int state = start_;
  for (char c : subject) {
    state = Transition(state, c);
  }
  return accepting_[static_cast<std::size_t>(state)];
}

Dfa Dfa::Minimize() const {
  // Moore's algorithm: refine the accepting/non-accepting partition until
  // no class splits. O(n^2 * classes) worst case, ample for policy regexes.
  std::vector<int> block(static_cast<std::size_t>(num_states_));
  for (int s = 0; s < num_states_; ++s) {
    block[static_cast<std::size_t>(s)] =
        accepting_[static_cast<std::size_t>(s)] ? 1 : 0;
  }
  int num_blocks = 2;
  // Degenerate case: all states agree on acceptance.
  if (std::all_of(accepting_.begin(), accepting_.end(),
                  [](bool a) { return a; }) ||
      std::none_of(accepting_.begin(), accepting_.end(),
                   [](bool a) { return a; })) {
    std::fill(block.begin(), block.end(), 0);
    num_blocks = 1;
  }

  for (;;) {
    // Signature of a state: (its block, blocks of all class-transitions).
    std::map<std::vector<int>, int> remap;
    std::vector<int> next(static_cast<std::size_t>(num_states_));
    for (int s = 0; s < num_states_; ++s) {
      std::vector<int> signature;
      signature.reserve(static_cast<std::size_t>(num_classes_) + 1);
      signature.push_back(block[static_cast<std::size_t>(s)]);
      for (int k = 0; k < num_classes_; ++k) {
        signature.push_back(
            block[static_cast<std::size_t>(TransitionByClass(s, k))]);
      }
      auto [it, inserted] =
          remap.emplace(std::move(signature), static_cast<int>(remap.size()));
      next[static_cast<std::size_t>(s)] = it->second;
    }
    const int next_blocks = static_cast<int>(remap.size());
    block.swap(next);
    if (next_blocks == num_blocks) break;
    num_blocks = next_blocks;
  }

  Dfa result;
  result.num_states_ = num_blocks;
  result.num_classes_ = num_classes_;
  result.byte_class_ = byte_class_;
  result.start_ = block[static_cast<std::size_t>(start_)];
  result.transitions_.assign(static_cast<std::size_t>(num_blocks) *
                                 static_cast<std::size_t>(num_classes_),
                             -1);
  result.accepting_.assign(static_cast<std::size_t>(num_blocks), false);
  for (int s = 0; s < num_states_; ++s) {
    const int b = block[static_cast<std::size_t>(s)];
    result.accepting_[static_cast<std::size_t>(b)] =
        accepting_[static_cast<std::size_t>(s)];
    for (int k = 0; k < num_classes_; ++k) {
      result.transitions_[static_cast<std::size_t>(b) *
                              static_cast<std::size_t>(num_classes_) +
                          static_cast<std::size_t>(k)] =
          block[static_cast<std::size_t>(TransitionByClass(s, k))];
    }
  }
  return result;
}

bool Dfa::EquivalentTo(const Dfa& other) const {
  // Synchronized BFS over the product automaton; the DFAs may have
  // different byte-class partitions, so we step the product once per byte
  // class of the *refined* common partition (pairs of classes).
  std::set<std::pair<int, int>> visited;
  std::vector<std::pair<int, int>> stack{{start_, other.start_}};
  visited.insert(stack.front());
  while (!stack.empty()) {
    auto [a, b] = stack.back();
    stack.pop_back();
    if (IsAccepting(a) != other.IsAccepting(b)) return false;
    // Step on one representative byte per (class_a, class_b) pair.
    std::set<std::pair<int, int>> seen_class_pairs;
    for (int byte = 0; byte < 256; ++byte) {
      const char c = static_cast<char>(byte);
      const std::pair<int, int> pair{ClassOf(c), other.ClassOf(c)};
      if (!seen_class_pairs.insert(pair).second) continue;
      const std::pair<int, int> next{Transition(a, c),
                                     other.Transition(b, c)};
      if (visited.insert(next).second) {
        stack.push_back(next);
      }
    }
  }
  return true;
}

bool Dfa::IsEmptyLanguage() const {
  return !AliveStates()[static_cast<std::size_t>(start_)];
}

std::vector<bool> Dfa::AliveStates() const {
  std::vector<std::vector<std::int32_t>> reverse(
      static_cast<std::size_t>(num_states_));
  for (int state = 0; state < num_states_; ++state) {
    for (int byte_class = 0; byte_class < num_classes_; ++byte_class) {
      reverse[static_cast<std::size_t>(TransitionByClass(state, byte_class))]
          .push_back(state);
    }
  }
  std::vector<bool> alive(static_cast<std::size_t>(num_states_), false);
  std::deque<std::int32_t> queue;
  for (int state = 0; state < num_states_; ++state) {
    if (IsAccepting(state)) {
      alive[static_cast<std::size_t>(state)] = true;
      queue.push_back(state);
    }
  }
  while (!queue.empty()) {
    const std::int32_t state = queue.front();
    queue.pop_front();
    for (const std::int32_t pred : reverse[static_cast<std::size_t>(state)]) {
      if (!alive[static_cast<std::size_t>(pred)]) {
        alive[static_cast<std::size_t>(pred)] = true;
        queue.push_back(pred);
      }
    }
  }
  return alive;
}

CharSet Dfa::ClassChars(int byte_class) const {
  CharSet set;
  for (int b = 0; b < 256; ++b) {
    if (byte_class_[static_cast<std::size_t>(b)] == byte_class) {
      set.Add(static_cast<char>(b));
    }
  }
  return set;
}

}  // namespace confanon::regex
