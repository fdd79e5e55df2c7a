#include "regex/dfa.h"

#include <algorithm>
#include <deque>
#include <numeric>
#include <set>
#include <span>
#include <unordered_map>

namespace confanon::regex {

namespace {

/// Computes byte-equivalence classes: two bytes are equivalent if every
/// set in `edge_sets` either contains both or neither. Refines once per
/// set; each pass hands out class ids in byte order, so the classes come
/// out numbered by their lowest byte whatever order the sets arrive in.
/// Returns the number of classes and fills `byte_class`.
int ComputeByteClasses(const std::vector<const CharSet*>& edge_sets,
                       std::array<std::int16_t, 256>& byte_class) {
  std::array<std::size_t, 256> cls{};
  std::size_t num_classes = 1;
  std::vector<int> remap;  // indexed 2 * class + in_set
  for (const CharSet* chars : edge_sets) {
    remap.assign(2 * num_classes, -1);
    int next_classes = 0;
    for (std::size_t b = 0; b < 256; ++b) {
      int& id = remap[2 * cls[b] + (chars->Contains(static_cast<char>(b)))];
      if (id < 0) id = next_classes++;
      cls[b] = static_cast<std::size_t>(id);
    }
    num_classes = static_cast<std::size_t>(next_classes);
  }
  for (std::size_t b = 0; b < 256; ++b) {
    byte_class[b] = static_cast<std::int16_t>(cls[b]);
  }
  return static_cast<int>(num_classes);
}

struct CharSetHash {
  std::size_t operator()(const CharSet& chars) const { return chars.Hash(); }
};

/// One consuming NFA step on one byte class.
struct ClassStep {
  StateId target;
  std::int32_t byte_class;
};

/// Interns sorted NFA-state subsets as DFA state ids, numbered in
/// insertion order: the members live in one flat pool, and an
/// open-addressing table maps a subset's content to its id.
class SubsetIds {
 public:
  /// The id of `subset`; a new subset gets the next id and sets `added`.
  int Intern(const std::vector<StateId>& subset, bool& added) {
    const std::uint64_t hash = HashOf(subset);
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = static_cast<std::size_t>(hash) & mask;
    for (; slots_[slot] >= 0; slot = (slot + 1) & mask) {
      const int id = slots_[slot];
      if (hash_[static_cast<std::size_t>(id)] == hash &&
          std::ranges::equal(Members(id), subset)) {
        added = false;
        return id;
      }
    }
    const int id = size();
    slots_[slot] = id;
    hash_.push_back(hash);
    pool_.insert(pool_.end(), subset.begin(), subset.end());
    begin_.push_back(pool_.size());
    if (2 * hash_.size() > slots_.size()) Grow();
    added = true;
    return id;
  }

  /// Valid until the next Intern.
  std::span<const StateId> Members(int id) const {
    const std::size_t from = begin_[static_cast<std::size_t>(id)];
    const std::size_t past = begin_[static_cast<std::size_t>(id) + 1];
    return {pool_.data() + from, past - from};
  }

  int size() const { return static_cast<int>(hash_.size()); }

 private:
  static std::uint64_t HashOf(const std::vector<StateId>& subset) {
    std::uint64_t hash = subset.size();
    for (const StateId member : subset) {
      hash = (hash ^ static_cast<std::uint32_t>(member)) *
             0x9E3779B97F4A7C15ULL;
      hash ^= hash >> 29;
    }
    return hash;
  }

  void Grow() {
    slots_.assign(2 * slots_.size(), -1);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t id = 0; id < hash_.size(); ++id) {
      std::size_t slot = static_cast<std::size_t>(hash_[id]) & mask;
      while (slots_[slot] >= 0) slot = (slot + 1) & mask;
      slots_[slot] = static_cast<std::int32_t>(id);
    }
  }

  std::vector<StateId> pool_;
  std::vector<std::size_t> begin_{0};
  std::vector<std::uint64_t> hash_;
  std::vector<std::int32_t> slots_ = std::vector<std::int32_t>(64, -1);
};

}  // namespace

Dfa Dfa::FromNfa(const Nfa& nfa) {
  Dfa dfa;
  const std::size_t nfa_states = nfa.StateCount();

  // The distinct edge sets, and per edge (states in id order, edges in
  // order) the index of its set among them.
  std::unordered_map<CharSet, int, CharSetHash> set_index;
  std::vector<const CharSet*> edge_sets;
  std::vector<int> edge_set;
  for (std::size_t s = 0; s < nfa_states; ++s) {
    for (const auto& edge : nfa.At(static_cast<StateId>(s)).edges) {
      const auto [it, inserted] = set_index.try_emplace(
          edge.first, static_cast<int>(edge_sets.size()));
      if (inserted) edge_sets.push_back(&edge.first);
      edge_set.push_back(it->second);
    }
  }
  dfa.num_classes_ = ComputeByteClasses(edge_sets, dfa.byte_class_);
  const int num_classes = dfa.num_classes_;

  // The classes each distinct set holds, tested on each class's lowest
  // byte (every byte of a class behaves alike).
  std::vector<char> lowest(static_cast<std::size_t>(num_classes));
  for (std::size_t b = 256; b-- > 0;) {
    lowest[static_cast<std::size_t>(dfa.byte_class_[b])] =
        static_cast<char>(b);
  }
  std::vector<std::vector<std::int32_t>> set_classes(edge_sets.size());
  for (std::size_t i = 0; i < edge_sets.size(); ++i) {
    for (int k = 0; k < num_classes; ++k) {
      if (edge_sets[i]->Contains(lowest[static_cast<std::size_t>(k)])) {
        set_classes[i].push_back(k);
      }
    }
  }

  // Flat (target, class) step table, one row per NFA state.
  std::vector<std::size_t> step_begin{0};
  std::vector<ClassStep> steps;
  std::size_t edge = 0;
  for (std::size_t s = 0; s < nfa_states; ++s) {
    for (const auto& [chars, target] : nfa.At(static_cast<StateId>(s)).edges) {
      for (const std::int32_t k :
           set_classes[static_cast<std::size_t>(edge_set[edge++])]) {
        steps.push_back({target, k});
      }
    }
    step_begin.push_back(steps.size());
  }

  // Membership of the subset being built is `stamp[state] == generation`,
  // so starting a new subset costs one increment, not a clear.
  std::vector<std::uint32_t> stamp(nfa_states, 0);
  std::uint32_t generation = 0;
  const auto new_generation = [&] {
    if (++generation == 0) {
      std::fill(stamp.begin(), stamp.end(), 0);
      generation = 1;
    }
  };
  const auto add_member = [&](StateId state, std::vector<StateId>& subset) {
    if (stamp[static_cast<std::size_t>(state)] == generation) return;
    stamp[static_cast<std::size_t>(state)] = generation;
    subset.push_back(state);
  };
  // Epsilon closure of the current generation's subset, then sorted.
  const auto close = [&](std::vector<StateId>& subset) {
    for (std::size_t i = 0; i < subset.size(); ++i) {
      for (const StateId t : nfa.At(subset[i]).epsilon) add_member(t, subset);
    }
    std::sort(subset.begin(), subset.end());
  };

  SubsetIds ids;
  std::vector<bool> accepting;
  const auto intern = [&](const std::vector<StateId>& subset, bool& added) {
    const int id = ids.Intern(subset, added);
    if (added) {
      accepting.push_back(stamp[static_cast<std::size_t>(nfa.accept())] ==
                          generation);
      dfa.transitions_.resize(static_cast<std::size_t>(ids.size()) *
                                  static_cast<std::size_t>(num_classes),
                              -1);
    }
    return id;
  };

  std::vector<StateId> subset;
  new_generation();
  add_member(nfa.start(), subset);
  close(subset);
  bool added = false;
  dfa.start_ = intern(subset, added);

  // LIFO worklist, classes in id order: state ids come out in discovery
  // order. The dead state is the empty subset, interned on first use.
  std::vector<std::vector<StateId>> successors(
      static_cast<std::size_t>(num_classes));
  std::vector<int> worklist{dfa.start_};
  int dead = -1;
  while (!worklist.empty()) {
    const int id = worklist.back();
    worklist.pop_back();
    for (auto& bucket : successors) bucket.clear();
    for (const StateId s : ids.Members(id)) {
      for (std::size_t i = step_begin[static_cast<std::size_t>(s)];
           i < step_begin[static_cast<std::size_t>(s) + 1]; ++i) {
        successors[static_cast<std::size_t>(steps[i].byte_class)].push_back(
            steps[i].target);
      }
    }
    for (int k = 0; k < num_classes; ++k) {
      const auto& bucket = successors[static_cast<std::size_t>(k)];
      int target = dead;
      if (!bucket.empty() || dead < 0) {
        new_generation();
        subset.clear();
        for (const StateId t : bucket) add_member(t, subset);
        close(subset);
        target = intern(subset, added);
        if (added) worklist.push_back(target);
        if (subset.empty()) dead = target;
      }
      dfa.transitions_[static_cast<std::size_t>(id) *
                           static_cast<std::size_t>(num_classes) +
                       static_cast<std::size_t>(k)] = target;
    }
  }

  dfa.num_states_ = ids.size();
  dfa.accepting_ = std::move(accepting);
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
  // Hopcroft's refinement. A splitter block B splits every block, per
  // class k, into the states whose k-successor lies in B and the rest;
  // the smaller part of each split becomes a splitter. Each state then
  // lies in O(log n) splitters, so the work is O(n k log n).
  using Index = std::uint32_t;
  const std::size_t n = static_cast<std::size_t>(num_states_);
  const std::size_t classes = static_cast<std::size_t>(num_classes_);
  const auto successor = [&](std::size_t state, std::size_t k) {
    return static_cast<std::size_t>(transitions_[state * classes + k]);
  };

  // Predecessors per (class, target): pred[offset[k * n + t] ..
  // offset[k * n + t + 1]) lists every state whose k-successor is t.
  std::vector<Index> offset(n * classes + 1, 0);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t k = 0; k < classes; ++k) {
      ++offset[k * n + successor(s, k) + 1];
    }
  }
  std::partial_sum(offset.begin(), offset.end(), offset.begin());
  std::vector<Index> pred(n * classes);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t k = 0; k < classes; ++k) {
      pred[offset[k * n + successor(s, k)]++] = static_cast<Index>(s);
    }
  }
  // Filling moved each offset to the start of the next list; shift back.
  std::copy_backward(offset.begin(), offset.end() - 1, offset.end());
  offset[0] = 0;

  // The partition: each block is a range [first, past) of `elems`, and
  // `where` is a state's position there. Marking a state moves it into
  // the marked prefix of its block's range.
  std::vector<Index> elems;
  elems.reserve(n);
  for (const bool accepting : {false, true}) {
    for (std::size_t s = 0; s < n; ++s) {
      if (accepting_[s] == accepting) elems.push_back(static_cast<Index>(s));
    }
  }
  std::vector<Index> where(n);
  std::vector<Index> block_of(n);
  std::vector<Index> first;
  std::vector<Index> past;
  std::vector<Index> marked;
  const auto add_block = [&](Index from, Index to) {
    const auto block = static_cast<Index>(first.size());
    first.push_back(from);
    past.push_back(to);
    marked.push_back(0);
    for (Index i = from; i < to; ++i) {
      block_of[elems[i]] = block;
      where[elems[i]] = i;
    }
    return block;
  };
  const auto rejecting = static_cast<Index>(
      std::count(accepting_.begin(), accepting_.end(), false));
  const auto all = static_cast<Index>(n);
  std::vector<Index> splitters;
  if (rejecting == 0 || rejecting == all) {
    add_block(0, all);
  } else {
    add_block(0, rejecting);
    add_block(rejecting, all);
    splitters.push_back(rejecting <= all - rejecting ? 0 : 1);
  }

  std::vector<Index> preimage;
  std::vector<Index> touched;
  while (!splitters.empty()) {
    const Index splitter = splitters.back();
    splitters.pop_back();
    // Splits only permute states within a block's range, so this range
    // holds the splitter's states for every class, even after it splits.
    const Index lo = first[splitter];
    const Index hi = past[splitter];
    for (std::size_t k = 0; k < classes; ++k) {
      preimage.clear();
      for (Index i = lo; i < hi; ++i) {
        const std::size_t key = k * n + elems[i];
        preimage.insert(preimage.end(), pred.begin() + offset[key],
                        pred.begin() + offset[key + 1]);
      }
      // A state has one k-successor, so none appears here twice.
      for (const Index s : preimage) {
        const Index block = block_of[s];
        if (marked[block] == 0) touched.push_back(block);
        const Index to = first[block] + marked[block]++;
        const Index displaced = elems[to];
        elems[where[s]] = displaced;
        where[displaced] = where[s];
        elems[to] = s;
        where[s] = to;
      }
      for (const Index block : touched) {
        const Index split = first[block] + marked[block];
        marked[block] = 0;
        if (split == past[block]) continue;  // all marked: no split
        // The smaller part becomes a new block and a splitter; the larger
        // keeps the id, and with it any pending splitter entry.
        if (split - first[block] <= past[block] - split) {
          splitters.push_back(add_block(first[block], split));
          first[block] = split;
        } else {
          splitters.push_back(add_block(split, past[block]));
          past[block] = split;
        }
      }
      touched.clear();
    }
  }

  // Number the blocks in the order of their lowest state, the numbering
  // Moore's last round gives, and read each block's row off that state.
  std::vector<std::int32_t> number(first.size(), -1);
  std::vector<std::size_t> lowest;
  for (std::size_t s = 0; s < n; ++s) {
    std::int32_t& id = number[block_of[s]];
    if (id < 0) {
      id = static_cast<std::int32_t>(lowest.size());
      lowest.push_back(s);
    }
  }

  Dfa result;
  result.num_states_ = static_cast<int>(lowest.size());
  result.num_classes_ = num_classes_;
  result.byte_class_ = byte_class_;
  result.start_ = number[block_of[static_cast<std::size_t>(start_)]];
  result.transitions_.reserve(lowest.size() * classes);
  result.accepting_.reserve(lowest.size());
  for (const std::size_t s : lowest) {
    result.accepting_.push_back(accepting_[s]);
    for (std::size_t k = 0; k < classes; ++k) {
      result.transitions_.push_back(number[block_of[successor(s, k)]]);
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
