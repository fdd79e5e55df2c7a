// Deterministic finite automata: subset construction, minimization,
// equivalence checking.
//
// The anonymizer uses DFAs for the paper's language computation (Section
// 4.4: "we can find the language accepted by the regexp by simply applying
// the regexp to a list of all 2^16 ASNs"). Instead of running the DFA on
// 65,536 strings, asn::TokenLanguage walks it digit by digit from the
// start state and prunes every state that cannot reach acceptance
// (AliveStates), so a pattern naming a few ASNs costs a few transitions.
// Minimization and DFA->regex conversion implement the paper's mentioned
// extension of emitting a compact regexp for the anonymized language.
//
// The alphabet is compressed into byte-equivalence classes computed from the
// NFA's transition sets, so a DFA stores one transition per class per state.
//
// State numbers are part of the contract, not an accident of the
// algorithms: DfaToRegex's output (and so every `--minimized-regexps`
// rewrite) depends on them, and tests/test_dfa_reference.cpp pins both
// numberings against reference implementations.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "regex/nfa.h"

namespace confanon::regex {

class Dfa {
 public:
  /// Builds a total DFA (with an explicit dead state) from `nfa` via subset
  /// construction. Byte classes are numbered by their lowest byte. States
  /// are numbered in discovery order: the start subset is 0, a LIFO
  /// worklist pops one subset at a time, steps it on each class in id
  /// order, and numbers each new subset (the dead state is the empty
  /// subset) as it appears. Near-linear in the NFA and DFA sizes: one
  /// pass per distinct edge set for the classes, then one pass over each
  /// subset's steps.
  static Dfa FromNfa(const Nfa& nfa);

  /// True if the DFA accepts exactly `subject` (caller handles framing).
  bool FullMatch(std::string_view subject) const;

  /// Hopcroft's partition refinement over per-class predecessor lists,
  /// O(n k log n); the result is the unique minimal total DFA for the same
  /// language, with the same byte classes. Blocks are numbered in the order
  /// of their lowest state, the numbering Moore's refinement ends with.
  /// Minimizing a minimal DFA returns it unchanged.
  Dfa Minimize() const;

  /// Language equivalence via synchronized product walk.
  bool EquivalentTo(const Dfa& other) const;

  /// True if no accepting state is reachable (empty language).
  bool IsEmptyLanguage() const;

  /// Per state, whether some accepting state is reachable from it, via
  /// backward reachability over the transition graph. Walks over the DFA
  /// prune transitions into non-alive states (the explicit dead state and
  /// any trap region): no accepted string extends through them.
  std::vector<bool> AliveStates() const;

  int StateCount() const { return num_states_; }
  int start() const { return start_; }
  bool IsAccepting(int state) const {
    return accepting_[static_cast<std::size_t>(state)];
  }
  int NumClasses() const { return num_classes_; }
  int ClassOf(char c) const {
    return byte_class_[static_cast<unsigned char>(c)];
  }
  int TransitionByClass(int state, int byte_class) const {
    return transitions_[static_cast<std::size_t>(state) *
                            static_cast<std::size_t>(num_classes_) +
                        static_cast<std::size_t>(byte_class)];
  }
  int Transition(int state, char c) const {
    return TransitionByClass(state, ClassOf(c));
  }
  /// A representative CharSet for each byte-equivalence class.
  CharSet ClassChars(int byte_class) const;

 private:
  int num_states_ = 0;
  int num_classes_ = 0;
  int start_ = 0;
  std::array<std::int16_t, 256> byte_class_{};
  std::vector<std::int32_t> transitions_;  // num_states x num_classes
  std::vector<bool> accepting_;
};

}  // namespace confanon::regex
