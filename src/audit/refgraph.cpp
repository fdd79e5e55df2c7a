#include "audit/refgraph.h"

#include <span>
#include <string_view>

#include "audit/tokenized.h"
#include "junos/tokenizer.h"

namespace confanon::audit {

namespace {

/// Keywords that can appear among `match community` / `set community`
/// operands without being list names.
bool IsCommunityOperandKeyword(std::string_view lower) {
  return lower == "additive" || lower == "none" || lower == "internet" ||
         lower == "no-export" || lower == "no-advertise" ||
         lower == "local-as" || lower == "exact" || lower == "exact-match";
}

class IosRefExtractor {
 public:
  explicit IosRefExtractor(std::vector<RefEvent>& out) : out_(out) {}

  void Line(std::span<const std::string_view> words,
            std::span<const std::string_view> lower, std::uint32_t line_no) {
    if (words.empty() || words[0].front() == '!') return;
    const auto emit = [&](SymbolSpace space, bool is_def,
                          std::string_view name) {
      out_.push_back(RefEvent{space, is_def, std::string(name), line_no});
    };

    // --- definitions ---
    if (lower[0] == "interface" && words.size() >= 2) {
      emit(SymbolSpace::kInterface, true, words[1]);
      return;
    }
    if (lower[0] == "route-map" && words.size() >= 2) {
      emit(SymbolSpace::kRouteMap, true, words[1]);
      return;
    }
    if (lower[0] == "access-list" && words.size() >= 2) {
      emit(SymbolSpace::kAcl, true, words[1]);
      return;
    }
    if (lower[0] == "key" && words.size() >= 3 && lower[1] == "chain") {
      emit(SymbolSpace::kKeyChain, true, words[2]);
      return;
    }
    if (lower[0] == "ip" && words.size() >= 3) {
      if (lower[1] == "access-list" && words.size() >= 4 &&
          (lower[2] == "standard" || lower[2] == "extended")) {
        emit(SymbolSpace::kAcl, true, words[3]);
        return;
      }
      if (lower[1] == "prefix-list") {
        emit(SymbolSpace::kPrefixList, true, words[2]);
        return;
      }
      if (lower[1] == "community-list") {
        const std::size_t name_at =
            (lower[2] == "standard" || lower[2] == "expanded") ? 3 : 2;
        if (name_at < words.size()) {
          emit(SymbolSpace::kCommunityList, true, words[name_at]);
        }
        return;
      }
      if (lower[1] == "as-path" && words.size() >= 4 &&
          lower[2] == "access-list") {
        emit(SymbolSpace::kAsPathList, true, words[3]);
        return;
      }
      if (lower[1] == "nat" && words.size() >= 4 && lower[2] == "pool") {
        emit(SymbolSpace::kNatPool, true, words[3]);
        return;
      }
      if (lower[1] == "nat" && lower[2] == "inside") {
        // `ip nat inside source list <acl> pool <name> ...`
        for (std::size_t i = 3; i + 1 < words.size(); ++i) {
          if (lower[i] == "list") emit(SymbolSpace::kAcl, false, words[i + 1]);
          if (lower[i] == "pool") {
            emit(SymbolSpace::kNatPool, false, words[i + 1]);
          }
        }
        return;
      }
    }

    // --- uses ---
    if (lower[0] == "neighbor" && words.size() >= 3) {
      if (words.size() == 3 && lower[2] == "peer-group") {
        emit(SymbolSpace::kPeerGroup, true, words[1]);
        return;
      }
      if (words.size() >= 4) {
        if (lower[2] == "route-map") {
          emit(SymbolSpace::kRouteMap, false, words[3]);
        } else if (lower[2] == "prefix-list") {
          emit(SymbolSpace::kPrefixList, false, words[3]);
        } else if (lower[2] == "filter-list") {
          emit(SymbolSpace::kAsPathList, false, words[3]);
        } else if (lower[2] == "distribute-list") {
          emit(SymbolSpace::kAcl, false, words[3]);
        } else if (lower[2] == "peer-group") {
          emit(SymbolSpace::kPeerGroup, false, words[3]);
        } else if (lower[2] == "update-source") {
          emit(SymbolSpace::kInterface, false, words[3]);
        }
      }
      return;
    }
    if (lower[0] == "match" && words.size() >= 3) {
      if (lower[1] == "as-path") {
        for (std::size_t i = 2; i < words.size(); ++i) {
          emit(SymbolSpace::kAsPathList, false, words[i]);
        }
      } else if (lower[1] == "community") {
        for (std::size_t i = 2; i < words.size(); ++i) {
          if (!IsCommunityOperandKeyword(lower[i])) {
            emit(SymbolSpace::kCommunityList, false, words[i]);
          }
        }
      } else if (lower[1] == "ip" && words.size() >= 4 &&
                 lower[2] == "address") {
        if (lower[3] == "prefix-list") {
          for (std::size_t i = 4; i < words.size(); ++i) {
            emit(SymbolSpace::kPrefixList, false, words[i]);
          }
        } else {
          for (std::size_t i = 3; i < words.size(); ++i) {
            emit(SymbolSpace::kAcl, false, words[i]);
          }
        }
      }
      return;
    }
    if (lower[0] == "distribute-list" && words.size() >= 2) {
      emit(SymbolSpace::kAcl, false, words[1]);
      return;
    }
    if (lower[0] == "access-class" && words.size() >= 2) {
      emit(SymbolSpace::kAcl, false, words[1]);
      return;
    }
    if (lower[0] == "passive-interface" && words.size() >= 2) {
      emit(SymbolSpace::kInterface, false, words[1]);
      return;
    }
    // `ip authentication key-chain eigrp <as> <chain>` and friends.
    for (std::size_t i = 0; i + 1 < words.size(); ++i) {
      if (lower[i] == "key-chain" && i > 0) {
        emit(SymbolSpace::kKeyChain, false, words.back());
        return;
      }
    }
  }

 private:
  std::vector<RefEvent>& out_;
};

/// JunOS extraction walks the brace structure: statements end at ';' (a
/// leaf) or '{' (a block whose head keyword is pushed on the path stack).
/// A statement can span lines; its words stay views into the file's
/// TokenizedFile, which outlives the extractor.
class JunosRefExtractor {
 public:
  explicit JunosRefExtractor(std::vector<RefEvent>& out) : out_(out) {}

  void Line(std::span<const junos::Token> tokens,
            std::span<const std::string_view> lower, std::uint32_t line_no) {
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      const junos::Token& token = tokens[i];
      switch (token.kind) {
        case junos::Token::Kind::kWord:
        case junos::Token::Kind::kString:
          statement_.push_back(Word{token.text, lower[i]});
          break;
        case junos::Token::Kind::kPunct:
          if (token.text == "{") {
            OpenBlock(line_no);
          } else if (token.text == "}") {
            if (!path_.empty()) path_.pop_back();
            statement_.clear();
          } else if (token.text == ";") {
            CloseStatement(line_no);
          }
          // "[" / "]" group list values inside one statement: ignored.
          break;
        case junos::Token::Kind::kComment:
          break;
      }
    }
  }

 private:
  void Emit(SymbolSpace space, bool is_def, std::string_view name,
            std::uint32_t line_no) {
    out_.push_back(RefEvent{space, is_def, std::string(name), line_no});
  }

  void OpenBlock(std::uint32_t line_no) {
    if (!statement_.empty()) {
      const std::string_view head = statement_[0].lower;
      if (head == "policy-statement" && statement_.size() >= 2) {
        Emit(SymbolSpace::kRouteMap, true, statement_[1].text, line_no);
      } else if (head == "prefix-list" && statement_.size() >= 2) {
        Emit(SymbolSpace::kPrefixList, true, statement_[1].text, line_no);
      } else if (head == "group" && statement_.size() >= 2) {
        Emit(SymbolSpace::kPeerGroup, true, statement_[1].text, line_no);
      } else if (statement_.size() == 1 && !path_.empty() &&
                 path_.back() == "interfaces") {
        Emit(SymbolSpace::kInterface, true, statement_[0].text, line_no);
      }
      path_.push_back(head);
    } else {
      path_.emplace_back();
    }
    statement_.clear();
  }

  void CloseStatement(std::uint32_t line_no) {
    if (statement_.empty()) return;
    const std::string_view head = statement_[0].lower;
    const auto& s = statement_;
    if (head == "import" || head == "export") {
      for (std::size_t i = 1; i < s.size(); ++i) {
        if (s[i].text == "[" || s[i].text == "]") continue;
        Emit(SymbolSpace::kRouteMap, false, s[i].text, line_no);
      }
    } else if (head == "prefix-list" && s.size() >= 2) {
      Emit(SymbolSpace::kPrefixList, false, s[1].text, line_no);
    } else if (head == "as-path") {
      if (s.size() >= 3) {
        // `as-path NAME "regex";` is a definition; `as-path NAME;` a use.
        Emit(SymbolSpace::kAsPathList, true, s[1].text, line_no);
      } else if (s.size() == 2) {
        Emit(SymbolSpace::kAsPathList, false, s[1].text, line_no);
      }
    } else if (head == "community" && s.size() >= 2) {
      bool has_members = false;
      for (std::size_t i = 2; i < s.size(); ++i) {
        if (s[i].lower == "members") has_members = true;
      }
      Emit(SymbolSpace::kCommunityList, has_members, s[1].text, line_no);
    } else if (head == "interface" && s.size() >= 2) {
      Emit(SymbolSpace::kInterface, false, s[1].text, line_no);
    }
    statement_.clear();
  }

  struct Word {
    std::string_view text;
    std::string_view lower;
  };

  std::vector<RefEvent>& out_;
  std::vector<Word> statement_;
  /// Lowercase head keyword of each open block.
  std::vector<std::string_view> path_;
};

}  // namespace

const char* SymbolSpaceName(SymbolSpace space) {
  switch (space) {
    case SymbolSpace::kAcl:
      return "access-list";
    case SymbolSpace::kRouteMap:
      return "route-map";
    case SymbolSpace::kPrefixList:
      return "prefix-list";
    case SymbolSpace::kCommunityList:
      return "community-list";
    case SymbolSpace::kAsPathList:
      return "as-path-list";
    case SymbolSpace::kPeerGroup:
      return "peer-group";
    case SymbolSpace::kInterface:
      return "interface";
    case SymbolSpace::kKeyChain:
      return "key-chain";
    case SymbolSpace::kNatPool:
      return "nat-pool";
  }
  return "symbol";
}

std::vector<RefEvent> ExtractRefs(const TokenizedFile& text) {
  std::vector<RefEvent> out;
  if (text.dialect() == Dialect::kJunos) {
    // Block comments span lines; no statement may start inside one.
    JunosRefExtractor extractor(out);
    for (std::size_t i = 0; i < text.line_count(); ++i) {
      if (text.kind(i) == TokenizedFile::LineKind::kBlockComment) continue;
      extractor.Line(text.tokens(i), text.lower(i),
                     static_cast<std::uint32_t>(i));
    }
  } else {
    // Banner bodies are free prose and are dropped by the anonymizer;
    // skipping them keeps pre and post event sequences comparable.
    IosRefExtractor extractor(out);
    for (std::size_t i = 0; i < text.line_count(); ++i) {
      if (text.kind(i) != TokenizedFile::LineKind::kText) continue;
      extractor.Line(text.words(i), text.lower(i),
                     static_cast<std::uint32_t>(i));
    }
  }
  return out;
}

}  // namespace confanon::audit
