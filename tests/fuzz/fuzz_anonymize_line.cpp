// libFuzzer harness over the per-line hot path.
//
// Bytes in, two properties out:
//
//  1. Tokenize/Render round-trip: for every line, Render() of the
//     untouched token vector must reproduce the input bytes exactly —
//     the zero-copy tokenizer may never lose or reorder a byte.
//  2. Anonymization never crashes: the full engine (IOS and JunOS rule
//     packs, including salted word hashing) must accept arbitrary input
//     without UB — crashes, sanitizer reports, or thrown-through
//     exceptions.
//
// Built only under -DCONFANON_FUZZ=ON. With a Clang toolchain the target
// links -fsanitize=fuzzer; elsewhere (the CI image ships GCC only) a
// standalone main() replays files passed on the command line, so the same
// binary doubles as a regression runner over tests/data/.
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "config/document.h"
#include "config/tokenizer.h"
#include "core/anonymizer.h"
#include "junos/anonymizer.h"
#include "junos/tokenizer.h"

namespace {

void CheckRoundTrip(std::string_view line) {
  const confanon::config::LineTokens tokens =
      confanon::config::TokenizeLine(line);
  if (tokens.Render() != line) __builtin_trap();

  confanon::junos::JunosLine junos_line;
  confanon::junos::TokenizeJunosLineInto(line, junos_line);
  if (junos_line.Render() != line) __builtin_trap();
}

void AnonymizeBoth(const std::string& text) {
  const auto file = confanon::config::ConfigFile::FromText("fuzz.cfg", text);
  {
    confanon::core::AnonymizerOptions options;
    options.salt = "fuzz-salt";
    confanon::core::Anonymizer engine(options);
    (void)engine.AnonymizeNetwork({file});
  }
  {
    confanon::junos::JunosAnonymizerOptions options;
    options.salt = "fuzz-salt";
    confanon::junos::JunosAnonymizer engine(options);
    (void)engine.AnonymizeNetwork({file});
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);

  // Per-line round-trip on the raw tokenizers (no rewrites fired).
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find('\n', start);
    const std::size_t stop = end == std::string::npos ? text.size() : end;
    CheckRoundTrip(std::string_view(text).substr(start, stop - start));
    if (end == std::string::npos) break;
    start = end + 1;
  }

  AnonymizeBoth(text);
  return 0;
}

#if !defined(CONFANON_FUZZ_LIBFUZZER)
// Standalone replay driver for toolchains without -fsanitize=fuzzer:
// feeds every file named on the command line through the fuzz entry
// point once. Exit 0 means no property tripped.
#include <iostream>

#include "util/io.h"

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string error;
    const auto bytes = confanon::util::ReadFileFully(argv[i], &error);
    if (!bytes) {
      std::cerr << error << "\n";
      return 1;
    }
    LLVMFuzzerTestOneInput(
        reinterpret_cast<const std::uint8_t*>(bytes->data()), bytes->size());
    std::cout << "replayed " << argv[i] << " (" << bytes->size()
              << " bytes)\n";
  }
  return 0;
}
#endif
