// Writes a generator-produced corpus to a directory, for driving the
// anonymizer and the map-free auditor from the command line (this is what
// the CI audit gate uses: gen_corpus -> confanon_tool -> confanon_audit).
//
// Usage:
//   gen_corpus OUTDIR [--routers N] [--seed S] [--ios|--junos|--mixed]
//
// One network is generated deterministically from the seed; each router's
// config lands in OUTDIR as <hostname>.cfg, or as <hostname>-<index>.cfg
// when an earlier router of the run already took that hostname (large
// networks repeat names), so every router gets its own file. --mixed
// alternates dialects per router (even index IOS, odd JunOS) to exercise
// auto-detection.
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <set>
#include <string>

#include "config/document.h"
#include "gen/config_writer.h"
#include "gen/network_gen.h"
#include "junos/writer.h"
#include "util/io.h"

namespace {

enum class Mode { kIos, kJunos, kMixed };

void Usage() {
  std::cerr << "usage: gen_corpus OUTDIR [--routers N] [--seed S] "
               "[--ios|--junos|--mixed]\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_dir;
  int routers = 12;
  std::uint64_t seed = 1;
  Mode mode = Mode::kIos;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--routers") {
      routers = std::atoi(next());
    } else if (arg == "--seed") {
      seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--ios") {
      mode = Mode::kIos;
    } else if (arg == "--junos") {
      mode = Mode::kJunos;
    } else if (arg == "--mixed") {
      mode = Mode::kMixed;
    } else if (!arg.empty() && arg[0] == '-') {
      Usage();
      return 2;
    } else if (out_dir.empty()) {
      out_dir = arg;
    } else {
      Usage();
      return 2;
    }
  }
  if (out_dir.empty() || routers <= 0) {
    Usage();
    return 2;
  }

  confanon::gen::GeneratorParams params;
  params.seed = seed;
  params.router_count = routers;
  const confanon::gen::NetworkSpec network =
      confanon::gen::GenerateNetwork(params, 0);

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::cerr << "gen_corpus: cannot create " << out_dir << ": "
              << ec.message() << "\n";
    return 1;
  }

  std::size_t written = 0;
  std::set<std::string> taken;  // file stems written so far
  confanon::util::BufferedWriter out;  // one buffer reused across configs
  for (std::size_t i = 0; i < network.routers.size(); ++i) {
    const bool junos =
        mode == Mode::kJunos || (mode == Mode::kMixed && i % 2 == 1);
    const confanon::config::ConfigFile file =
        junos ? confanon::junos::WriteJunosConfig(network.routers[i], network)
              : confanon::gen::WriteConfig(network.routers[i], network);
    std::string stem = file.name();
    if (!taken.insert(stem).second) {
      stem += "-" + std::to_string(i);
      taken.insert(stem);
    }
    const auto path = std::filesystem::path(out_dir) / (stem + ".cfg");
    std::string error;
    if (!out.Open(path.string(), &error)) {
      std::cerr << "gen_corpus: " << error << "\n";
      return 1;
    }
    file.AppendTo(out);
    if (!out.Close()) {
      std::cerr << "gen_corpus: " << out.error() << "\n";
      return 1;
    }
    ++written;
  }
  std::cout << "gen_corpus: wrote " << written << " configs to " << out_dir
            << "\n";
  return 0;
}
