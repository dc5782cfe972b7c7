// ECO server daemon: owns a generated benchmark and serves concurrent edit
// sessions over an AF_UNIX socket speaking the `--eco` line grammar
// (src/serve/protocol.hpp). This is the binary the chaos harness
// (tools/chaos_eco.py) SIGKILLs mid-resolve: the journal + checkpoint make
// every restart land bit-identically on the acknowledged state.
//
//   eco_served --socket PATH [options]
//     --socket <path>        AF_UNIX socket to listen on (required to serve)
//     --size <n>             synthetic grid edge (default 16)
//     --nets <n>             synthetic net count (default 120)
//     --layers <n>           metal layers (default 6)
//     --seed <n>             generator seed (default 1) — the same seed
//                            regenerates the same base design on restart
//     --ratio <r>            critical-net ratio (default 0.02)
//     --journal <path>       write-ahead delta journal (durability on)
//     --checkpoint <path>    checkpoint blob path
//     --checkpoint-every <n> checkpoint every N resolves (default 4)
//     --max-sessions <n>     admission limit (default 64)
//     --fault SITE:FIRST[:COUNT]  arm a fault site (repeatable), e.g.
//                            --fault serve.journal.fsync:2
//     --replay               recover from --journal on a fresh base, print
//                            "hash <hex>", and exit (no socket needed)
//     --print-hash           print "hash <hex>" after recovery, then serve
//     --quiet                warnings only
//
// SIGTERM/SIGINT stop the server cleanly (journal closed at a record
// boundary). SIGKILL is the interesting case — that is what recovery is for.

#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "examples/common.hpp"
#include "src/core/pipeline.hpp"
#include "src/gen/synth.hpp"
#include "src/serve/codec.hpp"
#include "src/serve/service.hpp"
#include "src/serve/socket_server.hpp"
#include "src/util/fault_inject.hpp"
#include "src/util/logging.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void handle_stop(int) { g_stop = 1; }

constexpr char kUsage[] =
    "usage: eco_served --socket PATH [--size N] [--nets N] [--layers N] [--seed N]\n"
    "                  [--ratio R] [--journal PATH] [--checkpoint PATH]\n"
    "                  [--checkpoint-every N] [--max-sessions N]\n"
    "                  [--fault SITE:FIRST[:COUNT]]...\n"
    "                  [--replay] [--print-hash] [--quiet]\n";

/// Arms every `--fault SITE:FIRST[:COUNT]` occurrence in argv.
bool arm_faults(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--fault") != 0) continue;
    const std::string spec = argv[i + 1];
    const std::size_t c1 = spec.find(':');
    const std::size_t c2 = c1 == std::string::npos ? c1 : spec.find(':', c1 + 1);
    const std::string site = spec.substr(0, c1);
    double first = 0.0, count = 1.0;
    using cpla::examples::parse_number;
    if (c1 == std::string::npos || c1 == 0 ||
        !parse_number(spec.substr(c1 + 1, c2 - c1 - 1).c_str(), 0, INT_MAX, true, &first) ||
        (c2 != std::string::npos &&
         !parse_number(spec.substr(c2 + 1).c_str(), 1, INT_MAX, true, &count))) {
      std::fprintf(stderr, "error: --fault expects SITE:FIRST[:COUNT], got %s\n%s",
                   spec.c_str(), kUsage);
      return false;
    }
    cpla::FaultInjector::instance().arm(site, static_cast<long>(first),
                                        static_cast<long>(count));
    std::fprintf(stderr, "armed fault %s at occurrence %.0f (count %.0f)\n", site.c_str(),
                 first, count);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cpla;
  using examples::arg_value;
  using examples::has_flag;
  using examples::int_arg;

  if (has_flag(argc, argv, "--help") || has_flag(argc, argv, "-h")) {
    std::printf("%s", kUsage);
    return 0;
  }
  if (has_flag(argc, argv, "--quiet")) set_log_level(LogLevel::kWarn);

  // Every flag and numeric value is checked before the base design is
  // prepared; an unknown flag or a bad value exits 2 with the usage line.
  examples::check_flags(argc, argv,
                        {"--socket", "--size", "--nets", "--layers", "--seed", "--ratio",
                         "--journal", "--checkpoint", "--checkpoint-every", "--max-sessions",
                         "--fault"},
                        {"--replay", "--print-hash", "--quiet"}, kUsage);
  gen::SynthSpec spec;
  spec.xsize = spec.ysize = int_arg(argc, argv, "--size", 16, 2, 4096, kUsage);
  spec.num_nets = int_arg(argc, argv, "--nets", 120, 1, INT_MAX, kUsage);
  spec.num_layers = int_arg(argc, argv, "--layers", 6, 2, 64, kUsage);
  spec.seed = static_cast<std::uint64_t>(int_arg(argc, argv, "--seed", 1, 0, INT_MAX, kUsage));
  serve::ServeOptions opt;
  opt.eco.critical_ratio =
      examples::number_arg(argc, argv, "--ratio", 0.02, 0.0, 1.0, false, kUsage);
  if (const char* p = arg_value(argc, argv, "--journal")) opt.journal_path = p;
  if (const char* p = arg_value(argc, argv, "--checkpoint")) opt.checkpoint_path = p;
  opt.checkpoint_every = int_arg(argc, argv, "--checkpoint-every", 4, 0, INT_MAX, kUsage);
  opt.max_sessions = int_arg(argc, argv, "--max-sessions", 64, 1, INT_MAX, kUsage);
  if (!arm_faults(argc, argv)) return 2;

  // The base design is regenerated from the seed on every start — exactly
  // what journal recovery requires: the genesis hash must match.
  core::Prepared prep = core::prepare(gen::generate(spec));

  if (has_flag(argc, argv, "--replay")) {
    // Reference recovery path: journal only, checkpoints ignored.
    if (opt.journal_path.empty()) {
      std::fprintf(stderr, "error: --replay needs --journal\n");
      return 1;
    }
    const Result<std::uint64_t> hash = serve::replay_journal(
        opt.journal_path, prep.design.get(), prep.state.get(), prep.rc.get(), opt.eco);
    if (!hash.is_ok()) {
      std::fprintf(stderr, "replay failed: %s\n", hash.status().to_string().c_str());
      return 1;
    }
    std::printf("hash %016llx\n", static_cast<unsigned long long>(hash.value()));
    return 0;
  }

  const char* socket_path = arg_value(argc, argv, "--socket");
  if (socket_path == nullptr) {
    std::fprintf(stderr, "error: --socket is required (or use --replay)\n");
    return 1;
  }

  // Handlers installed and the stop signals *blocked* before the listening
  // banner goes out: the chaos harness reacts to the banner, and a SIGTERM
  // landing before std::signal() would kill us by default action, while one
  // landing between the g_stop check and sigsuspend() would be lost and
  // leave the loop waiting forever. Blocking here and atomically unblocking
  // inside sigsuspend() closes both races. The block also precedes
  // service.start(): threads inherit the creating thread's mask, and a stop
  // signal delivered to the service worker (or its OpenMP pool) instead of
  // this thread would set g_stop without ever waking sigsuspend().
  std::signal(SIGTERM, handle_stop);
  std::signal(SIGINT, handle_stop);
  sigset_t stop_set;
  sigemptyset(&stop_set);
  sigaddset(&stop_set, SIGTERM);
  sigaddset(&stop_set, SIGINT);
  sigset_t wait_mask;
  sigprocmask(SIG_BLOCK, &stop_set, &wait_mask);
  sigdelset(&wait_mask, SIGTERM);
  sigdelset(&wait_mask, SIGINT);

  serve::EcoService service(prep.design.get(), prep.state.get(), prep.rc.get(), opt);
  const Status started = service.start();
  if (!started.is_ok()) {
    std::fprintf(stderr, "start failed: %s\n", started.to_string().c_str());
    return 1;
  }
  if (has_flag(argc, argv, "--print-hash")) {
    std::printf("hash %016llx\n", static_cast<unsigned long long>(service.snapshot()->hash));
  }

  serve::SocketServer server(&service, socket_path);
  const Status listening = server.start();
  if (!listening.is_ok()) {
    std::fprintf(stderr, "listen failed: %s\n", listening.to_string().c_str());
    service.stop();
    return 1;
  }
  // The harness waits for this exact line before connecting.
  std::printf("listening on %s\n", socket_path);
  std::fflush(stdout);

  while (g_stop == 0) sigsuspend(&wait_mask);  // atomically unblocks + waits

  std::printf("shutting down\n");
  server.stop();
  service.stop();
  return 0;
}
