// Ablation study of the CPLA design choices DESIGN.md documents beyond the
// paper's text. Each row disables exactly one mechanism relative to the
// default configuration and reports Avg(Tcp) / Max(Tcp) / runtime on two
// benchmarks (lower is better; the "default" row is the reference).
//
//   default           full flow
//   jacobi            snapshot-solve-commit-all partitions (no Gauss-Seidel)
//   no-polish         skip the coordinate-descent polish after rounding
//   no-guard          commit the rounded pick even if it regresses the model
//   no-rlt            drop the RLT product rows from the SDP relaxation
//   no-max-focus      gamma = 0: no global worst-net weighting
//   flat-weights      branch floor = 1.0: plain formulation (4a) weights
//   no-displace       no victim displacement (non-critical nets frozen)
//   no-refine         no max-shaving refinement rounds

// Usage: ablation_cpla [--quick] [--seed N] [--metrics-out FILE]
// (--quick runs a small synthetic smoke instance — the CI bench-smoke job)
//
// Every landed state is checked independently (bench::check_landed_state);
// the artifact records validated = 1, and any failure exits nonzero.

#include <limits>

#include "bench/harness.hpp"

int main(int argc, char** argv) {
  using namespace cpla;
  const bench::BenchArgs args = bench::parse_bench_args(&argc, argv);
  bench::BenchReport report("ablation_cpla", args);
  set_log_level(LogLevel::kWarn);
  std::printf("=== Ablation: CPLA design choices ===\n\n");

  struct Config {
    const char* name;
    core::CplaOptions opt;
  };
  std::vector<Config> configs;
  {
    Config c{"default", {}};
    configs.push_back(c);
  }
  {
    Config c{"jacobi", {}};
    c.opt.commit_batch = std::numeric_limits<int>::max();  // one batch per round
    configs.push_back(c);
  }
  {
    Config c{"no-polish", {}};
    c.opt.model.polish = false;
    configs.push_back(c);
  }
  {
    Config c{"no-guard", {}};
    c.opt.model.incumbent_guard = false;
    configs.push_back(c);
  }
  {
    Config c{"no-rlt", {}};
    c.opt.model.rlt_rows = false;
    configs.push_back(c);
  }
  {
    Config c{"no-max-focus", {}};
    c.opt.model.max_focus_gamma = 0.0;
    configs.push_back(c);
  }
  {
    Config c{"flat-weights", {}};
    c.opt.model.branch_weight = 1.0;
    c.opt.model.max_focus_gamma = 0.0;
    configs.push_back(c);
  }
  {
    Config c{"no-displace", {}};
    c.opt.displace_victims = false;
    configs.push_back(c);
  }
  {
    Config c{"no-refine", {}};
    c.opt.max_refine_rounds = 0;
    configs.push_back(c);
  }

  // CI smoke: one small synthetic instance with a raised critical ratio so
  // every mechanism in the ablation list actually fires.
  std::vector<std::pair<std::string, bench::BenchRun>> runs;
  if (args.quick) {
    gen::SynthSpec spec;
    spec.name = "smoke";
    spec.xsize = spec.ysize = 24;
    spec.num_nets = 300;
    spec.seed = 7 + (args.seed - 1) * 0x9e3779b97f4a7c15ull;
    runs.emplace_back("smoke", bench::make_run_spec(spec, 0.02));
  } else {
    for (const char* name : {"adaptec1", "bigblue1"}) {
      runs.emplace_back(name, bench::make_run(name, 0.005, args.seed));
    }
  }

  Table table({"bench", "config", "Avg(Tcp)", "Max(Tcp)", "CPU(s)"});
  bool validated = true;
  for (auto& [name, run] : runs) {
    for (const Config& config : configs) {
      const bench::FlowOutcome out = bench::run_cpla_flow(&run, config.opt);
      const std::string invalid = bench::check_landed_state(run, out.metrics);
      if (!invalid.empty()) {
        std::fprintf(stderr, "ablation_cpla: FAIL %s.%s: %s\n", name.c_str(), config.name,
                     invalid.c_str());
        validated = false;
      }
      report.record_flow(name + "." + config.name, out);
      table.add_row({name, config.name, fmt_num(out.metrics.avg_tcp / 1e3, 2),
                     fmt_num(out.metrics.max_tcp / 1e3, 2), fmt_num(out.seconds, 2)});
    }
  }
  table.print(stdout);
  report.record_value("validated", validated ? 1.0 : 0.0);
  return report.write() && validated ? 0 : 1;
}
