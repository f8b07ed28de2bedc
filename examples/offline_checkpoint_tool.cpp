// Checkpoint/resume driver for the packed FTF solver — the CLI behind the
// offline-resume-smoke CI job.  It solves one fixed seeded instance
// (p = 2, 5 pages/core, 48 requests/core, K = 4, tau = 2 — the E8 /
// BENCH_OFFLINE family) and prints a one-line JSON summary, so a shell
// script can kill a checkpointed solve mid-way, resume it, and diff the
// resumed schedule against an uninterrupted run:
//
//   offline_checkpoint_tool --schedule-out clean.txt
//   offline_checkpoint_tool --checkpoint s.ckpt --kill-after 2   # dies: KILL
//   offline_checkpoint_tool --checkpoint s.ckpt --resume --schedule-out r.txt
//   diff clean.txt resumed.txt
//
// --kill-after N arms the solver's halt-after-checkpoints hook and converts
// the resulting SolveInterrupted into raise(SIGKILL): the process dies
// uncleanly (no unwinding, no atexit) right after the Nth checkpoint write,
// leaving exactly the on-disk state of a solve killed at that boundary.
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "offline/checkpoint.hpp"
#include "offline/ftf_solver.hpp"
#include "workload/workload.hpp"

namespace {

using namespace mcp;

OfflineInstance demo_instance() {
  CoreWorkload core;
  core.pattern = AccessPattern::kUniform;
  core.num_pages = 5;
  core.length = 48;
  OfflineInstance inst;
  inst.requests = make_workload(homogeneous_spec(2, core, true, 78));
  inst.cache_size = 4;
  inst.tau = 2;
  return inst;
}

std::uint64_t schedule_hash(const std::vector<PageId>& schedule) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over the victim list
  for (const PageId page : schedule) {
    h ^= static_cast<std::uint64_t>(page);
    h *= 1099511628211ULL;
  }
  return h;
}

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --checkpoint PATH    checkpoint file (enables checkpointing)\n"
      << "  --every N            checkpoint every N settled buckets (def 1)\n"
      << "  --resume             resume from --checkpoint instead of fresh\n"
      << "  --kill-after N       raise SIGKILL after the Nth checkpoint\n"
      << "  --ram-budget BYTES   interner spill budget (0 = unbounded)\n"
      << "  --segment-bytes B    spill segment granularity\n"
      << "  --schedule-out FILE  write the eviction schedule, one per line\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  FtfOptions options;
  options.build_schedule = true;
  std::string schedule_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "error: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--checkpoint") {
      options.checkpoint.path = value();
    } else if (arg == "--every") {
      options.checkpoint.every =
          static_cast<std::uint32_t>(std::stoul(value()));
    } else if (arg == "--resume") {
      options.checkpoint.resume = true;
    } else if (arg == "--kill-after") {
      options.checkpoint.halt_after_checkpoints =
          static_cast<std::uint32_t>(std::stoul(value()));
    } else if (arg == "--ram-budget") {
      options.storage.ram_bytes = std::stoul(value());
    } else if (arg == "--segment-bytes") {
      options.storage.segment_bytes = std::stoul(value());
    } else if (arg == "--schedule-out") {
      schedule_out = value();
    } else {
      return usage(argv[0]);
    }
  }

  try {
    const FtfResult result = solve_ftf(demo_instance(), options);
    if (!schedule_out.empty()) {
      std::ofstream out(schedule_out);
      for (const PageId page : result.schedule) out << page << '\n';
      if (!out) {
        std::cerr << "error: cannot write " << schedule_out << '\n';
        return 2;
      }
    }
    std::cout << "{\"min_faults\": " << result.min_faults
              << ", \"states_expanded\": " << result.states_expanded
              << ", \"states_stored\": " << result.states_stored
              << ", \"bytes_spilled\": " << result.bytes_spilled
              << ", \"resumed\": " << (result.resumed ? "true" : "false")
              << ", \"schedule_hash\": " << schedule_hash(result.schedule)
              << "}\n";
  } catch (const SolveInterrupted&) {
    // Die the hard way — the checkpoint on disk is all that survives, which
    // is precisely what the resume smoke wants to test.
    std::raise(SIGKILL);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
  return 0;
}
