// fsup_perfbench: runs one workload of the repository benchmark in this process.
//
//   fsup_perfbench --workload rendezvous|echo|lifecycle --seed N --seconds S --trace 0|1
//                  [--setup-only]
//
// perfbench/run.py builds this program and drives it; see perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/src/trace.hpp"
#include "perfbench/src/workloads.hpp"

namespace perfbench {

uint64_t g_start_ns = 0;

// Priority 101 runs before every default-priority static initialiser, the library's too.
__attribute__((constructor(101))) static void StampStart() { g_start_ns = NowNs(); }

void PrintReady(uint64_t ready_ns, uint64_t input_ns) {
  std::printf("{\"start_ns\": %llu, \"ready_ns\": %llu, \"input_ns\": %llu}\n",
              static_cast<unsigned long long>(g_start_ns),
              static_cast<unsigned long long>(ready_ns),
              static_cast<unsigned long long>(input_ns));
  std::fflush(stdout);
}

}  // namespace perfbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: fsup_perfbench --workload rendezvous|echo|lifecycle --seed N "
               "--seconds S --trace 0|1 [--setup-only]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const bool has_value = i + 1 < argc;
    if (std::strcmp(a, "--workload") == 0 && has_value) {
      workload = argv[++i];
    } else if (std::strcmp(a, "--seed") == 0 && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(a, "--seconds") == 0 && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(a, "--trace") == 0 && has_value) {
      o.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (std::strcmp(a, "--setup-only") == 0) {
      o.setup_only = true;
    } else {
      return Usage();
    }
  }
  if (!(o.seconds > 0 && o.seconds <= 600)) {
    return Usage();
  }
  if (workload == "rendezvous") {
    return perfbench::RunRendezvous(o);
  }
  if (workload == "echo") {
    return perfbench::RunEcho(o);
  }
  if (workload == "lifecycle") {
    return perfbench::RunLifecycle(o);
  }
  return Usage();
}
